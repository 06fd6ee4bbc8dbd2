"""Dense-array primitives: softmax, log-softmax, a row-blocked argmax, and shared value checks."""

import math
import numbers

import numpy as np

from .errors import InvalidInputError

# Row-blocked kernels walk an (n, C) matrix this many rows at a time, so
# their temporaries take O(BLOCK_ROWS * C) memory instead of O(n * C).
BLOCK_ROWS = 4096


def softmax(z):
    """Numerically stable softmax along the last axis.

    Accepts a single logit vector or an (n, C) matrix of row vectors.
    """
    z = np.asarray(z, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise InvalidInputError("softmax: logits must be finite")
    shifted = z - np.max(z, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def is_integer(value):
    """An integer that is not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_finite_number(value):
    """A finite real number that is not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


def finite_array(values, what, ndim, integer=False):
    """``values`` as an ``ndim``-D array of finite numbers: float64, or int64 if ``integer``.

    An array that already is one is not copied. Anything else (strings,
    None, booleans, ragged nesting, NaN, infinities) raises InvalidInputError.
    """
    try:
        array = np.asarray(values)
    except ValueError as exc:  # ragged nesting
        raise InvalidInputError(f"{what} is not an array: {exc}") from exc
    if array.ndim != ndim or array.dtype.kind not in ("iu" if integer else "iuf"):
        kind = "integers" if integer else "numbers"
        raise InvalidInputError(
            f"{what} must be a {ndim}-D array of {kind}, got {array.dtype} {array.shape}"
        )
    if not np.all(np.isfinite(array)):
        raise InvalidInputError(f"non-finite values in {what}")
    return array.astype(np.int64 if integer else np.float64, copy=False)


def log_softmax(z):
    """Exact log of the softmax along the last axis, with no probability clamp.

    Computed as ``d - log(sum(exp(d)))`` with ``d = z - max(z)``, so a
    confidently wrong sample keeps its full loss instead of the ~27.6
    nats a 1e-12 probability clamp would cap it at.
    """
    z = np.asarray(z, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise InvalidInputError("log_softmax: logits must be finite")
    d = z - np.max(z, axis=-1, keepdims=True)
    return d - np.log(np.sum(np.exp(d), axis=-1, keepdims=True))


def row_blocks(n):
    """Slices that cover rows 0..n in order, BLOCK_ROWS rows at a time."""
    return [slice(start, min(start + BLOCK_ROWS, n)) for start in range(0, n, BLOCK_ROWS)]


def argmax_rows(z):
    """Column index of each row's maximum in an (n, C) matrix; ties break toward the lowest.

    numpy copies a read-only array whole before taking its argmax, and the
    logits ``pseudo_target.infer`` returns are read-only. Walking the rows
    in blocks bounds that copy to one block.
    """
    out = np.empty(len(z), dtype=np.intp)
    for rows in row_blocks(len(z)):
        np.argmax(z[rows], axis=1, out=out[rows])
    return out
