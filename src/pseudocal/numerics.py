"""Dense-array primitives: softmax, log-softmax, class-axis reductions, row-blocked argmax and
finiteness, and the one check of each kind of caller value: arrays, scalars, names and lists."""

import contextlib
import math
import numbers

import numpy as np

from .errors import InvalidInputError

# Row-blocked kernels walk an (n, C) matrix this many rows at a time, so
# their temporaries take O(BLOCK_ROWS * C) memory instead of O(n * C).
BLOCK_ROWS = 4096


# numpy reduces a contiguous axis shorter than this one element at a time,
# left to right; from this length on it sums in unrolled pairwise order.
SEQUENTIAL_AXIS_LIMIT = 8


def reduce_classes(ufunc, a, out=None):
    """``ufunc.reduce`` over the last (class) axis, kept, bit for bit as numpy computes it.

    Below SEQUENTIAL_AXIS_LIMIT classes this runs one ufunc call per class
    column in numpy's own left-to-right order, which skips numpy's per-row
    reduction overhead. From that limit on, numpy's order differs, so its
    own reduction runs. ``out``, if given, is the ``a.shape[:-1] + (1,)``
    array the result is written to and returned as.
    """
    if a.ndim == 0 or not 1 <= a.shape[-1] < SEQUENTIAL_AXIS_LIMIT:
        return ufunc.reduce(a, axis=-1, keepdims=True, out=out)
    if out is None:
        out = np.empty_like(a[..., :1])
    # numpy's reduction starts from the ufunc's identity where it has one,
    # so with np.add a row of -0.0 sums to +0.0.
    if ufunc.identity is None:
        np.copyto(out, a[..., :1])
    else:
        ufunc(a[..., :1], ufunc.identity, out=out)
    for j in range(1, a.shape[-1]):
        ufunc(out, a[..., j : j + 1], out=out)
    return out


def _logit_stack(z, what):
    """``z`` as a finite float64 array of any dimensionality, with at least one class."""
    z = finite_array(z, f"{what} logits", None)
    if z.shape[-1:] == (0,):
        raise InvalidInputError(f"{what} logits need at least one class")
    return z


def softmax(z):
    """Numerically stable softmax along the last axis.

    Accepts a single logit vector or any stack of row vectors, such as an
    (n, C) matrix.
    """
    z = _logit_stack(z, "softmax")
    e = np.exp(z - reduce_classes(np.maximum, z))
    e /= reduce_classes(np.add, e)
    return e


def is_integer(value):
    """An integer that is not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def checked_number(value, what, integer=False, rule="", ok=lambda v: True):
    """``value`` as a plain int if ``integer``, else a plain float: the one door for caller scalars.

    It takes an integer that is not a bool (or, unless ``integer``, any
    finite real number), numpy scalars included, for which ``ok`` holds
    of the converted value. Anything else raises InvalidInputError
    ``"<what> must be an integer<rule>, got <value!r>"``, with ``a finite
    number`` for a float.
    """
    if isinstance(value, numbers.Integral if integer else numbers.Real) and not isinstance(value, bool):
        with contextlib.suppress(OverflowError):  # float() of an int too large for a float
            number = int(value) if integer else float(value)
            if (integer or math.isfinite(number)) and ok(number):
                return number
    kind = "an integer" if integer else "a finite number"
    raise InvalidInputError(f"{what} must be {kind}{rule}, got {value!r}")


def checked_choice(value, what, names):
    """``value`` as a plain str if it is one of ``names``: the one door for caller names.

    Anything else raises InvalidInputError ``"unknown <what> <value!r>;
    expected one of <names>"``.
    """
    if isinstance(value, str) and value in names:
        return str(value)
    raise InvalidInputError(f"unknown {what} {value!r}; expected one of {', '.join(names)}")


def listed(values, what):
    """``values`` as a non-empty list of ``what``, no value twice: the one door for caller lists.

    Anything else raises InvalidInputError; a value given twice raises
    ``"<what> <value!r> is listed more than once"`` before any value is checked.
    """
    try:
        if isinstance(values, (str, bytes)):  # iterable, but one value, not a list of them
            raise TypeError
        values = list(values)
    except TypeError:
        raise InvalidInputError(f"{what}s must be a list, got {values!r}") from None
    if not values:
        raise InvalidInputError(f"need at least one {what}")
    for i, value in enumerate(values):
        with contextlib.suppress(ValueError):  # an array has no truth value; its own check rejects it
            if value in values[i + 1 :]:
                raise InvalidInputError(f"{what} {value!r} is listed more than once")
    return values


def finite_array(values, what, ndim, integer=False):
    """``values`` as an ``ndim``-D array of finite numbers: float64, or int64 if ``integer``.

    ``ndim`` None takes any number of dimensions. An array that already is
    one is not copied. Anything else (strings, None, booleans, ragged
    nesting, NaN, infinities) raises InvalidInputError.
    """
    try:
        array = np.asarray(values)
    except ValueError as exc:  # ragged nesting
        raise InvalidInputError(f"{what} is not an array: {exc}") from exc
    if ndim not in (None, array.ndim) or array.dtype.kind not in ("iu" if integer else "iuf"):
        shape = "an array" if ndim is None else f"a {ndim}-D array"
        kind = "integers" if integer else "numbers"
        raise InvalidInputError(
            f"{what} must be {shape} of {kind}, got {array.dtype} {array.shape}"
        )
    if array.dtype.kind == "f":  # an integer array holds only finite values
        check_finite(array, f"{what} must be finite, found non-finite values")
    return array.astype(np.int64 if integer else np.float64, copy=False)


def frozen_copy(values, what, ndim, integer=False):
    """A read-only copy of ``finite_array``'s array: no caller's array can change it."""
    array = finite_array(values, what, ndim, integer).copy()
    array.setflags(write=False)
    return array


def class_indices(values, n_rows, n_classes, what):
    """``values`` as ``n_rows`` (None: any number of) int64 class indices in [0, n_classes).

    Floats, booleans and strings raise InvalidInputError rather than being cast.
    """
    labels = finite_array(values, what, 1, integer=True)
    rows = len(labels) if n_rows is None else n_rows
    if labels.shape != (rows,) or np.any(labels < 0) or np.any(labels >= n_classes):
        raise InvalidInputError(f"{what} must be {rows} class indices in [0, {n_classes})")
    return labels


def log_softmax(z):
    """Exact log of the softmax along the last axis, with no probability clamp.

    Computed as ``d - log(sum(exp(d)))`` with ``d = z - max(z)``, so a
    confidently wrong sample keeps its full loss instead of the ~27.6
    nats a 1e-12 probability clamp would cap it at.
    """
    z = _logit_stack(z, "log_softmax")
    d = z - reduce_classes(np.maximum, z)
    return d - np.log(reduce_classes(np.add, np.exp(d)))


def row_blocks(n):
    """Slices that cover rows 0..n in order, BLOCK_ROWS rows at a time."""
    return [slice(start, min(start + BLOCK_ROWS, n)) for start in range(0, n, BLOCK_ROWS)]


def check_finite(z, message):
    """Raise InvalidInputError(message) unless every entry of the array ``z`` is finite.

    Checks BLOCK_ROWS rows at a time, so the boolean mask is one block's
    size rather than the whole array's.
    """
    z = np.atleast_1d(z)
    for start in range(0, len(z), BLOCK_ROWS):
        if not np.isfinite(z[start : start + BLOCK_ROWS]).all():
            raise InvalidInputError(message)


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
