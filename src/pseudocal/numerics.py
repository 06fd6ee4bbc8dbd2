"""Dense-vector primitives: softmax, log-softmax, NLL, Brier.

Everything here is a pure function on immutable inputs. ``softmax``,
``nll`` and ``brier`` accept a single logit/probability vector; the
batched variants used elsewhere in the package are thin vectorizations
with identical per-sample semantics.
"""

import numpy as np

from .errors import InvalidInputError

# Logs of probabilities clamp here so that an exact zero stays finite.
# mean_nll and the temperature fit work from the logits with log_softmax
# instead: the clamp caps a confidently wrong sample's loss at ~27.6 nats,
# which can move the fitted optimum.
PROB_EPS = 1e-12


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


def log_softmax(z):
    """Exact log of the softmax along the last axis, with no probability clamp.

    Computed as ``d - log(sum(exp(d)))`` with ``d = z - max(z)``, so a
    confidently wrong sample keeps its full loss instead of the ~27.6
    nats a ``PROB_EPS`` clamp would cap it at.
    """
    z = np.asarray(z, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise InvalidInputError("log_softmax: logits must be finite")
    d = z - np.max(z, axis=-1, keepdims=True)
    return d - np.log(np.sum(np.exp(d), axis=-1, keepdims=True))


def nll(p, y):
    """Negative log-likelihood of a probability vector against a target.

    ``y`` is either a class index (treated as one-hot) or a probability
    vector of the same length as ``p``. Entries of ``p`` are clamped at
    ``PROB_EPS`` before the logarithm.
    """
    p = np.asarray(p, dtype=np.float64)
    logp = np.log(np.maximum(p, PROB_EPS))
    if np.ndim(y) == 0:
        y = int(y)
        if not 0 <= y < p.shape[-1]:
            raise InvalidInputError(f"nll: class index {y} out of range for C={p.shape[-1]}")
        return float(-logp[y])
    y = np.asarray(y, dtype=np.float64)
    if y.shape != p.shape:
        raise InvalidInputError("nll: soft target shape must match probability vector")
    return float(-np.dot(y, logp))


def brier(p, y):
    """Brier score (1/C) * sum_c (p_c - onehot(y)_c)^2."""
    p = np.asarray(p, dtype=np.float64)
    c = p.shape[-1]
    y = int(y)
    if not 0 <= y < c:
        raise InvalidInputError(f"brier: class index {y} out of range for C={c}")
    onehot = np.zeros(c)
    onehot[y] = 1.0
    return float(np.sum((p - onehot) ** 2) / c)


def argmax_class(z):
    """Index of the maximal entry; ties break toward the lowest index."""
    z = np.asarray(z, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise InvalidInputError("argmax_class: logits must be finite")
    return int(np.argmax(z))
