"""Post-hoc calibration transforms: temperature, vector, and matrix scaling.

Temperature scaling divides logits by a fitted scalar T and never
changes the predicted class. Vector and matrix scaling fit per-class
affine maps and may trade accuracy for likelihood; both strictly
contain the temperature family, so their fitted NLL can only be lower.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .documents import SCHEMA_VERSION, check_version, read_json, write_json
from .errors import InvalidInputError, LabelsRequiredError, OptimizationError
from .metrics import PredictionBatch
from .numerics import (
    finite_array, is_finite_number, log_softmax, reduce_classes, row_blocks,
)

# Search bounds for the temperature. Wide enough to contain every
# plausible optimum while keeping softmax(z/T) numerically sane;
# boundary returns are meaningful (degenerate all-correct/all-wrong fits).
T_MIN = 0.05
T_MAX = 20.0

# Newton/bisection on beta = 1/T stops once a step moves beta by at most
# this fraction. Bisection alone gets there from the full bracket in under
# 40 steps, so hitting the cap means the search failed.
NEWTON_REL_TOL = 1e-10
NEWTON_MAX_ITER = 100

# Damped Newton-CG for the vector/matrix fits stops once the exact NLL's
# gradient norm is below AFFINE_GRAD_TOL; bench-cell fits take 7-25 steps.
# A step moves the parameters by at most 1, so an optimum far from the warm
# start or at infinity (separable data, a class absent from the labels) can
# run to the cap, and the fit then reports converged=False.
AFFINE_MAX_ITER = 100
AFFINE_GRAD_TOL = 1e-6
_ARMIJO_C = 1e-4
_ARMIJO_MAX_HALVINGS = 50


@dataclass(frozen=True)
class Calibrator:
    """A fitted post-hoc transform applied to logits.

    kind is one of "identity", "temperature", "vector", "matrix".
    ``converged`` is False when a vector/matrix fit stopped before the
    exact NLL's gradient norm fell below AFFINE_GRAD_TOL (the iteration
    cap, or no decrease left in floating point); the temperature fit
    raises instead. It is a warning flag and never blocks applying the
    calibrator. ``scale``, ``bias`` and ``weight``, where given, are
    finite float64 arrays.
    """

    kind: str
    temperature: float | None = None
    scale: np.ndarray | None = None
    bias: np.ndarray | None = None
    weight: np.ndarray | None = None
    converged: bool = True

    def __post_init__(self):
        if self.kind not in ("identity", "temperature", "vector", "matrix"):
            raise InvalidInputError(f"unknown calibrator kind {self.kind!r}")
        if self.kind == "temperature":
            t = self.temperature
            if not is_finite_number(t) or not T_MIN <= t <= T_MAX:
                raise InvalidInputError(f"temperature must be a number in [{T_MIN}, {T_MAX}], got {t!r}")
        if not isinstance(self.converged, bool):
            raise InvalidInputError(f"converged must be true or false, got {self.converged!r}")
        for name, ndim in (("scale", 1), ("bias", 1), ("weight", 2)):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, finite_array(value, f"calibrator {name}", ndim))
        c = len(self.bias) if self.bias is not None else None
        if self.kind == "vector" and (c is None or np.shape(self.scale) != (c,)):
            raise InvalidInputError("vector calibrator needs 1-D scale and bias of equal length")
        if self.kind == "matrix" and (c is None or np.shape(self.weight) != (c, c)):
            raise InvalidInputError("matrix calibrator needs a square weight matching its bias")

    def apply(self, batch):
        """Transform a batch's logits; labels are carried through unchanged."""
        z = batch.logits
        if self.bias is not None and self.bias.shape != (batch.num_classes,):
            raise InvalidInputError(f"{self.kind} calibrator dimensions do not match batch")
        if self.kind == "temperature":
            z = z / self.temperature
        elif self.kind == "vector":
            z = z * self.scale
            z += self.bias
        elif self.kind == "matrix":
            z = z @ self.weight.T
            z += self.bias
        # One fresh array, frozen, goes into the batch without a copy.
        z.setflags(write=False)
        return PredictionBatch(logits=z, labels=batch.labels)


def identity():
    return Calibrator(kind="identity")


def _checked_soft_labels(batch, soft_labels):
    """The (n, C) soft-label matrix, or None to use the batch's hard labels."""
    if soft_labels is None:
        if not batch.has_labels:
            raise LabelsRequiredError("temperature fitting requires hard or soft labels")
        return None
    soft_labels = finite_array(soft_labels, "soft labels", 2)
    if soft_labels.shape != batch.logits.shape or soft_labels.min() < 0:
        raise InvalidInputError("soft labels must be a nonnegative (n, C) matrix matching the logits")
    return soft_labels


def fit_temperature(batch, soft_labels=None):
    """Fit the temperature minimizing the exact mean NLL over [T_MIN, T_MAX].

    With hard labels that NLL is ``metrics.mean_nll(cal.apply(batch))``.
    ``soft_labels`` (an (n, C) matrix) overrides the batch's hard labels
    and turns the objective into cross-entropy against soft targets.

    With ``d = z - rowmax(z)``, ``d_y`` the target's share of ``d`` and
    ``s`` the target mass per row (1 for hard labels), the per-sample NLL
    in the inverse temperature beta = 1/T is ``s * log(sum(exp(beta*d))) -
    beta * d_y``: convex, with gradient ``s * E_p[d] - d_y`` and curvature
    ``s * Var_p[d]`` under ``p = softmax(beta*d)``. The search is a
    safeguarded Newton/bisection root-find of the mean gradient on
    [1/T_MAX, 1/T_MIN]. When the NLL still falls at a bound (slope >= 0
    at beta = 1/T_MAX, or <= 0 at beta = 1/T_MIN), that bound is returned:
    it is the constrained optimum, not a failed search. Raises
    OptimizationError if the search does not converge.

    Each gradient pass walks the logits in blocks of ``numerics.BLOCK_ROWS``
    rows, so the fit holds O(n + BLOCK_ROWS * C) floats next to the logits,
    and every row's terms are averaged over all n rows at once: the fitted
    T is the same, bit for bit, whatever the block size.
    """
    soft_labels = _checked_soft_labels(batch, soft_labels)
    z = batch.logits
    rowmax = reduce_classes(np.maximum, z)
    blocks = row_blocks(batch.n)
    # One block x C buffer each for d = z - rowmax(z) and for exp(beta * d).
    d_buf = np.empty((blocks[0].stop, batch.num_classes))
    e_buf = np.empty_like(d_buf)

    def shifted(rows):
        d = d_buf[: rows.stop - rows.start]
        np.subtract(z[rows], rowmax[rows], out=d)
        return d

    d_y = np.empty(batch.n)
    mass = np.ones(batch.n)
    for rows in blocks:
        d = shifted(rows)
        if soft_labels is None:
            d_y[rows] = d[np.arange(len(d)), batch.labels[rows]]
        else:
            d_y[rows] = np.einsum("ij,ij->i", soft_labels[rows], d)
            mass[rows] = reduce_classes(np.add, soft_labels[rows])[:, 0]
    row_slope = np.empty(batch.n)
    row_curvature = np.empty(batch.n)

    def slope_and_curvature(beta):
        for rows in blocks:
            # A single block's d is still in its buffer from the pass above.
            d = shifted(rows) if len(blocks) > 1 else d_buf
            e = e_buf[: len(d)]
            np.multiply(d, beta, out=e)
            np.exp(e, out=e)
            total = reduce_classes(np.add, e)[:, 0]
            mean_d = np.einsum("ij,ij->i", e, d) / total
            var_d = np.einsum("ij,ij,ij->i", e, d, d) / total - mean_d**2
            row_slope[rows] = mass[rows] * mean_d - d_y[rows]
            row_curvature[rows] = mass[rows] * var_d
        slope = float(np.mean(row_slope))
        if not math.isfinite(slope):
            raise OptimizationError(f"NLL gradient is not finite at T={1.0 / beta!r}", probe=1.0 / beta)
        return slope, float(np.mean(row_curvature))

    lo, hi = 1.0 / T_MAX, 1.0 / T_MIN
    if slope_and_curvature(lo)[0] >= 0.0:
        return Calibrator(kind="temperature", temperature=T_MAX)
    if slope_and_curvature(hi)[0] <= 0.0:
        return Calibrator(kind="temperature", temperature=T_MIN)

    # Newton steps on the increasing gradient, kept inside the sign bracket
    # [lo, hi]; a step that leaves the bracket, or does not at least halve
    # the step before last, falls back to bisection. The bracket spans a
    # factor of 400, so it is halved in log beta.
    beta, step, last_step = 1.0, hi - lo, hi - lo
    for _ in range(NEWTON_MAX_ITER):
        slope, curvature = slope_and_curvature(beta)
        if slope > 0.0:
            hi = beta
        elif slope < 0.0:
            lo = beta
        else:
            break
        newton = -slope / curvature if curvature > 0.0 else np.inf
        if lo <= beta + newton <= hi and abs(newton) <= 0.5 * abs(last_step):
            last_step, step = step, newton
        else:
            last_step, step = step, np.sqrt(lo * hi) - beta
        beta += step
        if abs(step) <= NEWTON_REL_TOL * beta:
            break
    else:
        raise OptimizationError(
            f"temperature fit did not converge in {NEWTON_MAX_ITER} Newton/bisection steps",
            probe=1.0 / beta,
        )
    return Calibrator(kind="temperature", temperature=min(max(1.0 / beta, T_MIN), T_MAX))


class NllDecomposition(NamedTuple):
    total: float
    correct_term: float
    wrong_term: float
    n_correct: int
    n_wrong: int


def nll_decomposition(batch, temperature):
    """Split mean NLL at a temperature into correct- and wrong-prediction terms.

    The two splits pull the temperature in opposite directions: raising T
    flattens confidences, which hurts correct predictions and helps wrong
    ones. Satisfies total == (n_c/n) * correct + (n_w/n) * wrong.
    """
    if not batch.has_labels:
        raise LabelsRequiredError("nll decomposition requires labels")
    if not (is_finite_number(temperature) and temperature > 0):
        raise InvalidInputError(f"temperature must be a finite number > 0, got {temperature!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = batch.logits / temperature
        finite_array(scaled - reduce_classes(np.maximum, scaled), f"logits at T={temperature!r}", 2)
    logp = log_softmax(scaled)
    per_sample = -logp[np.arange(batch.n), batch.labels]
    correct = batch.correct()
    n_c = int(np.sum(correct))
    n_w = batch.n - n_c
    correct_term = float(np.mean(per_sample[correct])) if n_c else 0.0
    wrong_term = float(np.mean(per_sample[~correct])) if n_w else 0.0
    total = float(np.mean(per_sample))
    recomposed = (n_c * correct_term + n_w * wrong_term) / batch.n
    if abs(total - recomposed) > 1e-9:  # pragma: no cover - float identity
        raise InvalidInputError("decomposition identity violated beyond tolerance")
    return NllDecomposition(total, correct_term, wrong_term, n_c, n_w)


def _conjugate_gradient(matvec, rhs, rtol):
    """Solve ``matvec(s) = rhs`` for a symmetric positive definite operator by CG.

    Stops once the residual is at most ``rtol`` times ``|rhs|``; the iterates
    stay in the span of ``rhs`` and the operator's images of it.
    """
    s = np.zeros_like(rhs)
    r = rhs.copy()
    d = r.copy()
    rr = float(np.sum(r * r))
    stop = rtol**2 * rr
    for _ in range(rhs.size):
        if rr <= stop:
            break
        q = matvec(d)
        alpha = rr / float(np.sum(d * q))
        s += alpha * d
        r -= alpha * q
        rr, rr_last = float(np.sum(r * r)), rr
        d = r + (rr / rr_last) * d
    return s


def _fit_affine(batch, theta, mask):
    """Minimize the exact affine NLL by damped Newton-CG from ``theta``.

    ``theta = [W | b]`` is a (C, C+1) matrix acting on the features
    ``x = [z, 1]``, so the calibrated logits are ``x @ theta.T``. Only the
    entries where ``mask`` is 1 are free: the diagonal of W and b for
    vector scaling, everything for matrix scaling.

    The NLL is the mean cross-entropy by log-softmax, with no probability
    clamp: convex and smooth (multinomial logistic regression on x), with
    gradient ``(p - onehot)^T x / n`` and Hessian-vector product
    ``(p * (u - rowsum(p * u)))^T x / n`` for ``u = x v^T``. Each step
    solves ``(H + |g| I) s = -g`` by conjugate gradients to a relative
    residual of ``min(0.5, sqrt(|g|))``, then backtracks (Armijo) on the
    exact NLL. The damping ``|g|`` makes the system positive definite
    despite softmax's shift invariance and bounds every step by 1, so
    separable data, whose optimum lies at infinity, never overflows. Memory
    is O(n C): the (C(C+1))^2 Hessian is never formed.

    Descent is monotone, so the result's NLL never exceeds the warm
    start's. Returns the parameters and whether the gradient norm fell
    below AFFINE_GRAD_TOL within AFFINE_MAX_ITER steps.
    """
    n = batch.n
    x = np.hstack([batch.logits, np.ones((n, 1))])
    rows, labels = np.arange(n), batch.labels

    def nll_and_probs(theta):
        logp = log_softmax(x @ theta.T)
        return float(np.mean(-logp[rows, labels])), np.exp(logp)

    nll, p = nll_and_probs(theta)
    for _ in range(AFFINE_MAX_ITER):
        resid = p.copy()
        resid[rows, labels] -= 1.0
        grad = mask * (resid.T @ x) / n
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm < AFFINE_GRAD_TOL:
            return theta, True

        def damped_hessian(v, p=p, damping=grad_norm):
            u = x @ v.T
            u -= reduce_classes(np.add, p * u)
            return mask * ((p * u).T @ x) / n + damping * v

        step = _conjugate_gradient(damped_hessian, -grad, min(0.5, math.sqrt(grad_norm)))
        slope = float(np.sum(grad * step))
        t = 1.0
        for _ in range(_ARMIJO_MAX_HALVINGS):
            cand = theta + t * step
            cand_nll, cand_p = nll_and_probs(cand)
            if cand_nll <= nll + _ARMIJO_C * t * slope:
                break
            t *= 0.5
        else:
            return theta, False  # no decrease left in floating point
        theta, nll, p = cand, cand_nll, cand_p
    return theta, False


def fit_vector(batch):
    """Per-class scale and bias minimizing the exact mean NLL (Newton-CG).

    Seeded from the fitted temperature (scale = 1/T, zero bias) and
    improved by monotone descent, so the result is never worse than
    temperature scaling on the fitting set. ``converged`` is True when the
    NLL gradient norm fell below AFFINE_GRAD_TOL.
    """
    t = fit_temperature(batch).temperature
    c = batch.num_classes
    eye = np.eye(c)
    theta, converged = _fit_affine(
        batch, np.hstack([eye / t, np.zeros((c, 1))]), np.hstack([eye, np.ones((c, 1))])
    )
    return Calibrator(
        kind="vector", scale=np.diag(theta).copy(), bias=theta[:, c].copy(), converged=converged
    )


def fit_matrix(batch):
    """Full affine map on logits minimizing the exact mean NLL (Newton-CG).

    Seeded from the fitted vector scaler (its diagonal embedding) and
    improved by monotone descent, so the result is never worse than
    vector scaling on the fitting set. ``converged`` is True when the NLL
    gradient norm fell below AFFINE_GRAD_TOL.
    """
    seed = fit_vector(batch)
    c = batch.num_classes
    theta, converged = _fit_affine(
        batch, np.hstack([np.diag(seed.scale), seed.bias[:, None]]), np.ones((c, c + 1))
    )
    return Calibrator(
        kind="matrix", weight=theta[:, :c].copy(), bias=theta[:, c].copy(), converged=converged
    )


def calibrator_to_dict(calibrator):
    doc = {"schema_version": SCHEMA_VERSION, "kind": calibrator.kind, "converged": calibrator.converged}
    if calibrator.temperature is not None:
        doc["temperature"] = calibrator.temperature
    for name in ("scale", "bias", "weight"):
        if getattr(calibrator, name) is not None:
            doc[name] = getattr(calibrator, name).tolist()
    return doc


def calibrator_from_dict(doc):
    check_version(doc, "calibrator")
    return Calibrator(
        kind=doc.get("kind"),
        temperature=doc.get("temperature"),
        scale=doc.get("scale"),
        bias=doc.get("bias"),
        weight=doc.get("weight"),
        converged=doc.get("converged", True),
    )


def save_calibrator(calibrator, path):
    write_json(calibrator_to_dict(calibrator), path, indent=2)


def load_calibrator(path):
    return read_json(path, calibrator_from_dict)
