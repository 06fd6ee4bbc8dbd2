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

from .documents import SCHEMA_VERSION, check_document, read_json, write_json
from .errors import InvalidInputError, LabelsRequiredError, OptimizationError
from .metrics import PredictionBatch
from .numerics import (
    checked_choice, checked_number, finite_array, frozen_copy, log_softmax, reduce_classes, row_blocks,
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

# A hard-label fit on at least 8 * SAMPLE_ROWS rows first fits every
# (n // SAMPLE_ROWS)-th row, and its search starts from that sample's beta.
SAMPLE_ROWS = 2048

# Damped Newton-CG for the vector/matrix fits stops once the exact NLL's
# gradient norm is below AFFINE_GRAD_TOL; bench-cell fits take 7-25 steps.
# A step moves the parameters by at most 1, so an optimum far from the warm
# start or at infinity (separable data, a class absent from the labels) can
# run to the cap, and the fit then reports converged=False.
AFFINE_MAX_ITER = 100
AFFINE_GRAD_TOL = 1e-6
_ARMIJO_C = 1e-4
_ARMIJO_MAX_HALVINGS = 50


# Each calibrator kind's parameter fields and their array dimensions (0: a number).
_KIND_FIELDS = {
    "identity": {}, "temperature": {"temperature": 0},
    "vector": {"scale": 1, "bias": 1}, "matrix": {"weight": 2, "bias": 1},
}
_PARAMETERS = tuple(dict.fromkeys(name for fields in _KIND_FIELDS.values() for name in fields))


@dataclass(frozen=True)
class Calibrator:
    """A fitted post-hoc transform applied to logits.

    kind is one of "identity", "temperature", "vector", "matrix", and a
    calibrator holds exactly its kind's fields (``_KIND_FIELDS``), which
    are its document's keys next to ``kind`` and ``converged``.
    ``converged`` is False when a vector/matrix fit stopped before the
    exact NLL's gradient norm fell below AFFINE_GRAD_TOL (the iteration
    cap, or no decrease left in floating point); the temperature fit
    raises instead. It is a warning flag and never blocks applying the
    calibrator. ``temperature``, where set, is a Python float; ``scale``,
    ``bias`` and ``weight`` are read-only float64 copies.
    """

    kind: str
    temperature: float | None = None
    scale: np.ndarray | None = None
    bias: np.ndarray | None = None
    weight: np.ndarray | None = None
    converged: bool = True

    def __post_init__(self):
        object.__setattr__(self, "kind", checked_choice(self.kind, "calibrator kind", _KIND_FIELDS))
        fields = _KIND_FIELDS[self.kind]
        for name in _PARAMETERS:
            if name in fields and getattr(self, name) is None:
                raise InvalidInputError(f"{self.kind} calibrator needs {name}")
            if name not in fields and getattr(self, name) is not None:
                raise InvalidInputError(f"{self.kind} calibrator has no {name}")
        for name, ndim in fields.items():
            value = getattr(self, name)
            if ndim:
                value = frozen_copy(value, f"calibrator {name}", ndim)
            else:  # the temperature
                rule = f" in [{T_MIN}, {T_MAX}]"
                value = checked_number(value, name, False, rule, lambda v: T_MIN <= v <= T_MAX)
            object.__setattr__(self, name, value)
        if not isinstance(self.converged, bool):
            raise InvalidInputError(f"converged must be true or false, got {self.converged!r}")
        if self.kind == "vector" and self.scale.shape != self.bias.shape:
            raise InvalidInputError("vector calibrator needs 1-D scale and bias of equal length")
        if self.kind == "matrix" and self.weight.shape != 2 * self.bias.shape:
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

    The search starts at beta = 1. A hard-label fit on at least
    ``8 * SAMPLE_ROWS`` rows first runs the same search on every
    ``(n // SAMPLE_ROWS)``-th row, a strided view of the logits, and
    starts from that sample's beta instead: on 97,000 x 100 pseudo sets
    that took 3 to 5 full passes plus 0.15 of one for the sample, against
    7 from beta = 1. Both starts stop once a step moves beta by at most
    NEWTON_REL_TOL of it, so the two T may differ within that tolerance;
    on those sets they were the same bit for bit. The two searches share
    one pair of block buffers, so the sample allocates no block buffer of
    its own.

    A bound's slope is taken only when the answer may lie there: for an
    end of the bracket that no iterate has moved, at the second bisection
    step, or once the search stops if it bisected fewer times. Those
    probes never move the bracket, so the iterates, and T bit for bit, are
    those of a search from the same start that probes both bounds first;
    an interior optimum takes no pass at a bound, and a bound optimum up
    to three more than that search.

    Each gradient pass walks the logits in blocks of ``numerics.BLOCK_ROWS``
    rows, so the fit holds O(n + BLOCK_ROWS * C) floats next to the logits,
    and every row's terms are averaged over all n rows at once: the fitted
    T is the same, bit for bit, whatever the block size. A fit of one
    block keeps ``d`` from the pre-pass and subtracts the row max once.
    """
    soft_labels = _checked_soft_labels(batch, soft_labels)
    z, labels, n = batch.logits, batch.labels, batch.n
    # One block x C buffer each for d = z - rowmax(z) and for exp(beta * d),
    # shared by the sample's search and the whole set's.
    buffers = np.empty((2, row_blocks(n)[0].stop, batch.num_classes))
    beta = 1.0
    with np.errstate(over="ignore"):  # far-apart logits overflow d to -inf; the slope check names it
        if soft_labels is None and n >= 8 * SAMPLE_ROWS:
            every = slice(None, None, n // SAMPLE_ROWS)
            beta = 1.0 / _search(z[every], labels[every], None, beta, buffers)
        temperature = _search(z, labels, soft_labels, beta, buffers)
    return Calibrator(kind="temperature", temperature=temperature)


def _search(z, labels, soft_labels, beta, buffers):
    """The T that fit_temperature fits to logits ``z``, searched from ``beta``.

    ``soft_labels``, when not None, stands in for the hard ``labels``.
    ``buffers`` is a (2, rows, C) array of at least one block's rows: the
    search keeps d in the first and exp(beta * d) in the second.
    """
    n = len(z)
    blocks = row_blocks(n)
    d_buf, e_buf = buffers
    rowmax = np.empty((n, 1))

    def shifted(rows):
        d = d_buf[: rows.stop - rows.start]
        np.subtract(z[rows], rowmax[rows], out=d)
        return d

    # One read of the logits: each block's row max, then its target share of d.
    d_y = np.empty(n)
    mass = None if soft_labels is None else np.empty(n)  # None: 1 per row
    for rows in blocks:
        reduce_classes(np.maximum, z[rows], out=rowmax[rows])
        d = shifted(rows)
        if soft_labels is None:
            d_y[rows] = d[np.arange(len(d)), labels[rows]]
        else:
            d_y[rows] = np.einsum("ij,ij->i", soft_labels[rows], d)
            mass[rows] = reduce_classes(np.add, soft_labels[rows])[:, 0]
    row_slope = np.empty(n)
    row_curvature = np.empty(n)
    # A single block's d stays in d_buf from the pre-pass to the last pass.
    d_kept = len(blocks) == 1

    def slope_and_curvature(beta):
        for rows in blocks:
            d = d_buf[:n] if d_kept else shifted(rows)
            e = e_buf[: len(d)]
            np.multiply(d, beta, out=e)
            np.exp(e, out=e)
            total = reduce_classes(np.add, e)[:, 0]
            mean_d = np.einsum("ij,ij->i", e, d)
            mean_d /= total
            var_d = np.einsum("ij,ij,ij->i", e, d, d, out=row_curvature[rows])
            var_d /= total
            var_d -= mean_d**2
            if mass is not None:  # a unit mass would multiply each term by 1.0
                var_d *= mass[rows]
                mean_d *= mass[rows]
            np.subtract(mean_d, d_y[rows], out=row_slope[rows])
        # np.mean's own pairwise sum and division, without its Python wrapper.
        slope = float(np.add.reduce(row_slope) / n)
        if not math.isfinite(slope):
            raise OptimizationError(f"NLL gradient is not finite at T={1.0 / beta!r}")
        return slope, float(np.add.reduce(row_curvature) / n)

    def bound_optimum():
        """The bound T where the NLL still falls, at an end of [lo, hi] no iterate moved, or None."""
        # 1/T_MAX first: a flat NLL (every row a tie) is fitted with T_MAX.
        if lo == 1.0 / T_MAX and slope_and_curvature(lo)[0] >= 0.0:
            return T_MAX
        if hi == 1.0 / T_MIN and slope_and_curvature(hi)[0] <= 0.0:
            return T_MIN
        return None

    # Newton steps on the increasing gradient, kept inside the sign bracket
    # [lo, hi]; a step that leaves the bracket, or does not at least halve
    # the step before last, falls back to bisection. The bracket spans a
    # factor of 400, so it is halved in log beta.
    lo, hi = 1.0 / T_MAX, 1.0 / T_MIN
    step, last_step, bisections = hi - lo, hi - lo, 0
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
            bisections += 1
            if bisections == 2 and (bound := bound_optimum()) is not None:
                return bound
            last_step, step = step, np.sqrt(lo * hi) - beta
        beta += step
        if abs(step) <= NEWTON_REL_TOL * beta:
            break
    else:
        raise OptimizationError(
            f"temperature fit did not converge in {NEWTON_MAX_ITER} Newton/bisection steps"
        )
    if bisections < 2 and (bound := bound_optimum()) is not None:
        return bound
    return min(max(1.0 / beta, T_MIN), T_MAX)


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
    temperature = checked_number(temperature, "temperature", rule=" > 0", ok=lambda v: v > 0)
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
    return NllDecomposition(float(np.mean(per_sample)), correct_term, wrong_term, n_c, n_w)


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


def _fit_affine(batch, theta, logits_of, pullback):
    """Minimize the exact affine NLL by damped Newton-CG from ``theta``.

    ``logits_of(theta)`` gives the calibrated (n, C) logits and is linear
    in ``theta``; ``pullback(r)``, its adjoint, takes an (n, C) matrix back
    to ``theta``'s shape, so the solver works in the map's own parameters.
    The NLL is the mean cross-entropy by log-softmax, with no probability
    clamp: convex and smooth, with gradient ``pullback(p - onehot) / n``
    and Hessian-vector product ``pullback(p * (u - rowsum(p * u))) / n``
    for ``u = logits_of(v)``. Each step solves ``(H + |g| I) s = -g`` by
    conjugate gradients to a relative residual of ``min(0.5, sqrt(|g|))``,
    then backtracks (Armijo) on the exact NLL. The damping ``|g|`` makes
    the system positive definite despite softmax's shift invariance and
    bounds every step by 1, so separable data, whose optimum lies at
    infinity, never overflows. The Hessian is never formed.

    Descent is monotone, so the result's NLL never exceeds the warm
    start's. Returns the parameters and whether the gradient norm fell
    below AFFINE_GRAD_TOL within AFFINE_MAX_ITER steps.
    """
    n = batch.n
    rows, labels = np.arange(n), batch.labels

    def nll_and_probs(theta):
        logp = log_softmax(logits_of(theta))
        return float(np.mean(-logp[rows, labels])), np.exp(logp)

    nll, p = nll_and_probs(theta)
    # One pass more than there are steps, so the last step's gradient is tested too.
    for steps in range(AFFINE_MAX_ITER + 1):
        resid = p.copy()
        resid[rows, labels] -= 1.0
        grad = pullback(resid) / n
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm < AFFINE_GRAD_TOL:
            return theta, True
        if steps == AFFINE_MAX_ITER:
            break

        def damped_hessian(v, p=p, damping=grad_norm):
            u = logits_of(v)
            u -= reduce_classes(np.add, p * u)
            return pullback(p * u) / n + damping * v

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
    z, c, ones = batch.logits, batch.num_classes, np.ones(batch.n)

    def logits_of(theta):  # theta = [scale, bias], mapped as Calibrator.apply does
        u = z * theta[0]
        u += theta[1]
        return u

    def pullback(r):  # column sums as products with ones: numpy's axis-0 sum is slow at small C
        return np.array([ones @ (r * z), ones @ r])

    start = np.stack([np.full(c, 1.0 / t), np.zeros(c)])
    theta, converged = _fit_affine(batch, start, logits_of, pullback)
    return Calibrator(kind="vector", scale=theta[0], bias=theta[1], converged=converged)


def fit_matrix(batch):
    """Full affine map on logits minimizing the exact mean NLL (Newton-CG).

    Seeded from the fitted vector scaler (its diagonal embedding) and
    improved by monotone descent, so the result is never worse than
    vector scaling on the fitting set. ``converged`` is True when the NLL
    gradient norm fell below AFFINE_GRAD_TOL.
    """
    seed = fit_vector(batch)
    x = np.hstack([batch.logits, np.ones((batch.n, 1))])  # theta = [W | b] acts on [z, 1]
    start = np.hstack([np.diag(seed.scale), seed.bias[:, None]])
    theta, converged = _fit_affine(batch, start, lambda theta: x @ theta.T, lambda r: r.T @ x)
    return Calibrator(kind="matrix", weight=theta[:, :-1], bias=theta[:, -1], converged=converged)


def calibrator_to_dict(calibrator):
    doc = {"schema_version": SCHEMA_VERSION, "kind": calibrator.kind, "converged": calibrator.converged}
    for name in _KIND_FIELDS[calibrator.kind]:
        doc[name] = np.asarray(getattr(calibrator, name)).tolist()
    return doc


def calibrator_from_dict(doc):
    return Calibrator(**check_document(doc, "calibrator", ("kind",), ("converged",) + _PARAMETERS))


def save_calibrator(calibrator, path):
    write_json(calibrator_to_dict(calibrator), path, indent=2)


def load_calibrator(path):
    return read_json(path, calibrator_from_dict)
