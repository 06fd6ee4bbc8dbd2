"""Shared helpers and independent oracles used across the test suite.

The oracles here deliberately re-derive every quantity with plain loops
or dense grids so they stay independent of the library code paths they
check.
"""

import base64

import numpy as np

from pseudocal import metrics, pseudo_target, scalers, synthetic
from pseudocal.errors import InvalidInputError, TrainingError

T_MIN, T_MAX = 0.05, 20.0
PROB_EPS = 1e-12

TASK_ARRAYS = ("source_inputs", "source_labels", "target_inputs", "target_labels")


def list_form(doc):
    """A task document whose encoded arrays are the JSON lists that task documents first held.

    Decodes each ``{"base64", "dtype", "shape"}`` object with the base64
    module, not with the package's own decoder.
    """
    def listed(value):
        if not isinstance(value, dict):
            return value
        dtype = {"float64": "<f8", "int64": "<i8"}[value["dtype"]]
        data = base64.b64decode(value["base64"], validate=True)
        return np.frombuffer(data, dtype).reshape(value["shape"]).tolist()

    return {key: listed(value) if key in TASK_ARRAYS else value for key, value in doc.items()}


def nll(p, y):
    """Negative log-likelihood of one probability vector against a target.

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
    """Brier score (1/C) * sum_c (p_c - onehot(y)_c)^2 of one probability vector."""
    p = np.asarray(p, dtype=np.float64)
    c = p.shape[-1]
    y = int(y)
    if not 0 <= y < c:
        raise InvalidInputError(f"brier: class index {y} out of range for C={c}")
    onehot = np.zeros(c)
    onehot[y] = 1.0
    return float(np.sum((p - onehot) ** 2) / c)


def argmax_class(z):
    """Index of the maximal entry of one logit vector; ties break toward the lowest index."""
    z = np.asarray(z, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise InvalidInputError("argmax_class: logits must be finite")
    return int(np.argmax(z))


def two_hot(lam, pl_a, pl_b, n_classes):
    """Mixup's soft targets row by row: ``lam`` on class ``pl_a``, ``1 - lam`` on ``pl_b``."""
    soft = np.zeros((len(lam), n_classes))
    for i in range(len(lam)):
        soft[i, pl_a[i]] += lam[i]
        soft[i, pl_b[i]] += 1.0 - lam[i]
    return soft


def random_batch(rng, n_max=50, c_max=5, correct_bias=None):
    """A random labeled batch with a controllable fraction of correct labels."""
    n = int(rng.integers(2, n_max + 1))
    c = int(rng.integers(2, c_max + 1))
    z = rng.standard_normal((n, c)) * rng.uniform(0.3, 3.0)
    if correct_bias is None:
        correct_bias = rng.uniform(0.2, 1.0)
    y = np.where(
        rng.random(n) < correct_bias,
        np.argmax(z, axis=1),
        rng.integers(0, c, n),
    )
    return metrics.PredictionBatch(logits=z, labels=y)


def ece_bruteforce(logits, labels, num_bins):
    """Per-sample loop re-implementation of binned calibration error."""
    z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(labels)
    n, _ = z.shape
    probs = np.exp(z - z.max(axis=1, keepdims=True))
    probs = probs / probs.sum(axis=1, keepdims=True)
    conf = probs.max(axis=1)
    pred = probs.argmax(axis=1)
    edges = np.linspace(0.0, 1.0, num_bins + 1)

    total = 0.0
    for m in range(num_bins):
        members = []
        for i in range(n):
            in_bin = edges[m] < conf[i] <= edges[m + 1]
            if m == 0 and conf[i] == 0.0:
                in_bin = True
            if in_bin:
                members.append(i)
        if not members:
            continue
        acc = sum(1 for i in members if pred[i] == y[i]) / len(members)
        avg_conf = sum(conf[i] for i in members) / len(members)
        total += len(members) / n * abs(acc - avg_conf)
    return total


def grid_temperature(logits, labels, n_points=100_000, chunk=8000):
    """Dense log-spaced grid search for the NLL-minimizing temperature.

    ``labels`` holds hard class indices (length n) or soft labels (n x C).
    """
    z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(labels)
    grid = np.geomspace(T_MIN, T_MAX, n_points)
    n = len(y)
    m = z.max(axis=1)
    d = z - m[:, None]
    if y.ndim == 2:
        mass = y.sum(axis=1)
        gap = np.mean(mass * m - np.sum(y * z, axis=1))
    else:
        mass = np.ones(n)
        gap = np.mean(m - z[np.arange(n), y])
    best_v, best_t = np.inf, None
    for start in range(0, n_points, chunk):
        ts = grid[start : start + chunk]
        e = np.exp(d[None, :, :] / ts[:, None, None])
        vals = gap / ts + (mass * np.log(e.sum(axis=2))).mean(axis=1)
        i = int(np.argmin(vals))
        if vals[i] < best_v:
            best_v, best_t = float(vals[i]), float(ts[i])
    return best_t


def nll_slope_in_beta(logits, labels, beta):
    """dNLL/dbeta of the mean NLL of softmax(beta * z), by a plain per-row loop.

    ``labels`` holds hard class indices or soft labels, as in grid_temperature.
    """
    z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(labels)
    slopes = []
    for i in range(z.shape[0]):
        d = z[i] - z[i].max()
        p = np.exp(beta * d)
        p /= p.sum()
        target = y[i] if y.ndim == 2 else np.eye(z.shape[1])[y[i]]
        slopes.append(target.sum() * np.dot(p, d) - np.dot(target, d))
    return float(np.mean(slopes))


def unblocked_temperature(logits, labels):
    """The temperature fit on whole n x C arrays, as it stood before row blocking.

    The same safeguarded Newton/bisection search on beta = 1/T as
    scalers.fit_temperature, with d = z - rowmax(z) and exp(beta * d) held
    for all rows at once. ``labels`` holds hard class indices or soft
    labels, as in grid_temperature. Returns T as a Python float, as a
    Calibrator holds it.
    """
    z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(labels)
    d = z - np.max(z, axis=1, keepdims=True)
    if y.ndim == 2:
        y = y.astype(np.float64)
        d_y = np.einsum("ij,ij->i", y, d)
        mass = np.sum(y, axis=1)
    else:
        d_y = d[np.arange(len(y)), y]
        mass = 1.0
    e = np.empty_like(d)

    def slope_and_curvature(beta):
        np.multiply(d, beta, out=e)
        np.exp(e, out=e)
        total = np.sum(e, axis=1)
        mean_d = np.einsum("ij,ij->i", e, d) / total
        var_d = np.einsum("ij,ij,ij->i", e, d, d) / total - mean_d**2
        return float(np.mean(mass * mean_d - d_y)), float(np.mean(mass * var_d))

    lo, hi = 1.0 / T_MAX, 1.0 / T_MIN
    if slope_and_curvature(lo)[0] >= 0.0:
        return T_MAX
    if slope_and_curvature(hi)[0] <= 0.0:
        return T_MIN
    beta, step, last_step = 1.0, hi - lo, hi - lo
    for _ in range(scalers.NEWTON_MAX_ITER):
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
        if abs(step) <= scalers.NEWTON_REL_TOL * beta:
            break
    else:
        raise AssertionError("unblocked temperature fit did not converge")
    return float(min(max(1.0 / beta, T_MIN), T_MAX))


def member_by_member_train(task, seed, epochs, lr, gamma, track_history=False):
    """One classifier trained alone, as synthetic.train stood before members trained together.

    Full-batch gradient descent on source cross-entropy with numpy's own
    max/sum reductions in the softmax. Returns (weights, bias, history),
    with history None unless tracked; raises TrainingError at the first
    epoch with a non-finite score.
    """

    def softmax(z):
        e = np.exp(z - np.max(z, axis=-1, keepdims=True))
        return e / np.sum(e, axis=-1, keepdims=True)

    def mean_ce(probs, labels):
        picked = probs[np.arange(len(labels)), labels]
        return float(np.mean(-np.log(np.maximum(picked, PROB_EPS))))

    x, y = task.source_train_inputs, task.source_train_labels
    n, d = x.shape
    c = task.spec.n_classes
    w = 0.01 * np.random.default_rng(seed).standard_normal((d, c))
    b = np.zeros(c)
    onehot = np.zeros((n, c))
    onehot[np.arange(n), y] = 1.0
    history = []
    for epoch in range(1, epochs + 1):
        scores = x @ w + b
        if not np.all(np.isfinite(scores)):
            raise TrainingError(f"training diverged at epoch {epoch}", epoch=epoch)
        probs = softmax(scores)
        w = w - lr * (x.T @ (probs - onehot) / n)
        b = b - lr * np.mean(probs - onehot, axis=0)
        if track_history:
            t_logits = (task.target_inputs @ w + b) * gamma
            t_err = float(np.mean(np.argmax(t_logits, axis=1) != task.target_labels))
            t_nll = mean_ce(softmax(t_logits), task.target_labels)
            history.append((epoch, mean_ce(probs, y), t_err, t_nll))
    return w, b, np.asarray(history) if track_history else None


def affine_nll_gradient_norm(logits, labels, calibrator):
    """Norm of the exact mean-NLL gradient of a vector/matrix calibrator, by a per-row loop.

    The gradient is taken in the calibrator's own parameters: (scale, bias)
    for vector scaling, (weight, bias) for matrix scaling.
    """
    z = np.asarray(logits, dtype=np.float64)
    n, c = z.shape
    vector = calibrator.kind == "vector"
    weight = np.diag(calibrator.scale) if vector else np.asarray(calibrator.weight)
    grad_w, grad_b = np.zeros((c, c)), np.zeros(c)
    for i in range(n):
        s = weight @ z[i] + calibrator.bias
        p = np.exp(s - s.max())
        p /= p.sum()
        r = p - np.eye(c)[labels[i]]
        grad_w += np.outer(r, z[i]) / n
        grad_b += r / n
    if vector:
        grad_w = np.diag(grad_w)
    return float(np.sqrt(np.sum(grad_w**2) + np.sum(grad_b**2)))


BENCH_SPEC = dict(
    n_classes=5,
    dim=10,
    n_source=2000,
    n_target=2000,
    mean_shift=1.0,
    rotation=0.45,
)
BENCH_TRAIN = dict(epochs=400, lr=0.1, gamma=3.0)


def bench_setup(seed, target_priors=None):
    """The end-to-end benchmark cell: shifted task + sharpened classifier."""
    spec = synthetic.ShiftSpec(**BENCH_SPEC, target_priors=target_priors, seed=seed)
    task = synthetic.generate(spec)
    model = synthetic.train(task, **BENCH_TRAIN, seed=seed)
    logits = model.predict_logits(task.target_inputs)
    batch = metrics.PredictionBatch(logits=logits, labels=task.target_labels)
    return task, model, batch


def overflow_cell():
    """A 2-class target whose logit rows [1e308, -1e308] span more than the float range.

    The model scores the four target rows [1e308, -1e308], [0, 1], [1e308,
    -1e308], [0, 1], each wrong. Rows 0 and 2 put probability 0 on their
    label, so the mean NLL is infinite.
    """
    spec = synthetic.ShiftSpec(n_classes=2, dim=2, n_source=2, n_target=4)
    task = synthetic.SyntheticTask(
        spec=spec, target_inputs=[[1, 0], [0, 1], [1, 0], [0, 1]], target_labels=[1, 0, 1, 0]
    )
    model = synthetic.TrainedClassifier(weights=[[1e308, -1e308], [0, 1]], bias=[0, 0])
    return task, model


def chance_correspondence(pseudo, target_labels, seed, n_draws=20):
    """Simulation oracle: correspondence rate under label permutation."""
    rng = np.random.default_rng(seed)
    rates = [
        pseudo_target.correspondence_rate(pseudo, rng.permutation(target_labels))
        for _ in range(n_draws)
    ]
    return float(np.mean(rates))
