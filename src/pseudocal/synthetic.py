"""Desk-scale domain-shift harness.

Generates source/target Gaussian-cluster classification tasks with
controllable covariate shift (per-class mean translation plus an
in-plane rotation) and label shift (arbitrary target class priors,
including zeroed classes), trains a deliberately miscalibrated
multinomial logistic-regression classifier on the source, and exposes
it through the black-box inference contract used by the calibrators.
"""

from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .documents import SCHEMA_VERSION, check_version, read_json, write_json
from .errors import InvalidInputError, InvalidSpecError, TrainingError
from .numerics import (
    argmax_rows, class_indices, finite_array, is_finite_number, is_integer, listed, reduce_classes, softmax,
)

# Class means sit equally spaced on a circle of this radius in the first
# two coordinates; keeps classes from collapsing onto each other.
CLASS_RADIUS = 3.0

# Fraction of source samples reserved as the labeled validation split
# that the source-dependent baselines are allowed to see.
VAL_FRACTION = 0.25

DEFAULT_EPOCHS = 400
DEFAULT_LR = 0.1

# Logs of probabilities (the tracked training losses, the ensemble's
# log mean probability) clamp here so that an exact zero stays finite.
# mean_nll and the temperature fit work from the logits with log_softmax
# instead: the clamp caps a confidently wrong sample's loss at ~27.6 nats,
# which can move the fitted optimum.
PROB_EPS = 1e-12


@dataclass(frozen=True)
class ShiftSpec:
    """Parameters of a synthetic source/target classification problem."""

    n_classes: int = 5
    dim: int = 10
    n_source: int = 2000
    n_target: int = 2000
    mean_shift: float = 0.0
    rotation: float = 0.0
    target_priors: tuple | None = None
    cluster_std: float = 1.0
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type is int and not is_integer(value):
                raise InvalidSpecError(f"{f.name} must be an integer, got {value!r}")
            if f.type is float and not is_finite_number(value):
                raise InvalidSpecError(f"{f.name} must be a finite number, got {value!r}")
        if self.n_classes < 2:
            raise InvalidSpecError("need at least 2 classes")
        if self.dim < 2:
            raise InvalidSpecError("need dim >= 2 for the class-mean circle")
        if min(self.n_source, self.n_target) < self.n_classes:
            raise InvalidSpecError("sample counts must be at least the class count")
        if self.cluster_std <= 0 or self.seed < 0:
            raise InvalidSpecError("cluster_std must be positive and the seed nonnegative")
        if self.target_priors is not None:
            try:
                priors = finite_array(self.target_priors, "target priors", 1)
            except InvalidInputError as exc:
                raise InvalidSpecError(str(exc)) from None
            if priors.shape != (self.n_classes,):
                raise InvalidSpecError("target priors must have one entry per class")
            if np.any(priors < 0):
                raise InvalidSpecError("target priors must be nonnegative")
            total = priors.sum()
            if total == 0:
                raise InvalidSpecError("target priors cannot all be zero")
            if abs(total - 1.0) > 1e-9:
                raise InvalidSpecError("target priors must sum to 1")
            object.__setattr__(self, "target_priors", tuple(float(p) for p in priors))


@dataclass(frozen=True)
class SyntheticTask:
    """A generated source/target problem with labels held out for diagnostics.

    Inputs are finite float64 matrices and labels one class index per row
    (arrays of those dtypes are kept without a copy). ``val_fraction``
    must leave at least one source row to train on.
    """

    spec: ShiftSpec
    source_inputs: np.ndarray | None
    source_labels: np.ndarray | None
    target_inputs: np.ndarray
    target_labels: np.ndarray | None
    val_fraction: float = VAL_FRACTION

    def __post_init__(self):
        c = self.spec.n_classes
        target = finite_array(self.target_inputs, "target inputs", 2)
        object.__setattr__(self, "target_inputs", target)
        if self.has_target_labels:
            labels = class_indices(self.target_labels, len(target), c, "target labels")
            object.__setattr__(self, "target_labels", labels)
        if not 0.0 < self.val_fraction < 1.0:
            raise InvalidInputError(f"val_fraction must lie in (0, 1), got {self.val_fraction!r}")
        if self.has_source:
            source = finite_array(self.source_inputs, "source inputs", 2)
            object.__setattr__(self, "source_inputs", source)
            labels = class_indices(self.source_labels, len(source), c, "source labels")
            object.__setattr__(self, "source_labels", labels)
            if self._split_point() < 1:
                raise InvalidInputError(
                    f"val_fraction {self.val_fraction} leaves no source row to train on"
                )

    @property
    def has_source(self):
        return self.source_inputs is not None

    @property
    def has_target_labels(self):
        return self.target_labels is not None

    def _split_point(self):
        return int(round(self.source_inputs.shape[0] * (1.0 - self.val_fraction)))

    @property
    def source_train_inputs(self):
        return self.source_inputs[: self._split_point()]

    @property
    def source_train_labels(self):
        return self.source_labels[: self._split_point()]

    @property
    def source_val_inputs(self):
        return self.source_inputs[self._split_point() :]

    @property
    def source_val_labels(self):
        return self.source_labels[self._split_point() :]


def class_means(spec):
    """Equally spaced class means on a circle in the first two coordinates."""
    angles = 2.0 * np.pi * np.arange(spec.n_classes) / spec.n_classes
    means = np.zeros((spec.n_classes, spec.dim))
    means[:, 0] = CLASS_RADIUS * np.cos(angles)
    means[:, 1] = CLASS_RADIUS * np.sin(angles)
    return means


def _rotate_plane(points, angle):
    if angle == 0.0:
        return points
    out = points.copy()
    c, s = np.cos(angle), np.sin(angle)
    out[:, 0] = c * points[:, 0] - s * points[:, 1]
    out[:, 1] = s * points[:, 0] + c * points[:, 1]
    return out


def generate(spec):
    """Sample a SyntheticTask: Gaussian clusters, shifted for the target domain."""
    rng = np.random.default_rng(spec.seed)
    c, d = spec.n_classes, spec.dim

    src_means = class_means(spec)
    directions = rng.standard_normal((c, d))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    tgt_means = _rotate_plane(src_means, spec.rotation) + spec.mean_shift * directions

    uniform = np.full(c, 1.0 / c)
    src_labels = rng.choice(c, size=spec.n_source, p=uniform)
    src_inputs = src_means[src_labels] + spec.cluster_std * rng.standard_normal((spec.n_source, d))

    priors = np.asarray(spec.target_priors) if spec.target_priors is not None else uniform
    tgt_labels = rng.choice(c, size=spec.n_target, p=priors)
    tgt_inputs = tgt_means[tgt_labels] + spec.cluster_std * rng.standard_normal((spec.n_target, d))

    return SyntheticTask(
        spec=spec,
        source_inputs=src_inputs,
        source_labels=src_labels,
        target_inputs=tgt_inputs,
        target_labels=tgt_labels,
    )


# A train_config holds some of these keys, each value passing its check and stored as its type.
_TRAIN_CONFIG_CHECKS = {
    "epochs": (int, lambda v: is_integer(v) and v >= 1),
    "lr": (float, lambda v: is_finite_number(v) and v > 0),
    "gamma": (float, lambda v: is_finite_number(v) and v >= 1),
    "seed": (int, lambda v: is_integer(v) and v >= 0),
}


def _checked_train_config(config):
    if not isinstance(config, dict) or not all(
        _TRAIN_CONFIG_CHECKS.get(key, (None, lambda v: False))[1](value) for key, value in config.items()
    ):
        raise InvalidInputError(
            f"malformed train_config {config!r}: it takes integer epochs >= 1, finite lr > 0,"
            " finite gamma >= 1 and integer seed >= 0"
        )
    return {key: _TRAIN_CONFIG_CHECKS[key][0](value) for key, value in config.items()}


@dataclass(frozen=True)
class TrainedClassifier:
    """Multinomial logistic regression with confidence sharpening.

    Inference returns (X @ weights + bias) * gamma; gamma > 1 inflates
    confidence without moving any decision boundary. ``train_config``
    records how it was trained (the ensemble baseline trains its members
    the same way): some of epochs, lr, gamma and seed.
    """

    weights: np.ndarray
    bias: np.ndarray
    gamma: float = 1.0
    train_config: dict = field(default_factory=dict)
    history: np.ndarray | None = None

    def __post_init__(self):
        if not is_finite_number(self.gamma) or self.gamma < 1.0:
            raise InvalidInputError("gamma must be finite and >= 1")
        object.__setattr__(self, "train_config", _checked_train_config(self.train_config))
        weights = finite_array(self.weights, "model weights", 2)
        bias = finite_array(self.bias, "model bias", 1)
        if bias.shape != weights.shape[1:]:
            raise InvalidInputError("classifier needs a (d, C) weight matrix and a length-C bias")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "bias", bias)

    def predict_logits(self, inputs):
        inputs = finite_array(inputs, "classifier inputs", 2)
        if inputs.shape[1] != len(self.weights):
            raise InvalidInputError(
                f"classifier takes (n, {len(self.weights)}) inputs, got shape {inputs.shape}"
            )
        logits = inputs @ self.weights
        logits += self.bias
        logits *= self.gamma
        return logits


def _mean_ce(probs, labels):
    picked = probs[np.arange(len(labels)), labels]
    return float(np.mean(-np.log(np.maximum(picked, PROB_EPS))))


def train(task, epochs=DEFAULT_EPOCHS, lr=DEFAULT_LR, gamma=1.0, track_history=False, seed=0):
    """Full-batch gradient descent on source cross-entropy.

    When ``track_history`` is set, records per-epoch source loss, target
    error, and target mean NLL (all at the model's inference sharpening).

    ``seed`` may also be a sequence of seeds: then one classifier per seed
    trains in the same loop, and they return as a tuple. Member m's weights
    are ``w[m]`` of a (k, d, C) stack and its bias ``b[m]`` of a (k, 1, C)
    stack. All k members' scores live in one preallocated row-major
    (n, k, C) buffer, which each epoch turns in place into probabilities
    and then residuals. The batched matmuls write and read it through its
    (k, n, C) view, so each member's product keeps a lone model's shapes,
    and every reduction keeps a lone model's order, so each member is
    bit-identical to training it alone. A non-finite score raises
    TrainingError at the first epoch where any member has one.
    """
    if not task.has_source:
        raise InvalidInputError("training requires source data")
    seeds = [seed] if is_integer(seed) else listed(seed, "training seeds")
    if not seeds:
        raise InvalidInputError("training needs at least one seed")
    configs = [_checked_train_config(dict(epochs=epochs, lr=lr, gamma=gamma, seed=s)) for s in seeds]
    x = task.source_train_inputs
    y = task.source_train_labels
    n, d = x.shape
    k, c = len(seeds), task.spec.n_classes

    w = np.stack([0.01 * np.random.default_rng(s).standard_normal((d, c)) for s in seeds])
    b = np.zeros((k, 1, c))

    # Every epoch-sized array is allocated once, here. Row i of the buffer
    # holds all members' scores of sample i side by side, so the bias
    # gradient sums rows over a k*C-wide axis, in a lone model's row order.
    buf = np.empty((n, k, c))
    stack = buf.transpose(1, 0, 2)  # member m's (n, C) slice is stack[m]
    # Flat positions of each row's label in each member's slice: the
    # residual p - onehot subtracts 1 there and leaves the rest as it is.
    hot = ((np.arange(n) * k * c)[:, None] + np.arange(k) * c + y[:, None]).ravel()
    finite = np.empty(buf.shape, dtype=bool)
    row_stat = np.empty((n, k, 1))
    w_step = np.empty_like(w)
    b_step = np.empty(k * c)

    histories = [[] for _ in seeds]
    for epoch in range(1, epochs + 1):
        np.matmul(x, w, out=stack)
        stack += b
        if not np.isfinite(buf, out=finite).all():
            raise TrainingError(f"training diverged at epoch {epoch}", epoch=epoch)
        buf -= reduce_classes(np.maximum, buf, out=row_stat)
        np.exp(buf, out=buf)
        buf /= reduce_classes(np.add, buf, out=row_stat)
        if track_history:
            losses = [_mean_ce(p, y) for p in stack]
        buf.reshape(-1)[hot] -= 1.0
        # w -= lr * (x.T @ residual / n), and b likewise with the row mean.
        np.matmul(x.T, stack, out=w_step)
        w_step /= n
        w_step *= lr
        w -= w_step
        np.add.reduce(buf.reshape(n, k * c), axis=0, out=b_step)
        b_step /= n
        b_step *= lr
        b -= b_step.reshape(k, 1, c)
        if track_history:
            for history, loss, w_m, b_m in zip(histories, losses, w, b):
                t_logits = (task.target_inputs @ w_m + b_m[0]) * gamma
                t_err = float(np.mean(argmax_rows(t_logits) != task.target_labels))
                t_nll = _mean_ce(softmax(t_logits), task.target_labels)
                history.append((epoch, loss, t_err, t_nll))

    models = tuple(
        TrainedClassifier(
            weights=w_m.copy(),
            bias=b_m[0].copy(),
            gamma=float(gamma),
            train_config=config,
            history=np.asarray(history) if track_history else None,
        )
        for w_m, b_m, config, history in zip(w, b, configs, histories)
    )
    return models[0] if is_integer(seed) else models


@dataclass(frozen=True)
class EnsembleModel:
    """Averages member softmax outputs; exposes log mean probability as logits."""

    members: tuple

    def __post_init__(self):
        if len(self.members) < 1:
            raise InvalidInputError("an ensemble needs at least one member")

    def predict_logits(self, inputs):
        probs = [softmax(m.predict_logits(inputs)) for m in self.members]
        if len({p.shape for p in probs}) != 1:
            raise InvalidInputError("ensemble members disagree on the number of classes")
        return np.log(np.maximum(np.mean(probs, axis=0), PROB_EPS))


def ensemble_train(task, seeds, epochs=DEFAULT_EPOCHS, lr=DEFAULT_LR, gamma=1.0):
    """Train one classifier per seed, all in one loop, and combine their predictions."""
    seeds = listed(seeds, "ensemble seeds")
    members = train(task, epochs, lr, gamma, seed=seeds) if seeds else ()
    return EnsembleModel(members=members)


_SPEC_KEYS = {f.name for f in fields(ShiftSpec)}


def task_to_dict(task):
    return {
        "schema_version": SCHEMA_VERSION,
        "spec": asdict(task.spec),
        "val_fraction": task.val_fraction,
        "source_inputs": task.source_inputs.tolist() if task.has_source else None,
        "source_labels": task.source_labels.tolist() if task.has_source else None,
        "target_inputs": task.target_inputs.tolist(),
        "target_labels": task.target_labels.tolist() if task.has_target_labels else None,
    }


def task_from_dict(doc):
    check_version(doc, "task")
    if set(doc["spec"]) != _SPEC_KEYS:
        raise InvalidInputError(f"task spec needs exactly the keys {sorted(_SPEC_KEYS)}")
    return SyntheticTask(
        spec=ShiftSpec(**doc["spec"]),
        source_inputs=doc.get("source_inputs"),
        source_labels=doc.get("source_labels"),
        target_inputs=doc["target_inputs"],
        target_labels=doc.get("target_labels"),
        val_fraction=doc.get("val_fraction", VAL_FRACTION),
    )


def model_to_dict(model):
    if isinstance(model, EnsembleModel):
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "ensemble",
            "members": [model_to_dict(m) for m in model.members],
        }
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "logistic",
        "weights": model.weights.tolist(),
        "bias": model.bias.tolist(),
        "gamma": model.gamma,
        "train_config": model.train_config,
    }


def model_from_dict(doc):
    check_version(doc, "model")
    if doc["kind"] == "ensemble":
        return EnsembleModel(members=tuple(model_from_dict(m) for m in doc["members"]))
    return TrainedClassifier(
        weights=doc["weights"],
        bias=doc["bias"],
        gamma=doc["gamma"],
        train_config=doc.get("train_config", {}),
    )


def save_task(task, path):
    write_json(task_to_dict(task), path)


def load_task(path):
    return read_json(path, task_from_dict)


def save_model(model, path):
    write_json(model_to_dict(model), path)


def load_model(path):
    return read_json(path, model_from_dict)
