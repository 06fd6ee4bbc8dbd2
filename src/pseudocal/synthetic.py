"""Desk-scale domain-shift harness.

Generates source/target Gaussian-cluster classification tasks with
controllable covariate shift (per-class mean translation plus an
in-plane rotation) and label shift (arbitrary target class priors,
including zeroed classes), trains a deliberately miscalibrated
multinomial logistic-regression classifier on the source, and exposes
it through the black-box inference contract used by the calibrators.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, InvalidSpecError, TrainingError
from .numerics import PROB_EPS, softmax

# Class means sit equally spaced on a circle of this radius in the first
# two coordinates; keeps classes from collapsing onto each other.
CLASS_RADIUS = 3.0

# Fraction of source samples reserved as the labeled validation split
# that the source-dependent baselines are allowed to see.
VAL_FRACTION = 0.25

SCHEMA_VERSION = 1

DEFAULT_EPOCHS = 400
DEFAULT_LR = 0.1


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
        if self.n_classes < 2:
            raise InvalidSpecError("need at least 2 classes")
        if self.dim < 2:
            raise InvalidSpecError("need dim >= 2 for the class-mean circle")
        if min(self.n_source, self.n_target) < self.n_classes:
            raise InvalidSpecError("sample counts must be at least the class count")
        if self.cluster_std <= 0:
            raise InvalidSpecError("cluster_std must be positive")
        if self.target_priors is not None:
            priors = np.asarray(self.target_priors, dtype=np.float64)
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
    """A generated source/target problem with labels held out for diagnostics."""

    spec: ShiftSpec
    source_inputs: np.ndarray | None
    source_labels: np.ndarray | None
    target_inputs: np.ndarray
    target_labels: np.ndarray | None
    val_fraction: float = VAL_FRACTION

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


@dataclass(frozen=True)
class TrainedClassifier:
    """Multinomial logistic regression with confidence sharpening.

    Inference returns (X @ weights + bias) * gamma; gamma > 1 inflates
    confidence without moving any decision boundary.
    """

    weights: np.ndarray
    bias: np.ndarray
    gamma: float = 1.0
    train_config: dict = field(default_factory=dict)
    history: np.ndarray | None = None

    def __post_init__(self):
        if self.gamma < 1.0:
            raise InvalidInputError("gamma must be >= 1")
        if np.ndim(self.weights) != 2 or np.shape(self.bias) != np.shape(self.weights)[1:]:
            raise InvalidInputError("classifier needs a (d, C) weight matrix and a length-C bias")

    def predict_logits(self, inputs):
        inputs = np.asarray(inputs, dtype=np.float64)
        return (inputs @ self.weights + self.bias) * self.gamma


def _mean_ce(probs, labels):
    picked = probs[np.arange(len(labels)), labels]
    return float(np.mean(-np.log(np.maximum(picked, PROB_EPS))))


def train(task, epochs=DEFAULT_EPOCHS, lr=DEFAULT_LR, gamma=1.0, track_history=False, seed=0):
    """Full-batch gradient descent on source cross-entropy.

    When ``track_history`` is set, records per-epoch source loss, target
    error, and target mean NLL (all at the model's inference sharpening).
    """
    if not task.has_source:
        raise InvalidInputError("training requires source data")
    if epochs < 1:
        raise InvalidInputError("epochs must be >= 1")
    x = task.source_train_inputs
    y = task.source_train_labels
    n, d = x.shape
    c = task.spec.n_classes

    rng = np.random.default_rng(seed)
    w = 0.01 * rng.standard_normal((d, c))
    b = np.zeros(c)
    onehot = np.zeros((n, c))
    onehot[np.arange(n), y] = 1.0

    history = [] if track_history else None
    for epoch in range(1, epochs + 1):
        scores = x @ w + b
        if not np.all(np.isfinite(scores)):
            raise TrainingError(f"training diverged at epoch {epoch}", epoch=epoch)
        probs = softmax(scores)
        loss = _mean_ce(probs, y)
        grad_w = x.T @ (probs - onehot) / n
        grad_b = np.mean(probs - onehot, axis=0)
        w = w - lr * grad_w
        b = b - lr * grad_b
        if track_history:
            t_logits = (task.target_inputs @ w + b) * gamma
            t_probs = softmax(t_logits)
            t_err = float(np.mean(np.argmax(t_logits, axis=1) != task.target_labels))
            t_nll = _mean_ce(t_probs, task.target_labels)
            history.append((epoch, loss, t_err, t_nll))

    return TrainedClassifier(
        weights=w,
        bias=b,
        gamma=float(gamma),
        train_config={"epochs": epochs, "lr": lr, "gamma": float(gamma), "seed": seed},
        history=np.asarray(history) if track_history else None,
    )


@dataclass(frozen=True)
class EnsembleModel:
    """Averages member softmax outputs; exposes log mean probability as logits."""

    members: tuple

    def predict_logits(self, inputs):
        probs = np.mean([softmax(m.predict_logits(inputs)) for m in self.members], axis=0)
        return np.log(np.maximum(probs, PROB_EPS))


def ensemble_train(task, k, seeds=None, epochs=DEFAULT_EPOCHS, lr=DEFAULT_LR, gamma=1.0):
    """Train k independently seeded classifiers and combine their predictions."""
    if k < 1:
        raise InvalidInputError("ensemble size must be >= 1")
    if seeds is None:
        seeds = list(range(k))
    if len(seeds) != k:
        raise InvalidInputError("need exactly one seed per ensemble member")
    members = tuple(
        train(task, epochs=epochs, lr=lr, gamma=gamma, seed=int(s)) for s in seeds
    )
    return EnsembleModel(members=members)


def spec_to_dict(spec):
    return {
        "n_classes": spec.n_classes,
        "dim": spec.dim,
        "n_source": spec.n_source,
        "n_target": spec.n_target,
        "mean_shift": spec.mean_shift,
        "rotation": spec.rotation,
        "target_priors": list(spec.target_priors) if spec.target_priors is not None else None,
        "cluster_std": spec.cluster_std,
        "seed": spec.seed,
    }


def spec_from_dict(doc):
    priors = doc.get("target_priors")
    return ShiftSpec(
        n_classes=doc["n_classes"],
        dim=doc["dim"],
        n_source=doc["n_source"],
        n_target=doc["n_target"],
        mean_shift=doc["mean_shift"],
        rotation=doc["rotation"],
        target_priors=tuple(priors) if priors is not None else None,
        cluster_std=doc["cluster_std"],
        seed=doc["seed"],
    )


def task_to_dict(task):
    return {
        "schema_version": SCHEMA_VERSION,
        "spec": spec_to_dict(task.spec),
        "val_fraction": task.val_fraction,
        "source_inputs": task.source_inputs.tolist() if task.has_source else None,
        "source_labels": task.source_labels.tolist() if task.has_source else None,
        "target_inputs": task.target_inputs.tolist(),
        "target_labels": task.target_labels.tolist() if task.has_target_labels else None,
    }


def _check_version(doc, what):
    version = doc.get("schema_version") if isinstance(doc, dict) else None
    if version != SCHEMA_VERSION:
        raise InvalidInputError(f"unsupported {what} document schema_version {version!r}")


def _finite(values, what):
    """``values`` as a float64 array, rejecting NaN and infinities."""
    array = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(array)):
        raise InvalidInputError(f"{what} contain non-finite values")
    return array


def task_from_dict(doc):
    _check_version(doc, "task")
    src_x = doc.get("source_inputs")
    src_y = doc.get("source_labels")
    tgt_y = doc.get("target_labels")
    return SyntheticTask(
        spec=spec_from_dict(doc["spec"]),
        source_inputs=_finite(src_x, "source inputs") if src_x is not None else None,
        source_labels=np.asarray(src_y, dtype=np.int64) if src_y is not None else None,
        target_inputs=_finite(doc["target_inputs"], "target inputs"),
        target_labels=np.asarray(tgt_y, dtype=np.int64) if tgt_y is not None else None,
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
    _check_version(doc, "model")
    if doc["kind"] == "ensemble":
        return EnsembleModel(members=tuple(model_from_dict(m) for m in doc["members"]))
    return TrainedClassifier(
        weights=_finite(doc["weights"], "model weights"),
        bias=_finite(doc["bias"], "model bias"),
        gamma=doc["gamma"],
        train_config=doc.get("train_config", {}),
    )


def save_task(task, path):
    with open(path, "w") as fh:
        json.dump(task_to_dict(task), fh, sort_keys=True)
        fh.write("\n")


def _load(path, from_dict):
    """Read a JSON document; a malformed one raises InvalidInputError."""
    with open(path) as fh:
        try:
            return from_dict(json.load(fh))
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInputError(f"malformed document {path}: {exc!r}") from exc


def load_task(path):
    return _load(path, task_from_dict)


def save_model(model, path):
    with open(path, "w") as fh:
        json.dump(model_to_dict(model), fh, sort_keys=True)
        fh.write("\n")


def load_model(path):
    return _load(path, model_from_dict)
