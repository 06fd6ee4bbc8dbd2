"""Desk-scale domain-shift harness.

Generates source/target Gaussian-cluster classification tasks with
controllable covariate shift (per-class mean translation plus an
in-plane rotation) and label shift (arbitrary target class priors,
including zeroed classes), trains a deliberately miscalibrated
multinomial logistic-regression classifier on the source, and exposes
it through the black-box inference contract used by the calibrators.
"""

from dataclasses import asdict, dataclass, field, fields
from types import MappingProxyType

import numpy as np

from .documents import (
    SCHEMA_VERSION, check_document, check_keys, decoded_array, encoded_array, read_json, write_json,
)
from .errors import InvalidInputError, InvalidSpecError, LabelsRequiredError, TrainingError
from .numerics import (
    argmax_rows, checked_choice, checked_number, class_indices, finite_array, frozen_copy,
    is_integer, listed, reduce_classes, softmax,
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


# The range of each ShiftSpec number field that has one: field -> checked_number's (rule, ok).
_SPEC_RULES = {
    "n_classes": (" >= 2", lambda v: v >= 2),
    "dim": (" >= 2 for the class-mean circle", lambda v: v >= 2),
    "cluster_std": (" > 0", lambda v: v > 0),
    "seed": (" >= 0", lambda v: v >= 0),
}


@dataclass(frozen=True)
class ShiftSpec:
    """Parameters of a synthetic source/target classification problem, as plain ints and floats.

    ``n_classes`` and ``dim`` are at least 2, each sample count at least
    ``n_classes``, ``cluster_std`` positive and ``seed`` nonnegative.
    """

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
        try:
            for f in fields(self):
                if f.type in (int, float):
                    rule = _SPEC_RULES.get(f.name, ())
                    value = checked_number(getattr(self, f.name), f.name, f.type is int, *rule)
                    object.__setattr__(self, f.name, value)
            if self.target_priors is not None:
                priors = finite_array(self.target_priors, "target priors", 1)
        except InvalidInputError as exc:
            raise InvalidSpecError(str(exc)) from None
        if min(self.n_source, self.n_target) < self.n_classes:
            raise InvalidSpecError("sample counts must be at least the class count")
        # The largest of generate's (rows, dim) float64 arrays must be one numpy can shape.
        rows = max(self.n_classes, self.n_source, self.n_target)
        if rows * self.dim * np.dtype(np.float64).itemsize > np.iinfo(np.intp).max:
            raise InvalidSpecError(f"a {rows} x {self.dim} array is too large for numpy")
        if self.target_priors is not None:
            if priors.shape != (self.n_classes,):
                raise InvalidSpecError("target priors must have one entry per class")
            if np.any(priors < 0):
                raise InvalidSpecError("target priors must be nonnegative")
            if abs(priors.sum() - 1.0) > 1e-9:
                raise InvalidSpecError("target priors must sum to 1")
            object.__setattr__(self, "target_priors", tuple(float(p) for p in priors))


def _check_spec_shape(what, inputs, rows, dim):
    """Raise InvalidInputError unless ``inputs`` is the rows x dim matrix the task spec says."""
    if inputs.shape != (rows, dim):
        raise InvalidInputError(
            f"{what} are {inputs.shape[0]} x {inputs.shape[1]}, "
            f"but the task spec says {rows} x {dim}"
        )


@dataclass(frozen=True, kw_only=True)
class SyntheticTask:
    """A generated source/target problem with labels held out for diagnostics.

    Inputs are finite float64 matrices of the shape ``spec`` gives them
    (``n_target`` or ``n_source`` rows of ``dim`` features) and labels one
    class index per row (arrays of those dtypes are kept without a copy).
    Source labels come with source inputs or not at all.
    ``val_fraction``, a float in (0, 1), must leave at least one source row to train on.
    """

    spec: ShiftSpec
    source_inputs: np.ndarray | None = None
    source_labels: np.ndarray | None = None
    target_inputs: np.ndarray
    target_labels: np.ndarray | None = None
    val_fraction: float = VAL_FRACTION

    def __post_init__(self):
        c = self.spec.n_classes
        target = finite_array(self.target_inputs, "target inputs", 2)
        _check_spec_shape("target inputs", target, self.spec.n_target, self.spec.dim)
        object.__setattr__(self, "target_inputs", target)
        if self.has_target_labels:
            labels = class_indices(self.target_labels, len(target), c, "target labels")
            object.__setattr__(self, "target_labels", labels)
        fraction = checked_number(
            self.val_fraction, "val_fraction", rule=" in (0, 1)", ok=lambda v: 0 < v < 1
        )
        object.__setattr__(self, "val_fraction", fraction)
        if self.has_source:
            source = finite_array(self.source_inputs, "source inputs", 2)
            _check_spec_shape("source inputs", source, self.spec.n_source, self.spec.dim)
            object.__setattr__(self, "source_inputs", source)
            labels = class_indices(self.source_labels, len(source), c, "source labels")
            object.__setattr__(self, "source_labels", labels)
            if self._split_point() < 1:
                raise InvalidInputError(
                    f"val_fraction {self.val_fraction} leaves no source row to train on"
                )
        elif self.source_labels is not None:
            raise InvalidInputError("source labels need source inputs")

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


# A train_config holds some of these keys: key -> checked_number's (integer, rule, ok).
_TRAIN_CONFIG_CHECKS = {
    "epochs": (True, " >= 1", lambda v: v >= 1),
    "lr": (False, " > 0", lambda v: v > 0),
    "gamma": (False, " >= 1", lambda v: v >= 1),
    "seed": (True, " >= 0", lambda v: v >= 0),
}


def _checked_train_config(config):
    """``config`` as a read-only mapping of each key to its checked plain int or float."""
    config = check_keys(config, "train_config", (), _TRAIN_CONFIG_CHECKS)
    return MappingProxyType({
        key: checked_number(value, f"train_config {key}", *_TRAIN_CONFIG_CHECKS[key])
        for key, value in config.items()
    })


def frozen_history(values):
    """A read-only copy of a finite (epochs, 4) training history, the array ``train`` tracks."""
    history = frozen_copy(values, "training history", 2)
    if history.shape[1] != 4:
        raise InvalidInputError(f"training history must have 4 columns, got {history.shape[1]}")
    return history


@dataclass(frozen=True)
class TrainedClassifier:
    """Multinomial logistic regression with confidence sharpening.

    Inference returns (X @ weights + bias) * gamma; gamma > 1 inflates
    confidence without moving any decision boundary. ``train_config``
    records how it was trained (the ensemble baseline trains its members
    the same way): some of epochs, lr, gamma and seed, each a plain int
    or float, in a read-only mapping; a gamma it holds is the model's.
    ``history``, if given, is the finite (epochs, 4) array ``train``
    tracks. ``weights``, ``bias`` and ``history`` are read-only copies of
    the given arrays.
    """

    weights: np.ndarray
    bias: np.ndarray
    gamma: float = 1.0
    train_config: dict = field(default_factory=dict)
    history: np.ndarray | None = None

    def __post_init__(self):
        gamma = checked_number(self.gamma, "gamma", *_TRAIN_CONFIG_CHECKS["gamma"])
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "train_config", _checked_train_config(self.train_config))
        config_gamma = self.train_config.get("gamma", self.gamma)
        if config_gamma != self.gamma:
            raise InvalidInputError(
                f"train_config gamma {config_gamma} differs from the model's gamma {self.gamma}"
            )
        object.__setattr__(self, "weights", frozen_copy(self.weights, "model weights", 2))
        object.__setattr__(self, "bias", frozen_copy(self.bias, "model bias", 1))
        if self.bias.shape != self.weights.shape[1:]:
            raise InvalidInputError("classifier needs a (d, C) weight matrix and a length-C bias")
        if self.history is not None:
            object.__setattr__(self, "history", frozen_history(self.history))

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

    When ``track_history`` is set, records per epoch the source loss that
    the epoch's step descends (the training loss, at scale 1, on the weights
    from before the step), then the target error and target mean NLL after
    the step, at the model's inference sharpening ``gamma``; it needs the
    target labels, and without them raises LabelsRequiredError before the
    first epoch.

    ``seed`` may also be a sequence of seeds: then one classifier per seed
    trains in the same loop, and they return as the members of an
    ``EnsembleModel``. Member m's weights are ``w[m]`` of a (k, d, C) stack
    and its bias ``b[m]`` of a (k, 1, C) stack. All k members' scores live
    in one row-major (n, k, C) buffer, which each epoch turns in place into
    probabilities and then residuals. The batched matmuls write and read it
    through its (k, n, C) view, so each member's product keeps a lone
    model's shapes, and every reduction keeps a lone model's order, so each
    member is bit-identical to training it alone. A non-finite score raises
    TrainingError at the first epoch where any member has one.
    """
    if not task.has_source:
        raise InvalidInputError("training requires source data")
    if track_history and not task.has_target_labels:
        raise LabelsRequiredError("training history scores the target and needs its labels")
    seeds = [seed] if is_integer(seed) else listed(seed, "seed")
    configs = [_checked_train_config(dict(epochs=epochs, lr=lr, gamma=gamma, seed=s)) for s in seeds]
    x = task.source_train_inputs
    y = task.source_train_labels
    n, d = x.shape
    k, c = len(seeds), task.spec.n_classes

    w = np.stack([0.01 * np.random.default_rng(s).standard_normal((d, c)) for s in seeds])
    b = np.zeros((k, 1, c))

    # Row i of the buffer holds all members' scores of sample i side by side, so
    # the bias gradient sums rows over a k*C-wide axis, in a lone model's row order.
    buf = np.empty((n, k, c))
    stack = buf.transpose(1, 0, 2)  # member m's (n, C) slice is stack[m]
    # Flat positions of each row's label in each member's slice: the
    # residual p - onehot subtracts 1 there and leaves the rest as it is.
    hot = ((np.arange(n) * k * c)[:, None] + np.arange(k) * c + y[:, None]).ravel()

    histories = [[] for _ in seeds]
    for epoch in range(1, epochs + 1):
        np.matmul(x, w, out=stack)
        stack += b
        if not np.isfinite(buf).all():
            raise TrainingError(f"training diverged at epoch {epoch}", epoch=epoch)
        buf -= reduce_classes(np.maximum, buf)
        np.exp(buf, out=buf)
        buf /= reduce_classes(np.add, buf)
        if track_history:
            losses = [_mean_ce(p, y) for p in stack]
        buf.reshape(-1)[hot] -= 1.0
        w -= x.T @ stack / n * lr
        b -= (np.add.reduce(buf.reshape(n, k * c), axis=0) / n * lr).reshape(k, 1, c)
        if track_history:
            for history, loss, w_m, b_m in zip(histories, losses, w, b):
                t_logits = (task.target_inputs @ w_m + b_m[0]) * gamma
                t_err = float(np.mean(argmax_rows(t_logits) != task.target_labels))
                t_nll = _mean_ce(softmax(t_logits), task.target_labels)
                history.append((epoch, loss, t_err, t_nll))

    members = tuple(
        TrainedClassifier(
            weights=w_m,
            bias=b_m[0],
            gamma=gamma,
            train_config=config,
            history=np.asarray(history) if track_history else None,
        )
        for w_m, b_m, config, history in zip(w, b, configs, histories)
    )
    return members[0] if is_integer(seed) else EnsembleModel(members=members)


@dataclass(frozen=True)
class EnsembleModel:
    """Averages member softmax outputs; exposes log mean probability as logits."""

    members: tuple

    def __post_init__(self):
        models = isinstance(self.members, tuple) and all(
            callable(getattr(m, "predict_logits", None)) for m in self.members
        )
        if not (models and self.members):
            raise InvalidInputError("an ensemble needs a tuple of at least one member model")

    def predict_logits(self, inputs):
        probs = [softmax(m.predict_logits(inputs)) for m in self.members]
        if len({p.shape for p in probs}) != 1:
            raise InvalidInputError("ensemble members disagree on the number of classes")
        return np.log(np.maximum(np.mean(probs, axis=0), PROB_EPS))


_SPEC_KEYS = tuple(f.name for f in fields(ShiftSpec))
# The required and the optional keys of each document besides schema_version.
_TASK_KEYS = (
    ("spec", "target_inputs"), ("source_inputs", "source_labels", "target_labels", "val_fraction")
)
# The task's arrays, each held in its document as ``documents.encoded_array`` writes it.
_TASK_ARRAYS = ("source_inputs", "source_labels", "target_inputs", "target_labels")
_MODEL_KEYS = {
    "logistic": (("kind", "weights", "bias", "gamma"), ("train_config",)),
    "ensemble": (("kind", "members"), ()),
}


def task_to_dict(task):
    arrays = {key: getattr(task, key) for key in _TASK_ARRAYS}
    return {
        "schema_version": SCHEMA_VERSION,
        "spec": asdict(task.spec),
        "val_fraction": task.val_fraction,
        **{key: None if a is None else encoded_array(a) for key, a in arrays.items()},
    }


def task_from_dict(doc):
    """The task a task document holds; its arrays may be encoded or JSON lists."""
    entries = check_document(doc, "task", *_TASK_KEYS)
    spec = ShiftSpec(**check_keys(entries["spec"], "task spec", _SPEC_KEYS))
    arrays = {key: decoded_array(entries[key], key) for key in _TASK_ARRAYS if key in entries}
    return SyntheticTask(**{**entries, **arrays, "spec": spec})


def model_to_dict(model):
    if isinstance(model, EnsembleModel):
        doc = {"kind": "ensemble", "members": [model_to_dict(m) for m in model.members]}
    else:
        doc = {"kind": "logistic", "weights": model.weights.tolist(), "bias": model.bias.tolist(),
               "gamma": model.gamma, "train_config": dict(model.train_config)}
    return {"schema_version": SCHEMA_VERSION, **doc}


def model_from_dict(doc):
    kind = doc.get("kind") if isinstance(doc, dict) else None
    kind = checked_choice(kind, "model kind", _MODEL_KEYS)
    entries = check_document(doc, "model", *_MODEL_KEYS[kind])
    del entries["kind"]
    if kind == "ensemble":
        return EnsembleModel(members=tuple(model_from_dict(m) for m in entries["members"]))
    return TrainedClassifier(**entries)


def save_task(task, path):
    write_json(task_to_dict(task), path)


def load_task(path):
    return read_json(path, task_from_dict)


def save_model(model, path):
    write_json(model_to_dict(model), path)


def load_model(path):
    return read_json(path, model_from_dict)
