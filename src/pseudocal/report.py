"""Experiment assembly: method comparison tables and sensitivity sweeps.

Each calibration method is fitted strictly under its legal data access:
source-free methods see only unlabeled target inputs, the affine
baselines see the labeled source validation split, and the oracle sees
the target labels it is defined by.
"""

from collections.abc import Mapping
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property
from itertools import product
from types import MappingProxyType
from typing import Callable, NamedTuple

import numpy as np

from . import pseudo_target, scalers, synthetic
from .documents import SCHEMA_VERSION, json_text, write_csv
from .errors import (
    DataAccessError, DegenerateTargetError, EmptyFilterError, LabelsRequiredError, OptimizationError,
    TrainingError,
)
from .metrics import (
    DEFAULT_BINS, PredictionBatch, bin_columns, check_bins, ece, mean_brier, mean_nll,
    reliability_bins,
)
from .numerics import checked_choice, listed

# Members of the ensemble baseline, trained on the run's seed and the next ENSEMBLE_SIZE - 1.
ENSEMBLE_SIZE = 5
# What evaluate_all compares, and lambda_sweep's grid, when the caller names none.
DEFAULT_METHODS = ("none", "pseudocal", "temp_oracle")
SWEEP_LAMBDAS = (0.51, 0.55, 0.6, 0.65, 0.7, 0.8, 0.9)
SWEEP_SEEDS = (0, 1, 2, 3, 4)
# A method whose fit raises one of these is recorded as failed; the others are still scored.
_FIT_ERRORS = (DegenerateTargetError, EmptyFilterError, OptimizationError, TrainingError)


@dataclass(frozen=True)
class MethodResult:
    ece: float
    nll: float
    brier: float
    accuracy: float
    temperature: float | None = None


def _read_only(value):
    """``value`` with each mapping in it, at any depth, a read-only copy and each list a tuple."""
    if isinstance(value, Mapping):
        return MappingProxyType({key: _read_only(item) for key, item in value.items()})
    if isinstance(value, list):
        return tuple(_read_only(item) for item in value)
    return value


def _writable(value):
    """``value`` with each mapping in it, at any depth, a new dict."""
    if isinstance(value, Mapping):
        return {key: _writable(item) for key, item in value.items()}
    return value


@dataclass(frozen=True)
class ExperimentResult:
    """Per-method calibration outcomes on one (task, model, seed) cell.

    ``failed`` maps each method whose fit raised to ``"<error type>: <message>"``.
    Every mapping the record holds, and each mapping or list within ``meta``,
    is a read-only copy, so nothing written through the record changes its document.
    """

    meta: dict
    methods: dict
    correspondence_rate: float | None = None
    bin_stats: dict = field(default_factory=dict, repr=False)
    failed: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("meta", "methods", "bin_stats", "failed"):
            object.__setattr__(self, name, _read_only(getattr(self, name)))

    def to_dict(self):
        """The result document; it has a ``failed`` key only if some method failed."""
        doc = {
            "schema_version": SCHEMA_VERSION,
            "meta": _writable(self.meta),
            "methods": {name: asdict(r) for name, r in self.methods.items()},
            "correspondence_rate": self.correspondence_rate,
        }
        if self.failed:
            doc["failed"] = dict(self.failed)
        return doc

    def to_json(self):
        return json_text(self.to_dict(), indent=2)

    def table_text(self):
        header = f"{'method':<15} {'ECE':>8} {'NLL':>8} {'Brier':>8} {'T':>8} {'accuracy':>9}"
        lines = [header, "-" * len(header)]
        for name in self.methods:
            r = self.methods[name]
            t = f"{r.temperature:.4f}" if r.temperature is not None else "-"
            lines.append(
                f"{name:<15} {r.ece:>8.4f} {r.nll:>8.4f} {r.brier:>8.4f} {t:>8} {r.accuracy:>9.4f}"
            )
        lines.extend(f"{name} failed: {error}" for name, error in self.failed.items())
        if self.correspondence_rate is not None:
            lines.append(f"correspondence rate: {self.correspondence_rate:.4f}")
        return "\n".join(lines) + "\n"


class Access(NamedTuple):
    """A kind of data a method may see, and how to tell that a (model, task) provides it."""

    description: str
    provided: Callable


UNLABELED_TARGET = Access("unlabeled target inputs", lambda model, task: True)
SOURCE_SPLIT = Access(
    "a labeled source validation split",
    lambda model, task: task.has_source and len(task.source_val_labels) > 0,
)
TARGET_LABELS = Access("target labels", lambda model, task: task.has_target_labels)
# The ensemble baseline trains new members the way the model was trained.
RETRAINABLE = Access(
    "a labeled source split and a TrainedClassifier model to retrain",
    lambda model, task: task.has_source and isinstance(model, synthetic.TrainedClassifier),
)


class _Inputs:
    """The data one run offers its methods; each input set is inferred once."""

    def __init__(self, model, task, mixup_cfg=None):
        self.model = model
        self.task = task
        self.mixup_cfg = mixup_cfg
        self.target_logits = pseudo_target.infer(model, task.target_inputs)
        self.target_batch = PredictionBatch(logits=self.target_logits, labels=task.target_labels)
        self.target_pseudo_labels = self.target_batch.predictions()

    @cached_property
    def source_batch(self):
        """The labeled source validation split, inferred on first use."""
        return PredictionBatch(
            logits=pseudo_target.infer(self.model, self.task.source_val_inputs),
            labels=self.task.source_val_labels,
        )


def _mixup(**change):
    """PseudoCal under the run's mixup config with ``change`` applied, and its pseudo set."""

    def fit(data):
        cfg = replace(data.mixup_cfg, **change)
        pseudo = pseudo_target.synthesize(
            data.model, data.task.target_inputs, data.target_pseudo_labels, cfg
        )
        return pseudo_target.fit_on_pseudo_set(pseudo, cfg.label_mode), pseudo

    return fit


def _fit_ensemble(data):
    """Members trained as the model was, from the run's seed on.

    They train at the model's gamma, and at its train_config's epochs and
    lr where it records them (``train``'s defaults where it does not).
    """
    seeds = range(data.mixup_cfg.seed, data.mixup_cfg.seed + ENSEMBLE_SIZE)
    config = {**data.model.train_config, "gamma": data.model.gamma, "seed": seeds}
    return synthetic.train(data.task, **config), None


class Method(NamedTuple):
    """The data a method may see, and its fit: _Inputs -> (calibrator or model, pseudo set)."""

    sees: Access
    fit: Callable


METHODS = {
    "none": Method(UNLABELED_TARGET, lambda data: (scalers.Calibrator(kind="identity"), None)),
    "temp_oracle": Method(
        TARGET_LABELS, lambda data: (scalers.fit_temperature(data.target_batch), None)
    ),
    "vector": Method(SOURCE_SPLIT, lambda data: (scalers.fit_vector(data.source_batch), None)),
    "matrix": Method(SOURCE_SPLIT, lambda data: (scalers.fit_matrix(data.source_batch), None)),
    "pseudocal": Method(UNLABELED_TARGET, _mixup()),
    "pseudo_label": Method(
        UNLABELED_TARGET,
        lambda data: (pseudo_target.variant_pseudo_label(data.target_logits), None),
    ),
    "filtered_pl": Method(
        UNLABELED_TARGET,
        lambda data: (pseudo_target.variant_filtered_pl(data.target_logits), None),
    ),
    "pseudocal_same": Method(UNLABELED_TARGET, _mixup(pairing="same")),
    "beta_mixup": Method(UNLABELED_TARGET, _mixup(lambda_policy="beta")),
    "ensemble": Method(RETRAINABLE, _fit_ensemble),
}


def evaluate_all(model, task, methods=DEFAULT_METHODS, bins=DEFAULT_BINS, mixup_cfg=None):
    """Fit every requested method, apply it, and measure on the target.

    The run's one seed, ``mixup_cfg.seed``, drives the mixup and the
    ensemble members alike. Arguments are checked before any inference.
    A method whose fit raises EmptyFilterError, DegenerateTargetError,
    OptimizationError or TrainingError goes into the result's ``failed``
    mapping, and the other methods are scored as usual.
    """
    methods = listed(methods, "method")
    for name in methods:
        sees = METHODS[checked_choice(name, "method", METHODS)].sees
        if not sees.provided(model, task):
            raise DataAccessError(f"method {name!r} requires {sees.description}", method=name)
    if not task.has_target_labels:
        raise LabelsRequiredError("evaluation scores every method on the target and needs its labels")
    bins = check_bins(bins)
    if mixup_cfg is None:
        mixup_cfg = pseudo_target.MixupConfig()
    pseudo_target.checked_config(mixup_cfg)

    data = _Inputs(model, task, mixup_cfg)
    results = {}
    bin_stats = {}
    failed = {}
    correspondence = None
    for name in methods:
        try:
            fitted, pseudo = METHODS[name].fit(data)
        except _FIT_ERRORS as exc:
            failed[name] = f"{type(exc).__name__}: {exc}"
            continue
        if isinstance(fitted, scalers.Calibrator):
            scored = fitted.apply(data.target_batch)
            temp = fitted.temperature
        else:
            logits = pseudo_target.infer(fitted, task.target_inputs)
            scored = PredictionBatch(logits=logits, labels=task.target_labels)
            temp = None
        bin_stats[name] = reliability_bins(scored, bins)
        results[name] = MethodResult(
            ece=bin_stats[name].ece(),
            nll=mean_nll(scored),
            brier=mean_brier(scored),
            accuracy=scored.accuracy(),
            temperature=temp,
        )
        if name == "pseudocal":
            correspondence = pseudo_target.correspondence_rate(pseudo, task.target_labels)

    meta = {
        "task": asdict(task.spec),
        "source_val_fraction": task.val_fraction,
        "bins": bins,
        "seed": mixup_cfg.seed,
        "mixup": asdict(mixup_cfg),
        "methods": methods,
    }
    return ExperimentResult(
        meta=meta,
        methods=results,
        correspondence_rate=correspondence,
        bin_stats=bin_stats,
        failed=failed,
    )


def method_bins_to_csv(result, path_or_file):
    """Stacked reliability-bin CSV: one block of bins per evaluated method."""
    stats = result.bin_stats.values()
    method = np.repeat(list(result.bin_stats), [s.bin_count for s in stats])
    write_csv(path_or_file, {"method": method, **bin_columns(*stats)})


def lambda_sweep(model, task, lambdas=SWEEP_LAMBDAS, label_modes=pseudo_target.LABEL_MODES,
                 seeds=SWEEP_SEEDS, bins=DEFAULT_BINS):
    """Mean target ECE per (mix ratio, label mode) cell, averaged over seeds.

    Each (mix ratio, seed) pseudo set is built once and every label mode
    is fitted on it. Every argument, and a value listed twice on any axis,
    is checked before anything is inferred.
    """
    lambdas = listed(lambdas, "mix ratio")
    label_modes = listed(label_modes, "label mode")
    seeds = listed(seeds, "seed")
    if not task.has_target_labels:
        raise LabelsRequiredError("the sweep scores ECE on the target and needs its labels")
    bins = check_bins(bins)
    for lam, mode, seed in product(lambdas, label_modes, seeds):
        pseudo_target.MixupConfig(lam=lam, label_mode=mode, seed=seed)  # checks the cell

    data = _Inputs(model, task)
    rows = []
    for lam in lambdas:
        values = [[] for _ in label_modes]
        for seed in seeds:
            cfg = pseudo_target.MixupConfig(lam=lam, seed=seed)
            pseudo = pseudo_target.synthesize(model, task.target_inputs, data.target_pseudo_labels, cfg)
            for mode, mode_values in zip(label_modes, values):
                cal = pseudo_target.fit_on_pseudo_set(pseudo, mode)
                mode_values.append(ece(cal.apply(data.target_batch), bins))
        for mode, mode_values in zip(label_modes, values):
            rows.append(
                {
                    "lambda": lam,
                    "label_mode": mode,
                    "mean_ece": float(np.mean(mode_values)),
                    "std_ece": float(np.std(mode_values)),
                    "n_seeds": len(mode_values),
                }
            )
    return rows


def sweep_to_csv(rows, path_or_file):
    """Sweep CSV: lambda, label_mode, mean_ece, std_ece, n_seeds."""
    keys = ("lambda", "label_mode", "mean_ece", "std_ece", "n_seeds")
    write_csv(path_or_file, {key: [r[key] for r in rows] for key in keys})


def history_to_csv(history, path_or_file):
    """Training-history CSV: epoch, source_loss, target_error, target_nll."""
    history = synthetic.frozen_history(history)
    write_csv(path_or_file, {
        "epoch": history[:, 0].astype(int),
        "source_loss": history[:, 1],
        "target_error": history[:, 2],
        "target_nll": history[:, 3],
    })
