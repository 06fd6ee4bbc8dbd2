"""Experiment assembly: method comparison tables and sensitivity sweeps.

Each calibration method is fitted strictly under its legal data access:
source-free methods see only unlabeled target inputs, the affine
baselines see the labeled source validation split, and the oracle sees
the target labels it is defined by.
"""

from dataclasses import asdict, dataclass, field, replace
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from . import pseudo_target, scalers, synthetic
from .documents import SCHEMA_VERSION, json_text, write_csv
from .errors import DataAccessError, InvalidInputError, LabelsRequiredError
from .metrics import (
    DEFAULT_BINS, PredictionBatch, bin_columns, check_bins, ece, mean_brier, mean_nll,
    reliability_bins,
)
from .numerics import is_finite_number, is_integer, listed

# Members of the ensemble baseline, trained on the run's seed and the next ENSEMBLE_SIZE - 1.
ENSEMBLE_SIZE = 5


@dataclass(frozen=True)
class MethodResult:
    ece: float
    nll: float
    brier: float
    accuracy: float
    temperature: float | None = None


@dataclass(frozen=True)
class ExperimentResult:
    """Per-method calibration outcomes on one (task, model, seed) cell."""

    meta: dict
    methods: dict
    correspondence_rate: float | None = None
    bin_stats: dict = field(default_factory=dict, repr=False)

    def to_dict(self):
        return {
            "schema_version": SCHEMA_VERSION,
            "meta": self.meta,
            "methods": {name: asdict(r) for name, r in self.methods.items()},
            "correspondence_rate": self.correspondence_rate,
        }

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
        if self.correspondence_rate is not None:
            lines.append(f"correspondence rate: {self.correspondence_rate:.4f}")
        return "\n".join(lines) + "\n"


class Access(NamedTuple):
    """A kind of data a method may see, and how to tell that a task provides it."""

    description: str
    provided: Callable


UNLABELED_TARGET = Access("unlabeled target inputs", lambda task: True)
SOURCE_SPLIT = Access("a labeled source split", lambda task: task.has_source)
TARGET_LABELS = Access("target labels", lambda task: task.has_target_labels)


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
    """Members trained as the model was (its train_config less the seed), from the run's seed."""
    config = getattr(data.model, "train_config", {})
    member_config = {key: value for key, value in config.items() if key != "seed"}
    seeds = range(data.mixup_cfg.seed, data.mixup_cfg.seed + ENSEMBLE_SIZE)
    return synthetic.ensemble_train(data.task, seeds, **member_config), None


class Method(NamedTuple):
    """The data a method may see, and its fit: _Inputs -> (calibrator or model, pseudo set)."""

    sees: Access
    fit: Callable


METHODS = {
    "none": Method(UNLABELED_TARGET, lambda data: (scalers.identity(), None)),
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
    "ensemble": Method(SOURCE_SPLIT, _fit_ensemble),
}


def evaluate_all(model, task, methods, bins=DEFAULT_BINS, mixup_cfg=None):
    """Fit every requested method, apply it, and measure on the target.

    The run's one seed, ``mixup_cfg.seed``, drives the mixup and the
    ensemble members alike. Arguments are checked before any inference.
    """
    methods = listed(methods, "methods")
    for name in methods:
        if name not in METHODS:
            raise InvalidInputError(f"unknown method {name!r}; valid: {', '.join(METHODS)}")
        if methods.count(name) > 1:
            raise InvalidInputError(f"method {name!r} is listed more than once")
        sees = METHODS[name].sees
        if not sees.provided(task):
            raise DataAccessError(f"method {name!r} requires {sees.description}", method=name)
    if not task.has_target_labels:
        raise LabelsRequiredError("evaluation scores every method on the target and needs its labels")
    bins = check_bins(bins)
    if mixup_cfg is None:
        mixup_cfg = pseudo_target.MixupConfig()

    data = _Inputs(model, task, mixup_cfg)
    results = {}
    bin_stats = {}
    correspondence = None
    for name in methods:
        fitted, pseudo = METHODS[name].fit(data)
        if isinstance(fitted, scalers.Calibrator):
            scored = fitted.apply(data.target_batch)
            temp = fitted.temperature
        else:
            logits = pseudo_target.infer(fitted, task.target_inputs)
            scored = PredictionBatch(logits=logits, labels=task.target_labels)
            temp = None
        results[name] = MethodResult(
            ece=ece(scored, bins),
            nll=mean_nll(scored),
            brier=mean_brier(scored),
            accuracy=scored.accuracy(),
            temperature=temp,
        )
        bin_stats[name] = reliability_bins(scored, bins)
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
    )


def method_bins_to_csv(result, path_or_file):
    """Stacked reliability-bin CSV: one block of bins per evaluated method."""
    stats = result.bin_stats.values()
    method = np.repeat(list(result.bin_stats), [s.bin_count for s in stats])
    write_csv(path_or_file, {"method": method, **bin_columns(*stats)})


def lambda_sweep(model, task, lambdas, label_modes, seeds, bins=DEFAULT_BINS):
    """Mean target ECE per (mix ratio, label mode) cell, averaged over seeds.

    Each (mix ratio, seed) pseudo set is built once and every label mode
    is fitted on it. Every argument, and a value listed twice on any axis,
    is checked before anything is inferred.
    """
    lambdas, label_modes, seeds = (listed(v, "each sweep axis") for v in (lambdas, label_modes, seeds))
    if not task.has_target_labels:
        raise LabelsRequiredError("the sweep scores ECE on the target and needs its labels")
    bins = check_bins(bins)
    if not lambdas or not label_modes:
        raise InvalidInputError("sweep requires at least one mix ratio and one label mode")
    for lam in lambdas:
        if not (is_finite_number(lam) and 0.5 < lam < 1.0):
            raise InvalidInputError(f"sweep mix ratios must lie in (0.5, 1.0), got {lam!r}")
    for mode in label_modes:
        if mode not in pseudo_target.LABEL_MODES:
            raise InvalidInputError(f"unknown label mode {mode!r}")
    if not seeds:
        raise InvalidInputError("sweep requires at least one seed")
    if not all(is_integer(seed) and seed >= 0 for seed in seeds):
        raise InvalidInputError(f"sweep seeds must be integers >= 0, got {seeds}")
    for what, given in (("mix ratio", lambdas), ("label mode", label_modes), ("seed", seeds)):
        for value in given:
            if given.count(value) > 1:
                raise InvalidInputError(f"sweep lists {what} {value!r} more than once")

    data = _Inputs(model, task)
    rows = []
    for lam in lambdas:
        values = [[] for _ in label_modes]
        for seed in seeds:
            cfg = pseudo_target.MixupConfig(lam=lam, seed=int(seed))
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
    history = np.asarray(history)
    write_csv(path_or_file, {
        "epoch": history[:, 0].astype(int),
        "source_loss": history[:, 1],
        "target_error": history[:, 2],
        "target_nll": history[:, 3],
    })
