"""Pseudo-target synthesis by mixup over unlabeled target samples.

The calibration trick: pair target samples that the model labels
differently, mix each pair with ratio lam, and label the mixture with
the dominant sample's pseudo label. Mixtures near the decision boundary
come out wrongly predicted at roughly the same rate as real target
samples do, so a temperature fitted on this surrogate labeled set
approximates the oracle temperature fitted on true target labels.
"""

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .documents import write_csv
from .errors import DegenerateTargetError, EmptyFilterError, InvalidInputError
from .metrics import PredictionBatch
from .numerics import (
    argmax_rows, class_indices, finite_array, frozen_copy, is_finite_number, is_integer,
)
from .scalers import fit_temperature

BETA_ALPHA = 0.3
DEFAULT_LAMBDA = 0.65
FILTER_THRESHOLD = 0.95
# The targets fit_on_pseudo_set can derive from a pseudo set.
LABEL_MODES = ("hard", "soft")
# How synthesis draws each pair's mix ratio, and which pairs it keeps.
LAMBDA_POLICIES = ("fixed", "beta")
PAIRINGS = ("distinct", "same")


class Model(Protocol):
    """Black-box inference contract: feature matrix in, logit matrix out."""

    def predict_logits(self, inputs: np.ndarray) -> np.ndarray: ...


@dataclass(frozen=True)
class MixupConfig:
    """Mix policy for pseudo-target synthesis.

    lambda_policy "fixed" uses ``lam`` for every pair (must lie in
    (0.5, 1.0], so sample a always dominates); "beta" draws lam per pair
    from Beta(0.3, 0.3), where the dominant sample flips to b when
    lam < 0.5. pairing "distinct" keeps only pairs with differing pseudo
    labels; "same" is the ablation that keeps only agreeing pairs.
    """

    lam: float = DEFAULT_LAMBDA
    lambda_policy: str = "fixed"
    label_mode: str = "hard"
    pairing: str = "distinct"
    epochs: int = 1
    seed: int = 0

    def __post_init__(self):
        if not is_finite_number(self.lam):
            raise InvalidInputError(f"mix ratio must be a finite number, got {self.lam!r}")
        if not (is_integer(self.epochs) and is_integer(self.seed)):
            raise InvalidInputError(
                f"mixup epochs and seed must be integers, got {self.epochs!r}, {self.seed!r}"
            )
        for what, value, names in (
            ("lambda policy", self.lambda_policy, LAMBDA_POLICIES),
            ("label mode", self.label_mode, LABEL_MODES),
            ("pairing rule", self.pairing, PAIRINGS),
        ):
            if value not in names:
                raise InvalidInputError(f"unknown {what} {value!r}; expected one of {', '.join(names)}")
        if self.lambda_policy == "fixed" and not 0.5 < self.lam <= 1.0:
            raise InvalidInputError(
                f"fixed mix ratio must lie in (0.5, 1.0], got {self.lam}"
            )
        if self.epochs < 1 or self.seed < 0:
            raise InvalidInputError(f"mixup needs epochs >= 1 and seed >= 0: {self.epochs}, {self.seed}")


def checked_config(cfg):
    """``cfg`` if it is a MixupConfig; anything else raises InvalidInputError."""
    if not isinstance(cfg, MixupConfig):
        raise InvalidInputError(f"mixup config must be a MixupConfig, got {cfg!r}")
    return cfg


@dataclass(frozen=True, kw_only=True)
class PseudoTargetSet(PredictionBatch):
    """The labeled pseudo-target set: mixed samples' logits and their pseudo labels.

    Sample i mixes target rows ``index_a[i]`` and ``index_b[i]`` with ratio
    ``lam[i]``; ``pl_a`` and ``pl_b`` are their pseudo labels, and
    ``labels`` (the paper's y_pt) is the dominant row's. The provenance
    arrays are read-only copies, as ``labels`` is, so ``labels`` cannot
    come to disagree with ``lam``.
    """

    index_a: np.ndarray
    index_b: np.ndarray
    lam: np.ndarray
    pl_a: np.ndarray
    pl_b: np.ndarray

    size = PredictionBatch.n  # the row count under its older name, which perfbench reads

    def __post_init__(self):
        super().__post_init__()
        for name in ("index_a", "index_b", "lam", "pl_a", "pl_b"):
            what = f"pseudo set {name}"
            value = frozen_copy(getattr(self, name), what, 1, integer=name != "lam")
            if value.shape != (self.n,):
                raise InvalidInputError(
                    f"{what} must hold one entry per sample ({self.n}), got {len(value)}"
                )
            if name != "lam" and value.min() < 0:
                raise InvalidInputError(f"{what} must be >= 0")
            if name.startswith("pl_") and value.max() >= self.num_classes:
                raise InvalidInputError(f"{what} must lie in [0, {self.num_classes})")
            object.__setattr__(self, name, value)

    @property
    def dominant_index(self):
        """The target row that outweighs the other in each mixture."""
        return np.where(self.lam > 0.5, self.index_a, self.index_b)


def infer(model, inputs):
    """The one checked inference call: the model's logits as a finite (n, C) matrix.

    The matrix is read-only, so a PredictionBatch can hold it without a
    copy. Logits that view other memory, or share the inputs' memory (a
    model that returns its inputs), are copied first rather than frozen.
    """
    logits = finite_array(model.predict_logits(inputs), "model logits", 2)
    if logits.shape[0] != len(inputs):
        raise InvalidInputError("model returned logits with unexpected shape")
    if not logits.flags.owndata or np.may_share_memory(logits, inputs):
        logits = logits.copy()
    logits.setflags(write=False)
    return logits


def synthesize(model, target_inputs, target_pseudo_labels, cfg):
    """Build a pseudo-target set from unlabeled target inputs and their pseudo labels.

    ``target_pseudo_labels`` is the model's predicted class per target
    input (``argmax_rows`` of its logits), so the caller can drop the
    target logits before the mixed set is inferred. Per epoch: shuffle,
    pair sample i with shuffled counterpart, draw the mix ratios and keep
    pairs according to ``cfg.pairing``. After the last epoch, every kept
    pair's inputs are mixed with its ratio and inferred once, and the set
    carries those logits. The label mode plays no part here: it is the
    fit's choice. Raises DegenerateTargetError when no pair at all survives.
    """
    cfg = checked_config(cfg)
    inputs = finite_array(target_inputs, "target inputs", 2)
    if inputs.shape[0] < 2:
        raise InvalidInputError("target inputs must be an (n>=2, d) matrix")
    n = inputs.shape[0]
    pl = finite_array(target_pseudo_labels, "target pseudo labels", 1, integer=True)
    if pl.shape != (n,) or pl.min() < 0:
        raise InvalidInputError("target pseudo labels must hold one label >= 0 per target input")

    rng = np.random.default_rng(cfg.seed)
    pairs = []
    for _ in range(cfg.epochs):
        perm = rng.permutation(n)
        if cfg.lambda_policy == "beta":
            lam = rng.beta(BETA_ALPHA, BETA_ALPHA, size=n)
        else:
            lam = np.full(n, cfg.lam)
        if cfg.pairing == "distinct":
            keep = pl != pl[perm]
        else:
            keep = (pl == pl[perm]) & (np.arange(n) != perm)
        pairs.append((np.flatnonzero(keep), perm[keep], lam[keep]))
    idx_a, idx_b, lam = (np.concatenate(col) for col in zip(*pairs))
    del pairs

    if not idx_a.size:
        single = int(pl[0]) if np.all(pl == pl[0]) else None
        detail = (
            f"every target sample received pseudo label {single}"
            if single is not None
            else "no pair survived the pairing filter"
        )
        raise DegenerateTargetError(
            f"pseudo-target synthesis is degenerate: {detail}", predicted_class=single
        )

    logits = infer(model, lam[:, None] * inputs[idx_a] + (1.0 - lam[:, None]) * inputs[idx_b])
    if pl.max() >= logits.shape[1]:
        raise InvalidInputError(f"target pseudo labels must lie in [0, {logits.shape[1]})")
    return PseudoTargetSet(
        logits=logits, labels=np.where(lam > 0.5, pl[idx_a], pl[idx_b]),
        index_a=idx_a, index_b=idx_b, lam=lam, pl_a=pl[idx_a], pl_b=pl[idx_b],
    )


def fit_on_pseudo_set(pseudo, label_mode):
    """Fit a temperature on the pseudo set's logits against its hard or soft targets.

    The soft targets put ``lam`` on ``pl_a`` and ``1 - lam`` on ``pl_b``,
    written in place into one (n, C) matrix that lives only for the fit.
    """
    if MixupConfig(label_mode=label_mode).label_mode == "hard":
        return fit_temperature(pseudo)
    rows = np.arange(pseudo.n)
    soft = np.zeros(pseudo.logits.shape)
    soft[rows, pseudo.pl_a] = pseudo.lam
    soft[rows, pseudo.pl_b] += 1.0 - pseudo.lam
    return fit_temperature(pseudo, soft_labels=soft)


def pseudo_set(model, target_inputs, cfg):
    """PseudoCal's target pass: infer the target, take its pseudo labels and synthesize.

    The target logits are freed once their pseudo labels are taken, before
    the mixed set is inferred, so one n x C logit matrix is alive at a time.
    """
    cfg = checked_config(cfg)
    return synthesize(model, target_inputs, argmax_rows(infer(model, target_inputs)), cfg)


def calibrate(model, target_inputs, cfg=None):
    """PseudoCal: synthesize a pseudo-target set and fit a temperature on it."""
    cfg = MixupConfig() if cfg is None else cfg
    return fit_on_pseudo_set(pseudo_set(model, target_inputs, cfg), cfg.label_mode)


def correspondence_rate(pseudo, target_labels):
    """Fraction of pairs whose pseudo-sample correctness matches the dominant real sample's.

    A pair corresponds when the mixed sample (judged against its pseudo
    label) and its dominant constituent (judged against its true label)
    are both correct or both wrong. Diagnostic only: needs true labels.
    """
    labels = class_indices(target_labels, None, pseudo.num_classes, "target labels")
    dominant = pseudo.dominant_index
    if dominant.max() >= len(labels):
        raise InvalidInputError("target labels must cover every target row the pseudo set mixes")
    dominant_correct = pseudo.labels == labels[dominant]
    return float(np.mean(pseudo.correct() == dominant_correct))


def variant_pseudo_label(target_logits):
    """Fit the temperature on real samples against their own pseudo labels.

    Every sample is trivially "correct", so the NLL objective pushes the
    temperature to the sharpening boundary T_MIN.
    """
    pl = argmax_rows(target_logits)
    return fit_temperature(PredictionBatch(logits=target_logits, labels=pl))


def variant_filtered_pl(target_logits):
    """The pseudo-label fit on the samples with confidence >= FILTER_THRESHOLD."""
    batch = PredictionBatch(logits=target_logits)
    keep = batch.confidences() >= FILTER_THRESHOLD
    if not np.any(keep):
        raise EmptyFilterError(
            f"no sample reaches confidence {FILTER_THRESHOLD}; filtered pseudo-label fit is empty"
        )
    return variant_pseudo_label(batch.logits[keep])


def write_provenance_csv(pseudo, path_or_file):
    """Audit trail: one row per pseudo sample with its pair and correctness."""
    write_csv(path_or_file, {
        "index_a": pseudo.index_a,
        "index_b": pseudo.index_b,
        "lambda": pseudo.lam,
        "pl_a": pseudo.pl_a,
        "pl_b": pseudo.pl_b,
        "y_pt": pseudo.labels,
        "pseudo_correct": pseudo.correct().astype(int),
    })
