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
    argmax_rows, class_indices, finite_array, is_finite_number, is_integer,
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
        if self.lambda_policy not in LAMBDA_POLICIES:
            raise InvalidInputError(f"unknown lambda policy {self.lambda_policy!r}")
        if self.label_mode not in LABEL_MODES:
            raise InvalidInputError(f"unknown label mode {self.label_mode!r}")
        if self.pairing not in PAIRINGS:
            raise InvalidInputError(f"unknown pairing rule {self.pairing!r}")
        if self.lambda_policy == "fixed" and not 0.5 < self.lam <= 1.0:
            raise InvalidInputError(
                f"fixed mix ratio must lie in (0.5, 1.0], got {self.lam}"
            )
        if self.epochs < 1 or self.seed < 0:
            raise InvalidInputError(f"mixup needs epochs >= 1 and seed >= 0: {self.epochs}, {self.seed}")


@dataclass(frozen=True)
class PseudoTargetSet:
    """Mixed samples' logits, with the pair each was mixed from.

    Sample i mixes target rows ``index_a[i]`` and ``index_b[i]`` with ratio
    ``lam[i]``; ``pl_a`` and ``pl_b`` are their pseudo labels. Its targets
    derive from those: ``hard_labels`` here, soft ones in ``fit_on_pseudo_set``.
    """

    logits: np.ndarray
    index_a: np.ndarray
    index_b: np.ndarray
    lam: np.ndarray
    pl_a: np.ndarray
    pl_b: np.ndarray

    @property
    def size(self):
        return self.logits.shape[0]

    @property
    def dominant_index(self):
        """The target row that outweighs the other in each mixture."""
        return np.where(self.lam > 0.5, self.index_a, self.index_b)

    @property
    def hard_labels(self):
        """The dominant row's pseudo label per mixture."""
        return np.where(self.lam > 0.5, self.pl_a, self.pl_b)


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
    pair sample i with shuffled counterpart, keep pairs according to
    ``cfg.pairing`` and mix inputs with the mix ratio. The mixed inputs are
    inferred once, and the set carries those logits. The label mode plays
    no part here: it is the fit's choice. Raises DegenerateTargetError when
    no pair at all survives.
    """
    inputs = finite_array(target_inputs, "target inputs", 2)
    if inputs.shape[0] < 2:
        raise InvalidInputError("target inputs must be an (n>=2, d) matrix")
    n = inputs.shape[0]
    pl = finite_array(target_pseudo_labels, "target pseudo labels", 1, integer=True)
    if pl.shape != (n,):
        raise InvalidInputError("target pseudo labels must hold one label per target input")

    rng = np.random.default_rng(cfg.seed)
    parts = []
    for _ in range(cfg.epochs):
        perm = rng.permutation(n)
        pl_a, pl_b = pl, pl[perm]
        if cfg.lambda_policy == "beta":
            lam = rng.beta(BETA_ALPHA, BETA_ALPHA, size=n)
        else:
            lam = np.full(n, cfg.lam)
        if cfg.pairing == "distinct":
            keep = pl_a != pl_b
        else:
            keep = (pl_a == pl_b) & (np.arange(n) != perm)
        if not np.any(keep):
            continue
        idx_a = np.flatnonzero(keep)
        idx_b = perm[keep]
        lam = lam[keep]
        mixed = lam[:, None] * inputs[idx_a] + (1.0 - lam[:, None]) * inputs[idx_b]
        parts.append((mixed, idx_a, idx_b, lam))

    if not parts:
        single = int(pl[0]) if np.all(pl == pl[0]) else None
        detail = (
            f"every target sample received pseudo label {single}"
            if single is not None
            else "no pair survived the pairing filter"
        )
        raise DegenerateTargetError(
            f"pseudo-target synthesis is degenerate: {detail}", predicted_class=single
        )

    mixed, idx_a, idx_b, lam = (np.concatenate(col) for col in zip(*parts))
    del parts  # the per-epoch copies must not outlive the mixed-set inference
    logits = infer(model, mixed)
    del mixed
    if pl.min() < 0 or pl.max() >= logits.shape[1]:
        raise InvalidInputError(f"target pseudo labels must lie in [0, {logits.shape[1]})")
    return PseudoTargetSet(
        logits=logits, index_a=idx_a, index_b=idx_b, lam=lam, pl_a=pl[idx_a], pl_b=pl[idx_b]
    )


def fit_on_pseudo_set(pseudo, label_mode):
    """Fit a temperature on the pseudo set's logits against its hard or soft targets.

    The soft targets put ``lam`` on ``pl_a`` and ``1 - lam`` on ``pl_b``,
    written in place into one (n, C) matrix that lives only for the fit.
    """
    if label_mode not in LABEL_MODES:
        raise InvalidInputError(f"unknown label mode {label_mode!r}")
    if label_mode == "hard":
        return fit_temperature(PredictionBatch(logits=pseudo.logits, labels=pseudo.hard_labels))
    rows = np.arange(pseudo.size)
    soft = np.zeros(pseudo.logits.shape)
    soft[rows, pseudo.pl_a] = pseudo.lam
    soft[rows, pseudo.pl_b] += 1.0 - pseudo.lam
    return fit_temperature(PredictionBatch(logits=pseudo.logits), soft_labels=soft)


def calibrate(model, target_inputs, cfg=None):
    """PseudoCal: synthesize a pseudo-target set and fit a temperature on it."""
    cfg = cfg or MixupConfig()
    # The target logits die once their pseudo labels are taken.
    pseudo = synthesize(model, target_inputs, argmax_rows(infer(model, target_inputs)), cfg)
    return fit_on_pseudo_set(pseudo, cfg.label_mode)


def _pseudo_correct(pseudo):
    return argmax_rows(pseudo.logits) == pseudo.hard_labels


def correspondence_rate(pseudo, target_labels):
    """Fraction of pairs whose pseudo-sample correctness matches the dominant real sample's.

    A pair corresponds when the mixed sample (judged against its pseudo
    label) and its dominant constituent (judged against its true label)
    are both correct or both wrong. Diagnostic only: needs true labels.
    """
    labels = class_indices(target_labels, None, pseudo.logits.shape[1], "target labels")
    dominant = pseudo.dominant_index
    if dominant.max() >= len(labels):
        raise InvalidInputError("target labels must cover every target row the pseudo set mixes")
    dominant_correct = pseudo.hard_labels == labels[dominant]
    return float(np.mean(_pseudo_correct(pseudo) == dominant_correct))


def variant_pseudo_label(target_logits):
    """Fit the temperature on real samples against their own pseudo labels.

    Every sample is trivially "correct", so the NLL objective pushes the
    temperature to the sharpening boundary T_MIN.
    """
    pl = argmax_rows(target_logits)
    return fit_temperature(PredictionBatch(logits=target_logits, labels=pl))


def variant_filtered_pl(target_logits, threshold=FILTER_THRESHOLD):
    """Pseudo-label fit restricted to samples with confidence >= threshold."""
    if not (is_finite_number(threshold) and 0.0 < threshold < 1.0):
        raise InvalidInputError(f"threshold must be a number in (0, 1), got {threshold!r}")
    pl = argmax_rows(target_logits)
    batch = PredictionBatch(logits=target_logits, labels=pl)
    keep = batch.confidences() >= threshold
    if not np.any(keep):
        raise EmptyFilterError(
            f"no sample reaches confidence {threshold}; filtered pseudo-label fit is empty"
        )
    return fit_temperature(PredictionBatch(logits=batch.logits[keep], labels=pl[keep]))


def write_provenance_csv(pseudo, path_or_file):
    """Audit trail: one row per pseudo sample with its pair and correctness."""
    write_csv(path_or_file, {
        "index_a": pseudo.index_a,
        "index_b": pseudo.index_b,
        "lambda": pseudo.lam,
        "pl_a": pseudo.pl_a,
        "pl_b": pseudo.pl_b,
        "y_pt": pseudo.hard_labels,
        "pseudo_correct": _pseudo_correct(pseudo).astype(int),
    })
