"""Pseudo-target synthesis by mixup over unlabeled target samples.

The calibration trick: pair target samples that the model labels
differently, mix each pair with ratio lam, and label the mixture with
the dominant sample's pseudo label. Mixtures near the decision boundary
come out wrongly predicted at roughly the same rate as real target
samples do, so a temperature fitted on this surrogate labeled set
approximates the oracle temperature fitted on true target labels.
"""

from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

import numpy as np

from .documents import write_csv
from .errors import DegenerateTargetError, EmptyFilterError, InvalidInputError
from .metrics import PredictionBatch
from .scalers import fit_temperature

BETA_ALPHA = 0.3
DEFAULT_LAMBDA = 0.65
FILTER_THRESHOLD = 0.95


@runtime_checkable
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
        if self.lambda_policy not in ("fixed", "beta"):
            raise InvalidInputError(f"unknown lambda policy {self.lambda_policy!r}")
        if self.label_mode not in ("hard", "soft"):
            raise InvalidInputError(f"unknown label mode {self.label_mode!r}")
        if self.pairing not in ("distinct", "same"):
            raise InvalidInputError(f"unknown pairing rule {self.pairing!r}")
        if self.lambda_policy == "fixed" and not 0.5 < self.lam <= 1.0:
            raise InvalidInputError(
                f"fixed mix ratio must lie in (0.5, 1.0], got {self.lam}"
            )
        if self.epochs < 1 or self.seed < 0:
            raise InvalidInputError(f"mixup needs epochs >= 1 and seed >= 0: {self.epochs}, {self.seed}")


@dataclass(frozen=True)
class PseudoTargetSet:
    """Mixed samples with their logits, pseudo labels and per-pair provenance."""

    inputs: np.ndarray
    logits: np.ndarray
    hard_labels: np.ndarray
    soft_labels: np.ndarray | None = None
    index_a: np.ndarray | None = None
    index_b: np.ndarray | None = None
    lam: np.ndarray | None = None
    pl_a: np.ndarray | None = None
    pl_b: np.ndarray | None = None
    dominant_index: np.ndarray | None = field(default=None)

    @property
    def size(self):
        return self.inputs.shape[0]

    @property
    def num_classes(self):
        return self.logits.shape[1]

    @property
    def has_provenance(self):
        return self.index_a is not None


def infer(model, inputs):
    """The one checked inference call: the model's logits as a finite (n, C) matrix.

    The matrix is read-only, so a PredictionBatch can hold it without a
    copy. Logits that view other memory, or share the inputs' memory (a
    model that returns its inputs), are copied first rather than frozen.
    """
    logits = np.asarray(model.predict_logits(inputs), dtype=np.float64)
    if logits.ndim != 2 or logits.shape[0] != len(inputs):
        raise InvalidInputError("model returned logits with unexpected shape")
    if not np.all(np.isfinite(logits)):
        raise InvalidInputError("model returned non-finite logits")
    if not logits.flags.owndata or np.may_share_memory(logits, inputs):
        logits = logits.copy()
    logits.setflags(write=False)
    return logits


def synthesize(model, target_inputs, target_logits, cfg):
    """Build a pseudo-target set from unlabeled target inputs and their logits.

    Per epoch: shuffle, pair sample i with shuffled counterpart, keep
    pairs according to ``cfg.pairing``, mix inputs with the mix ratio,
    and label by the dominant sample's pseudo label. The mixed inputs
    are inferred once, and the set carries those logits. Raises
    DegenerateTargetError when no pair at all survives.
    """
    inputs = np.asarray(target_inputs, dtype=np.float64)
    if inputs.ndim != 2 or inputs.shape[0] < 2:
        raise InvalidInputError("target inputs must be an (n>=2, d) matrix")
    n = inputs.shape[0]
    if np.shape(target_logits)[0] != n:
        raise InvalidInputError("target logits must hold one row per target input")
    pl = np.argmax(target_logits, axis=1)
    num_classes = np.shape(target_logits)[1]

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
        dominant = np.where(lam > 0.5, idx_a, idx_b)
        hard = np.where(lam > 0.5, pl[idx_a], pl[idx_b])
        parts.append((mixed, hard, idx_a, idx_b, lam, dominant))

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

    mixed, hard, idx_a, idx_b, lam, dominant = (np.concatenate(col) for col in zip(*parts))
    del parts  # the per-epoch copies must not outlive the mixed-set inference

    soft = None
    if cfg.label_mode == "soft":
        onehot_a = np.eye(num_classes)[pl[idx_a]]
        onehot_b = np.eye(num_classes)[pl[idx_b]]
        soft = lam[:, None] * onehot_a + (1.0 - lam[:, None]) * onehot_b

    return PseudoTargetSet(
        inputs=mixed,
        logits=infer(model, mixed),
        hard_labels=hard,
        soft_labels=soft,
        index_a=idx_a,
        index_b=idx_b,
        lam=lam,
        pl_a=pl[idx_a],
        pl_b=pl[idx_b],
        dominant_index=dominant,
    )


def fit_on_pseudo_set(pseudo, label_mode):
    """Fit a temperature on the pseudo set's logits against its hard or soft labels."""
    if label_mode == "soft":
        if pseudo.soft_labels is None:
            raise InvalidInputError("pseudo-target set carries no soft labels")
        batch = PredictionBatch(logits=pseudo.logits)
        return fit_temperature(batch, soft_labels=pseudo.soft_labels)
    return fit_temperature(PredictionBatch(logits=pseudo.logits, labels=pseudo.hard_labels))


def calibrate(model, target_inputs, cfg=None):
    """PseudoCal: synthesize a pseudo-target set and fit a temperature on it."""
    cfg = cfg or MixupConfig()
    pseudo = synthesize(model, target_inputs, infer(model, target_inputs), cfg)
    return fit_on_pseudo_set(pseudo, cfg.label_mode)


def _pseudo_correct(pseudo):
    if not pseudo.has_provenance:
        raise InvalidInputError("pseudo-target set carries no provenance")
    return np.argmax(pseudo.logits, axis=1) == pseudo.hard_labels


def correspondence_rate(pseudo, target_labels):
    """Fraction of pairs whose pseudo-sample correctness matches the dominant real sample's.

    A pair corresponds when the mixed sample (judged against its pseudo
    label) and its dominant constituent (judged against its true label)
    are both correct or both wrong. Diagnostic only: needs true labels.
    """
    pseudo_correct = _pseudo_correct(pseudo)
    target_labels = np.asarray(target_labels, dtype=np.int64)
    dominant_pl = np.where(pseudo.lam > 0.5, pseudo.pl_a, pseudo.pl_b)
    dominant_correct = dominant_pl == target_labels[pseudo.dominant_index]
    return float(np.mean(pseudo_correct == dominant_correct))


def variant_pseudo_label(target_logits):
    """Fit the temperature on real samples against their own pseudo labels.

    Every sample is trivially "correct", so the NLL objective pushes the
    temperature to the sharpening boundary T_MIN.
    """
    pl = np.argmax(target_logits, axis=1)
    return fit_temperature(PredictionBatch(logits=target_logits, labels=pl))


def variant_filtered_pl(target_logits, threshold=FILTER_THRESHOLD):
    """Pseudo-label fit restricted to samples with confidence >= threshold."""
    if not 0.0 < threshold < 1.0:
        raise InvalidInputError("threshold must lie in (0, 1)")
    pl = np.argmax(target_logits, axis=1)
    batch = PredictionBatch(logits=target_logits, labels=pl)
    keep = batch.confidences() >= threshold
    if not np.any(keep):
        raise EmptyFilterError(
            f"no sample reaches confidence {threshold}; filtered pseudo-label fit is empty"
        )
    return fit_temperature(PredictionBatch(logits=batch.logits[keep], labels=pl[keep]))


def write_provenance_csv(pseudo, path_or_file):
    """Audit trail: one row per pseudo sample with its pair and correctness."""
    pseudo_correct = _pseudo_correct(pseudo).astype(int)
    rows = [
        (
            int(pseudo.index_a[i]),
            int(pseudo.index_b[i]),
            f"{pseudo.lam[i]:.10g}",
            int(pseudo.pl_a[i]),
            int(pseudo.pl_b[i]),
            int(pseudo.hard_labels[i]),
            int(pseudo_correct[i]),
        )
        for i in range(pseudo.size)
    ]
    header = ["index_a", "index_b", "lambda", "pl_a", "pl_b", "y_pt", "pseudo_correct"]
    write_csv(path_or_file, header, rows)
