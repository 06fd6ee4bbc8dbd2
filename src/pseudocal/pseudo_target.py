"""Pseudo-target synthesis by mixup over unlabeled target samples.

The calibration trick: pair target samples that the model labels
differently, mix each pair with ratio lam, and label the mixture with
the dominant sample's pseudo label. Mixtures near the decision boundary
come out wrongly predicted at roughly the same rate as real target
samples do, so a temperature fitted on this surrogate labeled set
approximates the oracle temperature fitted on true target labels.
"""

import csv
import io
from dataclasses import dataclass, field, replace
from typing import Protocol, runtime_checkable

import numpy as np

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
        if self.epochs < 1:
            raise InvalidInputError("epochs must be >= 1")


@dataclass(frozen=True)
class PseudoTargetSet:
    """Mixed samples with their pseudo labels and per-pair provenance."""

    inputs: np.ndarray
    hard_labels: np.ndarray
    num_classes: int
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
    def has_provenance(self):
        return self.index_a is not None


def _pseudo_labels(model, inputs):
    logits = np.asarray(model.predict_logits(inputs), dtype=np.float64)
    if logits.ndim != 2 or logits.shape[0] != inputs.shape[0]:
        raise InvalidInputError("model returned logits with unexpected shape")
    if not np.all(np.isfinite(logits)):
        raise InvalidInputError("model returned non-finite logits")
    return logits, np.argmax(logits, axis=1)


def synthesize(model, target_inputs, cfg):
    """Build a pseudo-target set from unlabeled target inputs.

    Per epoch: shuffle, pair sample i with shuffled counterpart, keep
    pairs according to ``cfg.pairing``, mix inputs with the mix ratio,
    and label by the dominant sample's pseudo label. Raises
    DegenerateTargetError when no pair at all survives.
    """
    inputs = np.asarray(target_inputs, dtype=np.float64)
    if inputs.ndim != 2 or inputs.shape[0] < 2:
        raise InvalidInputError("target inputs must be an (n>=2, d) matrix")
    n = inputs.shape[0]
    logits, pl = _pseudo_labels(model, inputs)
    num_classes = logits.shape[1]

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

    mixed = np.concatenate([p[0] for p in parts])
    hard = np.concatenate([p[1] for p in parts])
    idx_a = np.concatenate([p[2] for p in parts])
    idx_b = np.concatenate([p[3] for p in parts])
    lam = np.concatenate([p[4] for p in parts])
    dominant = np.concatenate([p[5] for p in parts])

    soft = None
    if cfg.label_mode == "soft":
        onehot_a = np.eye(num_classes)[pl[idx_a]]
        onehot_b = np.eye(num_classes)[pl[idx_b]]
        soft = lam[:, None] * onehot_a + (1.0 - lam[:, None]) * onehot_b

    return PseudoTargetSet(
        inputs=mixed,
        hard_labels=hard,
        num_classes=num_classes,
        soft_labels=soft,
        index_a=idx_a,
        index_b=idx_b,
        lam=lam,
        pl_a=pl[idx_a],
        pl_b=pl[idx_b],
        dominant_index=dominant,
    )


def fit_on_pseudo_set(model, pseudo, label_mode="hard"):
    """Run inference on the mixed samples and fit a temperature against their labels."""
    logits = np.asarray(model.predict_logits(pseudo.inputs), dtype=np.float64)
    if label_mode == "soft":
        if pseudo.soft_labels is None:
            raise InvalidInputError("pseudo-target set carries no soft labels")
        return fit_temperature(PredictionBatch(logits=logits), soft_labels=pseudo.soft_labels)
    return fit_temperature(PredictionBatch(logits=logits, labels=pseudo.hard_labels))


def calibrate(model, target_inputs, cfg=None):
    """PseudoCal: synthesize a pseudo-target set and fit a temperature on it."""
    cfg = cfg or MixupConfig()
    pseudo = synthesize(model, target_inputs, cfg)
    return fit_on_pseudo_set(model, pseudo, cfg.label_mode)


def correspondence_rate(model, pseudo, target_labels):
    """Fraction of pairs whose pseudo-sample correctness matches the dominant real sample's.

    A pair corresponds when the mixed sample (judged against its pseudo
    label) and its dominant constituent (judged against its true label)
    are both correct or both wrong. Diagnostic only: needs true labels.
    """
    if not pseudo.has_provenance:
        raise InvalidInputError("pseudo-target set carries no provenance")
    target_labels = np.asarray(target_labels, dtype=np.int64)
    _, pred = _pseudo_labels(model, pseudo.inputs)
    pseudo_correct = pred == pseudo.hard_labels
    dominant_pl = np.where(pseudo.lam > 0.5, pseudo.pl_a, pseudo.pl_b)
    dominant_correct = dominant_pl == target_labels[pseudo.dominant_index]
    return float(np.mean(pseudo_correct == dominant_correct))


def variant_pseudo_label(model, target_inputs):
    """Fit the temperature on real samples against their own pseudo labels.

    Every sample is trivially "correct", so the NLL objective pushes the
    temperature to the sharpening boundary T_MIN.
    """
    inputs = np.asarray(target_inputs, dtype=np.float64)
    logits, pl = _pseudo_labels(model, inputs)
    return fit_temperature(PredictionBatch(logits=logits, labels=pl))


def variant_filtered_pl(model, target_inputs, threshold=FILTER_THRESHOLD):
    """Pseudo-label fit restricted to samples with confidence >= threshold."""
    if not 0.0 < threshold < 1.0:
        raise InvalidInputError("threshold must lie in (0, 1)")
    inputs = np.asarray(target_inputs, dtype=np.float64)
    logits, pl = _pseudo_labels(model, inputs)
    batch = PredictionBatch(logits=logits, labels=pl)
    keep = batch.confidences() >= threshold
    if not np.any(keep):
        raise EmptyFilterError(
            f"no sample reaches confidence {threshold}; filtered pseudo-label fit is empty"
        )
    return fit_temperature(PredictionBatch(logits=logits[keep], labels=pl[keep]))


def variant_same_label(model, target_inputs, cfg=None):
    """Ablation: mix only pairs whose pseudo labels agree."""
    cfg = replace(cfg or MixupConfig(), pairing="same")
    return calibrate(model, target_inputs, cfg)


def variant_beta_mixup(model, target_inputs, cfg=None):
    """Ablation: per-pair mix ratios drawn from Beta(0.3, 0.3)."""
    cfg = replace(cfg or MixupConfig(), lambda_policy="beta")
    return calibrate(model, target_inputs, cfg)


def write_provenance_csv(pseudo, model, path_or_file):
    """Audit trail: one row per pseudo sample with its pair and correctness."""
    if not pseudo.has_provenance:
        raise InvalidInputError("pseudo-target set carries no provenance")
    _, pred = _pseudo_labels(model, pseudo.inputs)
    pseudo_correct = (pred == pseudo.hard_labels).astype(int)
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
    if isinstance(path_or_file, (str, bytes)) or hasattr(path_or_file, "__fspath__"):
        with open(path_or_file, "w", newline="") as fh:
            _write_provenance_rows(fh, rows)
    else:
        _write_provenance_rows(path_or_file, rows)


def _write_provenance_rows(fh, rows):
    writer = csv.writer(fh)
    writer.writerow(["index_a", "index_b", "lambda", "pl_a", "pl_b", "y_pt", "pseudo_correct"])
    writer.writerows(rows)


def provenance_csv_text(pseudo, model):
    buf = io.StringIO()
    write_provenance_csv(pseudo, model, buf)
    return buf.getvalue()
