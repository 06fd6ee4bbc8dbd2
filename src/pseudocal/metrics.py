"""Calibration-error metrics and reliability-diagram bin statistics."""

from dataclasses import dataclass

import numpy as np

from .documents import write_csv
from .errors import InvalidInputError, LabelsRequiredError
from .numerics import (
    argmax_rows, checked_number, class_indices, finite_array, frozen_copy, log_softmax,
    reduce_classes, softmax,
)

DEFAULT_BINS = 15


@dataclass(frozen=True)
class PredictionBatch:
    """Model outputs for a set of samples.

    ``logits`` is an (n, C) matrix; ``labels`` is an optional length-n
    vector of true class indices. Arrays are frozen so a batch can be
    shared freely across threads. A float64 logit array that owns its data
    and is already read-only (as ``pseudo_target.infer`` returns) is kept
    as it is; any other input is copied, so later writes by the caller
    cannot leak in.
    """

    logits: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        logits = finite_array(self.logits, "logits", 2)
        if logits.shape[0] < 1 or logits.shape[1] < 2:
            raise InvalidInputError(f"logits must be (n>=1, C>=2), got shape {logits.shape}")
        if not (logits is self.logits and logits.flags.owndata and not logits.flags.writeable):
            logits = logits.copy()
        logits.setflags(write=False)
        object.__setattr__(self, "logits", logits)
        if self.labels is not None:
            labels = class_indices(self.labels, *logits.shape, "labels").copy()
            labels.setflags(write=False)
            object.__setattr__(self, "labels", labels)

    @property
    def n(self):
        return self.logits.shape[0]

    @property
    def num_classes(self):
        return self.logits.shape[1]

    @property
    def has_labels(self):
        return self.labels is not None

    def probabilities(self):
        """Row-wise softmax of the logits."""
        return softmax(self.logits)

    def predictions(self):
        """Predicted class per sample (argmax, lowest index on ties)."""
        return argmax_rows(self.logits)

    def confidences(self):
        """Max softmax probability per sample, without the probability matrix.

        The argmax entry of ``exp(z - max z)`` is ``exp(0) = 1`` and division
        is monotone, so ``1 / sum(exp(z - max z))`` is the max of
        ``probabilities()`` bit for bit.
        """
        with np.errstate(over="ignore"):  # as in numerics._shifted, an overflowing entry is -inf
            e = self.logits - reduce_classes(np.maximum, self.logits)
        np.exp(e, out=e)
        return 1.0 / reduce_classes(np.add, e)[:, 0]

    def correct(self):
        """Boolean correctness flags; requires labels."""
        if self.labels is None:
            raise LabelsRequiredError("correctness flags require labels")
        return self.predictions() == self.labels

    def accuracy(self):
        return float(np.mean(self.correct()))


@dataclass(frozen=True)
class BinStats:
    """Per-bin accuracy/confidence records over an equal-width partition of (0, 1].

    Bin i of ``bin_count`` covers (i / bin_count, (i + 1) / bin_count].
    ``n``, the number of binned samples, is the sum of ``count``. The
    arrays are read-only copies of one length >= 1, ``count`` of integers
    >= 0 with at least one sample, and ``accuracy`` and ``confidence`` of
    per-bin means in [0, 1].
    """

    count: np.ndarray
    accuracy: np.ndarray
    confidence: np.ndarray

    def __post_init__(self):
        for name in ("count", "accuracy", "confidence"):
            value = frozen_copy(getattr(self, name), f"bin {name}", 1, integer=name == "count")
            object.__setattr__(self, name, value)
            if len(value) != check_bins(self.bin_count):  # the length of count, >= 1
                raise InvalidInputError(
                    f"bin {name} must hold one entry per bin ({self.bin_count}), got {len(value)}"
                )
            if name != "count" and np.any((value < 0.0) | (value > 1.0)):
                raise InvalidInputError(f"bin {name} must lie in [0, 1], got {value.tolist()}")
        if not (np.all(self.count >= 0) and self.n >= 1):
            raise InvalidInputError(
                f"bin counts must be >= 0 and hold at least one sample, got {self.count.tolist()}"
            )

    @property
    def bin_count(self):
        return len(self.count)

    @property
    def n(self):
        return int(self.count.sum())

    def ece(self):
        """Expected calibration error: bin-weighted mean |accuracy - confidence|."""
        weights = self.count / self.n
        return float(np.sum(weights * np.abs(self.accuracy - self.confidence)))


def _require_labels(batch):
    if not batch.has_labels:
        raise LabelsRequiredError("operation requires a labeled batch")


def check_bins(num_bins):
    """``num_bins`` as an int; anything but an integer >= 1 (a bool too) is an InvalidInputError."""
    return checked_number(num_bins, "the bin count", True, " >= 1", lambda v: v >= 1)


def _bin_index(confidences, num_bins):
    # (lower, upper] membership; a confidence of exactly 0 goes to bin 1.
    edges = np.linspace(0.0, 1.0, num_bins + 1)
    idx = np.searchsorted(edges, confidences, side="left") - 1
    return np.clip(idx, 0, num_bins - 1)


def reliability_bins(batch, num_bins=DEFAULT_BINS):
    """Bin statistics behind reliability diagrams and ECE.

    Samples fall into the bin whose (lower, upper] interval contains
    their confidence. Empty bins are recorded with count 0.
    """
    _require_labels(batch)
    num_bins = check_bins(num_bins)
    conf = batch.confidences()
    correct = batch.correct().astype(np.float64)
    idx = _bin_index(conf, num_bins)

    count = np.bincount(idx, minlength=num_bins)
    acc = np.zeros(num_bins)
    mean_conf = np.zeros(num_bins)
    nonempty = count > 0
    acc[nonempty] = np.bincount(idx, weights=correct, minlength=num_bins)[nonempty] / count[nonempty]
    mean_conf[nonempty] = np.bincount(idx, weights=conf, minlength=num_bins)[nonempty] / count[nonempty]

    return BinStats(count=count, accuracy=acc, confidence=mean_conf)


def ece(batch, num_bins=DEFAULT_BINS):
    """Expected calibration error of ``batch``'s reliability bins (``BinStats.ece``)."""
    return reliability_bins(batch, num_bins).ece()


def mean_nll(batch):
    """Mean per-sample negative log-likelihood over a labeled batch.

    Exact log-softmax of the logits with no probability clamp: the same
    NLL the temperature fit minimizes.
    """
    _require_labels(batch)
    logp = log_softmax(batch.logits)
    return float(np.mean(-logp[np.arange(batch.n), batch.labels]))


def mean_brier(batch):
    """Mean per-sample Brier score (1/C normalization) over a labeled batch."""
    _require_labels(batch)
    p = batch.probabilities()
    p[np.arange(batch.n), batch.labels] -= 1.0
    return float(np.mean(reduce_classes(np.add, p**2)[:, 0] / batch.num_classes))


def bin_columns(*stats):
    """The bins of one or more BinStats as named CSV columns, stacked in order.

    The edges are the ones ``_bin_index`` bins by.
    """
    edges = [np.linspace(0.0, 1.0, s.bin_count + 1) for s in stats]
    columns = {"bin_lower": [e[:-1] for e in edges], "bin_upper": [e[1:] for e in edges]}
    for name in ("count", "accuracy", "confidence"):
        columns[name] = [getattr(s, name) for s in stats]
    return {column: np.concatenate(parts) if stats else [] for column, parts in columns.items()}


def bin_stats_to_csv(stats, path_or_file):
    """Write BinStats as CSV: bin_lower, bin_upper, count, accuracy, confidence."""
    write_csv(path_or_file, bin_columns(stats))
