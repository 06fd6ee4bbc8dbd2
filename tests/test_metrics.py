import io
import math

import numpy as np
import pytest

from pseudocal import metrics
from pseudocal.errors import InvalidInputError, LabelsRequiredError

from _util import brier, ece_bruteforce, nll, random_batch


def batch_with_confidences(conf, correct):
    """Two-class batch whose max-softmax confidences equal ``conf`` exactly."""
    conf = np.asarray(conf, dtype=np.float64)
    logits = np.stack([np.log(conf / (1.0 - conf)), np.zeros(len(conf))], axis=1)
    labels = np.where(np.asarray(correct) == 1, 0, 1)
    return metrics.PredictionBatch(logits=logits, labels=labels)


def test_batch_validation():
    with pytest.raises(InvalidInputError):
        metrics.PredictionBatch(logits=[[np.inf, 0.0]])
    with pytest.raises(InvalidInputError):
        metrics.PredictionBatch(logits=[[1.0]])
    with pytest.raises(InvalidInputError):
        metrics.PredictionBatch(logits=[[1.0, 0.0]], labels=[2])
    with pytest.raises(InvalidInputError):
        metrics.PredictionBatch(logits=[[1.0, 0.0]], labels=[0, 1])
    # labels are class indices, never cast: no floats, booleans or strings
    for bad in ([0.7, 1.2], [True, False], ["a", "b"]):
        with pytest.raises(InvalidInputError):
            metrics.PredictionBatch(logits=[[1.0, 0.0], [0.0, 1.0]], labels=bad)


def test_batch_is_frozen():
    b = metrics.PredictionBatch(logits=[[1.0, 0.0]], labels=[0])
    with pytest.raises(ValueError):
        b.logits[0, 0] = 5.0


def test_batch_keeps_frozen_float64_logits_and_copies_the_rest():
    frozen = np.array([[1.0, 0.0], [0.0, 2.0]])
    frozen.setflags(write=False)
    assert np.shares_memory(metrics.PredictionBatch(logits=frozen).logits, frozen)
    writeable = np.array([[1.0, 0.0], [0.0, 2.0]])
    view = frozen[:, ::-1]  # read-only, but someone else's memory
    single = np.array([[1.0, 0.0]], dtype=np.float32)
    single.setflags(write=False)
    for logits in (writeable, view, single):
        b = metrics.PredictionBatch(logits=logits)
        assert not np.shares_memory(b.logits, logits)
        assert not b.logits.flags.writeable
    b = metrics.PredictionBatch(logits=writeable)
    writeable[0, 0] = 9.0
    assert b.logits[0, 0] == 1.0


def test_reliability_bins_hand_case():
    # confidences [0.6, 0.7, 0.8, 0.9] with correctness [1, 0, 0, 1], M=2:
    # all four land in bin (0.5, 1.0] with acc 0.5 and mean conf 0.75
    b = batch_with_confidences([0.6, 0.7, 0.8, 0.9], [1, 0, 0, 1])
    stats = metrics.reliability_bins(b, 2)
    assert list(stats.count) == [0, 4]
    assert stats.accuracy[1] == pytest.approx(0.5)
    assert stats.confidence[1] == pytest.approx(0.75)


def test_reliability_bins_single_confident_sample():
    b = metrics.PredictionBatch(logits=[[60.0, 0.0]], labels=[0])
    stats = metrics.reliability_bins(b, 15)
    assert stats.count[-1] == 1
    assert stats.count.sum() == 1
    assert stats.accuracy[-1] == pytest.approx(1.0)
    assert stats.confidence[-1] == pytest.approx(1.0)


def test_bins_partition_preserves_n():
    rng = np.random.default_rng(3)
    for _ in range(20):
        b = random_batch(rng)
        for m in (1, 2, 7, 15):
            stats = metrics.reliability_bins(b, m)
            assert stats.count.sum() == b.n
            nonempty = stats.count > 0
            assert np.all(stats.accuracy[nonempty] >= 0)
            assert np.all(stats.accuracy[nonempty] <= 1)
            assert np.all(stats.confidence[nonempty] >= 0)
            assert np.all(stats.confidence[nonempty] <= 1)


def test_reliability_bins_confidence_on_edge():
    # conf exactly 0.5 belongs to (0, 0.5], not (0.5, 1.0]
    b = metrics.PredictionBatch(logits=[[0.0, 0.0]], labels=[0])
    stats = metrics.reliability_bins(b, 2)
    assert list(stats.count) == [1, 0]
    assert stats.confidence[0] == pytest.approx(0.5)


def test_ece_perfect_predictions():
    b = metrics.PredictionBatch(logits=[[80.0, 0.0], [0.0, 80.0]], labels=[0, 1])
    assert metrics.ece(b, 15) == pytest.approx(0.0, abs=1e-12)


def test_ece_hand_case():
    b = batch_with_confidences([0.6, 0.7, 0.8, 0.9], [1, 0, 0, 1])
    assert metrics.ece(b, 2) == pytest.approx(0.25, abs=1e-12)


def test_ece_matches_bruteforce():
    rng = np.random.default_rng(17)
    for _ in range(50):
        b = random_batch(rng, n_max=50, c_max=5)
        m = int(rng.integers(1, 6))
        assert metrics.ece(b, m) == pytest.approx(
            ece_bruteforce(b.logits, b.labels, m), abs=1e-12
        )


def test_ece_permutation_invariant():
    rng = np.random.default_rng(23)
    b = random_batch(rng, n_max=40)
    perm = rng.permutation(b.n)
    shuffled = metrics.PredictionBatch(logits=b.logits[perm], labels=b.labels[perm])
    assert metrics.ece(b, 10) == pytest.approx(metrics.ece(shuffled, 10), abs=1e-12)


def test_ece_in_unit_interval():
    rng = np.random.default_rng(29)
    for _ in range(20):
        b = random_batch(rng)
        assert 0.0 <= metrics.ece(b, 15) <= 1.0


def test_mean_nll_perfect_and_uniform():
    perfect = metrics.PredictionBatch(logits=[[80.0, 0.0]], labels=[0])
    assert metrics.mean_nll(perfect) == pytest.approx(0.0, abs=1e-9)
    uniform = metrics.PredictionBatch(logits=[[0.0, 0.0], [0.0, 0.0]], labels=[0, 1])
    assert metrics.mean_nll(uniform) == pytest.approx(math.log(2), abs=1e-12)


def test_mean_nll_is_exact_for_confident_mistakes():
    wrong = metrics.PredictionBatch(logits=[[100.0, 0.0]], labels=[1])
    assert metrics.mean_nll(wrong) == pytest.approx(100.0, abs=1e-9)


def test_mean_brier_perfect_and_uniform():
    perfect = metrics.PredictionBatch(logits=[[80.0, 0.0]], labels=[0])
    assert metrics.mean_brier(perfect) == pytest.approx(0.0, abs=1e-9)
    uniform = metrics.PredictionBatch(logits=[[0.0, 0.0], [0.0, 0.0]], labels=[0, 1])
    assert metrics.mean_brier(uniform) == pytest.approx(0.25, abs=1e-12)


def test_mean_metrics_match_per_sample_oracle():
    rng = np.random.default_rng(31)
    for _ in range(10):
        b = random_batch(rng, n_max=30)
        probs = b.probabilities()
        nll_sum = sum(nll(probs[i], int(b.labels[i])) for i in range(b.n))
        brier_sum = sum(brier(probs[i], int(b.labels[i])) for i in range(b.n))
        assert metrics.mean_nll(b) == pytest.approx(nll_sum / b.n, abs=1e-12)
        assert metrics.mean_brier(b) == pytest.approx(brier_sum / b.n, abs=1e-12)


def test_labels_required():
    b = metrics.PredictionBatch(logits=[[1.0, 0.0]])
    with pytest.raises(LabelsRequiredError):
        metrics.reliability_bins(b, 5)
    with pytest.raises(LabelsRequiredError):
        metrics.ece(b, 5)
    with pytest.raises(LabelsRequiredError):
        metrics.mean_nll(b)
    with pytest.raises(LabelsRequiredError):
        metrics.mean_brier(b)


def test_bin_stats_csv():
    b = batch_with_confidences([0.6, 0.9], [1, 1])
    stats = metrics.reliability_bins(b, 2)
    buf = io.StringIO()
    metrics.bin_stats_to_csv(stats, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "bin_lower,bin_upper,count,accuracy,confidence"
    assert len(lines) == 3
    assert lines[2].startswith("0.5,1,2,1,")
