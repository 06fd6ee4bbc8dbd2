import io
import math
import warnings

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pseudocal import metrics
from pseudocal.numerics import log_softmax, reduce_classes, softmax
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


def test_bin_count_must_be_an_integer_of_at_least_one():
    b = metrics.PredictionBatch(logits=[[2.0, 0.0], [0.0, 1.0]], labels=[0, 0])
    for bad in (0, -3, 2.5, 3.0, True, False, "3", None, math.nan, math.inf, []):
        for measure in (metrics.reliability_bins, metrics.ece):
            with pytest.raises(InvalidInputError, match="bin count"):
                measure(b, bad)
    stats = metrics.reliability_bins(b, np.int64(3))
    assert stats.bin_count == 3 and type(stats.bin_count) is int
    assert metrics.ece(b, np.int64(3)) == metrics.ece(b, 3)


def test_ece_perfect_predictions():
    b = metrics.PredictionBatch(logits=[[80.0, 0.0], [0.0, 80.0]], labels=[0, 1])
    assert metrics.ece(b, 15) == pytest.approx(0.0, abs=1e-12)


def test_ece_hand_case():
    b = batch_with_confidences([0.6, 0.7, 0.8, 0.9], [1, 0, 0, 1])
    assert metrics.ece(b, 2) == pytest.approx(0.25, abs=1e-12)


@pytest.mark.parametrize("change, message", [
    (dict(count=[1, 2, 0], accuracy=[1.0, 0.5, 0.0], confidence=[0.5, 0.6]),
     r"bin confidence must hold one entry per bin \(3\), got 2"),
    (dict(accuracy=[1.0]), r"bin accuracy must hold one entry per bin \(2\), got 1"),
    (dict(count=np.array([], dtype=int), accuracy=[], confidence=[]), "bin count must be an integer"),
    (dict(count=np.array([], dtype=int)), "bin count must be an integer"),
    (dict(count=[1, -1]), r"bin counts must be >= 0 and hold at least one sample, got \[1, -1\]"),
    (dict(count=[2, -1]), r"bin counts must be >= 0 and hold at least one sample, got \[2, -1\]"),
    (dict(count=[0, 0]), r"bin counts must be >= 0 and hold at least one sample, got \[0, 0\]"),
    (dict(count=[1.0, 3.0]), "bin count must be a 1-D array of integers"),
    (dict(accuracy=[0.0, 5.0], confidence=[0.4, -2.0]),
     r"bin accuracy must lie in \[0, 1\], got \[0.0, 5.0\]"),
    (dict(confidence=[0.4, -2.0]), r"bin confidence must lie in \[0, 1\], got \[0.4, -2.0\]"),
    (dict(accuracy=[-1e-300, 1.0]), r"bin accuracy must lie in \[0, 1\]"),
    (dict(confidence=[0.4, 1.0 + 2**-52]), r"bin confidence must lie in \[0, 1\]"),
])
def test_bin_stats_hold_one_entry_per_bin(change, message):
    valid = dict(count=[1, 3], accuracy=[0.0, 1.0], confidence=[0.4, 0.8])
    with pytest.raises(InvalidInputError, match=message):
        metrics.BinStats(**{**valid, **change})


def test_hand_built_bin_stats_weigh_ece_by_count_without_warning():
    stats = metrics.BinStats(
        count=np.array([1, 3]), accuracy=np.array([0.0, 1.0]), confidence=np.array([0.4, 0.8])
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert stats.n == 4 and stats.bin_count == 2
        assert stats.ece() == pytest.approx(0.25 * 0.4 + 0.75 * 0.2, rel=1e-15)


def test_bin_edge_columns_are_the_binning_linspace_bit_for_bit():
    b = random_batch(np.random.default_rng(21), n_max=40, c_max=4)
    stats = [metrics.reliability_bins(b, k) for k in range(1, 21)]
    edges = [np.linspace(0, 1, k + 1) for k in range(1, 21)]
    for one, e in zip(stats, edges):
        columns = metrics.bin_columns(one)
        assert columns["bin_lower"].tobytes() == e[:-1].tobytes()
        assert columns["bin_upper"].tobytes() == e[1:].tobytes()
    stacked = metrics.bin_columns(*stats)
    assert stacked["bin_lower"].tobytes() == np.concatenate([e[:-1] for e in edges]).tobytes()
    assert stacked["bin_upper"].tobytes() == np.concatenate([e[1:] for e in edges]).tobytes()


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


@settings(max_examples=100, deadline=None)
@given(
    st.tuples(st.integers(1, 20), st.integers(2, 16)).flatmap(
        lambda shape: hnp.arrays(
            np.float64,
            shape,
            elements=st.one_of(
                st.integers(-3, 3).map(float),  # small integers: ties for the max
                st.sampled_from([-1e3, 1e3]),
                st.floats(-1e3, 1e3),
            ),
        )
    )
)
def test_confidences_are_the_max_probability_bit_for_bit(z):
    b = metrics.PredictionBatch(logits=z)
    expected = reduce_classes(np.maximum, b.probabilities())[:, 0]
    assert repr(b.confidences().tolist()) == repr(expected.tolist())


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
    with pytest.raises(LabelsRequiredError, match="correctness"):
        b.correct()
    with pytest.raises(LabelsRequiredError, match="correctness"):
        b.accuracy()


def test_bin_stats_csv():
    b = batch_with_confidences([0.6, 0.9], [1, 1])
    stats = metrics.reliability_bins(b, 2)
    buf = io.StringIO()
    metrics.bin_stats_to_csv(stats, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "bin_lower,bin_upper,count,accuracy,confidence"
    assert len(lines) == 3
    assert lines[2].startswith("0.5,1,2,1,")


@pytest.mark.filterwarnings("error")
def test_rows_that_span_more_than_the_float_range_are_quiet():
    """Such a row shifts its lowest logit to -inf, probability 0, with no overflow warning."""
    z = np.array([[1e308, -1e308], [0.0, 1.0], [2.0, 0.5]])
    batch = metrics.PredictionBatch(logits=z, labels=[1, 1, 0])
    finite = metrics.PredictionBatch(logits=z[1:], labels=[1, 0])
    p = softmax(z)
    assert p[0].tolist() == [1.0, 0.0]
    assert log_softmax(z)[0].tolist() == [0.0, -np.inf]
    assert batch.confidences().tolist() == p.max(axis=1).tolist()
    assert metrics.ece(batch) == pytest.approx((1.0 + 2 * metrics.ece(finite)) / 3, rel=1e-12)
    assert metrics.mean_brier(batch) == pytest.approx((1.0 + 2 * metrics.mean_brier(finite)) / 3)
    assert metrics.mean_nll(batch) == np.inf
