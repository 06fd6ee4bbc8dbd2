import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pseudocal import metrics, numerics, pseudo_target, report, scalers
from pseudocal.errors import InvalidInputError, LabelsRequiredError, OptimizationError

from _util import (
    affine_nll_gradient_norm,
    bench_setup,
    grid_temperature,
    nll_slope_in_beta,
    random_batch,
    unblocked_temperature,
)


def test_identity_leaves_batch_unchanged():
    b = random_batch(np.random.default_rng(0))
    out = scalers.Calibrator(kind="identity").apply(b)
    np.testing.assert_array_equal(out.logits, b.logits)
    np.testing.assert_array_equal(out.labels, b.labels)


def test_apply_temperature_halves_logits():
    b = metrics.PredictionBatch(logits=[[2.0, 0.0]], labels=[0])
    cal = scalers.Calibrator(kind="temperature", temperature=2.0)
    out = cal.apply(b)
    np.testing.assert_allclose(out.logits, [[1.0, 0.0]])
    assert b.confidences()[0] == pytest.approx(0.8808, abs=1e-4)
    assert out.confidences()[0] == pytest.approx(0.7311, abs=1e-4)


def test_temperature_never_changes_predictions():
    rng = np.random.default_rng(1)
    for _ in range(20):
        b = random_batch(rng)
        t = float(rng.uniform(scalers.T_MIN, scalers.T_MAX))
        out = scalers.Calibrator(kind="temperature", temperature=t).apply(b)
        np.testing.assert_array_equal(out.predictions(), b.predictions())


def test_apply_vector_and_matrix():
    b = metrics.PredictionBatch(logits=[[1.0, 2.0], [0.0, 1.0]], labels=[1, 1])
    vec = scalers.Calibrator(kind="vector", scale=np.array([2.0, 1.0]), bias=np.array([0.5, 0.0]))
    np.testing.assert_allclose(vec.apply(b).logits, [[2.5, 2.0], [0.5, 1.0]])
    mat = scalers.Calibrator(
        kind="matrix", weight=np.array([[0.0, 1.0], [1.0, 0.0]]), bias=np.zeros(2)
    )
    np.testing.assert_allclose(mat.apply(b).logits, [[2.0, 1.0], [1.0, 0.0]])


def test_apply_dimension_mismatch():
    b = metrics.PredictionBatch(logits=[[1.0, 2.0, 3.0]], labels=[0])
    vec = scalers.Calibrator(kind="vector", scale=np.ones(2), bias=np.zeros(2))
    with pytest.raises(InvalidInputError):
        vec.apply(b)


def test_temperature_bounds_validated():
    with pytest.raises(InvalidInputError):
        scalers.Calibrator(kind="temperature", temperature=0.0)
    with pytest.raises(InvalidInputError):
        scalers.Calibrator(kind="temperature", temperature=21.0)


def test_fit_temperature_single_correct_hits_lower_bound():
    # NLL of a correct prediction only improves as confidence sharpens
    b = metrics.PredictionBatch(logits=[[2.0, 0.0]], labels=[0])
    assert scalers.fit_temperature(b).temperature == pytest.approx(scalers.T_MIN)
    assert grid_temperature(b.logits, b.labels, n_points=2000) == pytest.approx(scalers.T_MIN)


def test_fit_temperature_single_wrong_hits_upper_bound():
    b = metrics.PredictionBatch(logits=[[2.0, 0.0]], labels=[1])
    assert scalers.fit_temperature(b).temperature == pytest.approx(scalers.T_MAX)
    assert grid_temperature(b.logits, b.labels, n_points=2000) == pytest.approx(scalers.T_MAX)


def test_fit_temperature_matches_grid_oracle():
    rng = np.random.default_rng(7)
    for _ in range(10):
        b = random_batch(rng, n_max=40)
        t = scalers.fit_temperature(b).temperature
        t_grid = grid_temperature(b.logits, b.labels, n_points=20_000)
        assert abs(t - t_grid) <= 1e-2


def _fit_cases(rng, n, c):
    """(name, logits, hard or soft labels) for an interior optimum and each bound."""
    z = rng.standard_normal((n, c)) * rng.uniform(1.0, 3.0)
    pred = np.argmax(z, axis=1)
    mixed = np.where(rng.random(n) < 0.6, pred, rng.integers(0, c, n))
    lam = rng.uniform(0.5, 1.0, n)[:, None]
    soft = lam * np.eye(c)[mixed] + (1.0 - lam) * np.eye(c)[rng.integers(0, c, n)]
    return [
        ("hard", z, mixed),
        ("soft", z, soft),
        ("t_min", z, pred),
        ("t_max", z, np.argmin(z, axis=1)),
    ]


def _fit(z, labels):
    """fit_temperature on hard class indices or an (n, C) soft-label matrix."""
    if labels.ndim == 2:
        return scalers.fit_temperature(metrics.PredictionBatch(logits=z), soft_labels=labels)
    return scalers.fit_temperature(metrics.PredictionBatch(logits=z, labels=labels))


@pytest.mark.parametrize("block_rows", [1, 7, 64, numerics.BLOCK_ROWS])
def test_blocked_fit_is_bit_identical_to_the_whole_array_fit(monkeypatch, block_rows):
    # Summing the slope block by block instead moves T in its last bits on
    # about one batch in ten, so the test fits twenty. Every batch leaves a
    # ragged last block at 7 and 64 rows; the default block size takes the
    # single-block path.
    monkeypatch.setattr(numerics, "BLOCK_ROWS", block_rows)
    rng = np.random.default_rng(block_rows)
    for _ in range(20):
        n, c = int(rng.integers(20, 400)), int(rng.integers(2, 12))
        if block_rows > 1 and n % block_rows == 0:
            n += 1
        for name, z, labels in _fit_cases(rng, n, c):
            t = _fit(z, labels)
            expected = unblocked_temperature(z, labels)
            assert repr(t.temperature) == repr(expected), (name, n, c)
            bound = {"t_min": scalers.T_MIN, "t_max": scalers.T_MAX}.get(name)
            if bound is None:
                assert scalers.T_MIN < expected < scalers.T_MAX, (name, n, c)
            else:
                assert expected == bound


class _PassCounter:
    """Counts class-axis sums and maxima over 2-D arrays in scalers. On logits of one row
    block, a fit sums once per slope pass, and once more for a soft-label fit's target mass."""

    def __init__(self, monkeypatch):
        self.sums, self.summed_rows, self.maxima = 0, [], []
        reduce_classes = scalers.reduce_classes

        def counting(ufunc, a, out=None):
            if a.ndim == 2 and ufunc is np.add:
                self.sums += 1
                self.summed_rows.append(len(a))
            elif a.ndim == 2 and ufunc is np.maximum:
                self.maxima.append(len(a))
            return reduce_classes(ufunc, a, out=out)

        monkeypatch.setattr(scalers, "reduce_classes", counting)


@pytest.fixture(scope="module")
def sweep_fits():
    """Every temperature fit of the default sweep grid on the bench cell, as (logits, targets, T),
    and the slope passes they made; then the pseudo-label fit on the cell's target logits."""
    task, model, batch = bench_setup(0)
    fits, passes = [], []
    patch = pytest.MonkeyPatch()
    counter = _PassCounter(patch)

    def recording(batch, soft_labels=None):
        before = counter.sums
        cal = scalers.fit_temperature(batch, soft_labels)
        passes.append(counter.sums - before - (soft_labels is not None))
        targets = batch.labels if soft_labels is None else np.array(soft_labels)
        fits.append((batch.logits, targets, cal.temperature))
        return cal

    patch.setattr(pseudo_target, "fit_temperature", recording)
    try:
        report.lambda_sweep(model, task)
        sweep_passes = sum(passes)
        pseudo_target.variant_pseudo_label(batch.logits)
    finally:
        patch.undo()
    return fits, sweep_passes, passes[-1]


def test_lazy_bound_probes_keep_every_temperature_bit_for_bit(sweep_fits):
    # The oracle probes both bounds before its first Newton step; the fit probes a
    # bound only when the answer may lie there, and must return the same bits.
    rng = np.random.default_rng(20)
    cases = []
    for _ in range(250):
        n, c = int(rng.integers(1, 301)), int(rng.integers(2, 13))
        cases += [(z, labels) for _, z, labels in _fit_cases(rng, n, c)]
    for _ in range(50):  # flat targets end at T_MAX, a batch of ties has no slope at all
        n, c = int(rng.integers(1, 301)), int(rng.integers(2, 13))
        cases.append((rng.standard_normal((n, c)), np.full((n, c), 1.0 / c)))
        cases.append((np.zeros((n, c)), rng.integers(0, c, n)))
    at = {"interior": 0, scalers.T_MIN: 0, scalers.T_MAX: 0}
    for z, labels in cases:
        t = _fit(z, labels).temperature
        assert repr(t) == repr(unblocked_temperature(z, labels)), (z.shape, labels.ndim)
        at[t if t in at else "interior"] += 1
    assert min(at.values()) >= 250, at

    fits, _, _ = sweep_fits
    assert len(fits) == 2 * len(report.SWEEP_LAMBDAS) * len(report.SWEEP_SEEDS) + 1
    for z, targets, t in fits:
        assert repr(t) == repr(unblocked_temperature(z, targets))
    assert fits[-1][2] == scalers.T_MIN  # the pseudo-label fit ends at the sharpening bound


def test_fit_makes_only_the_passes_its_answer_needs(monkeypatch, sweep_fits):
    _, sweep_passes, pseudo_label_passes = sweep_fits
    # Probing both bounds first took 610 passes over the grid's 70 fits.
    assert sweep_passes <= 500
    # An eager search takes one pass to find T_MAX and two to find T_MIN; probing
    # lazily costs a bound fit at most three more.
    counter = _PassCounter(monkeypatch)
    eager = {scalers.T_MAX: 1, scalers.T_MIN: 2}
    assert pseudo_label_passes <= eager[scalers.T_MIN] + 3
    rng = np.random.default_rng(21)
    for _ in range(100):
        n, c = int(rng.integers(1, 301)), int(rng.integers(2, 13))
        for name, z, labels in _fit_cases(rng, n, c)[2:]:  # hard labels that end at a bound
            before = counter.sums
            cal = _fit(z, labels)
            passes = counter.sums - before
            assert cal.temperature == {"t_min": scalers.T_MIN, "t_max": scalers.T_MAX}[name]
            assert passes <= eager[cal.temperature] + 3, (name, passes)


def test_pre_pass_reads_each_block_of_logits_once(monkeypatch):
    # The row max is taken block by block with the targets, never over the whole matrix.
    monkeypatch.setattr(numerics, "BLOCK_ROWS", 7)
    counter = _PassCounter(monkeypatch)
    b = random_batch(np.random.default_rng(22), n_max=60, c_max=9)
    blocks = [min(7, b.n - start) for start in range(0, b.n, 7)]
    assert len(blocks) > 2
    t = scalers.fit_temperature(b).temperature
    assert counter.maxima == blocks
    assert counter.sums % len(blocks) == 0
    assert repr(t) == repr(unblocked_temperature(b.logits, b.labels))


class _SubtractionCounter:
    """scalers' numpy, counting its subtractions whose first operand is 2-D: d = z - rowmax."""

    def __init__(self, monkeypatch):
        self.count = 0
        monkeypatch.setattr(scalers, "np", self)

    def __getattr__(self, name):
        return getattr(np, name)

    def subtract(self, a, b, **kwargs):
        self.count += np.ndim(a) == 2
        return np.subtract(a, b, **kwargs)


def test_a_one_block_fit_subtracts_the_row_max_once(monkeypatch):
    # Its d stays in the d buffer from the pre-pass on; a fit of several
    # blocks shifts each block again on every slope pass.
    b = random_batch(np.random.default_rng(24), n_max=60, c_max=9)
    passes = _PassCounter(monkeypatch)
    subtractions = _SubtractionCounter(monkeypatch)
    t = scalers.fit_temperature(b).temperature
    assert subtractions.count == 1 and passes.sums >= 2
    assert repr(t) == repr(unblocked_temperature(b.logits, b.labels))
    monkeypatch.setattr(numerics, "BLOCK_ROWS", 7)
    blocks = -(-b.n // 7)
    passes.sums = subtractions.count = 0
    assert repr(scalers.fit_temperature(b).temperature) == repr(t)
    assert subtractions.count == passes.sums + blocks


def test_a_large_hard_fit_starts_from_its_row_sample(monkeypatch):
    # 20,480 rows: five full 4,096-row blocks, and a sample of every 10th row,
    # 2,048 rows in one block. So each sum over 4,096 rows is a fifth of a full
    # pass and each sum over 2,048 rows one sample pass.
    n, c = 10 * scalers.SAMPLE_ROWS, 20
    assert n == 5 * numerics.BLOCK_ROWS
    rng = np.random.default_rng(25)
    z = rng.standard_normal((n, c)) * 3.0
    labels = np.where(rng.random(n) < 0.6, np.argmax(z, axis=1), rng.integers(0, c, n))
    batch = metrics.PredictionBatch(logits=z, labels=labels)
    counter = _PassCounter(monkeypatch)
    sample_rows = scalers.SAMPLE_ROWS

    def fit():
        """(T, full passes, sample passes)."""
        counter.summed_rows = []
        t = scalers.fit_temperature(batch).temperature
        full = counter.summed_rows.count(numerics.BLOCK_ROWS)
        sample = counter.summed_rows.count(sample_rows)
        assert full + sample == len(counter.summed_rows) and full % 5 == 0
        return t, full // 5, sample

    warm, warm_full, warm_sample = fit()
    monkeypatch.setattr(scalers, "SAMPLE_ROWS", n)  # n is now under 8 * SAMPLE_ROWS: a cold start
    cold, cold_full, cold_sample = fit()
    assert (cold_full, cold_sample) == (6, 0)
    assert (warm_full, warm_sample) == (4, 6)
    assert abs(1.0 / warm - 1.0 / cold) <= 2 * scalers.NEWTON_REL_TOL / cold
    assert repr(cold) == repr(unblocked_temperature(z, labels))
    # In one block the sample's passes write their own d into the d buffer,
    # which the full search must not take for the whole set's.
    monkeypatch.setattr(scalers, "SAMPLE_ROWS", sample_rows)
    monkeypatch.setattr(numerics, "BLOCK_ROWS", n)
    assert repr(scalers.fit_temperature(batch).temperature) == repr(warm)


def test_warm_started_fits_find_the_cold_optimum():
    # Below the threshold and with soft labels the search starts at beta = 1
    # and matches the oracle bit for bit; large hard fits match it within the
    # stop rule, at a local minimum of the exact NLL (perfbench's rule: no
    # lower by 1e-9 nats at T * (1 -/+ 0.01)), and at the same bound.
    rng = np.random.default_rng(26)
    cases = []
    for k in range(3):
        n, c = int(rng.integers(8 * scalers.SAMPLE_ROWS, 40_000)), int(rng.integers(2, 30))
        z = rng.standard_normal((n, c)) * rng.uniform(1.0, 3.0)
        pred = np.argmax(z, axis=1)
        noisy = np.where(rng.random(n) < rng.uniform(0.3, 0.9), pred, rng.integers(0, c, n))
        cases.append((f"hard{k}", metrics.PredictionBatch(logits=z, labels=noisy)))
    cases.append(("t_min", metrics.PredictionBatch(logits=z, labels=pred)))
    cases.append(("t_max", metrics.PredictionBatch(logits=z, labels=np.argmin(z, axis=1))))
    for name, batch in cases:
        t = scalers.fit_temperature(batch).temperature
        cold = unblocked_temperature(batch.logits, batch.labels)
        assert abs(1.0 / t - 1.0 / cold) <= 2 * scalers.NEWTON_REL_TOL / cold, name
        bound = {"t_min": scalers.T_MIN, "t_max": scalers.T_MAX}.get(name)
        if bound is not None:
            assert t == bound
            continue
        assert scalers.T_MIN < t < scalers.T_MAX, name
        here = metrics.mean_nll(scalers.Calibrator(kind="temperature", temperature=t).apply(batch))
        for probe in (t * 0.99, t * 1.01):
            there = metrics.mean_nll(scalers.Calibrator(kind="temperature", temperature=probe).apply(batch))
            assert here <= there + 1e-9, (name, probe)
    n, c = 8 * scalers.SAMPLE_ROWS, 6
    for name, z, labels in _fit_cases(rng, n, c):
        if name == "hard":
            z, labels = z[1:], labels[1:]  # one row under the threshold
        assert repr(_fit(z, labels).temperature) == repr(unblocked_temperature(z, labels)), name


def _sample_at_a_bound(bound):
    """A hard 16,384 x 10 batch, noisy but for its every (n // SAMPLE_ROWS)-th row, and that row sample.

    Every sampled row is right for ``T_MIN`` and wrong for ``T_MAX``, so the
    sample's fit ends at that bound while the whole set's optimum is interior.
    """
    n, c = 8 * scalers.SAMPLE_ROWS, 10
    rng = np.random.default_rng(27)
    z = rng.standard_normal((n, c)) * 3.0
    labels = np.where(rng.random(n) < 0.6, np.argmax(z, axis=1), rng.integers(0, c, n))
    every = slice(None, None, n // scalers.SAMPLE_ROWS)
    labels[every] = {scalers.T_MIN: np.argmax, scalers.T_MAX: np.argmin}[bound](z[every], axis=1)
    return (metrics.PredictionBatch(logits=z, labels=labels),
            metrics.PredictionBatch(logits=z[every], labels=labels[every]))


@pytest.mark.parametrize("bound", [scalers.T_MIN, scalers.T_MAX])
def test_a_warm_start_from_a_sample_at_a_bound_finds_the_cold_optimum(bound):
    # The whole set's search starts at the bound's beta, which no other test does.
    batch, sample = _sample_at_a_bound(bound)
    assert len(sample.labels) == scalers.SAMPLE_ROWS
    assert scalers.fit_temperature(sample).temperature == bound
    t = scalers.fit_temperature(batch).temperature
    cold = unblocked_temperature(batch.logits, batch.labels)
    assert scalers.T_MIN < cold < scalers.T_MAX
    assert abs(1.0 / t - 1.0 / cold) <= 2 * scalers.NEWTON_REL_TOL / cold


def test_a_fitted_or_loaded_temperature_is_a_python_float(tmp_path):
    # A bisection step takes np.sqrt, which would make T a numpy float.
    z, y = _clamp_repro()
    fits = [
        scalers.fit_temperature(metrics.PredictionBatch(logits=z, labels=y)),
        scalers.fit_temperature(_sample_at_a_bound(scalers.T_MIN)[0]),  # warm, from T_MIN's beta
        scalers.Calibrator(kind="temperature", temperature=np.float64(2.0)),
        scalers.Calibrator(kind="temperature", temperature=2),
    ]
    path = tmp_path / "cal.json"
    scalers.save_calibrator(fits[0], path)
    for cal in [*fits, scalers.load_calibrator(path)]:
        assert type(cal.temperature) is float, repr(cal.temperature)
    assert scalers.load_calibrator(path) == fits[0]


class _EmptyCounter:
    """scalers' numpy, recording the shape of each array its np.empty returns."""

    def __init__(self, monkeypatch):
        self.shapes = []
        monkeypatch.setattr(scalers, "np", self)

    def __getattr__(self, name):
        return getattr(np, name)

    def empty(self, *args, **kwargs):
        a = np.empty(*args, **kwargs)
        self.shapes.append(a.shape)
        return a


def test_a_warm_fit_allocates_no_block_buffer_beyond_a_cold_fits(monkeypatch):
    # The sample's search runs in the whole set's d and exp(beta * d)
    # buffers, one (2, BLOCK_ROWS, C) array; buffers of its own would add
    # a second. Every other array a fit allocates is one value per row.
    n, c = 10 * scalers.SAMPLE_ROWS, 20
    rng = np.random.default_rng(28)
    z = rng.standard_normal((n, c)) * 3.0
    labels = np.where(rng.random(n) < 0.6, np.argmax(z, axis=1), rng.integers(0, c, n))
    batch = metrics.PredictionBatch(logits=z, labels=labels)
    empties = _EmptyCounter(monkeypatch)

    def class_wide_arrays():
        empties.shapes = []
        scalers.fit_temperature(batch)
        return [shape for shape in empties.shapes if len(shape) > 1 and shape[-1] == c]

    warm = class_wide_arrays()
    monkeypatch.setattr(scalers, "SAMPLE_ROWS", n)  # a cold start
    assert class_wide_arrays() == warm == [(2, numerics.BLOCK_ROWS, c)]


def test_fit_temperature_not_worse_than_uncalibrated():
    rng = np.random.default_rng(9)
    for _ in range(10):
        b = random_batch(rng)
        nll_fit = metrics.mean_nll(scalers.fit_temperature(b).apply(b))
        assert nll_fit <= metrics.mean_nll(scalers.Calibrator(kind="identity").apply(b)) + 1e-12


def test_fit_temperature_soft_labels():
    rng = np.random.default_rng(13)
    z = rng.standard_normal((30, 3)) * 2
    soft = np.full((30, 3), 1.0 / 3.0)
    b = metrics.PredictionBatch(logits=z)
    cal = scalers.fit_temperature(b, soft_labels=soft)
    # uniform targets want maximal flattening
    assert cal.temperature == pytest.approx(scalers.T_MAX)
    with pytest.raises(InvalidInputError):
        scalers.fit_temperature(b, soft_labels=np.ones((2, 3)))


def _clamp_repro():
    # 99 confidently right samples and one far more confidently wrong one:
    # a PROB_EPS clamp caps the wrong sample's loss at ~27.6 nats, which
    # lets the sharpening bound T_MIN look optimal.
    z = np.array([[5.0, 0.0]] * 99 + [[100.0, 0.0]])
    y = np.array([0] * 99 + [1])
    return z, y


def test_fit_temperature_uses_exact_nll_not_clamped():
    z, y = _clamp_repro()
    t = scalers.fit_temperature(metrics.PredictionBatch(logits=z, labels=y)).temperature
    assert abs(t - grid_temperature(z, y)) <= 1e-2
    assert t == pytest.approx(3.64, abs=1e-2)


def test_fit_temperature_soft_labels_use_exact_nll():
    z, y = _clamp_repro()
    unlabeled = metrics.PredictionBatch(logits=z)
    onehot = np.eye(2)[y]
    t_onehot = scalers.fit_temperature(unlabeled, soft_labels=onehot).temperature
    assert abs(t_onehot - grid_temperature(z, y)) <= 1e-2
    # mixup-style soft labels: the dominant class carries 0.65 of the mass
    soft = 0.65 * onehot + 0.35 * (1.0 - onehot)
    t_soft = scalers.fit_temperature(unlabeled, soft_labels=soft).temperature
    assert abs(t_soft - grid_temperature(z, soft)) <= 1e-2


def test_fit_temperature_rejects_bad_soft_labels():
    b = metrics.PredictionBatch(logits=[[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(InvalidInputError):
        scalers.fit_temperature(b, soft_labels=[[1.0, 0.0], [np.nan, 1.0]])
    with pytest.raises(InvalidInputError):
        scalers.fit_temperature(b, soft_labels=[[1.2, -0.2], [0.0, 1.0]])


def test_fit_temperature_raises_when_iteration_cap_is_hit(monkeypatch):
    z, y = _clamp_repro()
    monkeypatch.setattr(scalers, "NEWTON_MAX_ITER", 1)
    with pytest.raises(OptimizationError):
        scalers.fit_temperature(metrics.PredictionBatch(logits=z, labels=y))


@pytest.mark.filterwarnings("error")
def test_fit_temperature_names_a_non_finite_gradient_and_warns_nothing():
    # The row [1e308, -1e308] overflows z - rowmax(z) to -inf.
    z, y = [[1e308, -1e308], [0.0, 1.0], [2.0, 0.5]], [1, 1, 0]
    for batch, soft in [
        (metrics.PredictionBatch(logits=z, labels=y), None),
        (metrics.PredictionBatch(logits=z), np.eye(2)[y]),
    ]:
        with pytest.raises(OptimizationError, match=r"^NLL gradient is not finite at T=1\.0$"):
            scalers.fit_temperature(batch, soft_labels=soft)


@st.composite
def fit_problems(draw):
    """Random logits with hard labels or row-normalized soft labels."""
    n = draw(st.integers(1, 25))
    c = draw(st.integers(2, 6))
    cells = st.lists(st.floats(-30.0, 30.0), min_size=n * c, max_size=n * c)
    z = np.array(draw(cells)).reshape(n, c)
    if draw(st.booleans()):
        w = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n * c, max_size=n * c)))
        w = w.reshape(n, c)
        w[w.sum(axis=1) == 0.0] = 1.0
        return z, w / w.sum(axis=1, keepdims=True)
    return z, np.array(draw(st.lists(st.integers(0, c - 1), min_size=n, max_size=n)))


@settings(max_examples=300, deadline=None)
@given(fit_problems())
def test_fit_temperature_satisfies_optimality_conditions(problem):
    z, target = problem
    if target.ndim == 2:
        cal = scalers.fit_temperature(metrics.PredictionBatch(logits=z), soft_labels=target)
    else:
        cal = scalers.fit_temperature(metrics.PredictionBatch(logits=z, labels=target))
    t = cal.temperature
    slope = nll_slope_in_beta(z, target, 1.0 / t)
    spread = float(np.mean(z.max(axis=1) - z.min(axis=1)))
    # the fit and the oracle sum the same terms in different orders
    rounding = 1e-12 * (1.0 + spread)
    if t == scalers.T_MIN:
        assert slope <= rounding  # sharpening further would not help
    elif t == scalers.T_MAX:
        assert slope >= -rounding  # flattening further would not help
    else:
        assert abs(slope) <= 1e-8 * spread


def test_fit_temperature_requires_labels():
    b = metrics.PredictionBatch(logits=[[1.0, 0.0]])
    with pytest.raises(LabelsRequiredError):
        scalers.fit_temperature(b)


def test_fit_temperature_refits_idempotently():
    rng = np.random.default_rng(15)
    b = random_batch(rng, n_max=40)
    t1 = scalers.fit_temperature(b).temperature
    rescaled = scalers.Calibrator(kind="temperature", temperature=t1).apply(b)
    t2 = scalers.fit_temperature(rescaled).temperature
    # refit on already-scaled logits should land near 1 (t1 absorbed)
    assert t1 * t2 == pytest.approx(t1, rel=0.02)


def test_fit_oracle_reduces_ece_across_seeds():
    from pseudocal import synthetic
    from _util import BENCH_SPEC

    improved = 0
    for seed in range(10):
        spec = synthetic.ShiftSpec(
            **{**BENCH_SPEC, "n_source": 600, "n_target": 600}, seed=seed
        )
        task = synthetic.generate(spec)
        model = synthetic.train(task, epochs=200, lr=0.1, gamma=3.0, seed=seed)
        batch = metrics.PredictionBatch(
            logits=model.predict_logits(task.target_inputs), labels=task.target_labels
        )
        oracle = scalers.fit_temperature(batch)
        improved += metrics.ece(oracle.apply(batch)) <= metrics.ece(batch)
    assert improved >= 9


def test_nll_decomposition_all_correct():
    b = metrics.PredictionBatch(logits=[[3.0, 0.0], [0.0, 3.0]], labels=[0, 1])
    dec = scalers.nll_decomposition(b, 1.0)
    assert dec.n_wrong == 0
    assert dec.wrong_term == 0.0
    assert dec.total == pytest.approx(dec.correct_term)


def test_nll_decomposition_all_wrong():
    b = metrics.PredictionBatch(logits=[[3.0, 0.0], [0.0, 3.0]], labels=[1, 0])
    dec = scalers.nll_decomposition(b, 1.0)
    assert dec.n_correct == 0
    assert dec.correct_term == 0.0
    assert dec.total == pytest.approx(dec.wrong_term)


def test_nll_decomposition_identity():
    rng = np.random.default_rng(19)
    for _ in range(20):
        b = random_batch(rng)
        t = float(rng.uniform(scalers.T_MIN, scalers.T_MAX))
        dec = scalers.nll_decomposition(b, t)
        recomposed = (dec.n_correct * dec.correct_term + dec.n_wrong * dec.wrong_term) / b.n
        assert dec.total == pytest.approx(recomposed, abs=1e-9)


def test_nll_decomposition_holds_at_a_large_nll():
    # Mean NLL 9.3e6: the mean and its recomposition differ by 2 ulp (3.7e-9),
    # which is float rounding, not an input fault.
    rng = np.random.default_rng(0)
    n, c = int(rng.integers(100, 5000)), int(rng.integers(2, 20))
    logits = rng.standard_normal((n, c)) * 10 ** rng.uniform(1, 6)
    b = metrics.PredictionBatch(logits=logits, labels=rng.integers(0, c, n))
    dec = scalers.nll_decomposition(b, 0.05)
    assert dec.total > 1e6
    recomposed = (dec.n_correct * dec.correct_term + dec.n_wrong * dec.wrong_term) / b.n
    assert dec.total == pytest.approx(recomposed, rel=1e-12, abs=0)


def test_nll_decomposition_needs_a_positive_finite_temperature():
    b = metrics.PredictionBatch(logits=[[3.0, 0.0], [0.0, 3.0]], labels=[0, 0])
    for bad in (-1.0, 0.0, 0, True, "x", None, np.nan, np.inf, -np.inf, []):
        with pytest.raises(InvalidInputError, match="temperature"):
            scalers.nll_decomposition(b, bad)
    assert scalers.nll_decomposition(b, 2).total == scalers.nll_decomposition(b, 2.0).total


def test_nll_decomposition_requires_labels():
    with pytest.raises(LabelsRequiredError):
        scalers.nll_decomposition(metrics.PredictionBatch(logits=[[3.0, 0.0]]), 1.0)


@pytest.mark.filterwarnings("error")
def test_nll_decomposition_names_a_temperature_too_small_for_the_logits():
    b = metrics.PredictionBatch(logits=[[3.0, 0.0], [0.0, 3.0]], labels=[0, 0])
    for tiny in (5e-324, 1e-308):
        with pytest.raises(InvalidInputError, match=f"T={tiny!r}"):
            scalers.nll_decomposition(b, tiny)


def test_nll_decomposition_contrasting_effects():
    rng = np.random.default_rng(21)
    b = random_batch(rng, n_max=50, correct_bias=0.6)
    dec1 = scalers.nll_decomposition(b, 1.0)
    assert dec1.n_correct > 0 and dec1.n_wrong > 0
    dec2 = scalers.nll_decomposition(b, 4.0)
    assert dec2.correct_term > dec1.correct_term  # flattening hurts correct
    assert dec2.wrong_term < dec1.wrong_term  # flattening helps wrong


def test_fit_vector_near_identity_on_calibrated_batch():
    rng = np.random.default_rng(25)
    z = rng.standard_normal((500, 4))
    probs = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    y = np.array([rng.choice(4, p=p) for p in probs])
    b = metrics.PredictionBatch(logits=z, labels=y)
    vec = scalers.fit_vector(b)
    np.testing.assert_allclose(vec.scale, np.ones(4), atol=0.35)
    mat = scalers.fit_matrix(b)
    np.testing.assert_allclose(np.diag(mat.weight), np.ones(4), atol=0.35)


def test_family_nesting():
    rng = np.random.default_rng(27)
    for _ in range(8):
        b = random_batch(rng, n_max=120)
        nll_t = metrics.mean_nll(scalers.fit_temperature(b).apply(b))
        nll_v = metrics.mean_nll(scalers.fit_vector(b).apply(b))
        nll_m = metrics.mean_nll(scalers.fit_matrix(b).apply(b))
        assert nll_v <= nll_t + 1e-6
        assert nll_m <= nll_v + 1e-6


def test_converged_affine_fits_are_stationary():
    rng = np.random.default_rng(41)
    converged = 0
    for _ in range(30):
        b = random_batch(rng, n_max=200)
        for cal in (scalers.fit_vector(b), scalers.fit_matrix(b)):
            if cal.converged:
                converged += 1
                # 1e-12 of slack: the oracle sums the rows in another order
                grad_norm = affine_nll_gradient_norm(b.logits, b.labels, cal)
                assert grad_norm < scalers.AFFINE_GRAD_TOL + 1e-12
    assert converged >= 50  # the check above is not vacuous


class AffineSteps:
    """Records each NLL an affine fit evaluates, and where each Newton-CG step begins.

    Each step is scaled by ``stretch`` before the line search sees it.
    """

    def __init__(self, monkeypatch, labels, stretch):
        self.events = []
        log_softmax, solve = scalers.log_softmax, scalers._conjugate_gradient

        def logged(z):
            logp = log_softmax(z)
            self.events.append(float(np.mean(-logp[np.arange(len(z)), labels])))
            return logp

        def stretched(*args):
            self.events.append("step")
            return stretch * solve(*args)

        monkeypatch.setattr(scalers, "log_softmax", logged)
        monkeypatch.setattr(scalers, "_conjugate_gradient", stretched)

    def tries(self):
        """The NLLs of the warm start, then of each line search's candidates in turn."""
        runs = [[]]
        for event in self.events:
            if event == "step":
                runs.append([])
            else:
                runs[-1].append(event)
        return runs


def test_affine_line_search_halves_an_overlong_step(monkeypatch):
    b = random_batch(np.random.default_rng(47), n_max=200)
    steps = AffineSteps(monkeypatch, b.labels, stretch=20.0)
    cal = scalers.fit_vector(b)
    start, *searches = steps.tries()
    assert len(start) == 1 and searches
    assert sum(len(tried) - 1 for tried in searches) >= 1  # at least one halving
    accepted = start + [tried[-1] for tried in searches]
    assert all(later <= earlier for earlier, later in zip(accepted, accepted[1:]))
    grad_norm = affine_nll_gradient_norm(b.logits, b.labels, cal)
    assert cal.converged == (grad_norm < scalers.AFFINE_GRAD_TOL)


def test_affine_fit_stops_when_no_step_decreases_the_nll(monkeypatch):
    # An ascent direction never passes the Armijo test: the warm start returns, unconverged.
    b = random_batch(np.random.default_rng(47), n_max=200)
    monkeypatch.setattr(scalers, "_ARMIJO_MAX_HALVINGS", 3)
    steps = AffineSteps(monkeypatch, b.labels, stretch=-1.0)
    cal = scalers.fit_vector(b)
    start, tried = steps.tries()
    assert len(tried) == 3 and min(tried) > start[0]
    t = scalers.fit_temperature(b).temperature
    np.testing.assert_array_equal(cal.scale, np.full(b.num_classes, 1.0 / t))
    np.testing.assert_array_equal(cal.bias, np.zeros(b.num_classes))
    assert not cal.converged
    assert affine_nll_gradient_norm(b.logits, b.labels, cal) >= scalers.AFFINE_GRAD_TOL


def test_affine_fit_tests_the_gradient_at_the_step_cap(monkeypatch):
    # This fit takes exactly 8 Newton-CG steps: a cap of 8 must still see
    # its last step's gradient, and a cap of 7 stops short of the optimum.
    b = random_batch(np.random.default_rng(47), n_max=200)
    for cap, converges in ((8, True), (7, False)):
        monkeypatch.setattr(scalers, "AFFINE_MAX_ITER", cap)
        cal = scalers.fit_vector(b)
        grad_norm = affine_nll_gradient_norm(b.logits, b.labels, cal)
        assert (grad_norm < scalers.AFFINE_GRAD_TOL) == converges
        assert cal.converged == converges


def test_vector_fit_solves_only_its_own_parameters(monkeypatch):
    # Each Newton-CG system has the 2C unknowns of scale and bias, not the
    # C(C+1) entries of a full affine map.
    b = random_batch(np.random.default_rng(47), n_max=200, c_max=8)
    sizes, solve = [], scalers._conjugate_gradient

    def recorded(matvec, rhs, rtol):
        sizes.append(rhs.size)
        return solve(matvec, rhs, rtol)

    monkeypatch.setattr(scalers, "_conjugate_gradient", recorded)
    scalers.fit_vector(b)
    assert sizes and set(sizes) == {2 * b.num_classes}


# Fitting-set mean NLL of (vector, matrix) on the bench source split per model
# seed, as the solver found them when it fitted vector scaling as a masked
# C x (C+1) matrix. Only the order of float sums differs since.
MASKED_SOLVER_NLL = {
    0: (0.21399588956011176, 0.19895232965354287),
    1: (0.1695254450597459, 0.146530801877084),
    2: (0.1836143061582547, 0.16653230086006668),
    3: (0.18297892384939746, 0.16468458387733376),
}


@pytest.mark.parametrize("seed", sorted(MASKED_SOLVER_NLL))
def test_affine_fits_keep_their_nll_on_bench_source_splits(seed):
    task, model, _ = bench_setup(seed)
    b = metrics.PredictionBatch(
        logits=pseudo_target.infer(model, task.source_val_inputs), labels=task.source_val_labels
    )
    nll_v, nll_m = MASKED_SOLVER_NLL[seed]
    vec, mat = scalers.fit_vector(b), scalers.fit_matrix(b)
    assert metrics.mean_nll(vec.apply(b)) == pytest.approx(nll_v, rel=0, abs=1e-12)
    assert metrics.mean_nll(mat.apply(b)) == pytest.approx(nll_m, rel=0, abs=1e-8)


def _nll_chain(b):
    nll_t = metrics.mean_nll(scalers.fit_temperature(b).apply(b))
    vec, mat = scalers.fit_vector(b), scalers.fit_matrix(b)
    return nll_t, vec, metrics.mean_nll(vec.apply(b)), mat, metrics.mean_nll(mat.apply(b))


def test_affine_fits_on_separable_batch_stop_without_raising():
    # Separable by scaling up the tiny logits, so the optimum lies at
    # infinity; Newton-CG steps are bounded and the cap is reached.
    b = metrics.PredictionBatch(logits=[[0.01, 0.0], [0.0, 0.01]], labels=[0, 1])
    nll_t, vec, nll_v, mat, nll_m = _nll_chain(b)
    assert not vec.converged and not mat.converged
    assert nll_v <= nll_t + 1e-12
    assert nll_m <= nll_v + 1e-12
    # Separable only by flipping the scale sign: descent drives the NLL
    # towards its infimum 0 and still nests.
    b = metrics.PredictionBatch(logits=[[1.0, 0.0], [0.0, 1.0]], labels=[1, 0])
    nll_t, vec, nll_v, mat, nll_m = _nll_chain(b)
    assert nll_v <= nll_t + 1e-12 and nll_m <= nll_v + 1e-12
    assert nll_m < 1e-5


def test_affine_fits_reach_gradient_descent_nll_on_bench_source_split():
    from pseudocal import pseudo_target

    task, model, _ = bench_setup(0)
    b = metrics.PredictionBatch(
        logits=pseudo_target.infer(model, task.source_val_inputs), labels=task.source_val_labels
    )
    _, vec, nll_v, mat, nll_m = _nll_chain(b)
    assert vec.converged and mat.converged
    # what 2000 steps of Armijo gradient descent reached, unconverged
    assert nll_v <= 0.2139994
    assert nll_m <= 0.2016223


def test_hundred_class_matrix_fit_completes():
    # 100 x 101 parameters: a dense Hessian would be 10100^2 floats (816 MB)
    rng = np.random.default_rng(43)
    z = rng.standard_normal((200, 100)) * 3.0
    y = np.where(rng.random(200) < 0.5, z.argmax(axis=1), rng.integers(0, 100, 200))
    b = metrics.PredictionBatch(logits=z, labels=y)
    mat = scalers.fit_matrix(b)
    assert mat.weight.shape == (100, 100)
    nll_t = metrics.mean_nll(scalers.fit_temperature(b).apply(b))
    assert metrics.mean_nll(mat.apply(b)) <= nll_t + 1e-6


@pytest.mark.parametrize("kind, fields", [
    ("vector", {"scale": np.ones(3), "bias": np.zeros(3)}),
    ("matrix", {"weight": np.eye(3), "bias": np.zeros(3)}),
])
def test_a_calibrator_holds_read_only_copies_of_its_arrays(kind, fields):
    cal = scalers.Calibrator(kind=kind, **fields)
    for name, array in fields.items():
        held = getattr(cal, name).copy()
        array[0] = 5.0
        np.testing.assert_array_equal(getattr(cal, name), held)
        with pytest.raises(ValueError):
            getattr(cal, name)[0] = 5.0


def test_calibrator_json_roundtrip(tmp_path):
    cases = [
        scalers.Calibrator(kind="temperature", temperature=2.5),
        scalers.Calibrator(kind="vector", scale=np.array([1.0, 2.0]), bias=np.array([0.0, -1.0])),
        scalers.Calibrator(
            kind="matrix", weight=np.eye(2), bias=np.zeros(2), converged=False
        ),
        scalers.Calibrator(kind="identity"),
    ]
    for cal in cases:
        path = tmp_path / "cal.json"
        scalers.save_calibrator(cal, path)
        loaded = scalers.load_calibrator(path)
        assert loaded.kind == cal.kind
        assert loaded.converged == cal.converged
        doc = json.loads(path.read_text())
        assert doc["schema_version"] == scalers.SCHEMA_VERSION
        b = metrics.PredictionBatch(logits=[[1.0, -1.0]], labels=[0])
        np.testing.assert_allclose(loaded.apply(b).logits, cal.apply(b).logits)
    path.write_text("kind: temperature\n")
    with pytest.raises(InvalidInputError):
        scalers.load_calibrator(path)


# A valid two-class document of each kind, and every field that belongs to
# another kind, with a value that would be valid there.
EYE = [[1.0, 0.0], [0.0, 1.0]]
KIND_DOCS = {
    "identity": {"schema_version": 1, "kind": "identity"},
    "temperature": {"schema_version": 1, "kind": "temperature", "temperature": 2.0},
    "vector": {"schema_version": 1, "kind": "vector", "scale": [1.0, 2.0], "bias": [0.0, 0.0]},
    "matrix": {"schema_version": 1, "kind": "matrix", "weight": EYE, "bias": [0.0, 0.0]},
}
FIELD_VALUES = {"temperature": 3.0, "scale": [1.0, 1.0], "bias": [0.0, 0.0], "weight": EYE}
STRAY_FIELDS = [
    (kind, name, value)
    for kind, doc in KIND_DOCS.items()
    for name, value in FIELD_VALUES.items()
    if name not in doc
]


@pytest.mark.parametrize(
    "doc",
    [
        {"schema_version": 1, "kind": "vector", "scale": [1.0, 2.0], "bias": [0.0]},
        {"schema_version": 1, "kind": "vector", "scale": [[1.0, 2.0]], "bias": [[0.0, 0.0]]},
        {"schema_version": 1, "kind": "vector", "scale": [1.0, 2.0]},
        {"schema_version": 1, "kind": "matrix", "weight": [[1.0, 0.0]], "bias": [0.0, 0.0]},
        {"schema_version": 1, "kind": "matrix", "weight": np.eye(3).tolist(), "bias": [0.0, 0.0]},
        {"schema_version": 99, "kind": "temperature", "temperature": 2.0},
        {"kind": "temperature", "temperature": 2.0},
        {"schema_version": 1, "temperature": 2.0},
        {"schema_version": 1, "kind": "temperature", "temperature": "2"},
        {"schema_version": 1, "kind": "temperature", "temperature": True},
        {"schema_version": 1, "kind": "vector", "scale": ["a", "b"], "bias": [0.0, 0.0]},
        {"schema_version": 1, "kind": "vector", "scale": [1.0, float("nan")], "bias": [0.0, 0.0]},
        {"schema_version": 1, "kind": "matrix", "weight": [[1.0, 0.0], [0.0]], "bias": [0.0, 0.0]},
        {"schema_version": 1, "kind": "temperature", "temperature": 2.0, "converged": "no"},
    ] + [{**KIND_DOCS[kind], name: value} for kind, name, value in STRAY_FIELDS],
    ids=["vector-lengths", "vector-2d", "vector-no-bias", "matrix-not-square",
         "matrix-vs-bias", "unknown-version", "no-version", "no-kind",
         "temperature-string", "temperature-bool", "scale-strings", "scale-nan",
         "weight-ragged", "converged-string"]
    + [f"{kind}-with-{name}" for kind, name, _ in STRAY_FIELDS],
)
def test_malformed_calibrator_document_is_rejected(doc):
    with pytest.raises(InvalidInputError):
        scalers.calibrator_from_dict(doc)


def test_stray_field_documents_differ_from_a_valid_one_only_by_that_field():
    for kind, doc in KIND_DOCS.items():
        assert scalers.calibrator_from_dict(doc).kind == kind
    for kind, name, value in STRAY_FIELDS:
        with pytest.raises(InvalidInputError, match=f"{kind} calibrator has no {name}"):
            scalers.calibrator_from_dict({**KIND_DOCS[kind], name: value})


def test_a_missing_field_is_named_by_its_kind():
    for kind, doc in KIND_DOCS.items():
        for name in set(doc) - {"schema_version", "kind"}:
            with pytest.raises(InvalidInputError, match=f"^{kind} calibrator needs {name}$"):
                scalers.calibrator_from_dict({key: value for key, value in doc.items() if key != name})


@pytest.mark.parametrize("converged", [True, False])
@pytest.mark.parametrize("kind", sorted(KIND_DOCS))
def test_each_kind_round_trips_through_a_document_of_exactly_its_keys(kind, converged):
    cal = scalers.calibrator_from_dict({**KIND_DOCS[kind], "converged": converged})
    doc = scalers.calibrator_to_dict(cal)
    assert set(doc) == set(KIND_DOCS[kind]) | {"converged"}
    assert doc == {**KIND_DOCS[kind], "converged": converged}
    assert scalers.calibrator_to_dict(scalers.calibrator_from_dict(doc)) == doc


def test_calibrator_checks_affine_shapes():
    with pytest.raises(InvalidInputError):
        scalers.Calibrator(kind="vector", scale=np.ones(2), bias=np.zeros(1))
    with pytest.raises(InvalidInputError):
        scalers.Calibrator(kind="matrix", weight=np.ones((2, 3)), bias=np.zeros(2))
