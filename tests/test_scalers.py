import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pseudocal import metrics, numerics, scalers
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
    out = scalers.identity().apply(b)
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
            if labels.ndim == 2:
                t = scalers.fit_temperature(metrics.PredictionBatch(logits=z), soft_labels=labels)
            else:
                t = scalers.fit_temperature(metrics.PredictionBatch(logits=z, labels=labels))
            expected = unblocked_temperature(z, labels)
            assert repr(t.temperature) == repr(expected), (name, n, c)
            bound = {"t_min": scalers.T_MIN, "t_max": scalers.T_MAX}.get(name)
            if bound is None:
                assert scalers.T_MIN < expected < scalers.T_MAX, (name, n, c)
            else:
                assert expected == bound


def test_fit_temperature_not_worse_than_uncalibrated():
    rng = np.random.default_rng(9)
    for _ in range(10):
        b = random_batch(rng)
        nll_fit = metrics.mean_nll(scalers.fit_temperature(b).apply(b))
        assert nll_fit <= metrics.mean_nll(scalers.identity().apply(b)) + 1e-12


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


def test_nll_decomposition_needs_a_positive_finite_temperature():
    b = metrics.PredictionBatch(logits=[[3.0, 0.0], [0.0, 3.0]], labels=[0, 0])
    for bad in (-1.0, 0.0, 0, True, "x", None, np.nan, np.inf, -np.inf, []):
        with pytest.raises(InvalidInputError, match="temperature"):
            scalers.nll_decomposition(b, bad)
    assert scalers.nll_decomposition(b, 2).total == scalers.nll_decomposition(b, 2.0).total


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


def test_calibrator_json_roundtrip(tmp_path):
    cases = [
        scalers.Calibrator(kind="temperature", temperature=2.5),
        scalers.Calibrator(kind="vector", scale=np.array([1.0, 2.0]), bias=np.array([0.0, -1.0])),
        scalers.Calibrator(
            kind="matrix", weight=np.eye(2), bias=np.zeros(2), converged=False
        ),
        scalers.identity(),
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
    ],
    ids=["vector-lengths", "vector-2d", "vector-no-bias", "matrix-not-square",
         "matrix-vs-bias", "unknown-version", "no-version", "no-kind",
         "temperature-string", "temperature-bool", "scale-strings", "scale-nan",
         "weight-ragged", "converged-string"],
)
def test_malformed_calibrator_document_is_rejected(doc):
    with pytest.raises(InvalidInputError):
        scalers.calibrator_from_dict(doc)


def test_calibrator_checks_affine_shapes():
    with pytest.raises(InvalidInputError):
        scalers.Calibrator(kind="vector", scale=np.ones(2), bias=np.zeros(1))
    with pytest.raises(InvalidInputError):
        scalers.Calibrator(kind="matrix", weight=np.ones((2, 3)), bias=np.zeros(2))
