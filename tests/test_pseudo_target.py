import io
from dataclasses import fields, replace

import numpy as np
import pytest

from pseudocal import metrics, numerics, pseudo_target, scalers, synthetic
from pseudocal.errors import (
    DegenerateTargetError,
    EmptyFilterError,
    InvalidInputError,
)

from _util import bench_setup, chance_correspondence, two_hot


class IdentityModel:
    """Inputs are already logits; pseudo label = argmax of the input row."""

    def predict_logits(self, inputs):
        return np.asarray(inputs, dtype=np.float64)


def swapping_seed(n):
    """First seed whose length-n permutation has no fixed point."""
    for seed in range(100):
        perm = np.random.default_rng(seed).permutation(n)
        if not np.any(perm == np.arange(n)):
            return seed
    raise AssertionError("no derangement seed found")


def test_config_validation():
    with pytest.raises(InvalidInputError):
        pseudo_target.MixupConfig(lam=0.5)
    with pytest.raises(InvalidInputError):
        pseudo_target.MixupConfig(lam=1.2)
    with pytest.raises(InvalidInputError):
        pseudo_target.MixupConfig(label_mode="fuzzy")
    x = np.eye(3)
    pseudo = pseudo_target.synthesize(
        IdentityModel(), x, np.arange(3), pseudo_target.MixupConfig(seed=swapping_seed(3))
    )
    with pytest.raises(InvalidInputError):
        pseudo_target.fit_on_pseudo_set(pseudo, "fuzzy")
    with pytest.raises(InvalidInputError):
        pseudo_target.MixupConfig(pairing="best-friend")
    with pytest.raises(InvalidInputError):
        pseudo_target.MixupConfig(epochs=0)
    # types, not only values: a bool is no mix ratio, a string no epoch count
    for bad in ({"epochs": "x"}, {"epochs": 1.5}, {"seed": "0"}, {"seed": True},
                {"lam": True}, {"lam": "0.7"}, {"lam": float("nan")}):
        with pytest.raises(InvalidInputError):
            pseudo_target.MixupConfig(**bad)
    # beta policy has no fixed-ratio constraint
    pseudo_target.MixupConfig(lam=0.5, lambda_policy="beta")


def test_synthesize_mixes_by_dominance():
    # two samples with pseudo labels 3 and 7; lam=0.65 keeps label of sample a
    x = np.zeros((2, 8))
    x[0, 3] = 5.0
    x[1, 7] = 5.0
    seed = swapping_seed(2)
    cfg = pseudo_target.MixupConfig(lam=0.65, seed=seed)
    pseudo = pseudo_target.synthesize(IdentityModel(), x, np.argmax(x, axis=1), cfg)
    assert pseudo.size == 2
    for i in range(pseudo.size):
        a, b = pseudo.index_a[i], pseudo.index_b[i]
        np.testing.assert_allclose(pseudo.logits[i], 0.65 * x[a] + 0.35 * x[b])
        assert pseudo.labels[i] == pseudo.pl_a[i]
        assert pseudo.dominant_index[i] == a


def test_synthesize_lambda_one_reduces_to_pseudo_labeled_reals():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((20, 3)) * 3
    cfg = pseudo_target.MixupConfig(lam=1.0, seed=1)
    pseudo = pseudo_target.synthesize(IdentityModel(), x, np.argmax(x, axis=1), cfg)
    for i in range(pseudo.size):
        np.testing.assert_allclose(pseudo.logits[i], x[pseudo.index_a[i]])
        assert pseudo.labels[i] == np.argmax(x[pseudo.index_a[i]])


def test_synthesize_filters_equal_pseudo_labels():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((50, 4))
    pseudo = pseudo_target.synthesize(
        IdentityModel(), x, np.argmax(x, axis=1), pseudo_target.MixupConfig(seed=3)
    )
    assert np.all(pseudo.pl_a != pseudo.pl_b)
    assert pseudo.size <= 50


def test_synthesize_same_pairing_keeps_agreeing_pairs():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((60, 2))
    cfg = pseudo_target.MixupConfig(pairing="same", seed=5)
    pseudo = pseudo_target.synthesize(IdentityModel(), x, np.argmax(x, axis=1), cfg)
    assert np.all(pseudo.pl_a == pseudo.pl_b)
    assert np.all(pseudo.labels == pseudo.pl_a)


def test_synthesize_multi_epoch_and_determinism():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((40, 3))
    cfg = pseudo_target.MixupConfig(epochs=3, seed=7)
    p1 = pseudo_target.synthesize(IdentityModel(), x, np.argmax(x, axis=1), cfg)
    p2 = pseudo_target.synthesize(IdentityModel(), x, np.argmax(x, axis=1), cfg)
    assert p1.size <= 3 * 40
    np.testing.assert_array_equal(p1.logits, p2.logits)
    np.testing.assert_array_equal(p1.labels, p2.labels)
    other = pseudo_target.synthesize(
        IdentityModel(), x, np.argmax(x, axis=1), pseudo_target.MixupConfig(epochs=3, seed=8)
    )
    assert other.size != p1.size or not np.array_equal(other.logits, p1.logits)


def per_epoch_synthesis(model, x, pl, cfg):
    """A plain reference of synthesize: each epoch draws, keeps and mixes its own pairs.

    Returns the fields of the pseudo set (None if it is empty) and the
    number of pairs each epoch kept.
    """
    rng = np.random.default_rng(cfg.seed)
    n = len(x)
    rows, mixed, kept = [], [], []
    for _ in range(cfg.epochs):
        perm = rng.permutation(n)
        lam = rng.beta(0.3, 0.3, size=n) if cfg.lambda_policy == "beta" else np.full(n, cfg.lam)
        epoch = [
            (a, b, lam[a]) for a, b in enumerate(perm)
            if (pl[a] != pl[b] if cfg.pairing == "distinct" else pl[a] == pl[b] and a != b)
        ]
        mixed += [w * x[a] + (1.0 - w) * x[b] for a, b, w in epoch]
        rows += epoch
        kept.append(len(epoch))
    if not rows:
        return None, kept
    index_a = np.array([a for a, _, _ in rows])
    index_b = np.array([b for _, b, _ in rows])
    fields = {
        "index_a": index_a, "index_b": index_b, "lam": np.array([w for _, _, w in rows]),
        "pl_a": pl[index_a], "pl_b": pl[index_b], "logits": model.predict_logits(np.array(mixed)),
    }
    return fields, kept


@pytest.mark.parametrize("pairing", pseudo_target.PAIRINGS)
@pytest.mark.parametrize("policy", pseudo_target.LAMBDA_POLICIES)
def test_multi_epoch_synthesis_matches_a_per_epoch_reference(policy, pairing):
    rng = np.random.default_rng(9)
    model = synthetic.TrainedClassifier(weights=rng.standard_normal((3, 4)), bias=rng.standard_normal(4))
    x = rng.standard_normal((40, 3))
    # Two targets keep no pair in an epoch whose permutation is the identity:
    # distinct pairing needs their labels to differ, same pairing to agree.
    pair = x[:2], np.array([0, 1] if pairing == "distinct" else [2, 2])

    def config(epochs, seed):
        return pseudo_target.MixupConfig(lambda_policy=policy, pairing=pairing, epochs=epochs, seed=seed)

    def kept(seed):
        return per_epoch_synthesis(model, *pair, config(4, seed))[1]

    seed = next(s for s in range(100) if 0 in kept(s) and sum(kept(s)) > 0)
    for inputs, pl, epochs in [(x, numerics.argmax_rows(model.predict_logits(x)), 3), (*pair, 4)]:
        want, _ = per_epoch_synthesis(model, inputs, pl, config(epochs, seed))
        got = pseudo_target.synthesize(model, inputs, pl, config(epochs, seed))
        for name, value in want.items():
            assert getattr(got, name).dtype == value.dtype, name
            assert getattr(got, name).tobytes() == value.tobytes(), name


def test_synthesize_degenerate_when_predictions_collapse():
    x = np.zeros((10, 3))
    x[:, 1] = 4.0  # every sample predicted as class 1
    with pytest.raises(DegenerateTargetError) as excinfo:
        pseudo_target.synthesize(
            IdentityModel(), x, np.argmax(x, axis=1), pseudo_target.MixupConfig(seed=0)
        )
    assert excinfo.value.predicted_class == 1
    assert "1" in str(excinfo.value)


def test_synthesize_checks_target_pseudo_labels():
    x = np.random.default_rng(3).standard_normal((10, 3))
    cfg = pseudo_target.MixupConfig(seed=0)
    pl = np.argmax(x, axis=1)
    for bad in (pl[:-1], pl.astype(float) + 0.5, np.where(pl == 2, 3, pl), pl - 1, pl[:, None]):
        with pytest.raises(InvalidInputError, match="target pseudo labels"):
            pseudo_target.synthesize(IdentityModel(), x, bad, cfg)


class NoInference:
    def predict_logits(self, inputs):
        raise AssertionError("inferred before the pseudo labels were checked")


def test_synthesize_rejects_negative_pseudo_labels_before_inferring():
    # The upper bound needs the class count, which only inference gives.
    x = np.random.default_rng(3).standard_normal((10, 3))
    pl = np.arange(10) % 3 - 1
    with pytest.raises(InvalidInputError, match="target pseudo labels"):
        pseudo_target.synthesize(NoInference(), x, pl, pseudo_target.MixupConfig())


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_synthesize_rejects_nonfinite_model_logits(bad):
    x = np.random.default_rng(4).standard_normal((10, 3))
    x[3, 1] = bad
    with pytest.raises(InvalidInputError, match="non-finite"):
        pseudo_target.calibrate(IdentityModel(), x, pseudo_target.MixupConfig(seed=0))
    with pytest.raises(InvalidInputError, match="non-finite"):
        pseudo_target.variant_pseudo_label(pseudo_target.infer(IdentityModel(), x))


class FreshLogitsModel:
    def predict_logits(self, inputs):
        return np.asarray(inputs, dtype=np.float64) * 2.0


def test_infer_returns_frozen_logits_that_batches_share():
    x = np.random.default_rng(5).standard_normal((6, 3))
    logits = pseudo_target.infer(FreshLogitsModel(), x)
    assert not logits.flags.writeable
    assert np.shares_memory(metrics.PredictionBatch(logits=logits).logits, logits)
    # a model returning its inputs: the caller's array is copied, not frozen
    logits = pseudo_target.infer(IdentityModel(), x)
    assert not logits.flags.writeable and x.flags.writeable
    assert not np.shares_memory(logits, x)


@pytest.mark.parametrize(
    "change", [{}, {"pairing": "same"}, {"lambda_policy": "beta", "epochs": 2}],
    ids=["distinct", "same", "beta"],
)
def test_soft_fit_matches_two_hot_oracle(change):
    # pseudo labels the logits partly disagree with, so no fit ends at a bound
    rng = np.random.default_rng(8)
    x = 3.0 * rng.standard_normal((60, 4))
    pl = np.where(rng.random(60) < 0.7, np.argmax(x, axis=1), rng.integers(0, 4, 60))
    cfg = pseudo_target.MixupConfig(seed=9, **change)
    pseudo = pseudo_target.synthesize(IdentityModel(), x, pl, cfg)
    soft = two_hot(pseudo.lam, pseudo.pl_a, pseudo.pl_b, x.shape[1])
    expected = scalers.fit_temperature(metrics.PredictionBatch(logits=pseudo.logits), soft)
    assert scalers.T_MIN < expected.temperature < scalers.T_MAX
    assert repr(pseudo_target.fit_on_pseudo_set(pseudo, "soft")) == repr(expected)


def test_synthesis_ignores_label_mode():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((30, 4))
    hard, soft = (
        pseudo_target.synthesize(
            IdentityModel(), x, np.argmax(x, axis=1),
            pseudo_target.MixupConfig(label_mode=mode, seed=9),
        )
        for mode in pseudo_target.LABEL_MODES
    )
    for field in fields(pseudo_target.PseudoTargetSet):
        a, b = getattr(hard, field.name), getattr(soft, field.name)
        assert a.dtype == b.dtype and np.array_equal(a, b), field.name


def test_beta_policy_dominance_follows_ratio():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((200, 3))
    cfg = pseudo_target.MixupConfig(lambda_policy="beta", seed=11)
    pseudo = pseudo_target.synthesize(IdentityModel(), x, np.argmax(x, axis=1), cfg)
    assert np.any(pseudo.lam < 0.5) and np.any(pseudo.lam > 0.5)
    dominant_pl = np.where(pseudo.lam > 0.5, pseudo.pl_a, pseudo.pl_b)
    np.testing.assert_array_equal(pseudo.labels, dominant_pl)
    expected_dom = np.where(pseudo.lam > 0.5, pseudo.index_a, pseudo.index_b)
    np.testing.assert_array_equal(pseudo.dominant_index, expected_dom)


@pytest.mark.parametrize("policy", pseudo_target.LAMBDA_POLICIES)
@pytest.mark.parametrize("pairing", pseudo_target.PAIRINGS)
def test_every_fit_takes_the_pseudo_set_as_the_batch_it_is(policy, pairing):
    rng = np.random.default_rng(16)
    x = 2.0 * rng.standard_normal((80, 4))
    pl = np.where(rng.random(80) < 0.7, np.argmax(x, axis=1), rng.integers(0, 4, 80))
    cfg = pseudo_target.MixupConfig(lambda_policy=policy, pairing=pairing, seed=17)
    pseudo = pseudo_target.synthesize(IdentityModel(), x, pl, cfg)
    assert isinstance(pseudo, metrics.PredictionBatch)
    labels = np.where(pseudo.lam > 0.5, pseudo.pl_a, pseudo.pl_b)
    batch = metrics.PredictionBatch(logits=pseudo.logits, labels=labels)
    for fit in (scalers.fit_temperature, scalers.fit_vector, scalers.fit_matrix):
        expected = scalers.calibrator_to_dict(fit(batch))
        assert scalers.calibrator_to_dict(fit(pseudo)) == expected, fit.__name__


def valid_pseudo_fields():
    """A 4-row, 3-class pseudo set's fields as the caller's own writable arrays."""
    return dict(
        logits=np.random.default_rng(18).standard_normal((4, 3)), labels=np.array([0, 1, 2, 0]),
        index_a=np.arange(4), index_b=np.array([1, 2, 3, 0]), lam=np.full(4, 0.65),
        pl_a=np.array([0, 1, 2, 0]), pl_b=np.array([1, 2, 0, 1]),
    )


@pytest.mark.parametrize("change, message", [
    ({"pl_a": [0, 1, 2, 3]}, "pseudo set pl_a must lie in \\[0, 3\\)"),
    ({"pl_b": [1, 2, 0, -1]}, "pseudo set pl_b must be >= 0"),
    ({"lam": np.full(2, 0.65)}, "pseudo set lam must hold one entry per sample \\(4\\), got 2"),
    ({"index_a": np.arange(4.0)}, "pseudo set index_a must be a 1-D array of integers"),
    ({"index_b": [[1, 2, 3, 0]]}, "pseudo set index_b must be a 1-D array of integers"),
    ({"index_b": [1, 2, -3, 0]}, "pseudo set index_b must be >= 0"),
    ({"lam": [0.65, 0.65, np.nan, 0.65]}, "pseudo set lam must be finite"),
])
def test_pseudo_set_rejects_malformed_provenance(change, message):
    with pytest.raises(InvalidInputError, match=message):
        pseudo_target.PseudoTargetSet(**{**valid_pseudo_fields(), **change})


def test_pseudo_set_arrays_are_read_only_copies():
    given = valid_pseudo_fields()
    pseudo = pseudo_target.PseudoTargetSet(**given)

    def outputs():
        buf = io.StringIO()
        pseudo_target.write_provenance_csv(pseudo, buf)
        soft = pseudo_target.fit_on_pseudo_set(pseudo, "soft").temperature
        return buf.getvalue(), soft, pseudo_target.correspondence_rate(pseudo, [0, 1, 2, 0])

    before = outputs()
    for name, array in given.items():
        with pytest.raises(ValueError, match="read-only"):
            getattr(pseudo, name)[-1] += 1
        assert array.flags.writeable and not np.shares_memory(array, getattr(pseudo, name)), name
        array[-1] += 1  # the caller's array is still the caller's to change
    assert outputs() == before


def shifted_task_and_model(seed=0, gamma=3.0):
    spec = synthetic.ShiftSpec(
        n_classes=5, dim=10, n_source=800, n_target=800,
        mean_shift=1.0, rotation=0.45, seed=seed,
    )
    task = synthetic.generate(spec)
    model = synthetic.train(task, epochs=300, lr=0.1, gamma=gamma, seed=seed)
    return task, model


def test_calibrate_flattens_overconfident_model():
    task, model = shifted_task_and_model(gamma=3.0)
    cal = pseudo_target.calibrate(model, task.target_inputs, pseudo_target.MixupConfig(seed=0))
    assert cal.kind == "temperature"
    assert cal.temperature > 1.0


def test_calibrate_near_noop_on_calibrated_model():
    task, model = shifted_task_and_model(gamma=1.0)
    batch = metrics.PredictionBatch(
        logits=model.predict_logits(task.target_inputs), labels=task.target_labels
    )
    t_star = scalers.fit_temperature(batch).temperature
    calibrated = synthetic.TrainedClassifier(
        weights=model.weights / t_star, bias=model.bias / t_star, gamma=1.0
    )
    cal = pseudo_target.calibrate(
        calibrated, task.target_inputs, pseudo_target.MixupConfig(seed=0)
    )
    assert abs(cal.temperature - 1.0) <= 0.5
    before = metrics.PredictionBatch(
        logits=calibrated.predict_logits(task.target_inputs), labels=task.target_labels
    )
    after = cal.apply(before)
    assert abs(metrics.ece(after) - metrics.ece(before)) <= 0.02


def test_calibrate_deterministic_per_seed():
    task, model = shifted_task_and_model()
    cfg = pseudo_target.MixupConfig(seed=42)
    t1 = pseudo_target.calibrate(model, task.target_inputs, cfg).temperature
    t2 = pseudo_target.calibrate(model, task.target_inputs, cfg).temperature
    assert t1 == t2


def test_calibrate_never_changes_predictions():
    task, model = shifted_task_and_model()
    batch = metrics.PredictionBatch(logits=model.predict_logits(task.target_inputs))
    cal = pseudo_target.calibrate(model, task.target_inputs, pseudo_target.MixupConfig(seed=1))
    np.testing.assert_array_equal(cal.apply(batch).predictions(), batch.predictions())


def test_correspondence_rate_perfect_model():
    # equal-magnitude one-hot inputs: every mixture is predicted as its
    # dominant constituent's class, so every pair corresponds
    x = np.tile(4.0 * np.eye(4), (10, 1))
    labels = np.argmax(x, axis=1)
    pseudo = pseudo_target.synthesize(
        IdentityModel(), x, np.argmax(x, axis=1), pseudo_target.MixupConfig(seed=13)
    )
    rate = pseudo_target.correspondence_rate(pseudo, labels)
    assert rate == pytest.approx(1.0)
    # true labels are class indices for every mixed row, never cast
    for bad in (labels.astype(float), labels == 0, labels[:-8], labels + 4):
        with pytest.raises(InvalidInputError, match="target labels"):
            pseudo_target.correspondence_rate(pseudo, bad)


def test_correspondence_rate_exceeds_permuted_chance():
    task, model = shifted_task_and_model()
    pseudo = pseudo_target.synthesize(
        model,
        task.target_inputs,
        np.argmax(pseudo_target.infer(model, task.target_inputs), axis=1),
        pseudo_target.MixupConfig(seed=0),
    )
    rate = pseudo_target.correspondence_rate(pseudo, task.target_labels)
    chance = chance_correspondence(pseudo, task.target_labels, seed=100)
    assert rate > chance


def test_correspondence_under_permuted_labels_matches_chance_level():
    task, model = shifted_task_and_model()
    pseudo = pseudo_target.synthesize(
        model,
        task.target_inputs,
        np.argmax(pseudo_target.infer(model, task.target_inputs), axis=1),
        pseudo_target.MixupConfig(seed=0),
    )
    rng = np.random.default_rng(200)
    permuted_rate = pseudo_target.correspondence_rate(
        pseudo, rng.permutation(task.target_labels)
    )
    chance = chance_correspondence(pseudo, task.target_labels, seed=201, n_draws=50)
    # one permutation draw concentrates near the simulated chance level
    assert abs(permuted_rate - chance) <= 0.05


def test_variant_pseudo_label_hits_sharpening_bound():
    task, model = shifted_task_and_model()
    cal = pseudo_target.variant_pseudo_label(pseudo_target.infer(model, task.target_inputs))
    assert cal.temperature == pytest.approx(scalers.T_MIN)


def test_variant_filtered_pl_threshold_and_empty():
    task, model = shifted_task_and_model()
    logits = pseudo_target.infer(model, task.target_inputs)
    cal = pseudo_target.variant_filtered_pl(logits)
    assert cal.temperature == pytest.approx(scalers.T_MIN)
    # uniform logits never reach high confidence
    flat = np.zeros((10, 3))
    flat[:, 0] = 0.1
    with pytest.raises(EmptyFilterError):
        pseudo_target.variant_filtered_pl(flat)


def test_variant_filtered_pl_is_the_pseudo_label_fit_on_the_kept_rows():
    def labelled_then_filtered(z):  # argmax of every row, then the confident rows' fit
        pl = numerics.argmax_rows(z)
        batch = metrics.PredictionBatch(logits=z, labels=pl)
        keep = batch.confidences() >= pseudo_target.FILTER_THRESHOLD
        return scalers.fit_temperature(metrics.PredictionBatch(logits=z[keep], labels=pl[keep]))

    rng = np.random.default_rng(11)
    cells = [bench_setup(0)[2].logits]
    cells += [rng.standard_normal((300, c)) * s for c, s in ((2, 3.0), (5, 6.0), (12, 10.0))]
    cells.append(np.round(cells[-1]))  # ties in the argmax
    for z in cells:
        expected = labelled_then_filtered(z).temperature
        assert repr(pseudo_target.variant_filtered_pl(z).temperature) == repr(expected)


def test_variant_same_label_uses_agreeing_pairs():
    task, model = shifted_task_and_model()
    cal = pseudo_target.calibrate(
        model, task.target_inputs, pseudo_target.MixupConfig(pairing="same", seed=2)
    )
    assert cal.kind == "temperature"


def test_variant_beta_mixup_deterministic():
    task, model = shifted_task_and_model()
    cfg = pseudo_target.MixupConfig(seed=3)
    cfg = replace(cfg, lambda_policy="beta")
    t1 = pseudo_target.calibrate(model, task.target_inputs, cfg).temperature
    t2 = pseudo_target.calibrate(model, task.target_inputs, cfg).temperature
    assert t1 == t2


def test_provenance_csv():
    rng = np.random.default_rng(14)
    x = rng.standard_normal((20, 3))
    pseudo = pseudo_target.synthesize(
        IdentityModel(), x, np.argmax(x, axis=1), pseudo_target.MixupConfig(seed=15)
    )
    buf = io.StringIO()
    pseudo_target.write_provenance_csv(pseudo, buf)
    text = buf.getvalue()
    lines = text.strip().splitlines()
    assert lines[0] == "index_a,index_b,lambda,pl_a,pl_b,y_pt,pseudo_correct"
    assert len(lines) == pseudo.size + 1
    first = lines[1].split(",")
    assert first[2] == "0.65"
    assert int(first[6]) in (0, 1)
