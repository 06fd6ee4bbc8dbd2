import numpy as np
import pytest

from pseudocal import metrics, scalers, synthetic
from pseudocal.errors import InvalidInputError, InvalidSpecError, TrainingError


def test_spec_validation():
    with pytest.raises(InvalidSpecError):
        synthetic.ShiftSpec(n_classes=1)
    with pytest.raises(InvalidSpecError):
        synthetic.ShiftSpec(dim=1)
    with pytest.raises(InvalidSpecError):
        synthetic.ShiftSpec(n_source=3, n_classes=5)
    with pytest.raises(InvalidSpecError):
        synthetic.ShiftSpec(target_priors=(0.5, 0.5))  # wrong length for C=5
    with pytest.raises(InvalidSpecError):
        synthetic.ShiftSpec(target_priors=(0.0,) * 5)
    with pytest.raises(InvalidSpecError):
        synthetic.ShiftSpec(target_priors=(0.9, 0.2, 0.0, 0.0, -0.1))
    with pytest.raises(InvalidSpecError):
        synthetic.ShiftSpec(cluster_std=0.0)
    with pytest.raises(InvalidSpecError):
        synthetic.ShiftSpec(seed=-1)


def test_generate_shift_free_control():
    spec = synthetic.ShiftSpec(n_classes=4, dim=5, n_source=4000, n_target=4000, seed=0)
    task = synthetic.generate(spec)
    # identical generating distributions: per-class empirical means agree
    for c in range(4):
        src = task.source_inputs[task.source_labels == c].mean(axis=0)
        tgt = task.target_inputs[task.target_labels == c].mean(axis=0)
        np.testing.assert_allclose(src, tgt, atol=0.25)


def test_generate_partial_set_zeroes_classes():
    spec = synthetic.ShiftSpec(target_priors=(1 / 3, 1 / 3, 1 / 3, 0.0, 0.0), seed=1)
    task = synthetic.generate(spec)
    assert set(np.unique(task.target_labels)) == {0, 1, 2}
    assert set(np.unique(task.source_labels)) == {0, 1, 2, 3, 4}


def test_generate_target_frequencies_match_priors():
    priors = np.array([0.4, 0.3, 0.15, 0.1, 0.05])
    spec = synthetic.ShiftSpec(n_target=5000, target_priors=tuple(priors), seed=2)
    task = synthetic.generate(spec)
    counts = np.bincount(task.target_labels, minlength=5)
    # multinomial concentration: each count within 3 sigma of its mean
    n = spec.n_target
    sigma = np.sqrt(n * priors * (1 - priors))
    assert np.all(np.abs(counts - n * priors) <= 3 * sigma)


def test_generate_deterministic():
    spec = synthetic.ShiftSpec(mean_shift=1.0, rotation=0.3, seed=3)
    t1, t2 = synthetic.generate(spec), synthetic.generate(spec)
    np.testing.assert_array_equal(t1.source_inputs, t2.source_inputs)
    np.testing.assert_array_equal(t1.target_inputs, t2.target_inputs)


def test_source_split_is_disjoint_and_complete():
    task = synthetic.generate(synthetic.ShiftSpec(n_source=1000, seed=4))
    n_train = task.source_train_inputs.shape[0]
    n_val = task.source_val_inputs.shape[0]
    assert n_train + n_val == 1000
    assert n_val == 250


def test_train_reaches_high_accuracy_without_shift():
    spec = synthetic.ShiftSpec(n_classes=5, dim=10, seed=5)
    task = synthetic.generate(spec)
    model = synthetic.train(task, epochs=400, lr=0.1, seed=5)
    pred = np.argmax(model.predict_logits(task.target_inputs), axis=1)
    assert np.mean(pred == task.target_labels) > 0.9


def test_gamma_preserves_argmax_and_raises_ece():
    spec = synthetic.ShiftSpec(mean_shift=1.0, rotation=0.45, seed=6)
    task = synthetic.generate(spec)
    plain = synthetic.train(task, epochs=300, lr=0.1, gamma=1.0, seed=6)
    sharp = synthetic.TrainedClassifier(
        weights=plain.weights, bias=plain.bias, gamma=3.0
    )
    z1 = plain.predict_logits(task.target_inputs)
    z3 = sharp.predict_logits(task.target_inputs)
    np.testing.assert_array_equal(np.argmax(z1, axis=1), np.argmax(z3, axis=1))
    b1 = metrics.PredictionBatch(logits=z1, labels=task.target_labels)
    b3 = metrics.PredictionBatch(logits=z3, labels=task.target_labels)
    assert b3.confidences().mean() > b1.confidences().mean()
    assert metrics.ece(b3) > metrics.ece(b1)
    with pytest.raises(InvalidInputError):
        synthetic.TrainedClassifier(weights=plain.weights, bias=plain.bias, gamma=0.5)


def test_oracle_temperature_roughly_inverts_gamma():
    gamma = 3.0
    spec = synthetic.ShiftSpec(n_classes=5, dim=10, seed=7)
    task = synthetic.generate(spec)
    model = synthetic.train(task, epochs=400, lr=0.1, gamma=gamma, seed=7)
    batch = metrics.PredictionBatch(
        logits=model.predict_logits(task.target_inputs), labels=task.target_labels
    )
    t = scalers.fit_oracle(batch).temperature
    assert 0.5 * gamma <= t <= 2.0 * gamma


def test_train_history_columns():
    task = synthetic.generate(synthetic.ShiftSpec(seed=8, n_source=500, n_target=500))
    model = synthetic.train(task, epochs=20, lr=0.1, track_history=True, seed=8)
    assert model.history.shape == (20, 4)
    assert np.all(np.isfinite(model.history))
    assert list(model.history[:, 0]) == list(range(1, 21))


def test_train_divergence_raises_with_epoch():
    # clamped cross-entropy never overflows on finite data, so force a
    # non-finite loss through a sample corrupted after the task's
    # constructor has checked its inputs
    task = synthetic.generate(synthetic.ShiftSpec(seed=9, n_source=200, n_target=200))
    bad = synthetic.SyntheticTask(
        spec=task.spec,
        source_inputs=task.source_inputs.copy(),
        source_labels=task.source_labels,
        target_inputs=task.target_inputs,
        target_labels=task.target_labels,
    )
    bad.source_inputs[0, 0] = np.nan
    with pytest.raises(TrainingError) as excinfo:
        synthetic.train(bad, epochs=10, lr=0.1, seed=9)
    assert excinfo.value.epoch == 1


def test_train_deterministic_per_seed():
    task = synthetic.generate(synthetic.ShiftSpec(seed=10, n_source=400, n_target=400))
    m1 = synthetic.train(task, epochs=50, lr=0.1, seed=3)
    m2 = synthetic.train(task, epochs=50, lr=0.1, seed=3)
    np.testing.assert_array_equal(m1.weights, m2.weights)
    m3 = synthetic.train(task, epochs=50, lr=0.1, seed=4)
    assert not np.array_equal(m3.weights, m1.weights)


def test_ensemble_single_member_matches_base_model():
    task = synthetic.generate(synthetic.ShiftSpec(seed=11, n_source=400, n_target=400))
    single = synthetic.train(task, epochs=50, lr=0.1, seed=0)
    ens = synthetic.ensemble_train(task, 1, epochs=50, lr=0.1)
    from pseudocal.numerics import softmax

    np.testing.assert_allclose(
        softmax(ens.predict_logits(task.target_inputs)),
        softmax(single.predict_logits(task.target_inputs)),
        atol=1e-9,
    )


def test_models_reject_inputs_they_cannot_score():
    model = synthetic.TrainedClassifier(weights=np.ones((3, 2)), bias=np.zeros(2))
    for inputs in (np.ones((4, 2)), np.ones(3)):
        with pytest.raises(InvalidInputError):
            model.predict_logits(inputs)
    three_classes = synthetic.TrainedClassifier(weights=np.ones((3, 3)), bias=np.zeros(3))
    with pytest.raises(InvalidInputError):
        synthetic.EnsembleModel(members=(model, three_classes)).predict_logits(np.ones((4, 3)))


def test_ensemble_order_invariant():
    task = synthetic.generate(synthetic.ShiftSpec(seed=12, n_source=400, n_target=400))
    ens = synthetic.ensemble_train(task, 3, epochs=50, lr=0.1)
    flipped = synthetic.EnsembleModel(members=ens.members[::-1])
    np.testing.assert_allclose(
        ens.predict_logits(task.target_inputs),
        flipped.predict_logits(task.target_inputs),
        atol=1e-12,
    )


def test_ensemble_calibration_not_worse_than_worst_member():
    spec = synthetic.ShiftSpec(mean_shift=1.0, rotation=0.45, seed=13)
    task = synthetic.generate(spec)
    ens = synthetic.ensemble_train(task, 4, epochs=300, lr=0.1, gamma=3.0)
    eces = [
        metrics.ece(
            metrics.PredictionBatch(
                logits=m.predict_logits(task.target_inputs), labels=task.target_labels
            )
        )
        for m in ens.members
    ]
    ens_ece = metrics.ece(
        metrics.PredictionBatch(
            logits=ens.predict_logits(task.target_inputs), labels=task.target_labels
        )
    )
    assert ens_ece <= max(eces)


def test_task_json_roundtrip(tmp_path):
    spec = synthetic.ShiftSpec(
        mean_shift=0.7, rotation=0.2, target_priors=(0.5, 0.5, 0.0, 0.0, 0.0), seed=14,
        n_source=100, n_target=100,
    )
    task = synthetic.generate(spec)
    path = tmp_path / "task.json"
    synthetic.save_task(task, path)
    loaded = synthetic.load_task(path)
    assert loaded.spec == task.spec
    np.testing.assert_array_equal(loaded.target_inputs, task.target_inputs)
    np.testing.assert_array_equal(loaded.source_labels, task.source_labels)


def test_model_json_roundtrip(tmp_path):
    task = synthetic.generate(synthetic.ShiftSpec(seed=15, n_source=200, n_target=200))
    model = synthetic.train(task, epochs=30, lr=0.1, gamma=2.0, seed=15)
    path = tmp_path / "model.json"
    synthetic.save_model(model, path)
    loaded = synthetic.load_model(path)
    np.testing.assert_array_equal(loaded.weights, model.weights)
    assert loaded.gamma == 2.0
    assert loaded.train_config["epochs"] == 30

    ens = synthetic.ensemble_train(task, 2, epochs=30, lr=0.1)
    synthetic.save_model(ens, path)
    loaded_ens = synthetic.load_model(path)
    np.testing.assert_allclose(
        loaded_ens.predict_logits(task.target_inputs),
        ens.predict_logits(task.target_inputs),
    )


@pytest.mark.parametrize(
    "what, damage",
    [
        ("task", lambda doc: doc.update(schema_version=99)),
        ("task", lambda doc: doc.pop("schema_version")),
        ("task", lambda doc: doc["target_inputs"][0].__setitem__(0, float("nan"))),
        ("task", lambda doc: doc["source_inputs"][1].__setitem__(2, float("inf"))),
        ("model", lambda doc: doc.update(schema_version=2)),
        ("model", lambda doc: doc["members"][1].update(schema_version=99)),
        ("model", lambda doc: doc["members"][0]["weights"][0].__setitem__(0, float("nan"))),
        ("model", lambda doc: doc["members"][0]["bias"].__setitem__(1, float("-inf"))),
        ("task", lambda doc: doc["source_labels"].__setitem__(0, 7)),
        ("task", lambda doc: doc["target_labels"].__setitem__(-1, -1)),
        ("task", lambda doc: doc.update(source_labels=doc["source_labels"][:-3])),
        ("task", lambda doc: doc.update(target_inputs=[row[0] for row in doc["target_inputs"]])),
        ("task", lambda doc: doc["source_inputs"][0].pop()),
        ("task", lambda doc: doc["target_inputs"][0].__setitem__(0, "1.0")),
        ("task", lambda doc: doc["source_labels"].__setitem__(0, 1.5)),
        ("task", lambda doc: doc.update(val_fraction=2.0)),
        ("task", lambda doc: doc["spec"].pop("n_classes")),
        ("task", lambda doc: doc["spec"].update(n_classes=2.5)),
        ("model", lambda doc: doc.update(members=[])),
        ("model", lambda doc: doc["members"][0].update(gamma=float("inf"))),
    ],
    ids=["task-version", "task-no-version", "target-nan", "source-inf", "model-version",
         "member-version", "weights-nan", "bias-inf", "source-label-7", "target-label-negative",
         "source-labels-short", "target-1d", "source-ragged", "target-string", "label-fraction",
         "val-fraction-2", "spec-no-n-classes", "spec-fractional-n-classes", "ensemble-empty",
         "gamma-inf"],
)
def test_malformed_task_and_model_documents_are_rejected(what, damage):
    task = synthetic.generate(synthetic.ShiftSpec(seed=16, n_source=50, n_target=50))
    if what == "task":
        doc, from_dict = synthetic.task_to_dict(task), synthetic.task_from_dict
    else:
        ens = synthetic.ensemble_train(task, 2, epochs=5, lr=0.1)
        doc, from_dict = synthetic.model_to_dict(ens), synthetic.model_from_dict
    damage(doc)
    with pytest.raises(InvalidInputError):
        from_dict(doc)
