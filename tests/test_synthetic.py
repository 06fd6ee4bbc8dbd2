from dataclasses import asdict

import numpy as np
import pytest

from pseudocal import metrics, scalers, synthetic
from pseudocal.errors import InvalidInputError, InvalidSpecError, LabelsRequiredError, TrainingError

from _util import list_form, member_by_member_train


def test_spec_validation():
    # A single-field range is worded as the field's number check.
    with pytest.raises(InvalidSpecError, match=r"^n_classes must be an integer >= 2, got 1$"):
        synthetic.ShiftSpec(n_classes=1)
    with pytest.raises(InvalidSpecError, match=r"^dim must be an integer >= 2 for the class-mean circle, got 1$"):
        synthetic.ShiftSpec(dim=1)
    with pytest.raises(InvalidSpecError):
        synthetic.ShiftSpec(n_source=3, n_classes=5)
    with pytest.raises(InvalidSpecError):
        synthetic.ShiftSpec(target_priors=(0.5, 0.5))  # wrong length for C=5
    with pytest.raises(InvalidSpecError):
        synthetic.ShiftSpec(target_priors=(0.0,) * 5)
    with pytest.raises(InvalidSpecError):
        synthetic.ShiftSpec(target_priors=(0.9, 0.2, 0.0, 0.0, -0.1))
    with pytest.raises(InvalidSpecError, match="sum to 1"):
        synthetic.ShiftSpec(target_priors=(0.5, 0.2, 0.1, 0.1, 0.05))
    with pytest.raises(InvalidSpecError, match=r"^cluster_std must be a finite number > 0, got 0.0$"):
        synthetic.ShiftSpec(cluster_std=0.0)
    with pytest.raises(InvalidSpecError, match=r"^seed must be an integer >= 0, got -1$"):
        synthetic.ShiftSpec(seed=-1)
    with pytest.raises(InvalidSpecError, match="too large for numpy"):
        synthetic.ShiftSpec(dim=10**20, n_source=10, n_target=10)  # numpy refuses it unallocated
    # every field is type-checked, and a bool is not a number
    for bad in (
        dict(mean_shift="x"),
        dict(rotation=True),
        dict(cluster_std=float("nan")),
        dict(mean_shift=float("inf")),
        dict(n_source=2000.0),
        dict(dim="10"),
        dict(seed=True),
        dict(target_priors="x"),
        dict(target_priors=(0.2, float("nan"), 0.2, 0.2, 0.4)),
    ):
        with pytest.raises(InvalidSpecError):
            synthetic.ShiftSpec(**bad)


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
    t = scalers.fit_temperature(batch).temperature
    assert 0.5 * gamma <= t <= 2.0 * gamma


def test_train_history_columns():
    task = synthetic.generate(synthetic.ShiftSpec(seed=8, n_source=500, n_target=500))
    model = synthetic.train(task, epochs=20, lr=0.1, track_history=True, seed=8)
    assert model.history.shape == (20, 4)
    assert np.all(np.isfinite(model.history))
    assert list(model.history[:, 0]) == list(range(1, 21))


def test_tracking_history_leaves_training_bit_identical():
    task = synthetic.generate(synthetic.ShiftSpec(seed=8, n_source=500, n_target=500))
    tracked = synthetic.train(task, epochs=20, lr=0.1, gamma=2.0, track_history=True, seed=8)
    plain = synthetic.train(task, epochs=20, lr=0.1, gamma=2.0, seed=8)
    assert plain.history is None
    np.testing.assert_array_equal(tracked.weights, plain.weights)
    np.testing.assert_array_equal(tracked.bias, plain.bias)


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


def test_training_history_needs_target_labels_before_the_first_epoch():
    # A NaN source input stops the first epoch with TrainingError, so the
    # labels error shows that no epoch ran.
    task = synthetic.generate(synthetic.ShiftSpec(seed=9, n_source=200, n_target=200))
    unlabeled = synthetic.SyntheticTask(
        spec=task.spec,
        source_inputs=task.source_inputs.copy(),
        source_labels=task.source_labels,
        target_inputs=task.target_inputs,
    )
    unlabeled.source_inputs[0, 0] = np.nan
    with pytest.raises(LabelsRequiredError, match="target"):
        synthetic.train(unlabeled, epochs=10, lr=0.1, track_history=True, seed=9)
    with pytest.raises(TrainingError):
        synthetic.train(unlabeled, epochs=10, lr=0.1, seed=9)


@pytest.mark.parametrize("n_classes", [2, 5, 7, 8, 16])
def test_one_loop_trains_each_member_bit_for_bit_as_alone(n_classes):
    # C < 8 takes softmax's column-slice reductions, C >= 8 numpy's own
    task = synthetic.generate(
        synthetic.ShiftSpec(n_classes=n_classes, mean_shift=1.0, rotation=0.45, seed=17,
                            n_source=400, n_target=300)
    )
    seeds = [3, 31, 32, 33, 34]
    config = dict(epochs=25, lr=0.1, gamma=2.5)
    alone = [member_by_member_train(task, s, **config, track_history=True) for s in seeds]

    single = synthetic.train(task, **config, track_history=True, seed=seeds[0])
    together = synthetic.train(task, **config, track_history=True, seed=seeds)
    ensemble = synthetic.train(task, **config, seed=seeds)
    for models in ([single], together.members, ensemble.members):
        for model, (w, b, history) in zip(models, alone):
            assert repr(model.weights.tolist()) == repr(w.tolist())
            assert repr(model.bias.tolist()) == repr(b.tolist())
            if model.history is not None:
                np.testing.assert_array_equal(model.history, history)
    assert isinstance(single, synthetic.TrainedClassifier)
    assert isinstance(together, synthetic.EnsembleModel) and len(together.members) == len(seeds)
    assert single.history is not None and ensemble.members[0].history is None


def test_ensemble_divergence_names_the_first_epoch_any_member_diverged():
    # One huge input saturates its row's softmax at epoch 1. Where a member's
    # initial weights already rank that row's label first, the row adds no
    # gradient, so that member overflows an epoch later than the others.
    task = synthetic.generate(synthetic.ShiftSpec(seed=9, n_source=200, n_target=200))
    x = task.source_inputs.copy()
    x[0, 0] = 1e200
    bad = synthetic.SyntheticTask(
        spec=task.spec,
        source_inputs=x,
        source_labels=task.source_labels,
        target_inputs=task.target_inputs,
        target_labels=task.target_labels,
    )
    first_epoch = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for seed in (6, 0):
            with pytest.raises(TrainingError) as excinfo:
                member_by_member_train(bad, seed, epochs=10, lr=0.1, gamma=1.0)
            first_epoch[seed] = excinfo.value.epoch
        assert first_epoch == {6: 3, 0: 2}
        with pytest.raises(TrainingError, match="diverged at epoch 2") as excinfo:
            synthetic.train(bad, epochs=10, lr=0.1, seed=[6, 0])
    assert excinfo.value.epoch == 2


def test_ensemble_needs_a_member():
    with pytest.raises(InvalidInputError, match="at least one member"):
        synthetic.EnsembleModel(members=())


def test_train_needs_a_seed():
    task = synthetic.generate(synthetic.ShiftSpec(seed=9, n_source=200, n_target=200))
    for bad in ([], (), range(0)):
        with pytest.raises(InvalidInputError, match="at least one seed"):
            synthetic.train(task, epochs=10, lr=0.1, seed=bad)
    with pytest.raises(InvalidInputError, match="seeds must be a list, got '5'"):
        synthetic.train(task, epochs=10, lr=0.1, seed="5")
    with pytest.raises(InvalidInputError, match="seed 3 is listed more than once"):
        synthetic.train(task, epochs=10, lr=0.1, seed=[3, 3])


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
    ens = synthetic.train(task, epochs=50, lr=0.1, seed=range(1))
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
    ens = synthetic.train(task, epochs=50, lr=0.1, seed=range(3))
    flipped = synthetic.EnsembleModel(members=ens.members[::-1])
    np.testing.assert_allclose(
        ens.predict_logits(task.target_inputs),
        flipped.predict_logits(task.target_inputs),
        atol=1e-12,
    )


def test_ensemble_calibration_not_worse_than_worst_member():
    spec = synthetic.ShiftSpec(mean_shift=1.0, rotation=0.45, seed=13)
    task = synthetic.generate(spec)
    ens = synthetic.train(task, epochs=300, lr=0.1, gamma=3.0, seed=range(4))
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


def test_task_inputs_must_have_the_shape_their_spec_says():
    task = synthetic.generate(synthetic.ShiftSpec(seed=4, n_source=60, n_target=40))
    arrays = dict(source_inputs=task.source_inputs, source_labels=task.source_labels,
                  target_inputs=task.target_inputs, target_labels=task.target_labels)
    for change, message in [
        (dict(n_target=50000, dim=3, n_source=7),
         "target inputs are 40 x 10, but the task spec says 50000 x 3"),
        (dict(n_target=41), "target inputs are 40 x 10, but the task spec says 41 x 10"),
        (dict(n_source=7), "source inputs are 60 x 10, but the task spec says 7 x 10"),
        (dict(dim=11), "target inputs are 40 x 10, but the task spec says 40 x 11"),
    ]:
        spec = synthetic.ShiftSpec(**{**asdict(task.spec), **change})
        with pytest.raises(InvalidInputError, match=message):
            synthetic.SyntheticTask(spec=spec, **arrays)
        doc = synthetic.task_to_dict(task)
        doc["spec"].update(change)
        with pytest.raises(InvalidInputError, match=message):
            synthetic.task_from_dict(doc)
    # A task without a source holds only the target to its spec's shape.
    spec = synthetic.ShiftSpec(**{**asdict(task.spec), "n_source": 7})
    alone = synthetic.SyntheticTask(spec=spec, target_inputs=task.target_inputs)
    assert not alone.has_source


def test_source_labels_need_source_inputs():
    # A task keeps no labels that its document would drop without a word.
    task = synthetic.generate(synthetic.ShiftSpec(seed=4, n_source=60, n_target=40))
    with pytest.raises(InvalidInputError, match="source labels need source inputs"):
        synthetic.SyntheticTask(
            spec=task.spec, source_labels=task.source_labels, target_inputs=task.target_inputs
        )
    doc = {**synthetic.task_to_dict(task), "source_inputs": None}
    with pytest.raises(InvalidInputError, match="source labels need source inputs"):
        synthetic.task_from_dict(doc)
    doc["source_labels"] = None
    target_only = synthetic.task_from_dict(doc)
    assert not target_only.has_source
    with pytest.raises(InvalidInputError, match="^training requires source data$"):
        synthetic.train(target_only, epochs=3)


def test_a_model_document_shares_no_train_config_with_the_model():
    task = synthetic.generate(synthetic.ShiftSpec(seed=15, n_source=60, n_target=20))
    model = synthetic.train(task, epochs=3, seed=15)
    doc = synthetic.model_to_dict(model)
    doc["train_config"]["epochs"] = 999
    assert model.train_config["epochs"] == 3
    with pytest.raises(TypeError):
        model.train_config["lr"] = "x"
    assert synthetic.model_from_dict(synthetic.model_to_dict(model)).train_config == model.train_config


def test_a_classifier_holds_read_only_copies_of_its_arrays():
    task = synthetic.generate(synthetic.ShiftSpec(seed=15, n_source=60, n_target=20))
    model = synthetic.train(task, epochs=3, track_history=True, seed=15)
    weights, bias, history = np.ones((10, 5)), np.zeros(5), np.ones((3, 4))
    held = synthetic.TrainedClassifier(weights=weights, bias=bias, history=history)
    weights[0, 0] = bias[0] = history[0, 0] = 5.0
    assert held.weights[0, 0] == 1.0 and held.bias[0] == 0.0 and held.history[0, 0] == 1.0
    for array in (held.weights, held.bias, held.history, model.weights, model.bias, model.history):
        with pytest.raises(ValueError):
            array[0] = 7.0


def test_a_classifier_history_is_none_or_a_finite_four_column_array():
    weights, bias = np.ones((2, 3)), np.zeros(3)
    for history, message in (
        ("not a history", "training history must be a 2-D array of numbers"),
        (np.ones(4), "training history must be a 2-D array of numbers"),
        (np.ones((3, 3)), "training history must have 4 columns, got 3"),
        ([[1.0, 0.5, 0.2, np.nan]], "training history must be finite"),
    ):
        with pytest.raises(InvalidInputError, match=message):
            synthetic.TrainedClassifier(weights=weights, bias=bias, history=history)
    assert synthetic.TrainedClassifier(weights=weights, bias=bias, history=None).history is None


def test_a_bad_train_config_value_is_named_alone():
    weights, bias = np.ones((2, 3)), np.zeros(3)
    for config, message in (
        ({"epochs": 3, "lr": 0.0}, "train_config lr must be a finite number > 0, got 0.0"),
        ({"seed": 1, "epochs": "x"}, "train_config epochs must be an integer >= 1, got 'x'"),
        ({"gamma": 2.0, "momentum": 0.9}, "a train_config has no key 'momentum'"),
        ({"gamma": 2.0}, "train_config gamma 2.0 differs from the model's gamma 1.0"),
    ):
        with pytest.raises(InvalidInputError) as excinfo:
            synthetic.TrainedClassifier(weights=weights, bias=bias, train_config=config)
        assert str(excinfo.value) == message


def test_model_json_roundtrip(tmp_path):
    task = synthetic.generate(synthetic.ShiftSpec(seed=15, n_source=200, n_target=200))
    model = synthetic.train(task, epochs=30, lr=0.1, gamma=2.0, seed=15)
    path = tmp_path / "model.json"
    synthetic.save_model(model, path)
    loaded = synthetic.load_model(path)
    np.testing.assert_array_equal(loaded.weights, model.weights)
    assert loaded.gamma == 2.0
    assert loaded.train_config["epochs"] == 30

    ens = synthetic.train(task, epochs=30, lr=0.1, seed=range(2))
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
        ("model", lambda doc: doc["members"][0].update(gamma=True)),
        ("task", lambda doc: doc["spec"].update(mean_shift="x")),
        ("task", lambda doc: doc["spec"].update(rotation=False)),
        ("model", lambda doc: doc["members"][0]["train_config"].update(epochs="x")),
        ("model", lambda doc: doc["members"][0]["train_config"].update(epochs=2.0)),
        ("model", lambda doc: doc["members"][0]["train_config"].update(lr=0.0)),
        ("model", lambda doc: doc["members"][0]["train_config"].update(gamma=float("nan"))),
        ("model", lambda doc: doc["members"][0]["train_config"].update(seed=-1)),
        ("model", lambda doc: doc["members"][0]["train_config"].update(momentum=0.9)),
        ("model", lambda doc: doc["members"][0].update(train_config=[])),
    ],
    ids=["task-version", "task-no-version", "target-nan", "source-inf", "model-version",
         "member-version", "weights-nan", "bias-inf", "source-label-7", "target-label-negative",
         "source-labels-short", "target-1d", "source-ragged", "target-string", "label-fraction",
         "val-fraction-2", "spec-no-n-classes", "spec-fractional-n-classes", "ensemble-empty",
         "gamma-inf", "gamma-bool", "spec-mean-shift-string", "spec-rotation-bool",
         "train-config-epochs-string", "train-config-epochs-float", "train-config-lr-zero",
         "train-config-gamma-nan", "train-config-seed-negative", "train-config-unknown-key",
         "train-config-list"],
)
def test_malformed_task_and_model_documents_are_rejected(what, damage):
    task = synthetic.generate(synthetic.ShiftSpec(seed=16, n_source=50, n_target=50))
    if what == "task":  # arrays as JSON lists, so that damage can reach single rows and labels
        doc, from_dict = list_form(synthetic.task_to_dict(task)), synthetic.task_from_dict
    else:
        ens = synthetic.train(task, epochs=5, lr=0.1, seed=range(2))
        doc, from_dict = synthetic.model_to_dict(ens), synthetic.model_from_dict
    damage(doc)
    with pytest.raises(InvalidInputError):
        from_dict(doc)
