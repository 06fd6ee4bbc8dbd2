import inspect
import io
import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from pseudocal import metrics, pseudo_target, report, scalers, synthetic
from pseudocal.errors import DataAccessError, InvalidInputError, LabelsRequiredError
from pseudocal.pseudo_target import MixupConfig

from _util import bench_setup


@pytest.fixture(scope="module")
def cell():
    task, model, batch = bench_setup(seed=0)
    return task, model, batch


def test_none_method_equals_raw_ece(cell):
    task, model, batch = cell
    result = report.evaluate_all(model, task, ["none"], bins=15, mixup_cfg=MixupConfig(seed=0))
    assert result.methods["none"].ece == pytest.approx(metrics.ece(batch, 15), abs=1e-12)
    assert result.methods["none"].accuracy == pytest.approx(batch.accuracy())


def test_unknown_method_rejected(cell):
    task, _, _ = cell
    for bad in ("nonsense", ["x"], {}, 3, None):  # lists and dicts cannot be hashed
        with pytest.raises(InvalidInputError, match="unknown method"):
            report.evaluate_all(NoInference(), task, [bad])


def test_a_repeat_is_reported_before_the_value_itself(cell):
    # The list check comes first, so a bad value given twice is named as the repeat.
    task, _, _ = cell
    with pytest.raises(InvalidInputError, match="method 'bogus' is listed more than once"):
        report.evaluate_all(NoInference(), task, ["bogus", "bogus"])
    with pytest.raises(InvalidInputError, match="mix ratio 0.4 is listed more than once"):
        report.lambda_sweep(NoInference(), task, [0.4, 0.4], ["hard"], [0])


def test_oracle_requires_target_labels(cell):
    task, model, _ = cell
    stripped = synthetic.SyntheticTask(
        spec=task.spec,
        source_inputs=task.source_inputs,
        source_labels=task.source_labels,
        target_inputs=task.target_inputs,
        target_labels=None,
    )
    with pytest.raises(DataAccessError) as excinfo:
        report.evaluate_all(model, stripped, ["temp_oracle"])
    assert excinfo.value.method == "temp_oracle"


def test_affine_baselines_require_source(cell):
    task, model, _ = cell
    target_only = synthetic.SyntheticTask(
        spec=task.spec,
        source_inputs=None,
        source_labels=None,
        target_inputs=task.target_inputs,
        target_labels=task.target_labels,
    )
    for method in ("vector", "matrix", "ensemble"):
        with pytest.raises(DataAccessError) as excinfo:
            report.evaluate_all(model, target_only, [method])
        assert excinfo.value.method == method
    # source-free methods still run
    methods = ["none", "pseudocal"]
    result = report.evaluate_all(model, target_only, methods, mixup_cfg=MixupConfig(seed=0))
    assert "pseudocal" in result.methods


def test_affine_baselines_need_a_source_validation_row_before_any_inference(cell):
    task, _, _ = cell
    no_val = synthetic.SyntheticTask(
        spec=task.spec,
        source_inputs=task.source_inputs,
        source_labels=task.source_labels,
        target_inputs=task.target_inputs,
        target_labels=task.target_labels,
        val_fraction=1e-6,
    )
    assert len(no_val.source_val_labels) == 0 < len(no_val.source_train_labels)
    for method in ("vector", "matrix"):
        with pytest.raises(DataAccessError, match="source validation split") as excinfo:
            report.evaluate_all(NoInference(), no_val, ["none", method])
        assert excinfo.value.method == method
    # the ensemble trains on the training split, which is not empty
    assert report.RETRAINABLE.provided(synthetic.train(no_val, epochs=1), no_val)


def test_result_document_deterministic(cell):
    task, model, _ = cell
    methods = ["none", "pseudocal", "temp_oracle", "vector"]
    doc1 = report.evaluate_all(model, task, methods, mixup_cfg=MixupConfig(seed=5)).to_json()
    doc2 = report.evaluate_all(model, task, methods, mixup_cfg=MixupConfig(seed=5)).to_json()
    assert doc1 == doc2
    assert "wall_clock" not in doc1
    parsed = json.loads(doc1)
    assert parsed["meta"]["seed"] == 5
    assert parsed["correspondence_rate"] is not None


def test_result_document_shares_no_mutable_state_with_the_result(cell):
    task, model, _ = cell
    result = report.evaluate_all(model, task, ["none"], mixup_cfg=MixupConfig(seed=5))
    text = result.to_json()
    doc = result.to_dict()
    doc["meta"]["seed"] = 99
    doc["meta"]["task"]["n_classes"] = 99
    assert result.to_json() == text
    # Nor can anything be written through the record itself.
    writes = (
        lambda: result.meta.__setitem__("seed", 9),
        lambda: result.meta["task"].__setitem__("seed", 7),
        lambda: result.meta["mixup"].__setitem__("lam", 0.9),
        lambda: result.meta["methods"].append("vector"),
        lambda: result.methods.pop("none"),
        lambda: result.bin_stats.clear(),
        lambda: result.failed.__setitem__("none", "x"),
    )
    for write in writes:
        with pytest.raises((TypeError, AttributeError)):
            write()
    assert result.to_json() == text
    # The record copies what it is given, so the caller's mappings stay the caller's.
    meta = {"seed": 5, "task": {"seed": 0}}
    given = report.ExperimentResult(meta=meta, methods={})
    meta["seed"] = 9
    meta["task"]["seed"] = 7
    assert given.to_dict()["meta"] == {"seed": 5, "task": {"seed": 0}}


def test_a_failed_fit_is_recorded_and_the_other_methods_are_scored(cell):
    task, _, _ = cell
    model = synthetic.train(task, epochs=5, seed=0)  # too unsure for filtered_pl's filter
    methods = ["none", "filtered_pl", "pseudocal"]
    result = report.evaluate_all(model, task, methods, mixup_cfg=MixupConfig(seed=7))
    error = "EmptyFilterError: no sample reaches confidence 0.95; filtered pseudo-label fit is empty"
    assert result.failed == {"filtered_pl": error}
    assert list(result.methods) == list(result.bin_stats) == ["none", "pseudocal"]
    doc = json.loads(result.to_json())
    assert doc["failed"] == {"filtered_pl": error} and doc["meta"]["methods"] == methods
    assert f"filtered_pl failed: {error}" in result.table_text().splitlines()
    buf = io.StringIO()
    report.method_bins_to_csv(result, buf)
    assert {line.split(",")[0] for line in buf.getvalue().splitlines()[1:]} == {"none", "pseudocal"}
    # The other methods score as in a run without the failed one, whose document has no failed key.
    scored = report.evaluate_all(model, task, ["none", "pseudocal"], mixup_cfg=MixupConfig(seed=7))
    assert scored.methods == result.methods
    assert scored.correspondence_rate == result.correspondence_rate
    assert "failed" not in json.loads(scored.to_json())


def test_accuracy_identical_across_temperature_methods(cell):
    task, model, _ = cell
    methods = ["none", "temp_oracle", "pseudocal", "pseudo_label", "filtered_pl",
               "pseudocal_same", "beta_mixup"]
    result = report.evaluate_all(model, task, methods, mixup_cfg=MixupConfig(seed=1))
    accs = {result.methods[m].accuracy for m in methods}
    assert len(accs) == 1


@pytest.fixture(scope="module")
def ensemble_cell():
    spec = synthetic.ShiftSpec(
        n_classes=5, dim=10, n_source=500, n_target=500,
        mean_shift=1.0, rotation=0.45, seed=21,
    )
    task = synthetic.generate(spec)
    return task, synthetic.train(task, epochs=120, lr=0.1, gamma=3.0, seed=21)


def test_ensemble_method_row(ensemble_cell):
    task, model = ensemble_cell
    result = report.evaluate_all(model, task, ["none", "ensemble"], mixup_cfg=MixupConfig(seed=21))
    row = result.methods["ensemble"]
    assert row.temperature is None
    assert 0.0 <= row.ece <= 1.0
    assert np.isfinite(row.nll) and np.isfinite(row.brier)
    # near-identical convex members: ensemble stays close to the base model
    assert abs(row.ece - result.methods["none"].ece) < 0.05


def test_the_mixup_seed_is_the_run_seed_and_trains_the_ensemble(ensemble_cell):
    task, model = ensemble_cell
    assert "seed" not in inspect.signature(report.evaluate_all).parameters
    result = report.evaluate_all(model, task, ["ensemble"], mixup_cfg=MixupConfig(seed=21))
    assert result.meta["seed"] == 21
    config = {key: value for key, value in model.train_config.items() if key != "seed"}
    ensemble = synthetic.train(task, **config, seed=range(21, 26))
    scored = metrics.PredictionBatch(
        logits=ensemble.predict_logits(task.target_inputs), labels=task.target_labels
    )
    assert result.methods["ensemble"] == report.MethodResult(
        ece=metrics.ece(scored),
        nll=metrics.mean_nll(scored),
        brier=metrics.mean_brier(scored),
        accuracy=scored.accuracy(),
    )


def _ensemble_row(model, task):
    return report.evaluate_all(model, task, ["ensemble"], mixup_cfg=MixupConfig(seed=21)).methods


def test_the_ensemble_trains_at_the_models_gamma_when_no_config_records_it(ensemble_cell):
    # Members train at the model's own gamma, and at its train_config's
    # epochs and lr where it records them, train's defaults where not; so
    # a model rebuilt from train's weights keeps train's ensemble row.
    task, model = ensemble_cell
    rebuilt = synthetic.TrainedClassifier(
        model.weights, model.bias, gamma=3.0, train_config={"epochs": 120, "lr": 0.1}
    )
    assert _ensemble_row(rebuilt, task) == _ensemble_row(model, task)
    at_defaults = synthetic.train(task, gamma=3.0, seed=21)
    rebuilt = synthetic.TrainedClassifier(at_defaults.weights, at_defaults.bias, gamma=3.0)
    assert _ensemble_row(rebuilt, task) == _ensemble_row(at_defaults, task)


def test_the_ensemble_needs_a_classifier_it_can_retrain(ensemble_cell, monkeypatch):
    task, model = ensemble_cell
    calls = []
    for cls in (synthetic.TrainedClassifier, synthetic.EnsembleModel):
        monkeypatch.setattr(cls, "predict_logits", lambda self, inputs: calls.append(self))
    ensemble = synthetic.EnsembleModel(members=(model, model))
    with pytest.raises(DataAccessError, match="TrainedClassifier") as excinfo:
        report.evaluate_all(ensemble, task, ["none", "ensemble"], mixup_cfg=MixupConfig(seed=21))
    assert excinfo.value.method == "ensemble"
    assert calls == []


def test_oracle_close_to_best(cell):
    task, model, batch = cell
    methods = ["temp_oracle", "pseudocal"]
    result = report.evaluate_all(model, task, methods, mixup_cfg=MixupConfig(seed=2))
    assert result.methods["temp_oracle"].ece <= result.methods["pseudocal"].ece + 0.02
    # the oracle row is the temperature fitted on the true target labels
    assert result.methods["temp_oracle"].temperature == scalers.fit_temperature(batch).temperature


def test_table_text_layout(cell):
    task, model, _ = cell
    result = report.evaluate_all(model, task, ["none", "pseudocal"], mixup_cfg=MixupConfig(seed=3))
    table = result.table_text()
    assert "method" in table.splitlines()[0]
    assert any(line.startswith("pseudocal") for line in table.splitlines())
    assert "correspondence rate" in table


def test_method_bins_csv(cell):
    task, model, _ = cell
    methods = ["none", "pseudocal"]
    result = report.evaluate_all(model, task, methods, bins=10, mixup_cfg=MixupConfig(seed=4))
    buf = io.StringIO()
    report.method_bins_to_csv(result, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "method,bin_lower,bin_upper,count,accuracy,confidence"
    assert len(lines) == 1 + 2 * 10


def test_bin_stats_arrays_are_read_only(cell):
    task, model, _ = cell
    result = report.evaluate_all(model, task, ["none"], mixup_cfg=MixupConfig(seed=0))
    stats = result.bin_stats["none"]

    def outputs():
        buf = io.StringIO()
        report.method_bins_to_csv(result, buf)
        return buf.getvalue(), stats.ece()

    before = outputs()
    assert before[1] == result.methods["none"].ece
    for name in ("count", "accuracy", "confidence"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(stats, name)[-1] += 7
    assert outputs() == before
    # A hand-built record copies the caller's arrays, which stay writable.
    count = np.array([1, 3])
    built = metrics.BinStats(count=count, accuracy=np.array([0.0, 1.0]), confidence=np.array([0.4, 0.8]))
    count[-1] += 7
    assert built.count.dtype == np.int64 and built.n == 4 and count.flags.writeable


class NoInference:
    def predict_logits(self, inputs):
        raise AssertionError("inferred before the arguments were checked")


BAD_BIN_COUNTS = (0, -1, 2.5, 15.0, True, "3", None, math.nan, math.inf, [])


def test_evaluate_all_checks_the_bin_count_before_inferring(cell):
    task, _, _ = cell
    for bins in BAD_BIN_COUNTS:
        with pytest.raises(InvalidInputError, match="bin count"):
            report.evaluate_all(NoInference(), task, ["none"], bins=bins)


def test_drivers_check_target_labels_and_lists_before_inferring(cell):
    task, _, _ = cell
    unlabeled = synthetic.SyntheticTask(
        spec=task.spec,
        source_inputs=task.source_inputs,
        source_labels=task.source_labels,
        target_inputs=task.target_inputs,
        target_labels=None,
    )
    with pytest.raises(LabelsRequiredError):
        report.evaluate_all(NoInference(), unlabeled, ["none"])
    with pytest.raises(LabelsRequiredError):
        report.lambda_sweep(NoInference(), unlabeled, [0.6], ["hard"], [0])
    with pytest.raises(InvalidInputError, match="at least one method"):
        report.evaluate_all(NoInference(), task, [])
    for bad in (None, 3, 0.6, "pseudocal", b"01"):  # a string is not a list of its characters
        with pytest.raises(InvalidInputError, match="must be a list"):
            report.evaluate_all(NoInference(), task, bad)
        for lists in ((bad, ["hard"], [0]), ([0.6], bad, [0]), ([0.6], ["hard"], bad)):
            with pytest.raises(InvalidInputError, match="must be a list"):
                report.lambda_sweep(NoInference(), task, *lists)


def test_lambda_sweep_grid_and_validation(cell):
    task, model, _ = cell
    with pytest.raises(InvalidInputError):
        report.lambda_sweep(model, task, [0.5], ["hard"], [0])
    # 1.0, the closed end of MixupConfig's (0.5, 1.0], runs
    assert len(report.lambda_sweep(model, task, [1.0], ["hard"], [0])) == 1
    with pytest.raises(InvalidInputError):
        report.lambda_sweep(model, task, [0.65], ["fuzzy"], [0])
    with pytest.raises(InvalidInputError):
        report.lambda_sweep(model, task, [0.65], ["hard"], [])
    # an empty grid is rejected before anything is inferred
    for lambdas, modes in (([], ["hard"]), ([0.65], [])):
        with pytest.raises(InvalidInputError, match="at least one"):
            report.lambda_sweep(NoInference(), task, lambdas, modes, [0])
    # so is a value listed twice on any axis
    for lambdas, modes, seeds in (
        ([0.6, 0.7, 0.6], ["hard"], [0]), ([0.6], ["soft", "soft"], [0]), ([0.6], ["hard"], [0, 1, 0]),
    ):
        with pytest.raises(InvalidInputError, match="more than once"):
            report.lambda_sweep(NoInference(), task, lambdas, modes, seeds)
    # a fractional seed would run as its integer part, a hidden repeat
    with pytest.raises(InvalidInputError, match="seed must be an integer"):
        report.lambda_sweep(NoInference(), task, [0.6], ["hard"], [0, 0.5])
    for lam in ("x", None, True, math.nan, math.inf, "0.6", []):
        with pytest.raises(InvalidInputError, match="mix ratio"):
            report.lambda_sweep(NoInference(), task, [lam], ["hard"], [0])
    for bins in BAD_BIN_COUNTS:
        with pytest.raises(InvalidInputError, match="bin count"):
            report.lambda_sweep(NoInference(), task, [0.6], ["hard"], [0], bins=bins)

    rows = report.lambda_sweep(model, task, [0.6, 0.65], ["hard", "soft"], [0, 1])
    assert len(rows) == 4
    for row in rows:
        assert np.isfinite(row["mean_ece"])
        assert row["n_seeds"] == 2
    buf = io.StringIO()
    report.sweep_to_csv(rows, buf)
    text = buf.getvalue()
    assert text.splitlines()[0] == "lambda,label_mode,mean_ece,std_ece,n_seeds"


def test_lambda_sweep_takes_mixup_configs_rules(cell):
    task, model, batch = cell
    default = MixupConfig()
    for bad in (
        *({"lam": lam} for lam in (0.5, 1.5, math.nan, "x", True)),
        {"label_mode": "fuzzy"},
        *({"seed": seed} for seed in (-1, 0.5, True)),
    ):
        with pytest.raises(InvalidInputError) as expected:
            MixupConfig(**bad)
        cfg = {**asdict(default), **bad}
        with pytest.raises(InvalidInputError) as raised:
            report.lambda_sweep(NoInference(), task, [cfg["lam"]], [cfg["label_mode"]], [cfg["seed"]])
        assert str(raised.value) == str(expected.value)

    (row,) = report.lambda_sweep(model, task, [1.0], ["hard"], [0])
    calibrator = pseudo_target.calibrate(model, task.target_inputs, MixupConfig(lam=1.0, seed=0))
    assert row["mean_ece"] == metrics.ece(calibrator.apply(batch))


def test_history_csv(tmp_path):
    task = synthetic.generate(synthetic.ShiftSpec(seed=0, n_source=300, n_target=300))
    model = synthetic.train(task, epochs=5, lr=0.1, track_history=True, seed=0)
    path = tmp_path / "history.csv"
    report.history_to_csv(model.history, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,source_loss,target_error,target_nll"
    assert len(lines) == 6


def test_each_input_set_is_inferred_once(cell, monkeypatch):
    # Counts top-level predict_logits calls, which is what a black-box
    # model bills for; an ensemble's calls into its members are not counted.
    calls = []
    running = []
    for cls in (synthetic.TrainedClassifier, synthetic.EnsembleModel):

        def counted(self, inputs, predict=cls.predict_logits):
            if not running:
                calls.append(len(inputs))
            running.append(self)
            try:
                return predict(self, inputs)
            finally:
                running.pop()

        monkeypatch.setattr(cls, "predict_logits", counted)
    task, model, _ = cell

    report.evaluate_all(model, task, list(report.METHODS), mixup_cfg=MixupConfig(seed=0))
    # target, source validation split, three mixed sets, the ensemble on the target
    assert len(calls) == 6
    calls.clear()
    lambdas = [0.51, 0.55, 0.6, 0.65, 0.7, 0.8, 0.9]
    report.lambda_sweep(model, task, lambdas, ["hard", "soft"], [0, 1, 2, 3, 4])
    # target, then one mixed set per (mix ratio, seed)
    assert len(calls) == 36
    calls.clear()
    pseudo_target.calibrate(model, task.target_inputs, pseudo_target.MixupConfig(seed=0))
    assert len(calls) == 2
