"""Numpy scalars given to a record come out as plain Python numbers, so every document writes.

Integer fields take np.int64, and float fields np.int64, np.float32 or
np.float64; each record stores what numerics.checked_number returns.
"""

import json
from dataclasses import fields

import numpy as np
import pytest

from pseudocal import metrics, report, scalers, synthetic
from pseudocal.pseudo_target import MixupConfig

REALS = (np.float32, np.float64)


def _plain_fields(record):
    """Each int or float field of a dataclass record holds a value of exactly that type."""
    for f in fields(record):
        if f.type in (int, float):
            value = getattr(record, f.name)
            assert type(value) is f.type, (type(record).__name__, f.name, value)


def _leaves(value):
    if isinstance(value, dict):
        return [leaf for item in value.values() for leaf in _leaves(item)]
    if isinstance(value, (list, tuple)):
        return [leaf for item in value for leaf in _leaves(item)]
    return [value]


@pytest.fixture(params=REALS, ids=lambda real: real.__name__)
def cell(request):
    real = request.param
    spec = synthetic.ShiftSpec(
        n_classes=np.int64(3), dim=np.int64(4), n_source=np.int64(120), n_target=np.int64(90),
        mean_shift=real(0.5), rotation=np.int64(0), cluster_std=np.int64(1), seed=np.int64(2),
    )
    generated = synthetic.generate(spec)
    task = synthetic.SyntheticTask(
        spec=spec, source_inputs=generated.source_inputs, source_labels=generated.source_labels,
        target_inputs=generated.target_inputs, target_labels=generated.target_labels,
        val_fraction=real(0.25),
    )
    model = synthetic.train(task, epochs=np.int64(30), lr=real(0.1), gamma=np.int64(2), seed=np.int64(1))
    return real, task, model


def test_task_and_model_records_hold_plain_numbers_and_write(cell):
    real, task, model = cell
    _plain_fields(task.spec)
    _plain_fields(task)
    _plain_fields(model)
    assert {key: type(value) for key, value in model.train_config.items()} == {
        "epochs": int, "lr": float, "gamma": float, "seed": int,
    }
    json.dumps(synthetic.task_to_dict(task))
    json.dumps(synthetic.model_to_dict(model))

    config = {"epochs": np.int64(5), "lr": real(0.2), "gamma": real(1.5), "seed": np.int64(0)}
    rebuilt = synthetic.TrainedClassifier(model.weights, model.bias, gamma=real(1.5), train_config=config)
    _plain_fields(rebuilt)
    assert {key: type(value) for key, value in rebuilt.train_config.items()} == {
        "epochs": int, "lr": float, "gamma": float, "seed": int,
    }
    json.dumps(synthetic.model_to_dict(synthetic.EnsembleModel(members=(model, rebuilt))))


def test_mixup_config_calibrator_and_bin_count_hold_plain_numbers(cell):
    real = cell[0]
    _plain_fields(MixupConfig(lam=real(0.75), epochs=np.int64(2), seed=np.int64(3)))
    _plain_fields(MixupConfig(lam=np.int64(1)))
    for temperature in (real(1.5), np.int64(2)):
        calibrator = scalers.Calibrator(kind="temperature", temperature=temperature)
        _plain_fields(calibrator)
        json.dumps(scalers.calibrator_to_dict(calibrator))
    assert type(metrics.check_bins(np.int64(10))) is int


def test_evaluate_all_writes_its_document_for_numpy_arguments(cell):
    real, task, model = cell
    for seed in np.arange(2):
        cfg = MixupConfig(lam=real(0.75), seed=seed)
        result = report.evaluate_all(model, task, ["none", "pseudocal"], bins=np.int64(10), mixup_cfg=cfg)
        assert json.loads(result.to_json())["meta"]["seed"] == seed
        meta = result.to_dict()["meta"]
        assert meta["seed"] == seed and meta["bins"] == 10
        assert {type(leaf) for leaf in _leaves(meta)} <= {int, float, str, type(None)}
