"""Hypothesis fuzz of the library's scalar, list and array arguments and record fields.

Each call either succeeds or raises a PseudocalError, never a bare
TypeError or ValueError. A driver (evaluate_all, lambda_sweep, pseudo_set,
calibrate) that raises must do so before it asks its model for a single logit.
"""

import io
import json
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pseudocal import metrics, numerics, pseudo_target, report, scalers, synthetic
from pseudocal.errors import PseudocalError
from pseudocal.numerics import is_integer

# Valid values come up too, so the success path is fuzzed as well.
VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from(["", "x", "3", "0.7"]),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.integers(-3, 20),
    st.floats(-2.0, 25.0),
    st.floats(0.0, 1.0),
)
SCALARS = st.one_of(VALUES, st.just([]))
LISTS = st.lists(VALUES, max_size=3)
# List entries: scalars, and lists and dicts, which cannot be hashed.
ENTRIES = st.one_of(
    VALUES, st.lists(VALUES, max_size=2), st.dictionaries(st.just("x"), VALUES, max_size=1)
)
# Array entries: numbers, non-finite values, booleans, None and strings.
CELLS = st.one_of(
    st.floats(-5.0, 5.0),
    st.integers(-2, 3),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.booleans(),
    st.none(),
    st.sampled_from(["", "x", "1.5"]),
)
# Scalars and nested lists of any depth, ragged where rows differ in length or depth.
NESTS = st.recursive(CELLS, lambda inner: st.lists(inner, max_size=4), max_leaves=12)


class CountingModel:
    def __init__(self, model):
        self.model = model
        self.calls = 0

    def predict_logits(self, inputs):
        self.calls += 1
        return self.model.predict_logits(inputs)


@pytest.fixture(scope="module")
def cell():
    task = synthetic.generate(synthetic.ShiftSpec(n_source=200, n_target=120, seed=3))
    model = synthetic.train(task, epochs=30, lr=0.1, gamma=2.0, seed=3)
    batch = metrics.PredictionBatch(
        logits=model.predict_logits(task.target_inputs), labels=task.target_labels
    )
    return task, model, batch


def succeeds(call, *args, **kwargs):
    """True if the call returns, False if it raises a PseudocalError; anything else propagates."""
    try:
        call(*args, **kwargs)
    except PseudocalError:
        return False
    return True


@settings(max_examples=200, deadline=None, derandomize=True)
@given(value=SCALARS)
def test_metric_and_fit_scalars(cell, value):
    task, model, batch = cell
    assert succeeds(metrics.reliability_bins, batch, value) == succeeds(metrics.ece, batch, value)
    succeeds(scalers.nll_decomposition, batch, value)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.one_of(SCALARS, LISTS, NESTS, st.builds(np.int64, st.integers(0, 5))),
    gamma=st.one_of(VALUES, st.builds(np.float32, st.floats(1.0, 4.0))),
)
def test_train_seed(cell, seed, gamma):
    task, _, _ = cell
    try:
        trained = synthetic.train(task, epochs=1, gamma=gamma, seed=seed)
    except PseudocalError:
        return
    for model in trained.members if isinstance(trained, synthetic.EnsembleModel) else (trained,):
        assert all(type(v) in (int, float) for v in model.train_config.values())
        json.dumps(synthetic.model_to_dict(model))  # what save_model writes


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seeds=st.one_of(LISTS, SCALARS))
def test_ensemble_trains_only_integer_seeds(cell, seeds):
    task, _, _ = cell
    # A seed list trains an ensemble; one integer seed trains a lone model.
    ok = succeeds(synthetic.train, task, epochs=1, seed=seeds) and not is_integer(seeds)
    assert ok == (isinstance(seeds, list) and len(seeds) > 0 and all(
        is_integer(s) and s >= 0 for s in seeds
    ))


# A mixup config argument: a valid one, None (the default where a function has one) or any value.
CONFIGS = st.one_of(st.builds(pseudo_target.MixupConfig, seed=st.integers(0, 3)), VALUES)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_drivers_check_arguments_before_inferring(cell, data):
    task, model, _ = cell
    counting = CountingModel(model)
    bins = data.draw(SCALARS, label="bins")
    driver = data.draw(st.sampled_from(["sweep", "evaluate", "pseudo_set", "calibrate"]), label="driver")
    if driver == "sweep":
        lambdas = data.draw(st.one_of(LISTS, VALUES), label="lambdas")
        modes = data.draw(st.one_of(st.just(["hard"]), LISTS, VALUES), label="label_modes")
        seeds = data.draw(st.one_of(st.lists(VALUES, max_size=2), VALUES), label="seeds")
        ok = succeeds(report.lambda_sweep, counting, task, lambdas, modes, seeds, bins=bins)
    elif driver == "evaluate":
        methods = data.draw(
            st.one_of(st.just(["none"]), st.lists(ENTRIES, max_size=2), VALUES), label="methods"
        )
        cfg = data.draw(CONFIGS, label="mixup_cfg")
        ok = succeeds(report.evaluate_all, counting, task, methods, bins=bins, mixup_cfg=cfg)
    else:
        entry = getattr(pseudo_target, driver)
        ok = succeeds(entry, counting, task.target_inputs, data.draw(CONFIGS, label="cfg"))
    assert ok or counting.calls == 0


class Returns:
    """A model whose logits are a fixed value, whatever it is given."""

    def __init__(self, logits):
        self.logits = logits

    def predict_logits(self, inputs):
        return self.logits


class Identity:
    def predict_logits(self, inputs):
        return inputs


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_entry_points_take_any_array(data):
    # An n x c matrix of any entries, or any nesting; each entry point's
    # other arguments are sized so that a well-formed matrix can succeed.
    n, c = data.draw(st.integers(1, 4), label="n"), data.draw(st.integers(1, 4), label="c")
    matrix = st.lists(st.lists(CELLS, min_size=c, max_size=c), min_size=n, max_size=n)
    value = data.draw(st.one_of(matrix, NESTS), label="value")
    succeeds(metrics.PredictionBatch, value)
    succeeds(numerics.softmax, value)
    succeeds(numerics.log_softmax, value)
    succeeds(pseudo_target.infer, Returns(value), np.zeros((n, 1)))
    cfg = pseudo_target.MixupConfig()
    succeeds(pseudo_target.synthesize, Identity(), value, np.arange(n) % 2, cfg)
    batch = metrics.PredictionBatch(np.eye(n, max(c, 2)))
    succeeds(scalers.fit_temperature, batch, value)
    model = synthetic.TrainedClassifier(weights=np.ones((c, 2)), bias=np.zeros(2))
    succeeds(model.predict_logits, value)
    succeeds(report.history_to_csv, value, io.StringIO())


def record(cls, field, **valid):
    """Builds ``cls`` from one value of ``field``, its other fields valid."""
    return lambda value: cls(**{**valid, field: value})


TASK = dict(
    spec=synthetic.ShiftSpec(n_classes=2), source_inputs=np.zeros((4, 2)),
    source_labels=[0, 1, 0, 1], target_inputs=np.zeros((2, 2)), target_labels=None,
)
MODEL = dict(weights=np.ones((2, 2)), bias=np.zeros(2))
PSEUDO = dict(
    logits=[[0.3, -1.2, 0.8], [1.5, 0.1, -0.4], [-0.7, 0.9, 0.2], [0.6, 0.4, -1.1]],
    labels=[2, 0, 1, 0], index_a=[0, 1, 2, 3], index_b=[1, 2, 3, 0], lam=[0.65, 0.65, 0.65, 0.65],
    pl_a=[0, 1, 2, 0], pl_b=[1, 2, 0, 1],
)


def read_pseudo_set(**change):
    pseudo = pseudo_target.PseudoTargetSet(**{**PSEUDO, **change})
    pseudo_target.fit_on_pseudo_set(pseudo, "soft")
    pseudo_target.write_provenance_csv(pseudo, io.StringIO())
    pseudo_target.correspondence_rate(pseudo, [0, 1, 2, 0])


def pseudo_record(field):
    """Builds a PseudoTargetSet with ``field`` drawn and runs each reader of the set on it.

    The drawn value is tried as the whole field and as the field's last entry.
    """

    def build_and_read(value):
        *rows, last = PSEUDO[field]
        last_entry = [*rows, [*last[:-1], value]] if field == "logits" else [*rows, value]
        for drawn in (value, last_entry):
            succeeds(read_pseudo_set, **{field: drawn})

    return build_and_read


RECORD_FIELDS = {
    **{f"MixupConfig.{f.name}": record(pseudo_target.MixupConfig, f.name)
       for f in fields(pseudo_target.MixupConfig)},
    **{f"ShiftSpec.{f.name}": record(synthetic.ShiftSpec, f.name) for f in fields(synthetic.ShiftSpec)},
    "SyntheticTask.val_fraction": record(synthetic.SyntheticTask, "val_fraction", **TASK),
    "TrainedClassifier.gamma": record(synthetic.TrainedClassifier, "gamma", **MODEL),
    "TrainedClassifier.train_config": record(synthetic.TrainedClassifier, "train_config", **MODEL),
    **{f"Calibrator.{f.name}": record(scalers.Calibrator, f.name, kind="temperature", temperature=1.0)
       for f in fields(scalers.Calibrator)},
    "EnsembleModel.members": record(synthetic.EnsembleModel, "members"),
    **{f"PseudoTargetSet.{f.name}": pseudo_record(f.name) for f in fields(pseudo_target.PseudoTargetSet)},
}


@pytest.mark.parametrize("field", sorted(RECORD_FIELDS))
@settings(max_examples=60, deadline=None, derandomize=True)
@given(value=VALUES)
def test_records_check_each_field_in_their_constructor(field, value):
    succeeds(RECORD_FIELDS[field], value)
