"""Hypothesis fuzz of the library's scalar, list and array arguments.

Each call either succeeds or raises a PseudocalError, never a bare
TypeError or ValueError. A driver (evaluate_all, lambda_sweep) that
raises must do so before it asks its model for a single logit.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pseudocal import metrics, pseudo_target, report, scalers, synthetic
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
    succeeds(pseudo_target.variant_filtered_pl, batch.logits, threshold=value)
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
    for model in trained if isinstance(trained, tuple) else (trained,):
        assert all(type(v) in (int, float) for v in model.train_config.values())
        json.dumps(synthetic.model_to_dict(model))  # what save_model writes


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seeds=st.one_of(LISTS, SCALARS))
def test_ensemble_trains_only_integer_seeds(cell, seeds):
    task, _, _ = cell
    ok = succeeds(synthetic.ensemble_train, task, seeds, epochs=1)
    assert ok == (isinstance(seeds, list) and len(seeds) > 0 and all(
        is_integer(s) and s >= 0 for s in seeds
    ))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_drivers_check_arguments_before_inferring(cell, data):
    task, model, _ = cell
    counting = CountingModel(model)
    bins = data.draw(SCALARS, label="bins")
    if data.draw(st.booleans(), label="sweep"):
        lambdas = data.draw(st.one_of(LISTS, VALUES), label="lambdas")
        seeds = data.draw(st.one_of(st.lists(VALUES, max_size=2), VALUES), label="seeds")
        ok = succeeds(report.lambda_sweep, counting, task, lambdas, ["hard"], seeds, bins=bins)
    else:
        methods = data.draw(st.one_of(st.just(["none"]), VALUES), label="methods")
        ok = succeeds(report.evaluate_all, counting, task, methods, bins=bins)
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
    n, c = data.draw(st.integers(1, 4), label="n"), data.draw(st.integers(1, 3), label="c")
    matrix = st.lists(st.lists(CELLS, min_size=c, max_size=c), min_size=n, max_size=n)
    value = data.draw(st.one_of(matrix, NESTS), label="value")
    succeeds(metrics.PredictionBatch, value)
    succeeds(pseudo_target.infer, Returns(value), np.zeros((n, 1)))
    cfg = pseudo_target.MixupConfig()
    succeeds(pseudo_target.synthesize, Identity(), value, np.arange(n) % 2, cfg)
    batch = metrics.PredictionBatch(np.eye(n, max(c, 2)))
    succeeds(scalers.fit_temperature, batch, value)
    model = synthetic.TrainedClassifier(weights=np.ones((c, 2)), bias=np.zeros(2))
    succeeds(model.predict_logits, value)
