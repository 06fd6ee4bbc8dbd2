"""Hypothesis fuzz of the library's scalar arguments.

Each call either succeeds or raises a PseudocalError, never a bare
TypeError or ValueError. A driver (evaluate_all, lambda_sweep) that
raises must do so before it asks its model for a single logit.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from pseudocal import metrics, pseudo_target, report, scalers, synthetic
from pseudocal.errors import PseudocalError

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
@given(seed=st.one_of(SCALARS, LISTS))
def test_train_seed(cell, seed):
    task, _, _ = cell
    succeeds(synthetic.train, task, epochs=1, seed=seed)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_drivers_check_arguments_before_inferring(cell, data):
    task, model, _ = cell
    counting = CountingModel(model)
    bins = data.draw(SCALARS, label="bins")
    if data.draw(st.booleans(), label="sweep"):
        lambdas = data.draw(LISTS, label="lambdas")
        seeds = data.draw(st.lists(VALUES, max_size=2), label="seeds")
        ok = succeeds(report.lambda_sweep, counting, task, lambdas, ["hard"], seeds, bins=bins)
    else:
        ok = succeeds(report.evaluate_all, counting, task, ["none"], bins=bins)
    assert ok or counting.calls == 0
