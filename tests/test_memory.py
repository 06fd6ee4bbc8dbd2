"""Memory budgets of the large-set paths, measured with tracemalloc (numpy reports to it).

A frozen 20,000 x 50 logit matrix (8 MB), read-only like the logits
``pseudo_target.infer`` returns, stands in for a large target set. Each
budget is well under what one more full copy of such a matrix would take.
"""

import tracemalloc
import weakref

import numpy as np
import pytest

from pseudocal import cli, metrics, numerics, pseudo_target, scalers, synthetic
from pseudocal.errors import InvalidInputError

N, C, DIM = 20_000, 50, 10


@pytest.fixture(scope="module")
def logits():
    z = np.random.default_rng(0).standard_normal((N, C)) * 3.0
    z.setflags(write=False)
    return z


@pytest.fixture(scope="module")
def model():
    rng = np.random.default_rng(1)
    return synthetic.TrainedClassifier(
        weights=rng.standard_normal((DIM, C)), bias=rng.standard_normal(C), gamma=3.0
    )


def peak_bytes(fn, *args):
    """(peak bytes traced while ``fn(*args)`` runs, its result)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def test_temperature_fit_holds_under_a_quarter_of_the_logits(monkeypatch, logits):
    # The d and exp buffers take 2 * BLOCK_ROWS * C floats: at the default
    # 4,096 rows that alone is 41 % of this batch, so walk it in 1,000-row
    # blocks. Next to them the fit keeps five length-n vectors.
    monkeypatch.setattr(numerics, "BLOCK_ROWS", 1000)
    rng = np.random.default_rng(2)
    labels = np.where(rng.random(N) < 0.6, np.argmax(logits, axis=1), rng.integers(0, C, N))
    batch = metrics.PredictionBatch(logits=logits, labels=labels)
    assert batch.logits is logits
    peak, cal = peak_bytes(scalers.fit_temperature, batch)
    assert scalers.T_MIN < cal.temperature < scalers.T_MAX
    assert peak < logits.nbytes / 4


def test_soft_fit_holds_one_target_matrix(monkeypatch, logits):
    # The soft targets are one (n, C) matrix, written in place. Building it
    # from rows of an identity matrix took two more such matrices at once.
    monkeypatch.setattr(numerics, "BLOCK_ROWS", 1000)
    rng = np.random.default_rng(5)
    pseudo = pseudo_target.PseudoTargetSet(
        logits=logits, index_a=np.arange(N), index_b=rng.permutation(N),
        lam=rng.uniform(0.55, 0.95, N), pl_a=rng.integers(0, C, N), pl_b=rng.integers(0, C, N),
    )
    peak, cal = peak_bytes(pseudo_target.fit_on_pseudo_set, pseudo, "soft")
    assert cal.kind == "temperature"
    assert peak < 1.5 * logits.nbytes


@pytest.mark.parametrize("calibrator", [
    scalers.Calibrator(kind="temperature", temperature=2.0),
    scalers.Calibrator(kind="vector", scale=np.full(C, 0.5), bias=np.ones(C)),
    scalers.Calibrator(kind="matrix", weight=np.eye(C), bias=np.ones(C)),
])
def test_applying_a_calibrator_allocates_one_logit_matrix(logits, calibrator):
    # The transformed logits are frozen as made; the batch keeps them without a copy.
    batch = metrics.PredictionBatch(logits=logits)
    peak, calibrated = peak_bytes(calibrator.apply, batch)
    assert not calibrated.logits.flags.writeable
    assert peak < 1.5 * logits.nbytes


def test_argmax_of_frozen_logits_does_not_copy_them(logits):
    expected = np.argmax(logits, axis=1)
    peak, labels = peak_bytes(numerics.argmax_rows, logits)
    np.testing.assert_array_equal(labels, expected)
    assert peak < logits.nbytes / 2
    batch = metrics.PredictionBatch(logits=logits)
    peak, labels = peak_bytes(batch.predictions)
    np.testing.assert_array_equal(labels, expected)
    assert peak < logits.nbytes / 2


def test_finiteness_checks_hold_one_block_of_mask(monkeypatch, logits):
    # A whole-matrix np.isfinite mask takes N * C bytes; the checks walk
    # 1,000-row blocks here, so their mask is 1,000 * C bytes.
    monkeypatch.setattr(numerics, "BLOCK_ROWS", 1000)
    budget = N * C / 8
    peak, _ = peak_bytes(numerics.check_finite, logits, "logits must be finite")
    assert peak < budget
    peak, batch = peak_bytes(metrics.PredictionBatch, logits)
    assert batch.logits is logits and peak < budget
    bad = logits.copy()
    bad[-1, -1] = np.nan
    with pytest.raises(InvalidInputError, match="logits must be finite"):
        metrics.PredictionBatch(bad)


def test_predict_logits_allocates_one_output(model):
    x = np.random.default_rng(3).standard_normal((N, DIM))
    peak, z = peak_bytes(model.predict_logits, x)
    np.testing.assert_array_equal(z, (x @ model.weights + model.bias) * model.gamma)
    assert peak < 1.25 * z.nbytes


class OutputLog:
    """Rows of each predict_logits call, and how many earlier outputs were alive at it."""

    def __init__(self, monkeypatch):
        self.refs, self.rows, self.alive_at_call = [], [], []
        predict = synthetic.TrainedClassifier.predict_logits

        def recorded(model, inputs):
            self.alive_at_call.append(sum(ref() is not None for ref in self.refs))
            z = predict(model, inputs)
            self.refs.append(weakref.ref(z))
            self.rows.append(len(inputs))
            return z

        monkeypatch.setattr(synthetic.TrainedClassifier, "predict_logits", recorded)


def test_calibrate_never_holds_target_and_pseudo_logits_at_once(model, monkeypatch):
    x = np.random.default_rng(4).standard_normal((N, DIM))
    log = OutputLog(monkeypatch)
    peak, cal = peak_bytes(pseudo_target.calibrate, model, x, pseudo_target.MixupConfig(seed=0))
    assert cal.kind == "temperature"
    # the target set, then the mixed set; the target logits died in between
    assert log.rows[0] == N and len(log.rows) == 2
    assert log.alive_at_call == [0, 0]
    assert peak < sum(log.rows) * C * 8


def test_cli_calibrate_never_holds_target_and_pseudo_logits_at_once(tmp_path, monkeypatch):
    task = synthetic.generate(synthetic.ShiftSpec(n_source=200, n_target=500, seed=5))
    synthetic.save_task(task, tmp_path / "task.json")
    synthetic.save_model(synthetic.train(task, epochs=5, seed=5), tmp_path / "model.json")
    log = OutputLog(monkeypatch)
    code = cli.main([
        "calibrate", "--task", str(tmp_path / "task.json"), "--model", str(tmp_path / "model.json"),
        "--out", str(tmp_path / "cal.json"), "--provenance-out", str(tmp_path / "prov.csv"),
    ])
    assert code == 0
    assert log.rows[0] == 500 and len(log.rows) == 2
    assert log.alive_at_call == [0, 0]


def test_ensemble_training_holds_under_two_score_buffers():
    # The k members' scores, probabilities and residuals share one (n, k, C)
    # buffer; an epoch that allocated n x k x C temporaries (the scores, a
    # shifted copy for the softmax, its exp) would pass two buffers.
    task = synthetic.generate(synthetic.ShiftSpec(n_classes=10, n_source=8000, n_target=500, seed=6))
    seeds = [0, 1, 2, 3, 4]
    n = len(task.source_train_inputs)
    buffer_bytes = n * len(seeds) * task.spec.n_classes * 8
    peak, members = peak_bytes(lambda: synthetic.train(task, epochs=3, seed=seeds))
    assert len(members) == len(seeds)
    assert peak < 2 * buffer_bytes
