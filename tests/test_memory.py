"""Memory budgets of the large-set paths, measured with tracemalloc (numpy reports to it).

A frozen 20,000 x 50 logit matrix (8 MB), read-only like the logits
``pseudo_target.infer`` returns, stands in for a large target set. Each
budget is well under what one more full copy of such a matrix would take.
"""

import tracemalloc
import weakref

import numpy as np
import pytest

from pseudocal import cli, documents, metrics, numerics, pseudo_target, scalers, synthetic
from pseudocal.errors import InvalidInputError

from _util import TASK_ARRAYS

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


def sample_fits(monkeypatch):
    """The row counts of the sample searches that large hard temperature fits start from, as made.

    Each search splits its rows into blocks once, so every row count under N is a sample's.
    """
    rows = []
    row_blocks = scalers.row_blocks

    def recorded(n):
        if n < N:
            rows.append(n)
        return row_blocks(n)

    monkeypatch.setattr(scalers, "row_blocks", recorded)
    return rows


# N rows are at least 8 * SAMPLE_ROWS, so a hard fit first fits every
# (N // SAMPLE_ROWS)-th row: this many.
SAMPLE_N = len(range(0, N, N // scalers.SAMPLE_ROWS))


def test_temperature_fit_holds_under_a_quarter_of_the_logits(monkeypatch, logits):
    # The d and exp buffers take 2 * BLOCK_ROWS * C floats: at the default
    # 4,096 rows that alone is 41 % of this batch, so walk it in 1,000-row
    # blocks. Next to them the fit keeps five length-n vectors. The sample
    # it starts from runs the same search on a strided view of the logits,
    # in the same two buffers, with its own row max, targets, slopes and
    # curvatures: vectors of SAMPLE_N rows, freed before the full search.
    monkeypatch.setattr(numerics, "BLOCK_ROWS", 1000)
    rng = np.random.default_rng(2)
    labels = np.where(rng.random(N) < 0.6, np.argmax(logits, axis=1), rng.integers(0, C, N))
    batch = metrics.PredictionBatch(logits=logits, labels=labels)
    assert batch.logits is logits
    samples = sample_fits(monkeypatch)
    peak, cal = peak_bytes(scalers.fit_temperature, batch)
    assert samples == [SAMPLE_N]
    assert scalers.T_MIN < cal.temperature < scalers.T_MAX
    assert peak < logits.nbytes / 4


def mixed_set(logits):
    """A pseudo set over ``logits``, built from its mixes alone."""
    rng = np.random.default_rng(5)
    return pseudo_target.PseudoTargetSet(
        logits=logits, index_a=np.arange(N), index_b=rng.permutation(N),
        lam=rng.uniform(0.55, 0.95, N), target_pseudo_labels=rng.integers(0, C, N),
    )


def test_soft_fit_holds_one_target_matrix(monkeypatch, logits):
    # The soft targets are one (n, C) matrix, written in place. Building it
    # from rows of an identity matrix took two more such matrices at once.
    monkeypatch.setattr(numerics, "BLOCK_ROWS", 1000)
    pseudo = mixed_set(logits)
    samples = sample_fits(monkeypatch)
    peak, cal = peak_bytes(pseudo_target.fit_on_pseudo_set, pseudo, "soft")
    assert samples == []  # soft fits start at beta = 1
    assert cal.kind == "temperature"
    assert peak < 1.5 * logits.nbytes


def test_a_set_built_from_its_mixes_fits_hard_labels_too(monkeypatch, logits):
    # The set derives its y_pt, so the hard fit needs no label matrix and
    # holds what the plain temperature fit holds.
    monkeypatch.setattr(numerics, "BLOCK_ROWS", 1000)
    pseudo = mixed_set(logits)
    samples = sample_fits(monkeypatch)
    peak, cal = peak_bytes(pseudo_target.fit_on_pseudo_set, pseudo, "hard")
    assert samples == [SAMPLE_N]
    assert peak < logits.nbytes / 4
    pl = pseudo.target_pseudo_labels
    y_pt = np.where(pseudo.lam > 0.5, pl[pseudo.index_a], pl[pseudo.index_b])
    labeled = metrics.PredictionBatch(logits=logits, labels=y_pt)
    assert scalers.calibrator_to_dict(cal) == scalers.calibrator_to_dict(scalers.fit_temperature(labeled))


def test_synthesis_mixes_into_one_matrix(monkeypatch):
    # Wide inputs and two classes, so the mixed inputs outweigh the logits.
    # They are one (m, d) matrix filled in 1,000-row blocks; mixing the
    # whole set at once held three such matrices beside the result.
    monkeypatch.setattr(numerics, "BLOCK_ROWS", 1000)
    d = 50
    rng = np.random.default_rng(7)
    mixer = synthetic.TrainedClassifier(weights=rng.standard_normal((d, 2)), bias=rng.standard_normal(2))
    x = rng.standard_normal((N, d))
    pl = numerics.argmax_rows(mixer.predict_logits(x))
    peak, pseudo = peak_bytes(pseudo_target.synthesize, mixer, x, pl, pseudo_target.MixupConfig(seed=0))
    assert pseudo.n > N / 4
    assert peak < 1.5 * pseudo.n * d * 8


def test_provenance_csv_holds_one_block_of_cells(monkeypatch, tmp_path):
    # Formatting all N rows first took a list of N cells per column: its
    # pointers alone are N * 8 bytes a column, before the cells themselves.
    monkeypatch.setattr(numerics, "BLOCK_ROWS", 1000)
    rng = np.random.default_rng(8)
    columns = {
        "index_a": np.arange(N), "index_b": rng.permutation(N), "lambda": rng.uniform(0.55, 0.95, N),
        "pl_a": rng.integers(0, C, N), "pl_b": rng.integers(0, C, N), "y_pt": rng.integers(0, C, N),
        "pseudo_correct": rng.integers(0, 2, N),
    }
    path = tmp_path / "provenance.csv"
    peak, _ = peak_bytes(documents.write_csv, path, columns)
    assert len(path.read_text().splitlines()) == N + 1
    assert peak < len(columns) * N * 8 / 2


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
    peak, ensemble = peak_bytes(lambda: synthetic.train(task, epochs=3, seed=seeds))
    assert len(ensemble.members) == len(seeds)
    assert peak < 2 * buffer_bytes


def test_reading_a_task_holds_under_three_times_its_arrays(tmp_path):
    # The arrays are base64 text in the JSON, 4/3 of their bytes. The read
    # holds the file's text and then its parsed strings (8/3 of the arrays
    # at most), and the strings beside the decoded bytes (7/3). Held as
    # JSON lists, the decimal text and 1.6 M parsed floats took 6.8 times
    # the arrays.
    task = synthetic.generate(synthetic.ShiftSpec(n_classes=C, dim=16, n_source=2000, n_target=N, seed=9))
    path = tmp_path / "task.json"
    synthetic.save_task(task, path)
    arrays = sum(getattr(task, key).nbytes for key in TASK_ARRAYS)
    peak, loaded = peak_bytes(synthetic.load_task, path)
    assert loaded.target_inputs.tobytes() == task.target_inputs.tobytes()
    assert peak < 3 * arrays


def test_every_task_read_hands_the_free_heap_back(tmp_path, monkeypatch):
    # Once a command has read its task, before it makes its own arrays, so
    # that its peak and the next command's stand on what is alive, not on
    # the file text and base64 strings that the read freed.
    trims = []
    monkeypatch.setattr(cli, "_malloc_trim", trims.append)
    task, model = str(tmp_path / "task.json"), str(tmp_path / "model.json")
    assert cli.main(["generate", "--n-source", "50", "--n-target", "40", "--out", task]) == 0
    assert trims == []  # generate reads no task
    assert cli.main(["train", "--task", task, "--epochs", "2", "--out", model]) == 0
    assert trims == [0]
    assert cli.main(["calibrate", "--task", task, "--model", str(tmp_path / "missing.json"),
                     "--out", str(tmp_path / "cal.json")]) == 1
    assert trims == [0, 0]  # the model was missing, but the task had been read
    assert cli.main(["calibrate", "--task", str(tmp_path / "missing.json"), "--model", model,
                     "--out", str(tmp_path / "cal.json")]) == 1
    assert cli.main(["calibrate", "--no-such-flag"]) == 2  # a usage error runs no command
    assert trims == [0, 0]


def test_commands_share_one_parser(tmp_path, monkeypatch):
    # argparse objects form reference cycles: a parser per call would be garbage
    # that outlives the call until the collector's next full pass.
    built = []
    build = cli.build_parser

    def counted():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        for k in range(2):
            assert cli.main(["generate", "--n-source", "50", "--n-target", "40",
                             "--out", str(tmp_path / f"task{k}.json")]) == 0
        assert cli.main(["generate", "--no-such-flag"]) == 2
        assert built == [1]
    finally:
        cli._parser.cache_clear()
