"""The document layer: one module encodes documents, and damaged documents fail cleanly.

The fuzz tests damage valid task, model, calibrator and config documents
of a tiny cell one entry at a time (drop it, or swap in a value of
another type, NaN, an infinity, an out-of-range number or a ragged
array) and check that loaders raise only InvalidInputError and that the
CLI either succeeds or prints exactly one error line.
"""

import ast
import contextlib
import copy
import io
import json
import warnings
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import pseudocal
from pseudocal import cli, metrics, scalers, synthetic
from pseudocal.errors import InvalidInputError

SRC = Path(pseudocal.__file__).parent

DROP = object()
REPLACEMENTS = (None, "x", True, [], {}, float("nan"), float("inf"), -1, 7, 2.0, [[1.0]])


def test_only_the_documents_module_encodes_documents():
    offenders = []
    assert (SRC / "cli.py").is_file()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "documents.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                modules = []
            offenders += [f"{path.name} imports {m}" for m in modules if m.split(".")[0] in ("json", "csv")]
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            else:
                targets = []
            offenders += [
                f"{path.name} assigns SCHEMA_VERSION"
                for t in targets
                if isinstance(t, ast.Name) and t.id == "SCHEMA_VERSION"
            ]
    assert offenders == []


def _plain(doc):
    return json.loads(json.dumps(doc))


@pytest.fixture(scope="module")
def cell(tmp_path_factory):
    """Valid documents of a tiny cell, and a directory holding the task and model."""
    root = tmp_path_factory.mktemp("documents")
    spec = synthetic.ShiftSpec(n_classes=3, dim=2, n_source=16, n_target=12, mean_shift=0.5, seed=4)
    task = synthetic.generate(spec)
    model = synthetic.train(task, epochs=20, seed=4)
    batch = metrics.PredictionBatch(
        logits=model.predict_logits(task.source_inputs), labels=task.source_labels
    )
    docs = {
        "task": _plain(synthetic.task_to_dict(task)),
        "model": _plain(synthetic.model_to_dict(model)),
        "ensemble": _plain(synthetic.model_to_dict(synthetic.EnsembleModel(members=(model, model)))),
        "temperature": _plain(scalers.calibrator_to_dict(scalers.fit_temperature(batch))),
        "matrix": _plain(scalers.calibrator_to_dict(scalers.fit_matrix(batch))),
        "vector": _plain(scalers.calibrator_to_dict(scalers.fit_vector(batch))),
        "config": {"lam": 0.7, "label_mode": "soft", "lambda_policy": "fixed",
                   "pairing": "distinct", "mixup_epochs": 2, "seed": 1},
    }
    synthetic.save_task(task, root / "task.json")
    synthetic.save_model(model, root / "model.json")
    return root, docs


def _paths(doc, prefix=()):
    """Every entry of ``doc``: each key of a mapping, the first and last item of a list."""
    yield prefix
    if isinstance(doc, dict):
        for key in sorted(doc):
            yield from _paths(doc[key], prefix + (key,))
    elif isinstance(doc, list) and doc:
        for i in sorted({0, len(doc) - 1}):
            yield from _paths(doc[i], prefix + (i,))


def _damaged_text(doc, path, value):
    """``doc`` as JSON with the entry at ``path`` dropped or replaced by ``value``.

    Dropping the whole document leaves a file that is not JSON.
    """
    if not path:
        return "{not json" if value is DROP else json.dumps(value)
    doc = copy.deepcopy(doc)
    parent = reduce(lambda d, key: d[key], path[:-1], doc)
    if value is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return json.dumps(doc)


def _draw_damage(data, doc):
    path = data.draw(st.sampled_from(list(_paths(doc))), label="path")
    value = data.draw(st.sampled_from((DROP,) + REPLACEMENTS), label="value")
    return _damaged_text(doc, path, value)


LOADERS = {
    "task": synthetic.load_task,
    "model": synthetic.load_model,
    "ensemble": synthetic.load_model,
    "temperature": scalers.load_calibrator,
    "matrix": scalers.load_calibrator,
    "vector": scalers.load_calibrator,
}


@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=st.data())
def test_loaders_raise_only_invalid_input_on_damaged_documents(cell, data):
    root, docs = cell
    kind = data.draw(st.sampled_from(sorted(LOADERS)), label="document")
    path = root / f"damaged-{kind}.json"
    path.write_text(_draw_damage(data, docs[kind]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            LOADERS[kind](path)
        except InvalidInputError:
            pass
    assert [str(w.message) for w in caught] == []


def _run_cli(argv):
    """(exit code, stderr lines) of one in-process CLI call; warnings count as stderr lines."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        code = cli.main(argv)
    return code, err.getvalue().splitlines() + [str(w.message) for w in caught]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_cli_succeeds_or_prints_one_error_line_on_damaged_documents(cell, data):
    root, docs = cell
    kind = data.draw(st.sampled_from(["task", "model", "config"]), label="document")
    damaged = root / f"damaged-{kind}.json"
    damaged.write_text(_draw_damage(data, docs[kind]))
    files = {"task": root / "task.json", "model": root / "model.json", kind: damaged}
    out = root / "out.json"
    runs = [["calibrate", "--task", str(files["task"]), "--model", str(files["model"]),
             "--out", str(out)]]
    if kind == "config":
        runs[0] += ["--config", str(damaged)]
    if kind == "task":
        runs.append(["train", "--task", str(damaged), "--epochs", "5", "--out", str(out)])
    for argv in runs:
        out.unlink(missing_ok=True)
        code, lines = _run_cli(argv)
        if code == 0:
            assert lines == []
        else:
            assert code in (1, 2)
            assert len(lines) == 1 and lines[0].startswith("error:"), lines
            assert not out.exists()
