"""The document layer: one module encodes documents, and damaged documents fail cleanly.

No module but ``documents.py`` imports json or csv, assigns SCHEMA_VERSION
or holds the ``.10g`` number format of the CSV files.

Every record's ``*_from_dict`` goes through ``documents.check_document``,
and renaming any key of a valid document makes its loader fail.

The fuzz tests damage valid task (arrays encoded and as JSON lists),
model, calibrator and config documents of a tiny cell one entry at a time
(drop it, or swap in a value of another type, NaN, an infinity, an
out-of-range number, a ragged array or base64 text of the wrong length)
and check that loaders raise only InvalidInputError and that the CLI
either succeeds or prints exactly one error line.
"""

import ast
import contextlib
import copy
import csv
import dataclasses
import io
import json
import re
import warnings
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pseudocal
from pseudocal import cli, documents, metrics, numerics, scalers, synthetic
from pseudocal.errors import InvalidInputError

from _util import TASK_ARRAYS, list_form

SRC = Path(pseudocal.__file__).parent

DROP = object()
# "AAAAAAAAAAA=" is strict base64 of 8 bytes: one float64 or int64.
REPLACEMENTS = (None, "x", True, [], {}, float("nan"), float("inf"), -1, 7, 2.0, [[1.0]], "AAAAAAAAAAA=")


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
            # f-string format specs, format() arguments and %-formats are all str constants
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and ".10g" in node.value:
                offenders.append(f"{path.name} holds a .10g format")
    assert offenders == []


def test_only_the_documents_module_opens_files():
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py")) if path.name != "documents.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "open"
    ]
    assert (SRC / "cli.py").is_file()
    assert offenders == []


def test_every_loader_calls_the_key_check():
    loaders = {}
    for name in ("synthetic.py", "scalers.py"):
        for node in ast.walk(ast.parse((SRC / name).read_text())):
            if isinstance(node, ast.FunctionDef) and node.name.endswith("_from_dict"):
                calls = {
                    getattr(call.func, "id", getattr(call.func, "attr", None))
                    for call in ast.walk(node) if isinstance(call, ast.Call)
                }
                loaders[node.name] = "check_document" in calls
    assert {"task_from_dict", "model_from_dict", "calibrator_from_dict"} <= set(loaders)
    assert [name for name, checked in loaders.items() if not checked] == []


def test_write_csv_formats_float_int_and_str_columns():
    buf = io.StringIO()
    documents.write_csv(buf, {
        "x": np.array([0.1, 1 / 3, 2.0, 1e-20]),
        "n": np.array([1, -2, 30, 0]),
        "s": ["a", "b c", "d,e", ""],
    })
    assert buf.getvalue() == 'x,n,s\r\n0.1,1,a\r\n0.3333333333,-2,b c\r\n2,30,"d,e"\r\n1e-20,0,\r\n'


@pytest.mark.parametrize("rows", [0, 1, 7, 8, 22])
def test_write_csv_in_blocks_writes_what_a_one_shot_writer_does(monkeypatch, rows):
    monkeypatch.setattr(numerics, "BLOCK_ROWS", 7)
    rng = np.random.default_rng(rows)
    columns = {
        "x": rng.standard_normal(rows) * 10.0 ** rng.integers(-25, 25, rows),
        "n": rng.integers(-1000, 1000, rows),
        "s": [f"row {k}" + "," * (k % 2) for k in range(rows)],
    }
    expected = io.StringIO()
    writer = csv.writer(expected)
    writer.writerow(columns)
    writer.writerows(zip([f"{v:.10g}" for v in columns["x"].tolist()], columns["n"].tolist(), columns["s"]))
    buf = io.StringIO()
    documents.write_csv(buf, columns)
    assert buf.getvalue() == expected.getvalue()
    assert len(buf.getvalue().splitlines()) == rows + 1


@pytest.mark.parametrize("columns", [{"a": [1, 2], "b": [0.5]}, {"a": [[1, 2]]}, {"a": 3}])
def test_write_csv_rejects_ragged_columns_before_writing(tmp_path, columns):
    buf = io.StringIO()
    with pytest.raises(InvalidInputError, match="1-D and of one length"):
        documents.write_csv(buf, columns)
    assert buf.getvalue() == ""
    path = tmp_path / "table.csv"
    with pytest.raises(InvalidInputError, match="1-D and of one length"):
        documents.write_csv(path, columns)
    assert not path.exists()


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
        "task_lists": list_form(_plain(synthetic.task_to_dict(task))),
        "model": _plain(synthetic.model_to_dict(model)),
        "ensemble": _plain(synthetic.model_to_dict(synthetic.EnsembleModel(members=(model, model)))),
        "temperature": _plain(scalers.calibrator_to_dict(scalers.fit_temperature(batch))),
        "matrix": _plain(scalers.calibrator_to_dict(scalers.fit_matrix(batch))),
        "vector": _plain(scalers.calibrator_to_dict(scalers.fit_vector(batch))),
        "identity": _plain(scalers.calibrator_to_dict(scalers.Calibrator(kind="identity"))),
        "config": {"lam": 0.7, "label_mode": "soft", "lambda_policy": "fixed",
                   "pairing": "distinct", "mixup_epochs": 2, "seed": 1},
    }
    synthetic.save_task(task, root / "task.json")
    synthetic.save_model(model, root / "model.json")
    return root, docs


def test_model_kind_is_logistic_or_ensemble(cell):
    _, docs = cell
    for kind in ("svm", "Logistic", None, 3):
        with pytest.raises(InvalidInputError, match="expected one of logistic, ensemble"):
            synthetic.model_from_dict({**docs["model"], "kind": kind})
    ensemble = copy.deepcopy(docs["ensemble"])
    ensemble["members"][1]["kind"] = "x"
    with pytest.raises(InvalidInputError, match="unknown model kind 'x'"):
        synthetic.model_from_dict(ensemble)


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
    "task_lists": synthetic.load_task,
    "model": synthetic.load_model,
    "ensemble": synthetic.load_model,
    "temperature": scalers.load_calibrator,
    "matrix": scalers.load_calibrator,
    "vector": scalers.load_calibrator,
}


@settings(max_examples=460, deadline=None, derandomize=True)
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


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_cli_succeeds_or_prints_one_error_line_on_damaged_documents(cell, data):
    root, docs = cell
    kind = data.draw(st.sampled_from(["task", "task_lists", "model", "config"]), label="document")
    damaged = root / f"damaged-{kind}.json"
    damaged.write_text(_draw_damage(data, docs[kind]))
    files = {"task": root / "task.json", "model": root / "model.json", kind.split("_")[0]: damaged}
    out = root / "out.json"
    inputs = ["--task", str(files["task"]), "--model", str(files["model"]), "--out", str(out)]
    runs = [["calibrate", *inputs], ["evaluate", "--methods", "ensemble", *inputs]]
    if kind == "config":
        runs = [argv + ["--config", str(damaged)] for argv in runs]
    if kind.startswith("task"):
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


@pytest.mark.parametrize("kind", ["task", "model", "config"])
def test_cli_prints_one_error_line_on_too_deeply_nested_json(cell, kind):
    root, _ = cell
    deep = root / f"deep-{kind}.json"
    deep.write_text("[" * 200_000)
    files = {"task": root / "task.json", "model": root / "model.json", kind: deep}
    out = root / "out.json"
    argv = ["calibrate", "--task", str(files["task"]), "--model", str(files["model"]), "--out", str(out)]
    if kind == "config":
        argv += ["--config", str(deep)]
    code, lines = _run_cli(argv)
    assert code == (2 if kind == "config" else 1)
    assert len(lines) == 1 and lines[0].startswith("error:") and "recursion" in lines[0], lines
    assert not out.exists()


def _parent(doc, path):
    """The mapping or list that holds the entry at ``path``."""
    return reduce(lambda d, key: d[key], path[:-1], doc)


def _key_paths(doc):
    """The path of every key of every mapping in ``doc``, ensemble members included."""
    return [path for path in _paths(doc) if path and isinstance(_parent(doc, path), dict)]


def _renamed(doc, path):
    """A copy of ``doc`` with the key at ``path`` renamed to itself plus ``_x``."""
    doc = copy.deepcopy(doc)
    parent = _parent(doc, path)
    parent[path[-1] + "_x"] = parent.pop(path[-1])
    return doc


@pytest.mark.parametrize("kind", sorted([*LOADERS, "identity"]))
def test_renaming_any_key_makes_loading_fail(cell, kind):
    root, docs = cell
    path = root / f"renamed-{kind}.json"
    loader = LOADERS.get(kind, scalers.load_calibrator)
    for key_path in _key_paths(docs[kind]):
        path.write_text(json.dumps(_renamed(docs[kind], key_path)))
        # Every key is named, a spec or train_config key too, but for a
        # document's lost schema_version or kind.
        in_document = "schema_version" in _parent(docs[kind], key_path)
        named = not (in_document and key_path[-1] in ("schema_version", "kind"))
        with pytest.raises(InvalidInputError, match=re.escape(repr(key_path[-1] + "_x")) if named else None):
            loader(path)


@pytest.mark.parametrize("kind", ["task", "model", "ensemble"])
def test_cli_exits_1_on_a_renamed_task_or_model_key(cell, kind):
    root, docs = cell
    renamed = root / f"renamed-{kind}.json"
    out = root / "out.json"
    what = "task" if kind == "task" else "model"
    files = {"task": root / "task.json", "model": root / "model.json", what: renamed}
    inputs = ["--task", str(files["task"]), "--model", str(files["model"]), "--out", str(out)]
    for key_path in _key_paths(docs[kind]):
        renamed.write_text(json.dumps(_renamed(docs[kind], key_path)))
        for argv in (["calibrate", *inputs], ["evaluate", "--methods", "ensemble", *inputs]):
            code, lines = _run_cli(argv)
            assert code == 1 and len(lines) == 1 and lines[0].startswith("error:"), (key_path, lines)
            assert not out.exists()


VERSIONS = [True, 1.0, "1", 2]


@pytest.mark.parametrize("version", VERSIONS, ids=["true", "float", "string", "two"])
@pytest.mark.parametrize("kind", sorted([*LOADERS, "identity"]))
def test_every_loader_takes_only_the_integer_version(cell, kind, version):
    # JSON's true and 1.0 compare equal to 1, but neither is the integer 1.
    root, docs = cell
    path = root / f"version-{kind}.json"
    loader = LOADERS.get(kind, scalers.load_calibrator)
    damaged = [{**docs[kind], "schema_version": version}]
    if kind == "ensemble":
        damaged.append(copy.deepcopy(docs[kind]))
        damaged[-1]["members"][1]["schema_version"] = version
    for doc in damaged:
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidInputError, match=re.escape(
            f"document schema_version must be an integer equal to 1, got {version!r}"
        )):
            loader(path)


@pytest.mark.parametrize("kind", ["task", "model"])
def test_cli_exits_1_on_a_boolean_version(cell, kind):
    root, docs = cell
    files = {"task": root / "task.json", "model": root / "model.json", kind: root / f"true-{kind}.json"}
    files[kind].write_text(json.dumps({**docs[kind], "schema_version": True}))
    out = root / "out.json"
    code, lines = _run_cli(["calibrate", "--task", str(files["task"]), "--model", str(files["model"]),
                            "--out", str(out)])
    assert code == 1 and lines == [
        f"error: InvalidInputError: {kind} document schema_version must be an integer equal to 1, "
        "got True"
    ]
    assert not out.exists()


# Keys that a loader used to drop, each next to a valid document's own keys.
MISSPELT = [
    ("task", "val_fractoin", 0.5), ("model", "train_confg", {}), ("temperature", "temprature", 3.0),
    ("temperature", "weights", [1.0]), ("vector", "convereged", False),
]


@pytest.mark.parametrize("kind, key, value", MISSPELT, ids=[key for _, key, _ in MISSPELT])
def test_a_misspelt_key_is_named_by_its_loader(cell, kind, key, value):
    root, docs = cell
    path = root / f"misspelt-{kind}.json"
    path.write_text(json.dumps({**docs[kind], key: value}))
    with pytest.raises(InvalidInputError, match=re.escape(f"document has no key {key!r}")):
        LOADERS[kind](path)


# No command reads a calibrator document, so only the task and model reach the CLI.
@pytest.mark.parametrize("kind, key, value", MISSPELT[:2], ids=[key for _, key, _ in MISSPELT[:2]])
def test_evaluate_names_a_misspelt_task_or_model_key(cell, kind, key, value):
    root, docs = cell
    files = {"task": root / "task.json", "model": root / "model.json", kind: root / f"misspelt-{kind}.json"}
    files[kind].write_text(json.dumps({**docs[kind], key: value}))
    code, lines = _run_cli(["evaluate", "--methods", "vector,ensemble", "--task", str(files["task"]),
                            "--model", str(files["model"]), "--out", str(root / "out.json")])
    assert code == 1 and len(lines) == 1 and lines[0].startswith("error:") and repr(key) in lines[0], lines


# Doubles at the ends of the range, signed zeros and subnormals, which a
# decimal round trip of a careless writer could lose.
EXTREMES = np.array([[0.0, -0.0, 5e-324, -5e-324], [1e308, -1e308, 2.2250738585072014e-308, np.pi]])


@pytest.mark.parametrize("a", [
    EXTREMES, EXTREMES.T, np.array([0, -1, 2**62, -(2**63)]), np.zeros((0, 3)), np.arange(6).reshape(2, 3),
], ids=["extremes", "transposed", "int64-extremes", "no-rows", "int64-matrix"])
def test_an_encoded_array_decodes_bit_for_bit_without_a_copy(a):
    doc = _plain(documents.encoded_array(a))
    assert sorted(doc) == ["base64", "dtype", "shape"] and doc["shape"] == list(a.shape)
    back = documents.decoded_array(doc, "x")
    assert back.dtype == a.dtype and back.shape == a.shape
    assert back.tobytes() == np.ascontiguousarray(a).tobytes()
    assert not back.flags.writeable and not back.flags.owndata


def test_a_task_round_trips_bit_for_bit_through_its_document(cell, tmp_path):
    root, _ = cell
    task = synthetic.load_task(root / "task.json")
    target = task.target_inputs.copy()
    target[:4] = EXTREMES.reshape(4, 2)
    task = dataclasses.replace(task, target_inputs=target)
    path = tmp_path / "task.json"
    synthetic.save_task(task, path)
    for loaded in (synthetic.task_from_dict(synthetic.task_to_dict(task)), synthetic.load_task(path)):
        assert loaded.spec == task.spec and loaded.val_fraction == task.val_fraction
        for key in TASK_ARRAYS:
            a, b = getattr(task, key), getattr(loaded, key)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), key


def test_a_task_document_with_list_arrays_loads_as_the_encoded_one(cell, tmp_path):
    # Task documents written before their arrays were encoded held JSON lists.
    root, docs = cell
    path = tmp_path / "task_lists.json"
    path.write_text(json.dumps(docs["task_lists"]))
    assert all(isinstance(docs["task_lists"][key], list) for key in TASK_ARRAYS)
    encoded, lists = synthetic.load_task(root / "task.json"), synthetic.load_task(path)
    for key in TASK_ARRAYS:
        a, b = getattr(encoded, key), getattr(lists, key)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), key


def _payload(values):
    """The base64 text of a float64 array."""
    return documents.encoded_array(np.asarray(values, dtype=np.float64))["base64"]


# The cell's task is 3 classes, 2 features, 16 source and 12 target rows.
NAN_TARGET = np.zeros((12, 2))
NAN_TARGET[5, 1] = np.nan
MALFORMED_ARRAYS = [
    ("target_inputs", {"base64": "AAAA*AAA"},
     "target_inputs base64 is malformed: Only base64 data is allowed"),
    ("source_labels", {"base64": "AAA"}, "source_labels base64 is malformed: Incorrect padding"),
    ("target_labels", {"base64": "AA==AA=="},
     "target_labels base64 is malformed: Excess data after padding"),
    ("target_inputs", {"base64": "AAAA\u00e9"},
     "target_inputs base64 is malformed: string argument should contain only ASCII characters"),
    ("target_inputs", {"base64": 7}, "target_inputs base64 must be text, got int"),
    ("target_inputs", {"base64": "AAAAAAAAAAA="},
     "target_inputs holds 8 bytes, but a float64 [12, 2] array takes 192"),
    ("source_inputs", {"shape": [16, 3]}, "source_inputs holds 256 bytes, but a float64 [16, 3] array takes 384"),
    ("source_inputs", {"dtype": "float32"},
     "unknown source_inputs dtype 'float32'; expected one of float64, int64"),
    ("target_labels", {"dtype": None}, "unknown target_labels dtype None; expected one of float64, int64"),
    ("target_labels", {"shape": [True]}, "target_labels shape entry must be an integer >= 0, got True"),
    ("target_labels", {"shape": [12.0]}, "target_labels shape entry must be an integer >= 0, got 12.0"),
    ("target_inputs", {"shape": [-12, -2]}, "target_inputs shape entry must be an integer >= 0, got -12"),
    ("target_labels", {"shape": 12}, "target_labels shape must be a list of sizes, got 12"),
    ("target_labels", {"base64": "", "shape": [0, 2**63]},
     f"target_labels shape [0, {2**63}] is too large for numpy: Maximum allowed dimension exceeded"),
    ("source_labels", {"shape": DROP}, "a source_labels array needs the key 'shape'"),
    ("target_inputs", {"base64": DROP}, "a target_inputs array needs the key 'base64'"),
    ("source_inputs", {"order": "C"}, "a source_inputs array has no key 'order'"),
    ("target_inputs", {"base64": _payload(NAN_TARGET)},
     "target inputs must be finite, found non-finite values"),
    ("source_inputs", {"base64": _payload(np.full((16, 2), -np.inf))},
     "source inputs must be finite, found non-finite values"),
]
MALFORMED_IDS = [
    "bad-alphabet", "bad-padding", "data-after-padding", "not-ascii", "not-text", "short-payload",
    "shape-too-large", "dtype-float32", "dtype-null", "shape-bool", "shape-float", "shape-negative",
    "shape-not-a-list", "shape-beyond-numpy", "no-shape", "no-base64", "extra-key", "nan-payload", "inf-payload",
]


def _damaged_array(doc, key, change):
    entry = {**doc[key], **change}
    return {**doc, key: {name: value for name, value in entry.items() if value is not DROP}}


@pytest.mark.parametrize("key, change, message", MALFORMED_ARRAYS, ids=MALFORMED_IDS)
def test_a_malformed_encoded_array_is_a_one_line_error_naming_its_key(cell, key, change, message):
    root, docs = cell
    path = root / "malformed-array.json"
    path.write_text(json.dumps(_damaged_array(docs["task"], key, change)))
    with pytest.raises(InvalidInputError) as caught:
        synthetic.load_task(path)
    assert str(caught.value) == message
    out = root / "out.json"
    code, lines = _run_cli(["calibrate", "--task", str(path), "--model", str(root / "model.json"),
                            "--out", str(out)])
    assert code == 1 and lines == [f"error: InvalidInputError: {message}"]
    assert not out.exists()
