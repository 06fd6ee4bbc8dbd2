import argparse
import ast
import contextlib
import hashlib
import io
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from pseudocal import cli, pseudo_target, report, scalers, synthetic
from pseudocal.metrics import DEFAULT_BINS, PredictionBatch, ece, mean_brier, mean_nll

from _util import list_form, overflow_cell


def run(argv):
    return cli.main(argv)


def file_hash(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    task = root / "task.json"
    model = root / "model.json"
    assert run([
        "generate", "--mean-shift", "1.0", "--rotation", "0.45",
        "--n-source", "600", "--n-target", "600", "--seed", "3",
        "--out", str(task),
    ]) == 0
    assert run([
        "train", "--task", str(task), "--epochs", "200", "--gamma", "3.0",
        "--seed", "3", "--out", str(model),
    ]) == 0
    return root, task, model


def test_round_trip_produces_pseudocal_row(workspace, capsys):
    root, task, model = workspace
    cal = root / "cal.json"
    result = root / "result.json"
    assert run([
        "calibrate", "--task", str(task), "--model", str(model),
        "--seed", "3", "--out", str(cal),
        "--provenance-out", str(root / "prov.csv"),
    ]) == 0
    assert run([
        "evaluate", "--task", str(task), "--model", str(model),
        "--methods", "none,pseudocal,temp_oracle", "--seed", "3",
        "--out", str(result), "--table-out", str(root / "table.txt"),
        "--bins-out", str(root / "bins.csv"),
    ]) == 0
    doc = json.loads(result.read_text())
    assert "pseudocal" in doc["methods"]
    assert doc["methods"]["pseudocal"]["ece"] < doc["methods"]["none"]["ece"]
    cal_doc = json.loads(cal.read_text())
    assert cal_doc["kind"] == "temperature"
    prov = (root / "prov.csv").read_text().splitlines()
    assert prov[0] == "index_a,index_b,lambda,pl_a,pl_b,y_pt,pseudo_correct"
    bins = (root / "bins.csv").read_text().splitlines()
    assert bins[0] == "method,bin_lower,bin_upper,count,accuracy,confidence"
    table = (root / "table.txt").read_text()
    assert "pseudocal" in table


def test_lambda_open_interval_bound(workspace, capsys):
    root, task, model = workspace
    code = run([
        "calibrate", "--task", str(task), "--model", str(model),
        "--lambda", "0.5", "--out", str(root / "bad.json"),
    ])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error:")
    assert not (root / "bad.json").exists()


def test_the_mix_ratio_plays_no_part_under_the_beta_policy(workspace, tmp_path):
    """``--lambda`` with ``--lambda-policy beta`` is checked with the policy, not alone."""
    root, task, model = workspace
    common = ["calibrate", "--task", str(task), "--model", str(model), "--seed", "3",
              "--lambda-policy", "beta"]
    written = []
    for stem, extra in (("alone", []), ("with_lambda", ["--lambda", "0.3"])):
        cal, prov = tmp_path / f"{stem}.json", tmp_path / f"{stem}.csv"
        assert run([*common, *extra, "--out", str(cal), "--provenance-out", str(prov)]) == 0
        written.append((cal.read_bytes(), prov.read_bytes()))
    assert written[0] == written[1]


def test_oracle_on_stripped_task_is_data_access_error(workspace, capsys):
    root, task, model = workspace
    doc = json.loads(task.read_text())
    doc["target_labels"] = None
    stripped = root / "stripped.json"
    stripped.write_text(json.dumps(doc))
    code = run([
        "evaluate", "--task", str(stripped), "--model", str(model),
        "--methods", "temp_oracle", "--out", str(root / "never.json"),
    ])
    captured = capsys.readouterr()
    assert code == 1
    assert "DataAccessError" in captured.err
    assert captured.err.count("\n") == 1  # single-line error


def test_nonfinite_model_logits_are_a_one_line_error(workspace, capsys):
    root, task, model = workspace
    doc = json.loads(model.read_text())
    doc["weights"][0][0] = float("nan")
    broken = root / "nan_model.json"
    broken.write_text(json.dumps(doc))
    code = run([
        "calibrate", "--task", str(task), "--model", str(broken),
        "--out", str(root / "never_cal.json"),
    ])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: InvalidInputError:")
    assert "non-finite" in captured.err
    assert captured.err.count("\n") == 1
    assert not (root / "never_cal.json").exists()


def _assert_one_line_invalid_input(code, capsys, never_written):
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: InvalidInputError:")
    assert captured.err.count("\n") == 1
    assert not never_written.exists()


def test_task_without_n_classes_is_a_one_line_error(workspace, capsys):
    root, task, model = workspace
    doc = json.loads(task.read_text())
    del doc["spec"]["n_classes"]
    broken = root / "no_classes_task.json"
    broken.write_text(json.dumps(doc))
    out = root / "never_cal.json"
    code = run(["calibrate", "--task", str(broken), "--model", str(model), "--out", str(out)])
    _assert_one_line_invalid_input(code, capsys, out)


def test_non_json_task_is_a_one_line_error(workspace, capsys):
    root, _, model = workspace
    broken = root / "not_json_task.json"
    broken.write_text("spec: {n_classes: 5}\n")
    out = root / "never_cal.json"
    code = run(["calibrate", "--task", str(broken), "--model", str(model), "--out", str(out)])
    _assert_one_line_invalid_input(code, capsys, out)


def test_model_bias_of_wrong_length_is_a_one_line_error(workspace, capsys):
    root, task, model = workspace
    doc = json.loads(model.read_text())
    doc["bias"] = doc["bias"][:1]
    broken = root / "short_bias_model.json"
    broken.write_text(json.dumps(doc))
    out = root / "never_cal.json"
    code = run(["calibrate", "--task", str(task), "--model", str(broken), "--out", str(out)])
    _assert_one_line_invalid_input(code, capsys, out)


def test_task_whose_spec_contradicts_its_arrays_is_a_one_line_error(workspace, tmp_path, capsys):
    # The spec is what evaluate reports as the task, so it must be the arrays' own.
    _, task, model = workspace
    doc = json.loads(task.read_text())
    doc["spec"].update(n_target=50000, dim=3, n_source=7)
    broken = tmp_path / "task.json"
    broken.write_text(json.dumps(doc))
    out = tmp_path / "result.json"
    code = run(["evaluate", "--task", str(broken), "--model", str(model), "--seed", "7",
                "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: InvalidInputError: target inputs are 600 x 10, but the task spec says 50000 x 3\n"
    )
    assert not out.exists()


def test_unsupported_task_version_is_a_one_line_error(workspace, capsys):
    root, task, model = workspace
    doc = json.loads(task.read_text())
    doc["schema_version"] = 99
    broken = root / "v99_task.json"
    broken.write_text(json.dumps(doc))
    out = root / "never_cal.json"
    code = run(["calibrate", "--task", str(broken), "--model", str(model), "--out", str(out)])
    _assert_one_line_invalid_input(code, capsys, out)


@pytest.mark.filterwarnings("error")  # a warning would be one more stderr line
@pytest.mark.parametrize(
    "command, damaged, damage, code",
    [
        ("train", "task", lambda doc: doc["source_labels"].__setitem__(0, 7), 1),
        ("train", "task", lambda doc: doc.update(source_labels=doc["source_labels"][:-3]), 1),
        ("calibrate", "task",
         lambda doc: doc.update(target_inputs=[row[:-2] for row in doc["target_inputs"]]), 1),
        ("calibrate", "task",
         lambda doc: doc.update(target_inputs=[row[0] for row in doc["target_inputs"]]), 1),
        ("evaluate", "task", lambda doc: doc.update(val_fraction=2.0), 1),
        ("calibrate", "model", lambda doc: doc.update(kind="ensemble", members=[]), 1),
        ("calibrate", "config", lambda doc: doc.update(seed="x"), 2),
        ("calibrate", "config", lambda doc: doc.update(mixup_epochs=float("inf")), 2),
        ("calibrate", "config", lambda doc: doc.update(seed=-1), 1),
        ("evaluate", "model", lambda doc: doc["train_config"].update(epochs="x"), 1),
        ("evaluate", "task", lambda doc: doc["spec"].update(mean_shift="x"), 1),
        ("sweep", "config", lambda doc: doc.update(lambdas=","), 1),
        ("sweep", "config", lambda doc: doc.update(label_modes=","), 1),
        ("evaluate", "config", lambda doc: doc.update(methods="none,none"), 1),
        ("calibrate", "config", lambda doc: doc.update(seed=None), 2),
        ("sweep", "config",
         lambda doc: doc.update(lambdas="0.6,0.6", label_modes="hard,hard", seeds="0,0"), 1),
        ("calibrate", "config", lambda doc: doc.update(seed=1.5), 2),
        ("calibrate", "config", lambda doc: doc.update(seed=True), 2),
        ("calibrate", "config", lambda doc: doc.update(mixup_epochs=2.9), 2),
        ("calibrate", "config", lambda doc: doc.update(lam=True), 2),
        ("evaluate", "config", lambda doc: doc.update(bins=7.9), 2),
        ("sweep", "config", lambda doc: doc.update(bins=True), 2),
        ("calibrate", "config", lambda doc: doc.update(label_mode="fuzzy"), 1),
        ("calibrate", "flags", lambda argv: argv.extend(["--label-mode", "fuzzy"]), 1),
        ("calibrate", "config", lambda doc: doc.update(label_mode=True), 1),
        ("calibrate", "config", lambda doc: doc.update(lambda_policy="uniform"), 1),
        ("calibrate", "config", lambda doc: doc.update(pairing=["distinct"]), 1),
        ("evaluate", "config", lambda doc: doc.update(label_mode="Hard"), 1),
        ("calibrate", "config", lambda doc: doc.update(sed=5), 2),
        ("evaluate", "config", lambda doc: doc.update(bin=7), 2),
        ("evaluate", "model", lambda doc: doc["train_config"].update(gamma=1.0), 1),
        ("evaluate", "task", lambda doc: doc["spec"].update(n_target=50000, dim=3, n_source=7), 1),
        ("evaluate", "task", lambda doc: doc["spec"].update(mean_shift=10**400), 1),
        ("calibrate", "model", lambda doc: doc.update(gamma=10**400), 1),
    ],
    ids=["source-label-7", "source-labels-short", "narrow-target-inputs", "1d-target-inputs",
         "val-fraction-2", "empty-ensemble", "config-seed-string", "config-epochs-inf",
         "config-seed-negative", "train-config-epochs-string", "spec-mean-shift-string",
         "sweep-no-lambdas", "sweep-no-label-modes", "methods-repeated", "config-seed-null",
         "sweep-repeated", "config-seed-fraction", "config-seed-bool", "config-epochs-fraction",
         "config-lambda-bool", "config-bins-fraction", "sweep-config-bins-bool",
         "config-label-mode-unknown", "flag-label-mode-unknown", "config-label-mode-bool", "config-lambda-policy-unknown",
         "config-pairing-list", "evaluate-config-label-mode-case", "config-key-misspelt",
         "evaluate-config-key-misspelt", "train-config-gamma-not-the-models",
         "spec-contradicts-arrays", "spec-mean-shift-beyond-floats", "gamma-beyond-floats"],
)
def test_malformed_input_is_a_one_line_error(
    workspace, tmp_path, capsys, command, damaged, damage, code
):
    root, task, model = workspace
    # The task's arrays as JSON lists, so that damage can reach single rows and labels.
    docs = {"task": list_form(json.loads(task.read_text())), "model": json.loads(model.read_text()),
            "config": {}, "flags": []}
    damage(docs[damaged])
    paths = {"task": task, "model": model}
    if damaged != "flags":
        paths[damaged] = tmp_path / f"{damaged}.json"
        paths[damaged].write_text(json.dumps(docs[damaged]))
    out = tmp_path / "never.json"
    argv = [command, "--task", str(paths["task"]), "--out", str(out), *docs["flags"]]
    if command != "train":
        argv += ["--model", str(paths["model"])]
    if command == "evaluate":
        argv += ["--methods", docs["config"].get("methods", "vector")]
    if damaged == "config":
        argv += ["--config", str(paths["config"])]
    assert run(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["calibrate", "--task", "t.json", "--model", "m.json"],
        ["calibrate", "--task", "t.json", "--model", "m.json", "--out", "c.json", "--bogus", "1"],
        ["evaluate", "--task", "t.json", "--model", "m.json", "--out", "c.json", "--bins", "x"],
    ],
    ids=["missing-out", "unknown-flag", "bins-not-a-number"],
)
def test_usage_errors_are_one_line(tmp_path, monkeypatch, capsys, argv):
    """argparse's own errors print one error line, not its usage block, and exit 2."""
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert captured.err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("message, line", [
    ("Unable to allocate 74.5 GiB for an array", "error: Unable to allocate 74.5 GiB for an array"),
    ("", "error: out of memory"),
], ids=["numpy-message", "no-message"])
def test_running_out_of_memory_is_a_one_line_error(tmp_path, monkeypatch, capsys, message, line):
    # The allocation fails by stand-in: how a host meets a real one differs between machines.
    def generate(spec):
        raise MemoryError(message)

    monkeypatch.setattr(synthetic, "generate", generate)
    out = tmp_path / "task.json"
    assert run(["generate", "--n-source", "1000000000", "--n-target", "100", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == line + "\n"
    assert not out.exists()


def test_help_still_prints_help_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["calibrate", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: pseudocal calibrate")


# Two valid values of every option key, spelled as on the command line.
OPTION_VALUES = {
    "classes": ("4", "6"), "dim": ("3", "2"), "n_source": ("100", "120"),
    "n_target": ("90", "80"), "mean_shift": ("0.5", "1.5"), "rotation": ("0.2", "0.3"),
    "target_priors": ("0.5,0.5", "0.2,0.8"), "cluster_std": ("1.1", "0.9"), "seed": ("3", "4"),
    "epochs": ("20", "30"), "lr": ("0.2", "0.1"), "gamma": ("2.5", "3"), "lam": ("0.7", "0.8"),
    "label_mode": ("soft", "hard"), "lambda_policy": ("beta", "fixed"),
    "pairing": ("same", "distinct"), "mixup_epochs": ("2", "3"),
    "methods": ("none,vector", "matrix"), "bins": ("10", "12"),
    "lambdas": ("0.6,0.7", "0.8"), "label_modes": ("hard", "soft,hard"), "seeds": ("0,1", "2"),
}


def test_flags_and_config_keys_are_one_option_set(tmp_path):
    """Every option converts alike as a flag and as a config value, and the flag wins."""
    assert set(OPTION_VALUES) == {key for c in cli._COMMANDS.values() for key in c.options}
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    config = tmp_path / "config.json"
    for name, command in cli._COMMANDS.items():
        actions = {action.dest: action for action in commands.choices[name]._actions}
        assert [a.dest for a in actions.values() if a.type is not None] == []
        paths = [arg for key in command.paths if actions[key].required
                 for arg in (actions[key].option_strings[0], "doc.json")]

        def options(*argv):
            return cli._options(parser.parse_args([name, *paths, *argv]))

        for key in command.options:
            flag = actions[key].option_strings[0]
            value, other = OPTION_VALUES[key]
            by_flag = options(flag, value)
            assert len(by_flag) == 1, (name, key)
            givens = [value]
            if value.replace(".", "", 1).isdigit():  # and as a JSON number
                givens.append(json.loads(value))
            for given in givens:
                config.write_text(json.dumps({key: given}))
                assert options("--config", str(config)) == by_flag, (name, key, given)
            config.write_text(json.dumps({key: other}))
            assert options("--config", str(config)) != by_flag, (name, key)
            assert options("--config", str(config), flag, value) == by_flag, (name, key)


def _run_quietly(argv):
    """Exit code and stderr of one CLI run."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, err.getvalue()


# JSON scalars, and short strings such as flags carry; integers stay small, as sizes allocate.
CONFIG_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 40),
    st.floats(),
    st.text(alphabet="0123456789.,-+eE xInfa", max_size=5),
    st.sampled_from(["hard", "soft", "none", "pseudocal", "beta", "same", "0.6, ", "1,2"]),
)
OPTIONS = [(name, key) for name, command in cli._COMMANDS.items() for key in command.options]


@pytest.mark.parametrize("name, key", OPTIONS, ids=[f"{n}-{k}" for n, k in OPTIONS])
@settings(max_examples=15, deadline=None, derandomize=True)
@given(value=CONFIG_VALUES)
def test_config_value_converts_as_the_text_of_its_flag(workspace, name, key, value):
    """``{key: value}`` in a config file is ``--flag str(value)``: the same exit code and
    the same error after its ``malformed`` prefix."""
    root, task, model = workspace
    documents = {"task": task, "model": model, "out": root / "out"}
    paths = [f"--{path}={documents[path]}" for path in cli._COMMANDS[name].paths if path in documents]
    flag = "--lambda" if key == "lam" else "--" + key.replace("_", "-")
    config = root / "config.json"
    config.write_text(json.dumps({key: value}))
    by_config = _run_quietly([name, *paths, "--config", str(config)])
    by_flag = _run_quietly([name, *paths, f"{flag}={value}"])
    assert by_config[0] == by_flag[0], (by_config, by_flag)
    assert by_config[1].replace(f"malformed {key} {value!r}: ", "", 1) == by_flag[1].replace(
        f"malformed {key} {str(value)!r}: ", "", 1
    )


def test_sweep_csv(workspace):
    root, task, model = workspace
    out = root / "sweep.csv"
    assert run([
        "sweep", "--task", str(task), "--model", str(model),
        "--lambdas", "0.6,0.7", "--label-modes", "hard", "--seeds", "0,1",
        "--out", str(out),
    ]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "lambda,label_mode,mean_ece,std_ece,n_seeds"
    assert len(lines) == 3


def test_history_output(workspace):
    root, task, _ = workspace
    model2 = root / "model2.json"
    hist = root / "hist.csv"
    assert run([
        "train", "--task", str(task), "--epochs", "10", "--seed", "0",
        "--out", str(model2), "--history-out", str(hist),
    ]) == 0
    assert hist.read_text().splitlines()[0] == "epoch,source_loss,target_error,target_nll"


def test_history_of_a_task_without_target_labels_is_a_one_line_error(workspace, tmp_path, capsys):
    root, task, _ = workspace
    unlabeled = tmp_path / "unlabeled.json"
    unlabeled.write_text(json.dumps({**json.loads(task.read_text()), "target_labels": None}))
    model, hist = tmp_path / "model.json", tmp_path / "hist.csv"
    assert run([
        "train", "--task", str(unlabeled), "--epochs", "3", "--out", str(model),
        "--history-out", str(hist),
    ]) == 1
    assert capsys.readouterr().err == (
        "error: LabelsRequiredError: training history scores the target and needs its labels\n"
    )
    assert not model.exists() and not hist.exists()


def test_train_on_a_task_without_source_data_is_a_one_line_error(workspace, tmp_path, capsys):
    root, task, _ = workspace
    target_only = tmp_path / "target_only.json"
    doc = {**json.loads(task.read_text()), "source_inputs": None, "source_labels": None}
    target_only.write_text(json.dumps(doc))
    model = tmp_path / "model.json"
    assert run(["train", "--task", str(target_only), "--epochs", "3", "--out", str(model)]) == 1
    assert capsys.readouterr().err == "error: InvalidInputError: training requires source data\n"
    assert not model.exists()


def test_config_file_with_flag_override(workspace, tmp_path):
    root, task, model = workspace
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"lam": 0.7, "seed": 9}))
    out1 = tmp_path / "c1.json"
    out2 = tmp_path / "c2.json"
    # config supplies lam and seed
    assert run([
        "calibrate", "--task", str(task), "--model", str(model),
        "--config", str(config), "--out", str(out1),
    ]) == 0
    # explicit flag beats config
    assert run([
        "calibrate", "--task", str(task), "--model", str(model),
        "--config", str(config), "--lambda", "0.65", "--out", str(out2),
    ]) == 0
    t1 = json.loads(out1.read_text())["temperature"]
    t2 = json.loads(out2.read_text())["temperature"]
    assert t1 != t2


def test_config_keys_of_other_commands_are_ignored(workspace, tmp_path):
    """One config can serve calibrate and evaluate: each reads its own keys only."""
    root, task, model = workspace
    config = tmp_path / "config.json"
    # methods and bins are evaluate's, lambdas sweep's; a malformed value there goes unread
    config.write_text(json.dumps({"seed": 9, "methods": "none", "bins": 7.9, "lambdas": ","}))
    outs = [tmp_path / "by_config.json", tmp_path / "by_flag.json"]
    common = ["calibrate", "--task", str(task), "--model", str(model)]
    assert run([*common, "--config", str(config), "--out", str(outs[0])]) == 0
    assert run([*common, "--seed", "9", "--out", str(outs[1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_malformed_config_is_usage_error(workspace, tmp_path, capsys):
    root, task, model = workspace
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2, 3]")
    code = run([
        "calibrate", "--task", str(task), "--model", str(model),
        "--config", str(bad), "--out", str(tmp_path / "c.json"),
    ])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


def test_generate_with_target_priors(tmp_path, capsys):
    out = tmp_path / "partial.json"
    assert run([
        "generate", "--target-priors", "0.5,0.5,0,0,0",
        "--n-source", "100", "--n-target", "100", "--seed", "1",
        "--out", str(out),
    ]) == 0
    assert set(synthetic.load_task(out).target_labels.tolist()) == {0, 1}
    # malformed priors are a usage error
    assert run([
        "generate", "--target-priors", "0.5,oops", "--out", str(tmp_path / "x.json"),
    ]) == 2
    # a prior count other than the class count is ShiftSpec's rule, so exit 1
    capsys.readouterr()
    assert run([
        "generate", "--target-priors", "0.5,0.5", "--out", str(tmp_path / "x.json"),
    ]) == 1
    assert capsys.readouterr().err == (
        "error: InvalidSpecError: target priors must have one entry per class\n"
    )


def test_generate_rejects_a_size_numpy_cannot_shape(tmp_path, capsys):
    # numpy refuses a 10 x 10**20 shape without allocating; ShiftSpec rejects it first.
    out = tmp_path / "huge.json"
    assert run([
        "generate", "--dim", "100000000000000000000", "--n-source", "10", "--n-target", "10",
        "--out", str(out),
    ]) == 1
    assert capsys.readouterr().err == (
        "error: InvalidSpecError: a 10 x 100000000000000000000 array is too large for numpy\n"
    )
    assert not out.exists()


def test_flag_equals_double_dash_is_the_text_double_dash(workspace, tmp_path):
    # argparse (3.11) hands --flag=-- over as an empty list; the option reads it as "--".
    root, task, model = workspace
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"mixup_epochs": "--"}))
    base = ["calibrate", "--task", str(task), "--model", str(model), "--out", str(tmp_path / "c.json")]
    expected = (2, "error: malformed mixup_epochs '--': invalid literal for int() with base 10: '--'\n")
    assert _run_quietly([*base, "--mixup-epochs=--"]) == expected
    assert _run_quietly([*base, "--config", str(config)]) == expected


def test_subcommands_do_not_mutate_inputs(workspace, tmp_path):
    root, task, model = workspace
    before = file_hash(task), file_hash(model)
    run([
        "evaluate", "--task", str(task), "--model", str(model),
        "--methods", "none,pseudocal", "--seed", "1",
        "--out", str(tmp_path / "r.json"),
    ])
    run([
        "sweep", "--task", str(task), "--model", str(model),
        "--lambdas", "0.6", "--label-modes", "hard", "--seeds", "0",
        "--out", str(tmp_path / "s.csv"),
    ])
    assert (file_hash(task), file_hash(model)) == before


def test_commands_without_options_write_the_library_defaults(tmp_path):
    """Every command given no option runs the library's defaults."""
    task = synthetic.generate(synthetic.ShiftSpec())
    model = synthetic.train(task)
    calibrator = pseudo_target.calibrate(model, task.target_inputs)
    synthetic.save_task(task, tmp_path / "lib_task.json")
    synthetic.save_model(model, tmp_path / "lib_model.json")
    scalers.save_calibrator(calibrator, tmp_path / "lib_cal.json")
    (tmp_path / "lib_result.json").write_text(report.evaluate_all(model, task).to_json())
    report.sweep_to_csv(report.lambda_sweep(model, task), tmp_path / "lib_sweep.csv")

    task_path, model_path = tmp_path / "task.json", tmp_path / "model.json"
    assert run(["generate", "--out", str(task_path)]) == 0
    assert run(["train", "--task", str(task_path), "--out", str(model_path)]) == 0
    for command, out in (("calibrate", "cal.json"), ("evaluate", "result.json"), ("sweep", "sweep.csv")):
        assert run([
            command, "--task", str(task_path), "--model", str(model_path),
            "--out", str(tmp_path / out),
        ]) == 0
    for name in ("task.json", "model.json", "cal.json", "result.json", "sweep.csv"):
        assert file_hash(tmp_path / name) == file_hash(tmp_path / f"lib_{name}")


def test_evaluate_writes_every_file_and_exits_0_when_a_method_fails(workspace, capsys):
    root, task, _ = workspace
    model = root / "model_short.json"
    assert run(["train", "--task", str(task), "--epochs", "5", "--seed", "3", "--out", str(model)]) == 0
    capsys.readouterr()
    out, table, bins = root / "result_short.json", root / "table_short.txt", root / "bins_short.csv"
    assert run([
        "evaluate", "--task", str(task), "--model", str(model), "--methods", "none,filtered_pl",
        "--out", str(out), "--table-out", str(table), "--bins-out", str(bins),
    ]) == 0
    error = json.loads(out.read_text())["failed"]["filtered_pl"]
    assert error.startswith("EmptyFilterError: ")
    assert table.read_text() == capsys.readouterr().out
    assert table.read_text().splitlines()[-1] == f"filtered_pl failed: {error}"
    assert {line.split(",")[0] for line in bins.read_text().splitlines()[1:]} == {"none"}


def test_ensemble_row_trains_members_as_the_model_was_trained(tmp_path):
    task_path, model_path, out = tmp_path / "task.json", tmp_path / "model.json", tmp_path / "r.json"
    assert run([
        "generate", "--n-source", "300", "--n-target", "300", "--mean-shift", "1.0",
        "--seed", "2", "--out", str(task_path),
    ]) == 0
    assert run([
        "train", "--task", str(task_path), "--epochs", "40", "--lr", "0.2", "--gamma", "2.5",
        "--seed", "2", "--out", str(model_path),
    ]) == 0
    assert run([
        "evaluate", "--task", str(task_path), "--model", str(model_path),
        "--methods", "ensemble", "--seed", "6", "--out", str(out),
    ]) == 0

    task, model = synthetic.load_task(task_path), synthetic.load_model(model_path)
    assert model.train_config == {"epochs": 40, "lr": 0.2, "gamma": 2.5, "seed": 2}
    config = {key: value for key, value in model.train_config.items() if key != "seed"}
    ensemble = synthetic.train(task, **config, seed=range(6, 6 + 5))
    batch = PredictionBatch(
        logits=ensemble.predict_logits(task.target_inputs), labels=task.target_labels
    )
    assert json.loads(out.read_text())["methods"]["ensemble"] == {
        "ece": ece(batch, DEFAULT_BINS),
        "nll": mean_nll(batch),
        "brier": mean_brier(batch),
        "accuracy": batch.accuracy(),
        "temperature": None,
    }


def test_cli_holds_no_library_default_and_no_copied_choice_list():
    """Defaults and choice lists live in the library; the CLI names none of their values."""
    source = Path(cli.__file__).read_text()
    names = [
        node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute)
        else node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
    ]
    assert [name for name in names if name.startswith("DEFAULT_")] == []


def test_cli_makes_no_pipeline_step_of_its_own():
    """The CLI converts, loads, calls the library and writes; PseudoCal's target pass is
    ``pseudo_target.pseudo_set``, and no numerics primitive is called from here."""
    tree = ast.parse(Path(cli.__file__).read_text())
    names = {
        node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute)
        else node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
    }
    assert names & {"infer", "synthesize", "argmax_rows"} == set()
    imported = [
        name
        for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in (getattr(node, "module", None) or "", *(alias.name for alias in node.names))
    ]
    assert [name for name in imported if name.split(".")[-1] == "numerics"] == []


def test_cli_branches_on_type_only_in_reading_the_config():
    """No converter tests a value's type: every option converts from its flag's text."""
    tree = ast.parse(Path(cli.__file__).read_text())

    def isinstance_calls(node):
        return [call for call in ast.walk(node)
                if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "isinstance"]

    (reader,) = [node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "_config_from_dict"]
    assert isinstance_calls(tree) == isinstance_calls(reader) != []


def test_the_readme_names_every_subcommand_flag_and_method():
    """The user guide names whatever a caller can type: each subcommand, flag and method."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (commands,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(commands.choices) == set(cli._COMMANDS)
    flags = {
        flag
        for parser in commands.choices.values()
        for action in parser._actions if not isinstance(action, argparse._HelpAction)
        for flag in action.option_strings
    }
    assert "--config" in flags
    missing = [name for name in (*cli._COMMANDS, *report.METHODS) if f"`{name}`" not in text]
    missing += [flag for flag in sorted(flags) if not re.search(re.escape(flag) + r"(?![\w-])", text)]
    assert missing == []


def test_unwritable_output_is_a_one_line_error(tmp_path, capsys):
    out = tmp_path / "missing" / "task.json"
    assert run(["generate", "--n-source", "100", "--n-target", "100", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert not out.parent.exists()


def test_a_null_config_value_is_a_usage_error(workspace, tmp_path, capsys):
    """JSON null converts as the text None, which no option takes: a usage error for every
    key the command takes, and as a flag's value too."""
    root, task, model = workspace
    config, out = tmp_path / "config.json", tmp_path / "never.json"
    docs = ["--task", str(task), "--model", str(model), "--out", str(out)]
    rule = "null, or None, is no option's value"
    for command, key in [("calibrate", "label_mode"), ("evaluate", "methods"), ("sweep", "label_modes")]:
        config.write_text(json.dumps({key: None}))
        assert run([command, *docs, "--config", str(config)]) == 2
        assert capsys.readouterr().err == f"error: malformed {key} None: {rule}\n"
        assert not out.exists()
    assert run(["calibrate", *docs, "--label-mode", "None"]) == 2
    assert capsys.readouterr().err == f"error: malformed label_mode 'None': {rule}\n"
    # A key that only other commands take is still ignored.
    config.write_text(json.dumps({"methods": None}))
    assert run(["calibrate", *docs, "--config", str(config)]) == 0


@pytest.mark.filterwarnings("error")  # a warning would be one more stderr line
def test_a_non_finite_result_is_a_one_line_error(tmp_path, capsys):
    task, model = overflow_cell()
    task_path, model_path, out = tmp_path / "task.json", tmp_path / "model.json", tmp_path / "r.json"
    synthetic.save_task(task, task_path)
    synthetic.save_model(model, model_path)
    argv = ["evaluate", "--task", str(task_path), "--model", str(model_path), "--methods", "none"]
    assert run([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: InvalidInputError: cannot write a JSON document:")
    assert err.count("\n") == 1
    assert not out.exists()
