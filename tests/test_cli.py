import hashlib
import json

import pytest

from pseudocal import cli


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
    assert code == 2
    assert captured.err.startswith("error:")
    assert not (root / "bad.json").exists()


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
    ],
    ids=["source-label-7", "source-labels-short", "narrow-target-inputs", "1d-target-inputs",
         "val-fraction-2", "empty-ensemble", "config-seed-string", "config-epochs-inf",
         "config-seed-negative", "train-config-epochs-string", "spec-mean-shift-string",
         "sweep-no-lambdas", "sweep-no-label-modes", "methods-repeated"],
)
def test_malformed_input_is_a_one_line_error(
    workspace, tmp_path, capsys, command, damaged, damage, code
):
    root, task, model = workspace
    docs = {"task": json.loads(task.read_text()), "model": json.loads(model.read_text()), "config": {}}
    damage(docs[damaged])
    paths = {"task": task, "model": model}
    paths[damaged] = tmp_path / f"{damaged}.json"
    paths[damaged].write_text(json.dumps(docs[damaged]))
    out = tmp_path / "never.json"
    argv = [command, "--task", str(paths["task"]), "--out", str(out)]
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
    doc = json.loads(out.read_text())
    assert set(doc["target_labels"]) == {0, 1}
    # malformed priors are a usage error
    assert run([
        "generate", "--target-priors", "0.5,oops", "--out", str(tmp_path / "x.json"),
    ]) == 2
    assert run([
        "generate", "--target-priors", "0.5,0.5", "--out", str(tmp_path / "x.json"),
    ]) == 2
    capsys.readouterr()


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
