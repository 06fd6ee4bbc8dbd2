"""Write every output of the README's command-line cell, and of the five demos, into one directory.

Usage::

    PYTHONPATH=<tree>/src python tools/bench_cell_outputs.py OUTDIR

Each command runs through ``pseudocal.cli.main`` with OUTDIR as the
working directory, so its documents land there under fixed relative
names, next to its stdout, stderr and exit code (``<step>.stdout``,
``<step>.stderr``, ``<step>.exit``). A few steps must fail, so that their
one-line errors are compared too. Then each demo of the tree that
``pseudocal`` was imported from runs in its own ``demo-<name>``
directory, its output recorded the same way. Two trees write the same
outputs byte for byte when ``diff -r`` of their two directories prints
nothing.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pseudocal
from pseudocal import cli, synthetic

DOCS = ("--task", "task.json", "--model", "model.json")
METHODS = (
    "none,temp_oracle,vector,matrix,pseudocal,pseudo_label,filtered_pl,pseudocal_same,beta_mixup,ensemble"
)
STEPS = {
    "generate": ["generate", "--mean-shift", "1.0", "--rotation", "0.45", "--seed", "0",
                 "--out", "task.json"],
    "train": ["train", "--task", "task.json", "--gamma", "3.0", "--seed", "0", "--out", "model.json",
              "--history-out", "history.csv"],
    "calibrate_hard": ["calibrate", *DOCS, "--seed", "0", "--out", "calibrator_hard.json",
                       "--provenance-out", "pairs_hard.csv"],
    "calibrate_soft": ["calibrate", *DOCS, "--seed", "0", "--label-mode", "soft",
                       "--out", "calibrator_soft.json", "--provenance-out", "pairs_soft.csv"],
    "calibrate_beta": ["calibrate", *DOCS, "--seed", "0", "--lambda-policy", "beta", "--mixup-epochs", "3",
                       "--out", "calibrator_beta.json", "--provenance-out", "pairs_beta.csv"],
    # The beta policy draws each pair's ratio, so a --lambda beside it plays no part.
    "calibrate_beta_lambda": ["calibrate", *DOCS, "--seed", "0", "--lambda-policy", "beta",
                              "--lambda", "0.3", "--out", "calibrator_beta_lambda.json",
                              "--provenance-out", "pairs_beta_lambda.csv"],
    # The same-label ablation: every provenance row's pl_a equals its pl_b.
    "calibrate_same": ["calibrate", *DOCS, "--seed", "0", "--pairing", "same",
                       "--out", "calibrator_same.json", "--provenance-out", "pairs_same.csv"],
    "evaluate": ["evaluate", *DOCS, "--seed", "7", "--methods", METHODS, "--out", "result.json",
                 "--table-out", "table.txt", "--bins-out", "bins.csv"],
    # The soft fits of evaluate_all: pseudocal's and its ablations' against mixup's soft targets.
    "evaluate_soft": ["evaluate", *DOCS, "--seed", "7", "--label-mode", "soft",
                      "--methods", "none,temp_oracle,pseudocal,pseudocal_same,beta_mixup",
                      "--out", "result_soft.json", "--table-out", "table_soft.txt",
                      "--bins-out", "bins_soft.csv"],
    "sweep": ["sweep", *DOCS, "--out", "sweep.csv"],
    # A target set big enough that calibrate's pseudo set (19,101 rows) takes the
    # temperature fit's row-sample start.
    "generate_large": ["generate", "--n-target", "24000", "--mean-shift", "1.0", "--rotation", "0.45",
                       "--seed", "0", "--out", "task_large.json"],
    "train_large": ["train", "--task", "task_large.json", "--gamma", "3.0", "--seed", "0",
                    "--out", "model_large.json"],
    "calibrate_large": ["calibrate", "--task", "task_large.json", "--model", "model_large.json",
                        "--seed", "0", "--out", "calibrator_large.json",
                        "--provenance-out", "pairs_large.csv"],
    # The same set's multi-block soft fit (19,101 rows, 5 blocks), and a cold
    # multi-block hard fit: same-label pairing keeps 4,899 rows, under the
    # row-sample threshold.
    "calibrate_large_soft": ["calibrate", "--task", "task_large.json", "--model", "model_large.json",
                             "--seed", "0", "--label-mode", "soft", "--out", "calibrator_large_soft.json",
                             "--provenance-out", "pairs_large_soft.csv"],
    "calibrate_large_same": ["calibrate", "--task", "task_large.json", "--model", "model_large.json",
                             "--seed", "0", "--pairing", "same", "--out", "calibrator_large_same.json",
                             "--provenance-out", "pairs_large_same.csv"],
    # A 5-epoch model is too unsure for filtered_pl's 0.95 confidence filter,
    # so this evaluate records that method as failed and scores the others.
    "train_short": ["train", "--task", "task.json", "--epochs", "5", "--seed", "0",
                    "--out", "model_short.json"],
    "evaluate_short": ["evaluate", "--task", "task.json", "--model", "model_short.json", "--seed", "7",
                       "--methods", "none,filtered_pl,pseudocal", "--out", "result_short.json",
                       "--table-out", "table_short.txt", "--bins-out", "bins_short.csv"],
    # Two source rows: 1.5 rounds to 2 training rows, so the validation split is empty.
    "generate_two_rows": ["generate", "--classes", "2", "--n-source", "2", "--n-target", "40",
                          "--seed", "3", "--out", "task_two_rows.json"],
    "train_two_rows": ["train", "--task", "task_two_rows.json", "--epochs", "5",
                       "--out", "model_two_rows.json"],
}
# A copy of task.json whose arrays are JSON lists, as task documents were
# first written: its calibrator and provenance equal calibrate_hard's.
LIST_FORM_STEPS = {
    "calibrate_task_lists": ["calibrate", "--task", "task_lists.json", "--model", "model.json",
                             "--seed", "0", "--out", "calibrator_task_lists.json",
                             "--provenance-out", "pairs_task_lists.csv"],
}
# Steps that must fail, so that each error line is an output too.
# calibrate_version_true reads a copy of task.json whose schema_version is
# JSON's true, not 1, calibrate_label_mode_config a config holding an
# unknown label mode and calibrate_label_mode_null one holding null.
# evaluate_non_finite scores a model whose logit rows [1e308, -1e308] span
# more than the float range and put probability 0 on their label, so its
# NLL is infinite, which JSON cannot hold.
FAILING_STEPS = {
    "generate_one_class": ["generate", "--classes", "1", "--out", "task_one_class.json"],
    "evaluate_unknown_method": ["evaluate", *DOCS, "--methods", "none,bogus",
                                "--out", "result_unknown_method.json"],
    "sweep_repeated_seed": ["sweep", *DOCS, "--seeds", "1,1", "--out", "sweep_repeated_seed.csv"],
    "calibrate_version_true": ["calibrate", "--task", "task_version_true.json", "--model", "model.json",
                               "--seed", "0", "--out", "calibrator_version_true.json"],
    "calibrate_lambda_half": ["calibrate", *DOCS, "--lambda", "0.5", "--out", "calibrator_lambda_half.json"],
    "calibrate_label_mode_flag": ["calibrate", *DOCS, "--label-mode", "fuzzy",
                                  "--out", "calibrator_label_mode_flag.json"],
    "calibrate_label_mode_config": ["calibrate", *DOCS, "--config", "label_mode_fuzzy.json",
                                    "--out", "calibrator_label_mode_config.json"],
    "calibrate_label_mode_null": ["calibrate", *DOCS, "--config", "label_mode_null.json",
                                  "--out", "calibrator_label_mode_null.json"],
    "evaluate_non_finite": ["evaluate", "--task", "task_overflow.json", "--model", "model_overflow.json",
                            "--methods", "none", "--out", "result_non_finite.json"],
    "evaluate_empty_val": ["evaluate", "--task", "task_two_rows.json", "--model", "model_two_rows.json",
                           "--methods", "none,vector", "--out", "result_empty_val.json"],
}


def record(stem, stdout, stderr, code):
    for suffix, text in ((".stdout", stdout), (".stderr", stderr), (".exit", f"{code}\n")):
        Path(f"{stem}{suffix}").write_text(text)


def run_steps(steps):
    for step, args in steps.items():
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(args)
        record(step, stdout.getvalue(), stderr.getvalue(), code)


def main(argv):
    if len(argv) != 1:
        print("usage: bench_cell_outputs.py OUTDIR", file=sys.stderr)
        return 2
    src = Path(pseudocal.__file__).resolve().parents[1]
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    os.chdir(out)
    run_steps(STEPS)
    task = json.loads(Path("task.json").read_text())
    loaded = synthetic.load_task("task.json")
    lists = {key: getattr(loaded, key).tolist()
             for key in ("source_inputs", "source_labels", "target_inputs", "target_labels")}
    Path("task_lists.json").write_text(json.dumps({**task, **lists}))
    run_steps(LIST_FORM_STEPS)
    Path("task_version_true.json").write_text(json.dumps({**task, "schema_version": True}))
    Path("label_mode_fuzzy.json").write_text(json.dumps({"label_mode": "fuzzy"}))
    Path("label_mode_null.json").write_text(json.dumps({"label_mode": None}))
    spec = synthetic.ShiftSpec(n_classes=2, dim=2, n_source=2, n_target=4)
    synthetic.save_task(synthetic.SyntheticTask(
        spec=spec, target_inputs=[[1, 0], [0, 1], [1, 0], [0, 1]], target_labels=[1, 0, 1, 0]
    ), "task_overflow.json")
    model = synthetic.TrainedClassifier(weights=[[1e308, -1e308], [0, 1]], bias=[0, 0])
    synthetic.save_model(model, "model_overflow.json")
    run_steps(FAILING_STEPS)
    env = dict(os.environ, PYTHONPATH=str(src))
    for demo in sorted((src.parent / "demos").glob("*.py")):
        run = Path(f"demo-{demo.stem}")
        run.mkdir(exist_ok=True)
        proc = subprocess.run([sys.executable, str(demo)], cwd=run, env=env, capture_output=True, text=True)
        record(run / "demo", proc.stdout, proc.stderr, proc.returncode)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
