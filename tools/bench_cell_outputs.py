"""Write every output of the README's command-line cell, and of the five demos, into one directory.

Usage::

    PYTHONPATH=<tree>/src python tools/bench_cell_outputs.py OUTDIR

Each command runs through ``pseudocal.cli.main`` with OUTDIR as the
working directory, so its documents land there under fixed relative
names, next to its stdout, stderr and exit code (``<step>.stdout``,
``<step>.stderr``, ``<step>.exit``). Then each demo of the tree that
``pseudocal`` was imported from runs in its own ``demo-<name>``
directory, its output recorded the same way. Two trees write the same
outputs byte for byte when ``diff -r`` of their two directories prints
nothing.
"""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pseudocal
from pseudocal import cli

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
    "evaluate": ["evaluate", *DOCS, "--seed", "7", "--methods", METHODS, "--out", "result.json",
                 "--table-out", "table.txt", "--bins-out", "bins.csv"],
    # The soft fits of evaluate_all: pseudocal's and its ablations' against mixup's soft targets.
    "evaluate_soft": ["evaluate", *DOCS, "--seed", "7", "--label-mode", "soft",
                      "--methods", "none,temp_oracle,pseudocal,pseudocal_same,beta_mixup",
                      "--out", "result_soft.json", "--table-out", "table_soft.txt",
                      "--bins-out", "bins_soft.csv"],
    "sweep": ["sweep", *DOCS, "--out", "sweep.csv"],
    # A 5-epoch model is too unsure for filtered_pl's 0.95 confidence filter,
    # so this evaluate records that method as failed and scores the others.
    "train_short": ["train", "--task", "task.json", "--epochs", "5", "--seed", "0",
                    "--out", "model_short.json"],
    "evaluate_short": ["evaluate", "--task", "task.json", "--model", "model_short.json", "--seed", "7",
                       "--methods", "none,filtered_pl,pseudocal", "--out", "result_short.json",
                       "--table-out", "table_short.txt", "--bins-out", "bins_short.csv"],
}


def record(stem, stdout, stderr, code):
    for suffix, text in ((".stdout", stdout), (".stderr", stderr), (".exit", f"{code}\n")):
        Path(f"{stem}{suffix}").write_text(text)


def main(argv):
    if len(argv) != 1:
        print("usage: bench_cell_outputs.py OUTDIR", file=sys.stderr)
        return 2
    src = Path(pseudocal.__file__).resolve().parents[1]
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    os.chdir(out)
    for step, args in STEPS.items():
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(args)
        record(step, stdout.getvalue(), stderr.getvalue(), code)
    env = dict(os.environ, PYTHONPATH=str(src))
    for demo in sorted((src.parent / "demos").glob("*.py")):
        run = Path(f"demo-{demo.stem}")
        run.mkdir(exist_ok=True)
        proc = subprocess.run([sys.executable, str(demo)], cwd=run, env=env, capture_output=True, text=True)
        record(run / "demo", proc.stdout, proc.stderr, proc.returncode)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
