"""The three benchmark workloads: their cells, CLI operations and output checks.

A cell is a task and a trained model, made by ``pseudocal generate`` and
``pseudocal train``. The benchmark seed picks the classifier's
initialisation (``train --seed``); the task data (data seed 0) and the
operations' own seeds stay at one fixed draw. Calibrated ECE moves by a
third or more between drawn tasks and between mixup draws on one task,
more than a regression bound may allow, while at fixed draws it is a
deterministic guard against changed outputs.

Output checks never pin today's numbers. They test properties any correct
implementation has, against values recomputed from the written documents.
"""

import csv
import json
import os
from dataclasses import dataclass

import numpy as np

from pseudocal import metrics, pseudo_target, scalers, synthetic

# Pinned here rather than read from report.METHODS, so that the workload
# stays the same when the method registry changes.
COMPARE_METHODS = (
    "none",
    "temp_oracle",
    "vector",
    "matrix",
    "pseudocal",
    "pseudo_label",
    "filtered_pl",
    "pseudocal_same",
    "beta_mixup",
    "ensemble",
)
# Methods whose calibrator is a temperature, which never changes a prediction.
TEMPERATURE_METHODS = ("temp_oracle", "pseudocal", "pseudo_label", "filtered_pl",
                       "pseudocal_same", "beta_mixup")
SWEEP_LAMBDAS = (0.51, 0.55, 0.6, 0.65, 0.7, 0.8, 0.9)
SWEEP_MODES = ("hard", "soft")
SWEEP_SEEDS = 5

# Local-minimum check of a temperature fit (hard or soft labels): the exact NLL at
# the fitted T may exceed its value at T * (1 -/+ LOCAL_MIN_STEP), clipped
# to [T_MIN, T_MAX], by at most LOCAL_MIN_SLACK nats.
LOCAL_MIN_STEP = 0.01
LOCAL_MIN_SLACK = 1e-9


@dataclass(frozen=True)
class Cell:
    """``pseudocal generate`` and ``pseudocal train`` flags of one cell."""

    classes: int
    dim: int
    n_source: int
    n_target: int
    epochs: int = synthetic.DEFAULT_EPOCHS
    mean_shift: float = 1.0
    rotation: float = 0.45
    gamma: float = 3.0
    data_seed: int = 0

    def generate_argv(self, task_path):
        return ["generate", "--classes", str(self.classes), "--dim", str(self.dim),
                "--n-source", str(self.n_source), "--n-target", str(self.n_target),
                "--mean-shift", str(self.mean_shift), "--rotation", str(self.rotation),
                "--seed", str(self.data_seed), "--out", task_path]

    def train_argv(self, task_path, model_path, seed):
        return ["train", "--task", task_path, "--epochs", str(self.epochs),
                "--gamma", str(self.gamma), "--seed", str(seed), "--out", model_path]


    def setup_argvs(self, task_path, model_path, seed):
        """The CLI calls of one set-up: ``generate``, then ``train``."""
        return [self.generate_argv(task_path), self.train_argv(task_path, model_path, seed)]


# The bench cell of tests/_util.py (BENCH_SPEC, BENCH_TRAIN) and the wide
# cell of the roadmap. Workloads read them when constructed.
BENCH_CELL = Cell(classes=5, dim=10, n_source=2000, n_target=2000)
LARGE_CELL = Cell(classes=100, dim=16, n_source=5000, n_target=100_000)


class Context:
    """Documents of one set-up cell and values recomputed from them for checks."""

    def __init__(self, workdir, seed):
        self.seed = seed
        self.task_path = os.path.join(workdir, f"task-{seed}.json")
        self.model_path = os.path.join(workdir, f"model-{seed}.json")
        self._loaded = None

    def loaded(self):
        """(task, model, target logits), loaded on first use and kept.

        Only checks call it, after the timed loop has taken its memory readings.
        """
        if self._loaded is None:
            task = synthetic.load_task(self.task_path)
            model = synthetic.load_model(self.model_path)
            self._loaded = (task, model, model.predict_logits(task.target_inputs))
        return self._loaded

    def target_accuracy(self):
        task, _, logits = self.loaded()
        return float(np.mean(np.argmax(logits, axis=1) == task.target_labels))


def exact_nll(logits, target, t):
    """Mean NLL of softmax(logits / t) by logsumexp, with no probability clamp.

    ``target`` holds hard labels (length n) or soft labels (n x C rows summing to 1).
    """
    z = logits / t
    zmax = z.max(axis=1)
    lse = zmax + np.log(np.exp(z - zmax[:, None]).sum(axis=1))
    if target.ndim == 2:
        return float(np.mean(lse - np.sum(target * z, axis=1)))
    return float(np.mean(lse - z[np.arange(len(target)), target]))


def fit_failure(logits, target, t):
    """None when T lies in [T_MIN, T_MAX] at a local minimum of the exact NLL, else a message."""
    if t is None or not scalers.T_MIN <= t <= scalers.T_MAX:
        return f"temperature {t} outside [{scalers.T_MIN}, {scalers.T_MAX}]"
    here = exact_nll(logits, target, t)
    for probe in (t * (1 - LOCAL_MIN_STEP), t * (1 + LOCAL_MIN_STEP)):
        probe = min(max(probe, scalers.T_MIN), scalers.T_MAX)
        there = exact_nll(logits, target, probe)
        if here > there + LOCAL_MIN_SLACK:
            return f"T={t:.6g} is no local NLL minimum ({here:.9g} > {there:.9g} at T={probe:.6g})"
    return None


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class Compare:
    """``evaluate`` with every method: affine fits and ensemble training dominate."""

    name = "compare"
    cells_per_run = 3
    min_invocations = 3
    setups = 6
    checks_fits = True

    def __init__(self):
        self.cell = BENCH_CELL

    def argv(self, ctx, out):
        return ["evaluate", "--task", ctx.task_path, "--model", ctx.model_path,
                "--methods", ",".join(COMPARE_METHODS), "--out", out + ".json",
                "--bins-out", out + "-bins.csv"]

    def check(self, ctx, out, counter, fits):
        with open(out + ".json") as fh:
            rows = json.load(fh)["methods"]
        if sorted(rows) != sorted(COMPARE_METHODS):
            return [f"result.json holds methods {sorted(rows)}"]
        failures = []
        for name in TEMPERATURE_METHODS:
            t = rows[name]["temperature"]
            if fits is not None and t not in fits.temperatures:
                failures.append(f"{name}: reported T={t} was never fitted")
            if rows[name]["accuracy"] != rows["none"]["accuracy"]:
                failures.append(f"{name}: a temperature changed the accuracy")
        for name, row in rows.items():
            if not 0.0 <= row["ece"] <= 1.0:
                failures.append(f"{name}: ECE {row['ece']} outside [0, 1]")
        counts = {}
        for row in _read_csv(out + "-bins.csv"):
            counts[row["method"]] = counts.get(row["method"], 0) + int(row["count"])
        if counts != {m: self.cell.n_target for m in COMPARE_METHODS}:
            failures.append(f"bins CSV counts per method {counts} != {self.cell.n_target}")
        return failures + (fits.failures if fits is not None else [])

    def ece(self, ctx, out):
        with open(out + ".json") as fh:
            return json.load(fh)["methods"]["pseudocal"]["ece"]


class Sweep:
    """Default ``sweep`` grid: many small temperature fits and syntheses."""

    name = "sweep"
    cells_per_run = 4
    min_invocations = 4
    setups = 8
    checks_fits = True

    def __init__(self):
        self.cell = BENCH_CELL

    def argv(self, ctx, out):
        return ["sweep", "--task", ctx.task_path, "--model", ctx.model_path,
                "--out", out + ".csv"]

    def check(self, ctx, out, counter, fits):
        rows = _read_csv(out + ".csv")
        grid = sorted((float(r["lambda"]), r["label_mode"]) for r in rows)
        expected = sorted((lam, mode) for lam in SWEEP_LAMBDAS for mode in SWEEP_MODES)
        if grid != expected:
            return [f"sweep CSV cells {grid} != {expected}"]
        failures = list(fits.failures) if fits is not None else []
        for r in rows:
            if int(r["n_seeds"]) != SWEEP_SEEDS:
                failures.append(f"sweep row {r} averages over {r['n_seeds']} seeds")
            if not 0.0 <= float(r["mean_ece"]) <= 1.0 or float(r["std_ece"]) < 0.0:
                failures.append(f"sweep row {r} holds an impossible ECE")
        return failures

    def ece(self, ctx, out):
        return float(np.mean([float(r["mean_ece"]) for r in _read_csv(out + ".csv")]))


class CalibrateLarge:
    """``calibrate`` with provenance on a 100-class, 100k-sample cell."""

    name = "calibrate_large"
    cells_per_run = 1
    # One operation takes about 20 s; three give op_s a median of its own.
    min_invocations = 3
    setups = 3
    # Checking the 97k x 100 fit in line would add seconds of numpy work and
    # memory to the invocation; the check rebuilds the pseudo set from the
    # provenance CSV after the timed loop instead.
    checks_fits = False

    def __init__(self):
        self.cell = LARGE_CELL

    def argv(self, ctx, out):
        return ["calibrate", "--task", ctx.task_path, "--model", ctx.model_path,
                "--out", out + ".json", "--provenance-out", out + "-provenance.csv"]

    def check(self, ctx, out, counter, fits):
        cal = scalers.load_calibrator(out + ".json")
        if cal.kind != "temperature":
            return [f"calibrator kind {cal.kind}"]
        task, model, logits = ctx.loaded()
        n = len(task.target_labels)
        prov = np.loadtxt(out + "-provenance.csv", delimiter=",", skiprows=1, ndmin=2)
        index_a, index_b = prov[:, 0].astype(int), prov[:, 1].astype(int)
        lam = prov[:, 2]
        pl_a, pl_b, y_pt, correct = (prov[:, k].astype(int) for k in (3, 4, 5, 6))
        failures = []
        # Every inference call on other than the target set is on the pseudo set.
        pseudo_sizes = {r for r in counter.call_rows if r != n}
        if pseudo_sizes != {len(prov)}:
            failures.append(f"provenance has {len(prov)} rows, pseudo set(s) {pseudo_sizes}")
        pl = np.argmax(logits, axis=1)
        if not (np.array_equal(pl_a, pl[index_a]) and np.array_equal(pl_b, pl[index_b])):
            failures.append("provenance pseudo labels disagree with the model")
        if np.any(pl_a == pl_b) or not np.allclose(lam, pseudo_target.DEFAULT_LAMBDA):
            failures.append("provenance holds a pair the default mixup would not make")
        if not np.array_equal(y_pt, pl_a):
            failures.append("provenance label is not the dominant sample's pseudo label")
        x = task.target_inputs
        mixed = lam[:, None] * x[index_a] + (1 - lam[:, None]) * x[index_b]
        mixed_logits = model.predict_logits(mixed)
        if not np.array_equal(correct, (np.argmax(mixed_logits, axis=1) == y_pt).astype(int)):
            failures.append("provenance correctness flags disagree with the model")
        failure = fit_failure(mixed_logits, y_pt, cal.temperature)
        return failures + ([f"written calibrator: {failure}"] if failure else [])

    def ece(self, ctx, out):
        task, _, logits = ctx.loaded()
        cal = scalers.load_calibrator(out + ".json")
        batch = metrics.PredictionBatch(logits=logits, labels=task.target_labels)
        return metrics.ece(cal.apply(batch))


WORKLOADS = {w.name: w for w in (Compare, Sweep, CalibrateLarge)}
