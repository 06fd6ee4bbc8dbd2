"""Benchmark of the pseudocal CLI: one workload per process, in-process calls.

    python3 perfbench/run.py --workload compare --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout and imports ``pseudocal`` from its
``src/``. Set-up (``generate`` + ``train`` through ``pseudocal.cli.main``)
runs in a process of its own (``set_up.py``), so that neither its time nor
its memory shows in the operation's. The operation is then invoked in a
closed loop with one caller, first once on each of the workload's cells
and then on until ``--seconds`` have passed and the workload's minimum
number of invocations is reached. Each invocation writes its own outputs,
and all of them are checked after the loop, once every memory reading is
taken.

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` a traced pass of one invocation per cell follows the
untraced loop and the last line holds the per-layer metrics. Metric names
and units come from ``BENCHMARK.json``. A record with the environment,
every invocation and, when traced, every span is written under
``.perfbench/`` in the checkout. README.md defines each metric.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_TIMEOUT_S = 120


def limit_blas_threads():
    """Leave BLAS at most one thread per usable CPU; must run before numpy loads."""
    cpus = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        try:
            wanted = int(os.environ[var])
        except (KeyError, ValueError):
            wanted = cpus
        os.environ[var] = str(max(1, min(wanted, cpus)))


def import_program():
    src = ROOT / "src"
    if not (src / "pseudocal" / "__init__.py").is_file():
        sys.exit(f"error: no pseudocal sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import pseudocal

    if Path(pseudocal.__file__).resolve().parent != src / "pseudocal":
        sys.exit(f"error: imported pseudocal from {pseudocal.__file__}, not {src}")


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(seed, contexts):
    import numpy

    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "git_commit": _git_commit(),
        "seed": seed,
        "cells": [
            {"seed": ctx.seed, "target_accuracy": ctx.target_accuracy()} for ctx in contexts
        ],
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def call_cli(argv):
    """Run ``pseudocal.cli.main`` in-process; returns (wall seconds, error or None)."""
    from pseudocal import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # a traceback is a failed invocation, not a crash
            error = f"{type(exc).__name__}: {exc}"
        else:
            error = None if code == 0 else f"exit code {code}: {out.getvalue().strip()}"
        seconds = time.perf_counter() - t0
    return seconds, error


class Runner:
    """Set-up, the timed loop, checks and metrics of one workload run."""

    def __init__(self, workload, seed, workdir):
        self.workload = workload
        self.workdir = workdir
        self.seed = seed
        self.setup_s = []
        self.setup_peak_rss_mb = None
        self.floor_rss_mb = None
        self.contexts = []
        self.invocations = []
        self._outputs = []

    def set_up(self):
        """A warm-up set-up on the bench cell, then ``setups`` timed ones, in a child process."""
        from workloads import BENCH_CELL, Context

        w = self.workload
        self.contexts = [Context(self.workdir, self.seed * 100 + k) for k in range(w.cells_per_run)]
        warm_up = os.path.join(self.workdir, "warm-up")
        plan = [BENCH_CELL.setup_argvs(warm_up + "-task.json", warm_up + "-model.json", self.seed)]
        for k in range(w.setups):
            ctx = self.contexts[k % len(self.contexts)]
            plan.append(w.cell.setup_argvs(ctx.task_path, ctx.model_path, ctx.seed))
        proc = subprocess.run(
            [sys.executable, str(HERE / "set_up.py")], input=json.dumps(plan),
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()}")
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        self.setup_s = report["seconds"][1:]
        self.setup_peak_rss_mb = report["peak_rss_mb"]

    def invoke(self, ctx, recorder=None):
        """One invocation into its own output files, counted (and traced when a recorder is given)."""
        from probes import FitChecker, InferenceCounter, layer_metrics
        from workloads import fit_failure

        out = os.path.join(self.workdir, f"out-{len(self.invocations)}")
        counter = InferenceCounter()
        # Fits are checked in line only when untraced, where the check's time
        # can be taken off the clock; traced passes repeat checked cells.
        fits = FitChecker(fit_failure) if self.workload.checks_fits and not recorder else None
        with contextlib.ExitStack() as probes:
            probes.enter_context(counter.installed())
            if fits is not None:
                probes.enter_context(fits.installed())
            if recorder is not None:
                probes.enter_context(recorder.installed())
            seconds, error = call_cli(self.workload.argv(ctx, out))
        if fits is not None:
            seconds -= fits.seconds
        record = {
            "cell_seed": ctx.seed,
            "traced": recorder is not None,
            "op_s": seconds,
            "peak_rss_mb": peak_rss_mb(),
            "infer_calls": counter.calls,
            "infer_rows": counter.rows,
            "failures": [error] if error else [],
        }
        if recorder is not None:
            record["layers"] = layer_metrics(recorder.spans, counter)
            record["spans"] = recorder.spans
        self.invocations.append(record)
        self._outputs.append((record, ctx, out, counter, fits))

    def timed_loop(self, seconds):
        """Each cell once, in order, then round-robin until ``seconds`` and the minimum count are reached."""
        self.floor_rss_mb = peak_rss_mb()
        start = time.perf_counter()
        i = 0
        while i < self.workload.min_invocations or time.perf_counter() - start < seconds:
            self.invoke(self.contexts[i % len(self.contexts)])
            i += 1

    def traced_pass(self):
        from probes import SpanRecorder

        for ctx in self.contexts:
            self.invoke(ctx, SpanRecorder())

    def check_outputs(self):
        """Checks every invocation's outputs; a failed or unreadable output fails it."""
        for record, ctx, out, counter, fits in self._outputs:
            if record["failures"]:
                continue
            try:
                record["failures"] = self.workload.check(ctx, out, counter, fits)
                record["ece_calibrated"] = self.workload.ece(ctx, out)
            except Exception as exc:
                record["failures"] = [f"unreadable output: {type(exc).__name__}: {exc}"]

    def end_to_end(self):
        untraced = [r for r in self.invocations if not r["traced"]]
        # The first pass visits each cell once; its values are deterministic per seed.
        first = untraced[: len(self.contexts)]
        ok = [r for r in first if not r["failures"]]
        failed = sum(1 for r in untraced if r["failures"])
        return {
            "op_s": statistics.median(r["op_s"] for r in untraced),
            "setup_s": statistics.median(self.setup_s),
            "infer_calls": statistics.mean(r["infer_calls"] for r in first),
            "infer_rows": statistics.mean(r["infer_rows"] for r in first),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in untraced),
            "ece_calibrated": (
                statistics.mean(r["ece_calibrated"] for r in ok) if ok else float("nan")
            ),
            "ok_frac": (len(untraced) - failed) / len(untraced),
        }

    def per_layer(self):
        traced = [r for r in self.invocations if r["traced"]]
        untraced = [r for r in self.invocations if not r["traced"]]
        out = {
            name: statistics.median(r["layers"][name] for r in traced)
            for name in traced[0]["layers"]
        }
        out["trace.op_s"] = statistics.median(r["op_s"] for r in traced)
        out["trace.overhead_s"] = out["trace.op_s"] - statistics.median(
            r["op_s"] for r in untraced
        )
        return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    limit_blas_threads()
    import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        runner = Runner(workload, args.seed, workdir)
        runner.set_up()
        runner.timed_loop(args.seconds)
        if args.trace:
            runner.traced_pass()
        runner.check_outputs()
        env = environment(args.seed, runner.contexts)
    kind = "per_layer" if args.trace else "end_to_end"
    values = runner.per_layer() if args.trace else runner.end_to_end()
    units = {m["name"]: m["unit"] for m in spec[kind]}
    if values.keys() != units.keys():
        sys.exit(f"error: measured {sorted(values)}, BENCHMARK.json {kind} lists {sorted(units)}")
    failed = sum(1 for r in runner.invocations if r["failures"])
    result = {
        "correct": failed == 0,
        "attempted": len(runner.invocations),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    record_path = Path(OUT_DIR) / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(
        {"env": env, "setup_s": runner.setup_s, "setup_peak_rss_mb": runner.setup_peak_rss_mb,
         "floor_rss_mb": runner.floor_rss_mb, "invocations": runner.invocations,
         "result": result}, indent=1))
    for r in runner.invocations:
        for failure in r["failures"]:
            print(f"FAILED (cell {r['cell_seed']}): {failure}")
    print("env " + json.dumps(env))
    print(f"{len(runner.invocations)} invocations; peak RSS {runner.floor_rss_mb:.1f} MB before "
          f"the first, {runner.setup_peak_rss_mb:.1f} MB in the set-up process; "
          f"record in {record_path}")
    for name, entry in result["metrics"].items():
        print(f"{name:28s} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))
    return result


if __name__ == "__main__":
    main()
