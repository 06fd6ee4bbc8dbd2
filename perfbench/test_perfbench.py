"""Toy-size smoke run of the benchmark harness.

    python -m pytest perfbench -q

Runs every workload on toy cells with and without the trace, in a few
seconds. It checks the harness (metric names, counters, span accounting,
restored bindings), not the program's speed.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.import_program()
import workloads  # noqa: E402
from pseudocal import pseudo_target, scalers, synthetic  # noqa: E402
from probes import InferenceCounter, layer_metrics, self_times  # noqa: E402

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TOY_CELL = workloads.Cell(classes=3, dim=4, n_source=300, n_target=300, epochs=100)
TOY_LARGE_CELL = workloads.Cell(classes=10, dim=6, n_source=600, n_target=3000, epochs=100)


@pytest.fixture(autouse=True)
def toy_cells(monkeypatch, tmp_path):
    """Toy-size cells, and work files and run records under ``tmp_path``."""
    monkeypatch.setattr(workloads, "BENCH_CELL", TOY_CELL)
    monkeypatch.setattr(workloads, "LARGE_CELL", TOY_LARGE_CELL)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)


def _run(capsys, workload, trace):
    result = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                       "--trace", str(trace)])
    last_line = capsys.readouterr().out.strip().splitlines()[-1]
    assert json.loads(last_line) == result
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_toy_runs_report_every_metric(workload, tmp_path, capsys):
    bound_before = (scalers.fit_temperature, pseudo_target.fit_temperature,
                    synthetic.TrainedClassifier.predict_logits)
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        result = _run(capsys, workload, trace)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[kind]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert (scalers.fit_temperature, pseudo_target.fit_temperature,
            synthetic.TrainedClassifier.predict_logits) == bound_before

    record = json.loads((tmp_path / f"{workload}-seed3-trace1.json").read_text())
    traced = [r for r in record["invocations"] if r["traced"]]
    assert traced
    for r in traced:
        # Self times partition the root span, which is the timed invocation.
        root = r["spans"][0]
        assert root[0] == "cli" and root[3] is None
        assert sum(self_times(r["spans"])) == pytest.approx(root[2] - root[1], abs=1e-9)
        assert root[2] - root[1] == pytest.approx(r["op_s"], abs=1e-3)
        assert r["layers"]["infer.calls"] == r["infer_calls"] > 0
    assert record["env"]["cells"] and record["env"]["nproc"] >= 1
    assert record["setup_peak_rss_mb"] > 0 and record["floor_rss_mb"] > 0
    assert len(record["setup_s"]) == workloads.WORKLOADS[workload].setups


def test_nested_spans_of_one_layer_count_as_one_call():
    # ece -> reliability_bins, then a top-level mean_nll; fit_matrix -> fit_vector.
    spans = [
        ["cli", 0.0, 10.0, None, {}],
        ["metrics", 1.0, 3.0, 0, {}],
        ["metrics", 1.5, 2.5, 1, {}],
        ["metrics", 4.0, 5.0, 0, {}],
        ["fit_matrix", 6.0, 9.0, 0, {"converged": 1}],
        ["fit_vector", 6.5, 7.5, 4, {"converged": 1}],
    ]
    layers = layer_metrics(spans, InferenceCounter())
    assert layers["metrics.calls"] == 2
    assert layers["metrics.s"] == pytest.approx(3.0)
    assert layers["fit_affine.calls"] == 2
    assert layers["fit_affine.matrix_s"] == pytest.approx(2.0)


def test_ensemble_member_calls_are_counted_apart(capsys):
    layers = _run(capsys, "compare", 1)["metrics"]
    assert layers["infer.member_calls"]["value"] > 0
    assert layers["train.calls"]["value"] > 0


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
