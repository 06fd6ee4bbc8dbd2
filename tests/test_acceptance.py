"""Acceptance gate: one test per criterion, each at its stated tolerance.

The end-to-end criteria run on the synthetic benchmark cell from
``_util.bench_setup``: five Gaussian-cluster classes in ten dimensions,
a covariate-shifted target landing at 60-80% accuracy, and a gamma=3
sharpened logistic classifier. Runtime bounds are asserted alongside
the numeric tolerances.
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest

from pseudocal import cli, metrics, pseudo_target, report, scalers, synthetic

from _util import (
    bench_setup,
    chance_correspondence,
    ece_bruteforce,
    grid_temperature,
    random_batch,
)


def test_criterion_01_ece_matches_bruteforce_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(200):
        batch = random_batch(rng, n_max=50, c_max=5)
        num_bins = int(rng.integers(1, 6))
        expected = ece_bruteforce(batch.logits, batch.labels, num_bins)
        assert abs(metrics.ece(batch, num_bins) - expected) <= 1e-12
    assert time.perf_counter() - t0 < 5.0


def test_criterion_02_temperature_fit_matches_grid_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)
    for _ in range(100):
        n = int(rng.integers(5, 41))
        c = int(rng.integers(2, 7))
        z = rng.standard_normal((n, c)) * rng.uniform(0.3, 4.0)
        y = np.where(
            rng.random(n) < rng.uniform(0.2, 1.0),
            np.argmax(z, axis=1),
            rng.integers(0, c, n),
        )
        batch = metrics.PredictionBatch(logits=z, labels=y)
        fitted = scalers.fit_temperature(batch).temperature
        oracle = grid_temperature(z, y, n_points=100_000)
        assert abs(fitted - oracle) <= 1e-2
    assert time.perf_counter() - t0 < 30.0


def test_criterion_03_nll_decomposition_identity():
    rng = np.random.default_rng(103)
    batches = [random_batch(rng) for _ in range(96)]
    # edge cases: all-correct (N_w = 0) and all-wrong (N_c = 0)
    strong = np.eye(3)[rng.integers(0, 3, 20)] * 8.0
    correct_labels = np.argmax(strong, axis=1)
    batches.append(metrics.PredictionBatch(logits=strong, labels=correct_labels))
    batches.append(metrics.PredictionBatch(logits=strong, labels=(correct_labels + 1) % 3))
    batches.append(metrics.PredictionBatch(logits=[[4.0, 0.0]], labels=[0]))
    batches.append(metrics.PredictionBatch(logits=[[4.0, 0.0]], labels=[1]))
    for batch in batches:
        t = float(rng.uniform(scalers.T_MIN, scalers.T_MAX))
        dec = scalers.nll_decomposition(batch, t)
        recomposed = (dec.n_correct * dec.correct_term + dec.n_wrong * dec.wrong_term) / batch.n
        assert abs(dec.total - recomposed) <= 1e-9
        if dec.n_wrong == 0:
            assert dec.wrong_term == 0.0
        if dec.n_correct == 0:
            assert dec.correct_term == 0.0


def test_criterion_04_temperature_never_changes_predictions():
    rng = np.random.default_rng(104)
    for _ in range(100):
        batch = random_batch(rng)
        t = float(rng.uniform(scalers.T_MIN, scalers.T_MAX))
        calibrated = scalers.Calibrator(kind="temperature", temperature=t).apply(batch)
        changed = np.sum(calibrated.predictions() != batch.predictions())
        assert changed == 0


def test_criterion_05_hypothesis_class_nesting():
    rng = np.random.default_rng(105)
    for _ in range(20):
        batch = random_batch(rng, n_max=150)
        nll_t = metrics.mean_nll(scalers.fit_temperature(batch).apply(batch))
        nll_v = metrics.mean_nll(scalers.fit_vector(batch).apply(batch))
        nll_m = metrics.mean_nll(scalers.fit_matrix(batch).apply(batch))
        assert nll_v <= nll_t + 1e-6
        assert nll_m <= nll_v + 1e-6


def _bench_rows(seeds, target_priors=None):
    rows = []
    for seed in seeds:
        task, model, batch = bench_setup(seed, target_priors=target_priors)
        ece_raw = metrics.ece(batch)
        oracle = scalers.fit_temperature(batch)
        cal = pseudo_target.calibrate(
            model, task.target_inputs, pseudo_target.MixupConfig(seed=seed)
        )
        rows.append(
            {
                "accuracy": batch.accuracy(),
                "ece_raw": ece_raw,
                "ece_pseudocal": metrics.ece(cal.apply(batch)),
                "ece_oracle": metrics.ece(oracle.apply(batch)),
            }
        )
    return rows


def test_criterion_06_end_to_end_efficacy():
    t0 = time.perf_counter()
    rows = _bench_rows(range(10))
    accuracies = [r["accuracy"] for r in rows]
    assert 0.6 <= np.mean(accuracies) <= 0.8
    wins = sum(r["ece_pseudocal"] < r["ece_raw"] for r in rows)
    assert wins >= 8
    gap = np.mean([abs(r["ece_pseudocal"] - r["ece_oracle"]) for r in rows])
    assert gap <= 0.05
    assert time.perf_counter() - t0 < 60.0


def test_criterion_07_ablation_ordering():
    t0 = time.perf_counter()
    eces = {"pseudocal": [], "pseudo_label": [], "filtered_pl": [], "pseudocal_same": []}
    for seed in range(10):
        task, model, batch = bench_setup(seed)
        cfg = pseudo_target.MixupConfig(seed=seed)
        eces["pseudocal"].append(
            metrics.ece(pseudo_target.calibrate(model, task.target_inputs, cfg).apply(batch))
        )
        pl_cal = pseudo_target.variant_pseudo_label(batch.logits)
        eces["pseudo_label"].append(metrics.ece(pl_cal.apply(batch)))
        eces["filtered_pl"].append(
            metrics.ece(pseudo_target.variant_filtered_pl(batch.logits).apply(batch))
        )
        same_cfg = replace(cfg, pairing="same")
        eces["pseudocal_same"].append(
            metrics.ece(pseudo_target.calibrate(model, task.target_inputs, same_cfg).apply(batch))
        )
        # mechanism check: every sample agrees with its own pseudo label,
        # so the fit slams into the sharpening bound; the grid agrees
        assert pl_cal.temperature == pytest.approx(scalers.T_MIN)
        logits = model.predict_logits(task.target_inputs)
        pl = np.argmax(logits, axis=1)
        assert grid_temperature(logits, pl, n_points=2000) == pytest.approx(scalers.T_MIN)
    mean_pc = np.mean(eces["pseudocal"])
    for variant in ("pseudo_label", "filtered_pl", "pseudocal_same"):
        assert mean_pc < np.mean(eces[variant])
    assert time.perf_counter() - t0 < 120.0


def test_criterion_08_lambda_sensitivity():
    t0 = time.perf_counter()
    grid = [0.51, 0.55, 0.6, 0.65, 0.7, 0.8, 0.9]
    cells = {}
    for seed in range(5):
        task, model, batch = bench_setup(seed)
        rows = report.lambda_sweep(model, task, grid, ["hard", "soft"], [seed])
        for row in rows:
            cells.setdefault((row["lambda"], row["label_mode"]), []).append(row["mean_ece"])
    def mean_of(lams):
        return np.mean([np.mean(cells[(lam, m)]) for lam in lams for m in ("hard", "soft")])

    assert np.all(np.isfinite([v for vals in cells.values() for v in vals]))
    assert mean_of([0.6, 0.65, 0.7]) <= mean_of([0.51, 0.9])
    assert time.perf_counter() - t0 < 120.0


def test_criterion_09_partial_set_robustness():
    rows = _bench_rows(range(10), target_priors=(1 / 3, 1 / 3, 1 / 3, 0.0, 0.0))
    wins = sum(r["ece_pseudocal"] < r["ece_raw"] for r in rows)
    assert wins >= 7


def test_criterion_10_nll_overfitting_curve(tmp_path):
    spec = synthetic.ShiftSpec(
        n_classes=5, dim=10, n_source=2000, n_target=2000,
        mean_shift=1.5, rotation=0.6, seed=0,
    )
    task = synthetic.generate(spec)
    model = synthetic.train(task, epochs=2000, lr=0.2, track_history=True, seed=0)
    path = tmp_path / "history.csv"
    report.history_to_csv(model.history, path)
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    target_error, target_nll = rows[:, 2], rows[:, 3]
    i_min = int(np.argmin(target_nll))
    assert target_nll[-1] >= 1.2 * target_nll[i_min]
    assert abs(target_error[-1] - target_error[i_min]) <= 0.02


def test_criterion_11_cli_determinism(tmp_path):
    task_flags = [
        "generate", "--mean-shift", "1.0", "--rotation", "0.45",
        "--n-source", "400", "--n-target", "400", "--seed", "7",
    ]
    outputs = {}
    for run_dir in ("a", "b"):
        d = tmp_path / run_dir
        d.mkdir()
        task, model = d / "task.json", d / "model.json"
        assert cli.main(task_flags + ["--out", str(task)]) == 0
        assert cli.main([
            "train", "--task", str(task), "--epochs", "150", "--gamma", "3.0",
            "--seed", "7", "--out", str(model), "--history-out", str(d / "hist.csv"),
        ]) == 0
        assert cli.main([
            "calibrate", "--task", str(task), "--model", str(model), "--seed", "7",
            "--out", str(d / "cal.json"), "--provenance-out", str(d / "prov.csv"),
        ]) == 0
        assert cli.main([
            "evaluate", "--task", str(task), "--model", str(model),
            "--methods", "none,pseudocal,temp_oracle,vector", "--seed", "7",
            "--out", str(d / "result.json"), "--table-out", str(d / "table.txt"),
            "--bins-out", str(d / "bins.csv"),
        ]) == 0
        assert cli.main([
            "sweep", "--task", str(task), "--model", str(model),
            "--lambdas", "0.6,0.65", "--label-modes", "hard", "--seeds", "0,1",
            "--out", str(d / "sweep.csv"),
        ]) == 0
        outputs[run_dir] = {
            p.name: p.read_bytes() for p in sorted(d.iterdir()) if p.is_file()
        }
    assert outputs["a"].keys() == outputs["b"].keys()
    for name in outputs["a"]:
        assert outputs["a"][name] == outputs["b"][name], f"{name} differs between runs"


def test_criterion_12_correspondence_diagnostic(tmp_path):
    rates = []
    wins = 0
    for seed in range(10):
        task, model, batch = bench_setup(seed)
        result = report.evaluate_all(
            model, task, ["none", "pseudocal"], mixup_cfg=pseudo_target.MixupConfig(seed=seed)
        )
        path = tmp_path / f"result_{seed}.json"
        path.write_text(result.to_json())
        rate = json.loads(path.read_text())["correspondence_rate"]
        assert rate is not None
        pseudo = pseudo_target.synthesize(
            model,
            task.target_inputs,
            np.argmax(batch.logits, axis=1),
            pseudo_target.MixupConfig(seed=seed),
        )
        chance = chance_correspondence(pseudo, task.target_labels, seed=seed + 500)
        wins += rate > chance
        rates.append(rate)
    assert wins >= 9
    # reference figure from deep UDA benchmarks, reported but not asserted
    print(f"mean correspondence rate {np.mean(rates):.4f} (paper-scale reference: >0.60)")
