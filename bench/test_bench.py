"""Tests of the benchmark itself: ``python3 -m pytest -q bench``.

Every workload runs at a tiny size and must pass every output check; the
checks must reject deliberately wrong results.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracle
import run  # noqa: F401  (pins the BLAS threads before NumPy starts them)
import workloads
from inputs import COLUMNS, draw_study

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = workloads.Sizes(study_n=120, large_n=3000, large_train=2000, boot_n=1000,
                       speedup_replicates=40)

sys.path.insert(0, str(ROOT / "src"))
import logitboot  # noqa: E402


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_workload_passes_every_check(workload, tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "SETUP_SAMPLES", 1)
    bench = workloads.Bench(ROOT, tmp_path, seed=3, seconds=0.01, traced=True, sizes=TINY)
    bench.run(workload)
    assert [p for op in bench.ops for p in op.problems] == []
    end_to_end = bench.end_to_end()
    per_layer = bench.per_layer()
    assert set(end_to_end) == {m["name"] for m in SPEC["end_to_end"]}
    assert set(per_layer) == {m["name"] for m in SPEC["per_layer"]}
    for name, (value, unit) in {**end_to_end, **per_layer}.items():
        assert math.isfinite(value), name
    assert all(value > 0 for value, _ in end_to_end.values())
    # Every untraced operation and setup sample is bracketed by two reference samples.
    untraced = [op for op in bench.ops if not op.traced]
    assert len(bench.pace.samples) == 2 * (len(untraced) + workloads.SETUP_SAMPLES)
    assert end_to_end["latency_p50_s"][0] == workloads.median([op.scaled for op in untraced])
    # Layers the operations call are measured; the others read 0 and are named.
    skipped = set(bench.info["not_applicable"])
    assert skipped <= set(workloads.LAYER_CALLS)
    assert "model_core.fit_mle_s" not in skipped
    for name in workloads.LAYER_CALLS:
        assert (per_layer[name][0] == 0) == (name in skipped), name
    if workload == "boot-study":
        assert {"cli.self_s", "data_io.load_csv_s"} <= skipped
    else:
        assert "inference.jackknife_s" in skipped
    # Spans plus process start and exit cover each traced operation.
    assert per_layer["trace.coverage_min"][0] >= 0.9


def _fit_doc(design, response):
    fit = logitboot.fit_mle(logitboot.EncodedDataset(design, response, COLUMNS))
    return {
        "coefficients": dict(zip(COLUMNS, fit.coefficients.tolist())),
        "standard_errors": dict(zip(COLUMNS, fit.standard_errors.tolist())),
        "converged": fit.converged,
        "odds": [{"odds_ratio": math.exp(c)} for c in fit.coefficients],
    }


def test_fit_check_rejects_coefficient_off_by_1e_3():
    design, response = draw_study((5, 1), 400)
    doc = _fit_doc(design, response)
    assert oracle.check_fit_doc(doc, design, response) == []
    doc["coefficients"]["Age"] += 1e-3
    assert oracle.check_fit_doc(doc, design, response)


def _study(n=120, seed=9):
    design, response = draw_study((seed, 2), n)
    data = logitboot.EncodedDataset(design, response, COLUMNS)
    bench = workloads.Bench(ROOT, Path("."), seed, 1.0, False)
    return bench.run_study(logitboot, data, seed, 1000), design, response


def test_study_check_rejects_swapped_replicates_and_wrong_wald():
    study, design, response = _study()
    assert oracle.check_study(study, design, response, 9, 1000, [0, 999]) == []

    reps = np.array(study["bootstrap"].replicates)
    reps[[10, 11]] = reps[[11, 10]]
    swapped = dict(study, bootstrap=dataclasses.replace(study["bootstrap"], replicates=reps))
    assert oracle.check_study(swapped, design, response, 9, 1000, [0, 999])

    wald = list(study["wald"])
    wald[1] = dataclasses.replace(wald[1], upper=wald[1].upper + 1e-3)
    assert oracle.check_study(dict(study, wald=wald), design, response, 9, 1000, [0, 999])


def test_study_check_rejects_dropped_replicate_and_short_jackknife():
    study, design, response = _study()
    boot = study["bootstrap"]
    keep = np.asarray(boot.replicate_ids) != 5
    dropped = dataclasses.replace(boot, replicates=np.asarray(boot.replicates)[keep],
                                  replicate_ids=np.asarray(boot.replicate_ids)[keep])
    problems = oracle.check_study(dict(study, bootstrap=dropped), design, response,
                                  9, 1000, [0, 999])
    assert any("replicate 5 dropped" in p for p in problems)

    short = np.delete(study["jackknife"], 7, axis=0)
    problems = oracle.check_study(dict(study, jackknife=short), design, response,
                                  9, 1000, [0, 999])
    assert any("jackknife kept" in p for p in problems)


def test_curves_and_simulate_checks_reject_wrong_output(tmp_path):
    points = [{"profile": p, "age": a, "probability": q} for p, a, q in oracle.curve_points()]
    assert oracle.check_curves_doc({"points": points}) == []
    points[3]["probability"] += 1e-6
    assert oracle.check_curves_doc({"points": points})

    design, response = draw_study(4, 50)
    path = tmp_path / "sim.csv"
    doc = {"records": 50, "positive_fraction": response.sum() / 50}
    logitboot.save_csv(logitboot.simulate(logitboot.SimulationSpec(
        coefficients=oracle.GOLDEN, n=50, seed=4)), path)
    assert oracle.check_simulate_doc(doc, path, 50, 4) == []
    assert oracle.check_simulate_doc(doc, path, 50, 5)


def test_without_source_tree_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_self_time_subtracts_child_spans():
    spans = workloads.annotate([
        {"name": "a.bootstrap_fit", "parent": None, "start": 0.0, "end": 10.0},
        {"name": "b.fit_mle", "parent": 0, "start": 1.0, "end": 4.0},
        {"name": "b.resample_indices", "parent": 0, "start": 5.0, "end": 6.0},
    ])
    assert spans[0]["self"] == 6.0
    assert spans[0]["fit_child"] == 3.0
