"""Tests of the benchmark itself: tiny runs, corrupted results, contract.

Run from the repository root with `python3 -m pytest -q bench/test_bench.py`.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SMALL = {"grid_models": {"n": 2}, "point_queries": {}, "search": {"restarts": 4}}


def tiny(workload, trace=0, seed=3):
    return run.run(workload, seed, 0.01, trace, setup_repeats=1, options=SMALL[workload])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(SMALL))
def test_tiny_run_passes_and_prints_every_metric(workload, trace):
    result = tiny(workload, trace)
    assert result["attempted"] >= 1 and result["failed"] == 0
    line = json.loads(run.summary_line(result))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    units = run.PER_LAYER_UNITS if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in line["metrics"].items()} == units
    assert all(np.isfinite(v["value"]) for v in line["metrics"].values())
    assert run.report(result)


@pytest.mark.parametrize("workload", ["grid_models", "point_queries", "search"])
def test_exact_counts_repeat_across_runs(workload):
    first, second = tiny(workload, 1, seed=5), tiny(workload, 1, seed=5)
    assert first["exact_counts"] == second["exact_counts"]
    assert any(first["exact_counts"].values())


def _shift_curvature(fn):
    def corrupted(*args, **kwargs):
        res = fn(*args, **kwargs)
        return dataclasses.replace(res, gauss_invariants=res.gauss_invariants + 1e-3)

    return corrupted


def _shift_constants(fn):
    def corrupted(*args, **kwargs):
        clusters = fn(*args, **kwargs)
        for c in clusters:
            c.values = c.values + 1e-3
        return clusters

    return corrupted


@pytest.mark.parametrize(
    "workload, module, attr, corrupt, reason",
    [
        ("grid_models", "cli", "analyze_point", _shift_curvature, "WrongCurvature"),
        ("point_queries", "invariants", "analyze_point", _shift_curvature, "WrongCurvature"),
        ("search", "homogeneous", "search_constant_solutions", _shift_constants, "WrongCluster"),
    ],
)
def test_corrupted_results_are_counted_as_failed(monkeypatch, workload, module, attr, corrupt, reason):
    run.load_program()
    target = sys.modules["centroframe." + module]
    monkeypatch.setattr(target, attr, corrupt(getattr(target, attr)))
    result = tiny(workload)
    assert result["failed"] == result["attempted"] >= 1
    assert result["failures"] == {reason: result["attempted"]}
    assert json.loads(run.summary_line(result))["correct"] is False


def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(SMALL)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS


def test_fails_without_printing_a_result_when_sources_are_missing(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
