"""Tests of the benchmark itself (not of the library it measures).

Run from the checkout root: ``python3 -m pytest perfbench/tests -q``.
"""

import concurrent.futures
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import catalogue
import ledger

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT, timeout=600):
    return subprocess.run([sys.executable, str(BENCH_DIR.relative_to(ROOT)
                                               / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)


def tiny(workload, seed=7, trace=0):
    completed = run_bench("--workload", workload, "--seed", str(seed),
                          "--seconds", "1", "--trace", str(trace),
                          "--size", "tiny")
    assert completed.returncode == 0, completed.stderr
    line = json.loads(completed.stdout.strip().splitlines()[-1])
    document = json.loads((BENCH_DIR / "out" / (
        f"{workload}-seed{seed}-trace{trace}-tiny.json")).read_text())
    return line, document


# ---------------------------------------------------------------------- contract
def test_metric_names_match_the_contract():
    names = ([m["name"] for m in SPEC["end_to_end"]]
             + [m["name"] for m in SPEC["per_layer"]]
             + [w["name"] for w in SPEC["workloads"]])
    assert len(names) == len(set(names))
    for name in names:
        assert catalogue.NAME_PATTERN.fullmatch(name), name
        assert len(name) <= 64


def test_metric_counts_are_within_limits():
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert 2 <= len(SPEC["workloads"]) <= 8


def test_catalogue_matches_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} \
        == catalogue.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} \
        == catalogue.PER_LAYER
    assert tuple(w["name"] for w in SPEC["workloads"]) == catalogue.WORKLOADS
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in SPEC["end_to_end"])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


# ---------------------------------------------------------------------- smoke
@pytest.mark.parametrize("workload", catalogue.WORKLOADS)
def test_tiny_smoke_reports_every_end_to_end_metric(workload):
    line, _ = tiny(workload)
    assert line["correct"] is True
    assert line["failed"] == 0 and line["attempted"] >= 1
    assert list(line["metrics"]) == list(catalogue.END_TO_END)
    for name, metric in line["metrics"].items():
        assert metric["unit"] == catalogue.END_TO_END[name]
        assert metric["value"] > 0, name


def test_tiny_traced_run_reports_every_per_layer_metric():
    line, document = tiny("suite-campaigns", trace=1)
    assert line["correct"] is True
    assert list(line["metrics"]) == list(catalogue.PER_LAYER)
    for name, metric in line["metrics"].items():
        assert math.isfinite(metric["value"]), name
    runs = {trace["run_id"] for trace in document["trace"]}
    assert {f"suite-campaigns-seed7:{section}" for section in
            ("ino", "ooo", "x2", "explore-ino", "explore-ooo",
             "campaign-pass")} == runs
    for trace in document["trace"]:
        for span in trace["spans"]:
            assert span["run"] == trace["run_id"]
            assert span["end"] >= span["start"]


def test_simulated_counts_repeat_across_invocations():
    _, first = tiny("suite-campaigns", seed=11)
    _, second = tiny("suite-campaigns", seed=11)
    for core in ("ino", "ooo"):
        assert first["counts"][core]["replayed_cycles"] > 0
        for key in ("injections", "replayed_cycles", "converged",
                    "saved_cycles", "outcomes", "digest"):
            assert first["counts"][core][key] == second["counts"][core][key]


# ---------------------------------------------------------------------- failures
class _BrokenPool:
    def __init__(self, *args, **kwargs):
        raise OSError("process pools are unavailable")


def test_forced_parallel_fallback_is_a_failed_run(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        _BrokenPool)
    result = ledger.Ledger(run_id="fallback")
    ledger.parallel_section(result, seed=3, size=ledger.SIZES["tiny"])
    assert result.failed > 0
    assert any("fell back" in mismatch for mismatch in result.mismatches)


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = run_bench("--workload", "suite-campaigns", "--seed", "1",
                          "--seconds", "1", "--trace", "0", cwd=tmp_path,
                          timeout=180)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
