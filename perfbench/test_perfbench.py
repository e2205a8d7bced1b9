"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest perfbench/test_perfbench.py -q

Each workload runs four times with one seed, twice untraced and twice
traced, at the shortest run length.  The exact work counts, the largest
oracle error and the CSV outputs must repeat in all four runs; tracing
must not change what the program computes.  About five minutes on two
cores; ``-k meanfield`` runs the quick one only.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("meanfield-3block", "sbm500-clustered", "sparse-1e4-push", "sparse-1e5-ingest")
EXACT_LAYER = (
    "engine.steps",
    "engine.updates",
    "solvers.iterations.pi",
    "solvers.iterations.gs",
    "solvers.iterations.gmres",
    "solvers.iterations.gso",
)


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(HERE / "run.py"), *map(str, args)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def run_once(workload, trace, out):
    p = bench("--workload", workload, "--seed", 7, "--seconds", 1, "--trace", trace, "--out", out)
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.splitlines()[-1])
    report = json.loads((out / "report.json").read_text())
    return result, report


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_seed_repeats_exactly(workload, tmp_path):
    runs = [run_once(workload, trace, tmp_path / f"trace{trace}-{i}") for trace in (0, 1) for i in (0, 1)]
    _, first = runs[0]
    for result, report in runs:
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert report["counts"] == first["counts"]
        assert report["end_to_end"]["rlgl_edge_ops"] == first["counts"]["rlgl_edge_ops"]
        assert report["end_to_end"]["max_err_l1"] == first["end_to_end"]["max_err_l1"]
        assert report["outputs"] == first["outputs"]
    traced = [result["metrics"] for result, report in runs if report["trace"] == 1]
    for name in EXACT_LAYER:
        assert traced[0][name]["value"] == traced[1][name]["value"] == first["counts"][name]


def test_reports_every_declared_metric(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result, _ = run_once("meanfield-3block", trace, tmp_path / f"trace{trace}")
        assert list(result["metrics"]) == [m["name"] for m in spec[section]]
        for m in spec[section]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload", "meanfield-3block"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert p.returncode != 0
    assert "correct" not in p.stdout
