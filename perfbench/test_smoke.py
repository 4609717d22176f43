"""Smoke test of the benchmark at tiny sizes: python3 -m pytest -q perfbench/test_smoke.py"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, *extra, cwd=None):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5", "--seconds", "1", "--tiny"]
    return subprocess.run(argv + list(extra), capture_output=True, text=True, timeout=300, cwd=cwd)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_emitted(workload, trace):
    res = result(run(workload, "--trace", trace))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    named = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert sorted(res["metrics"]) == sorted(m["name"] for m in named)
    for m in named:
        assert res["metrics"][m["name"]]["unit"] == m["unit"], m["name"]
        if trace == "0":
            assert res["metrics"][m["name"]]["value"] > 0, m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_manifest_counts_as_failure(workload):
    proc = run(workload, "--trace", "0", "--corrupt-manifest")
    res = result(proc)
    details = json.loads(proc.stdout.splitlines()[-2])
    assert not res["correct"]
    assert res["failed"] >= 1
    assert details["failed_ratio"] == res["failed"] / res["attempted"] > 0
    assert any(f.startswith("match: record 0: weight") for f in details["failures"])


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
