"""Smoke test of the benchmark: each workload at a tiny size emits every
metric BENCHMARK.json names, with its unit, and passes its own output
checks. Nothing here is timed."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SCRIPT = "perfbench/run.py"


def run(cwd, *args):
    return subprocess.run([sys.executable, SCRIPT, *map(str, args)], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric(workload, trace):
    done = run(ROOT, "--workload", workload, "--seed", 3, "--seconds", 1,
               "--trace", trace, "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0, done.stdout
    assert result["correct"] is True
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = run(tmp_path, "--workload", SPEC["workloads"][0]["name"], "--seed", 1,
               "--seconds", 1, "--trace", 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
