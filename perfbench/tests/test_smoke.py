"""Tiny-budget runs of every workload through the real command line."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from conftest import ROOT
from pmbench.report import load_benchmark
from pmbench.workloads import WORKLOADS

BENCHMARK = load_benchmark()


def _run(cwd, *args, out):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args, "--out", out],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_named_metric_is_reported_with_its_unit(workload, trace,
                                                      tmp_path):
    proc = _run(ROOT, "--workload", workload, "--seed", "5",
                "--seconds", "1", "--trace", str(trace), out=str(tmp_path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    assert os.listdir(tmp_path / "results")


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(str(tmp_path), "--workload", "aflpp-fork-btree",
                "--seed", "5", "--seconds", "1", "--trace", "0", out="out")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
