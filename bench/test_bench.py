"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from checks import load_golden
from run import measure
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_emits_every_metric_with_its_unit(name, trace):
    # seconds=0 runs a single unit: the smallest complete run
    result = measure(name, seed=3, seconds=0, trace=trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_perturbed_golden_digest_is_counted_as_failed():
    golden = copy.deepcopy(load_golden()["budget-n12"])
    key = sorted(golden["digests"])[0]
    golden["digests"][key] = "0" * 16
    result = measure("budget-n12", seed=3, seconds=0, trace=False, golden=golden)
    assert result["failed"] == 1 and not result["correct"]


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "budget-n12", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0 and proc.stdout == ""
