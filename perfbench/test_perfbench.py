"""The benchmark's own test, on the smoke sizes (multisite n=2, a
20-species chain, a 20-network sweep).  Run from the checkout root::

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys

import pytest

from workloads import ROOT, WORKLOADS, Clock, run_cycle

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    done = bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                 "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", ["multisite5", "chain300"])
def test_wrong_expected_block_count_trips_the_gate(name):
    workload = WORKLOADS[name](1, smoke=True)
    workload.make_inputs()
    workload.expected_blocks += 1
    clock = Clock()
    run_cycle(workload, 0, clock)
    assert clock.attempted == 2 and clock.failed == 2
    assert all("expected" in problem for problem in clock.problems)


def test_same_seed_same_inputs_other_seed_other_inputs():
    def inputs(seed):
        return WORKLOADS["sweep"](seed, smoke=True).make_inputs()

    assert inputs(5) == inputs(5) != inputs(6)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "sweep", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
