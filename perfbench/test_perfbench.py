"""Checks on the benchmark itself: python3 -m pytest perfbench/test_perfbench.py"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from hostspeed import REFERENCE_S, scale  # noqa: E402
from run import tail  # noqa: E402

COUNTS = (
    "terms.unify_calls",
    "terms.rename_calls",
    "planner.solve_calls_per_plan",
    "world.facts_per_plan",
    "relevance.kept_ratio",
    "engine.answers",
)


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True, text=True, timeout=600, cwd=cwd,
    )


@pytest.mark.parametrize("workload", ["plan_large", "plan_small", "solve_recursive"])
def test_traced_counts_repeat_for_a_seed(workload):
    runs = []
    for _ in range(2):
        out = bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "1")
        assert out.returncode == 0, out.stderr
        result = json.loads(out.stdout.splitlines()[-1])
        assert result["correct"]
        runs.append({name: result["metrics"][name]["value"] for name in COUNTS})
    assert runs[0] == runs[1]


def test_result_line_has_every_end_to_end_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    out = bench("--workload", "solve_recursive", "--seed", "3", "--seconds", "0", "--trace", "0")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    # Left recursion and long lists fail today, and are counted, not dropped.
    assert 0 < result["failed"] < result["attempted"]


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = bench("--workload", "plan_small", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""


def test_tail_keeps_ten_samples_beyond_and_never_drops_below_the_median():
    xs = [float(i) for i in range(100)]
    assert tail(xs) == (89.0, 90.0, 10)
    assert tail(xs[:15]) == (7.0, 50.0, 7)


def test_scale_divides_by_the_host_speed_around_the_op():
    assert scale(0.2, REFERENCE_S, REFERENCE_S) == 0.2
    # The host ran at half the reference speed, so the op counts half.
    assert scale(0.2, 2 * REFERENCE_S, 2 * REFERENCE_S) == 0.1
    assert scale(0.2, REFERENCE_S, 3 * REFERENCE_S) == 0.1
