"""Self-tests of the benchmark: span accounting, tail percentiles, and smoke runs."""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, ROOT)

from perfbench.analysis import (  # noqa: E402
    self_times,
    step_blocks,
    step_root_self_times,
    tail_percentile,
    union_length,
)
from perfbench.run import END_TO_END, PER_LAYER  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

RUN = os.path.join(ROOT, "perfbench", "run.py")


def test_self_time_is_duration_minus_children_cover():
    spans = [
        (0, "env.step", 0.0, 10.0, -1),
        (1, "medium.run_for", 1.0, 3.0, 0),
        (2, "metrics.step_metrics", 3.0, 5.0, 0),
        (3, "medium.apply_mac_params", 8.0, 9.5, 0),
        (4, "metrics.inner", 3.5, 4.0, 2),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - (2.0 + 2.0 + 1.5))
    assert selfs[2] == pytest.approx(2.0 - 0.5)
    assert selfs[4] == pytest.approx(0.5)
    # a properly nested tree's self times add up to its root's duration
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_union_clips_and_merges_overlaps():
    assert union_length([(1, 3), (2, 5), (8, 12)], 0, 10) == pytest.approx(6.0)
    assert union_length([], 0, 10) == 0.0


def test_step_self_time_is_the_part_no_top_level_span_covers():
    boundaries = [0.0, 10.0, 20.0]
    roots = [(1.0, 4.0), (6.0, 9.0), (12.0, 19.0)]
    assert step_root_self_times(boundaries, roots) == pytest.approx([4.0, 3.0])


@pytest.mark.parametrize("n, pct", [(1000, 99.0), (999, 95.0), (200, 95.0), (199, 90.0),
                                    (100, 90.0), (40, 75.0), (20, 50.0)])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, pct):
    samples = [float(i) for i in range(n, 0, -1)]
    got_pct, value = tail_percentile(samples)
    assert got_pct == pct
    beyond = sum(1 for x in samples if x > value)
    assert beyond >= 10
    assert value == sorted(samples)[-(beyond + 1)]


def test_blocks_share_the_output_time_and_drop_a_short_remainder():
    step_us = [1000.0] * 250
    blocks = step_blocks(step_us, tail_s=0.025)
    # 2 blocks of 100 steps, each charged 100/250 of the 25 ms tail
    assert [rate for rate, _, _ in blocks] == pytest.approx([100 / 0.11] * 2)
    assert [(p50, p90) for _, p50, p90 in blocks] == [(1000.0, 1000.0)] * 2
    # a repetition shorter than a block is one block
    short = step_blocks([float(i) for i in range(1, 11)], tail_s=0.0)
    assert short == [pytest.approx((10 / 55e-6, 5.0, 9.0))]


def test_benchmark_json_matches_the_metrics_the_benchmark_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in PER_LAYER]


def _run(workload, trace, cwd=ROOT, runner=RUN):
    return subprocess.run(
        [sys.executable, runner, "--workload", workload, "--seed", "5", "--seconds", "0",
         "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload, trace", [("desk_train", 1), ("full_train", 0),
                                             ("dense_cr_eval", 1)])
def test_smoke_run_of_each_workload_passes_its_checks(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    expected = [name for name, *_ in PER_LAYER] if trace else list(END_TO_END)
    assert list(result["metrics"]) == expected
    assert all(line.endswith("PASS") for line in lines if line.startswith("check "))
    if trace:
        assert result["metrics"]["trace.self_sum_frac"]["value"] == pytest.approx(1.0)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run("desk_train", 0, cwd=tmp_path, runner=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
