"""Percentiles, self times and per-layer metrics, computed from recorded spans.

Nothing here imports coexctl, so the driver can analyse the spans that traced
worker processes wrote out.
"""

from __future__ import annotations

import bisect
import csv
import math
import statistics

SPAN_FIELDS = ("id", "name", "start", "end", "parent", "outcomes")

# Candidate tail percentiles, highest first. A timing is reported at the
# highest one that still leaves at least MIN_BEYOND samples above it.
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def nearest_rank(ordered: list[float], pct: float) -> float:
    """The ceil(pct/100 * n)-th smallest of an already sorted list."""
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """(pct, value) at the highest ladder percentile with >= MIN_BEYOND samples beyond it.

    With too few samples for any ladder entry the median is returned.
    """
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    n = len(ordered)
    for pct in TAIL_LADDER:
        if n - math.ceil(pct / 100.0 * n) >= MIN_BEYOND:
            return pct, nearest_rank(ordered, pct)
    return 50.0, nearest_rank(ordered, 50.0)


def median(values: list[float]) -> float:
    return float(statistics.median(values))


# End-to-end speed is read per block of consecutive control steps (one
# evaluation episode), and reported at the slow side of the blocks: on a shared
# host the same work runs in phases up to 1.8x faster when neighbours idle, and
# how much of a run those phases cover varies from run to run.
BLOCK_STEPS = 100
SLOW_SIDE_PCT = 90.0


def step_blocks(step_us: list[float], tail_s: float) -> list[tuple[float, float, float]]:
    """(steps per s, p50 us, p90 us) of each block of BLOCK_STEPS consecutive steps.

    tail_s, the time from the last step boundary until the outputs are
    written, is charged to the blocks in proportion to their steps. A
    repetition shorter than a block is one block; a shorter remainder is dropped.
    """
    n = len(step_us)
    size = min(BLOCK_STEPS, n)
    out = []
    for i in range(0, n - size + 1, size):
        block = sorted(step_us[i:i + size])
        seconds = sum(block) * 1e-6 + tail_s * size / n
        out.append((size / seconds, nearest_rank(block, 50.0), nearest_rank(block, 90.0)))
    return out


def union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals after clipping each to [lo, hi]."""
    clipped = sorted((max(s, lo), min(e, hi)) for s, e in intervals if e > lo and s < hi)
    total = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Self time per span id: its duration minus the part its children cover.

    spans holds (id, name, start, end, parent) tuples; parent is -1 for a span
    with no recorded parent.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _, _, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    return {
        sid: (end - start) - union_length(children.get(sid, []), start, end)
        for sid, _, start, end, _ in spans
    }


def step_root_self_times(
    boundaries: list[float], roots: list[tuple[float, float]]
) -> list[float]:
    """Self time of each step between consecutive boundaries.

    A step's self time is the part of it not covered by the top-level spans
    (roots) that fall inside it: the glue of the control loop itself.
    """
    roots = sorted(roots)
    starts = [s for s, _ in roots]
    out = []
    for lo, hi in zip(boundaries[:-1], boundaries[1:]):
        # roots start no earlier than the previous root ends, so only those
        # starting before hi can reach into the step
        i = bisect.bisect_left(starts, lo)
        j = bisect.bisect_left(starts, hi)
        inside = roots[max(0, i - 1):j]
        out.append((hi - lo) - union_length(inside, lo, hi))
    return out


def read_spans(path: str) -> tuple[list[tuple], dict[int, int]]:
    """Spans as (id, name, start, end, parent) tuples, plus outcomes per run_for span."""
    spans, outcomes = [], {}
    with open(path, newline="") as f:
        for row in csv.DictReader(f):
            sid = int(row["id"])
            spans.append((sid, row["name"], float(row["start"]), float(row["end"]),
                          int(row["parent"])))
            if row["outcomes"]:
                outcomes[sid] = int(row["outcomes"])
    return spans, outcomes


LAYERS = ("medium", "metrics", "env", "constraint", "learner", "loop")


class LayerTotals:
    """Span sums over the measured window of one or more traced workers."""

    def __init__(self):
        self.steps = 0
        self.step_s = 0.0
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.durations: dict[str, list[float]] = {}
        self.train_forward_s = 0.0
        self.run_for_outcomes = 0
        self.target_syncs: list[int] = []

    def add(self, spans: list[tuple], outcomes: dict[int, int], boundaries: list[float]) -> None:
        """Fold in one worker's spans; boundaries delimit its measured control steps."""
        lo, hi = boundaries[0], boundaries[-1]
        names = {sid: name for sid, name, _, _, _ in spans}
        selfs = self_times(spans)
        roots = []
        syncs = 0
        for sid, name, start, end, parent in spans:
            parent_name = names.get(parent)
            if name == "learner.sync_target" and parent_name == "learner.train_step":
                syncs += 1
            if start < lo or end > hi:
                continue
            self.self_s[name.split(".", 1)[0]] += selfs[sid]
            if parent < 0:
                roots.append((start, end))
            key = name
            if name == "learner.forward":
                if parent_name == "learner.train_step":
                    self.train_forward_s += end - start
                    continue
                if parent < 0:
                    key = "learner.act"  # greedy evaluation's batch-1 forward pass
            self.durations.setdefault(key, []).append(end - start)
            if sid in outcomes:
                self.run_for_outcomes += outcomes[sid]
        self.self_s["loop"] += sum(step_root_self_times(boundaries, roots))
        self.steps += len(boundaries) - 1
        self.step_s += hi - lo
        self.target_syncs.append(syncs)

    def _us(self, name: str) -> list[float]:
        return [d * 1e6 for d in self.durations.get(name, [])]

    def mean_us(self, name: str) -> float:
        xs = self._us(name)
        return sum(xs) / len(xs) if xs else 0.0

    def pct_us(self, name: str, tail: bool) -> float:
        xs = self._us(name)
        if not xs:
            return 0.0
        return tail_percentile(xs)[1] if tail else nearest_rank(sorted(xs), 50.0)

    def per_train_step_us(self, seconds: float) -> float:
        n = len(self.durations.get("learner.train_step", []))
        return seconds * 1e6 / n if n else 0.0

    def metrics(self) -> dict[str, float]:
        def per_step(seconds: float) -> float:
            return seconds * 1e6 / self.steps

        run_for_s = sum(self.durations.get("medium.run_for", []))
        out = {
            "medium.run_for_us": self.mean_us("medium.run_for"),
            "medium.host_us_per_outcome":
                run_for_s * 1e6 / self.run_for_outcomes if self.run_for_outcomes else 0.0,
            "medium.apply_mac_params_us": self.mean_us("medium.apply_mac_params"),
            "metrics.step_metrics_us": self.mean_us("metrics.step_metrics"),
            "metrics.build_observation_us": self.mean_us("metrics.build_observation"),
            "env.step_p50_us": self.pct_us("env.step", tail=False),
            "env.step_p99_us": self.pct_us("env.step", tail=True),
            "constraint.us_per_step": per_step(self.self_s["constraint"]),
            "learner.train_step_p50_us": self.pct_us("learner.train_step", tail=False),
            "learner.train_step_p99_us": self.pct_us("learner.train_step", tail=True),
            "learner.forward_us": self.per_train_step_us(self.train_forward_s),
            "learner.backward_us":
                self.per_train_step_us(sum(self.durations.get("learner.backward", []))),
            "learner.adam_us": self.per_train_step_us(sum(self.durations.get("learner.adam", []))),
            "learner.buffer_sample_us":
                self.per_train_step_us(sum(self.durations.get("learner.buffer_sample", []))),
            "learner.buffer_push_us": self.mean_us("learner.buffer_push"),
            "learner.act_p50_us": self.pct_us("learner.act", tail=False),
            "learner.act_p99_us": self.pct_us("learner.act", tail=True),
            "learner.target_syncs": float(median(self.target_syncs)),
        }
        for layer in LAYERS:
            if layer != "constraint":
                out[f"{layer}.self_us"] = per_step(self.self_s[layer])
        out["trace.step_us"] = per_step(self.step_s)
        out["trace.self_sum_frac"] = sum(self.self_s.values()) / self.step_s
        return out
