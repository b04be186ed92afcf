"""Per-control-step performance signals derived from the simulator's per-node counters.

Converts one control window's per-node counters (the four cumulative NodeStats
fields window_counters names, read at both window edges and diffed) into the
smoothed signal set the controller observes: Jain's fairness index over
per-node successful airtime, instantaneous and EMA-smoothed PC1 access delay,
per-node collision rates, a fast-minus-slow collision trend, channel airtime
utilization, and the QoS-violation rate. Sparse windows carry the previous
value rather than emitting zeros, matching the smoothing the controller's
constraint signal relies on.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .medium import collision_probability

# Smoothing constants; settle within roughly one 100-step episode.
ALPHA_DELAY = 0.2
ALPHA_FAST = 0.3
ALPHA_SLOW = 0.05
ALPHA_VIOLATION = 0.2

OBS_CLIP = 5.0

# the NodeStats fields a window's signals read, as the tuple step_metrics diffs
window_counters = operator.attrgetter("successes", "collisions", "success_air_us", "delay_sum_us")


def jain_index(airtimes: Sequence[float]) -> float:
    """Jain's fairness index (sum x)^2 / (n * sum x^2).

    An all-zero vector is vacuously fair and returns 1.0. Values are divided
    by the largest one first so that squaring tiny airtimes cannot underflow.
    Both sums add left to right from 0.0, so every CPython gives the same bits
    (builtin sum() of floats is compensated from 3.12 on).
    """
    if len(airtimes) == 0:
        raise ValueError("jain_index requires a non-empty list")
    peak = float(max(airtimes))
    if peak == 0.0:
        return 1.0
    total = sq = 0.0
    for x in airtimes:
        x = float(x) / peak
        total += x
        sq += x * x
    return total * total / (len(airtimes) * sq)


def ema_update(prev: float, sample: float, alpha: float) -> float:
    """One exponential-moving-average step: alpha*sample + (1-alpha)*prev."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must be in (0, 1]")
    return alpha * sample + (1.0 - alpha) * prev


@dataclass
class StepMetrics:
    """Signals for one control window plus the carried EMA state; per-node lists in node order."""

    jfi: float
    pc1_delay_inst_us: float
    pc1_delay_smooth_us: float
    collision_rate: list[float]
    collision_trend: float
    airtime_util: float
    violation_rate: float
    # carried smoothing state: per-node success-airtime EMA for the fairness
    # index, fast/slow EMAs of the aggregate collision rate for the trend
    airtime_ema: list[float]
    coll_ema_fast: float = 0.0
    coll_ema_slow: float = 0.0
    coll_rate_agg: float = 0.0

    @classmethod
    def initial(cls, n_nodes: int) -> "StepMetrics":
        return cls(
            jfi=1.0,
            pc1_delay_inst_us=0.0,
            pc1_delay_smooth_us=0.0,
            collision_rate=[0.0] * n_nodes,
            collision_trend=0.0,
            airtime_util=0.0,
            violation_rate=0.0,
            airtime_ema=[0.0] * n_nodes,
        )


def step_metrics(
    now: Sequence[tuple],
    start: Sequence[tuple],
    pc1_nodes: Sequence[int],
    prev: StepMetrics,
    window_us: int,
    busy_us: int,
    d_th_us: float,
    pc1_pending_age_us: float = 0.0,
) -> StepMetrics:
    """Fold one window's per-node counters into the next StepMetrics.

    now and start hold each node's window_counters tuple at the window's end
    and start edge, one per node of prev in node-index order, else ValueError.
    pc1_nodes are the indices of the PC1 nodes, whose mean access delay is the
    instantaneous delay. busy_us is the channel occupancy inside the window,
    from the simulator's occupancy integrator, so frames in flight at the edges
    count.

    pc1_pending_age_us is the age of the oldest undelivered PC1 head-of-line
    frame at the window edge. A window without PC1 completions carries the
    previous instantaneous delay, floored by that age once it is
    starvation-scale (above 4 * d_th_us): a starving queue whose frame has
    waited longer than the last measured delay is already worse off, and
    without the floor a fully collapsed channel would read as zero delay.
    Routine in-flight waits stay invisible.
    """
    if window_us <= 0:
        raise ValueError("window_us must be > 0")
    n = len(prev.collision_rate)
    if len(now) != n or len(start) != n:
        raise ValueError(f"window has {len(now)} nodes, state {n}, start edge {len(start)}")

    rates, airtimes, airtime_ema = [], [], []
    total_succ = total_coll = 0
    for (succ, coll, air, _), (succ0, coll0, air0, _), r, e in zip(
            now, start, prev.collision_rate, prev.airtime_ema):
        succ, coll, air = succ - succ0, coll - coll0, air - air0
        total_succ += succ
        total_coll += coll
        # per-node collision rate, carried when a node made no attempts
        rates.append(collision_probability(succ, coll) if succ or coll else r)
        airtimes.append(air)
        airtime_ema.append(ema_update(e, float(air), ALPHA_DELAY))
    attempts = total_succ + total_coll
    agg = total_coll / attempts if attempts else prev.coll_rate_agg
    fast = ema_update(prev.coll_ema_fast, agg, ALPHA_FAST)
    slow = ema_update(prev.coll_ema_slow, agg, ALPHA_SLOW)

    # exact integer sums, so the quotient is the correctly rounded mean
    pc1_succ = pc1_delay_sum = 0
    for i in pc1_nodes:
        succ, _, _, delay = now[i]
        succ0, _, _, delay0 = start[i]
        pc1_succ += succ - succ0
        pc1_delay_sum += delay - delay0
    if pc1_succ:
        delay_inst = pc1_delay_sum / pc1_succ
    elif pc1_pending_age_us > 4 * d_th_us:
        delay_inst = max(prev.pc1_delay_inst_us, float(pc1_pending_age_us))
    else:
        delay_inst = prev.pc1_delay_inst_us
    delay_smooth = ema_update(prev.pc1_delay_smooth_us, delay_inst, ALPHA_DELAY)

    # Fairness over within-window success airtime. A window that delivered
    # nothing scores the 1/n floor rather than a vacuous or stale value, so a
    # collision-collapsed channel cannot keep earning ghost fairness. The
    # smoothed per-node shares (airtime_ema) are carried, unread, for scoring
    # f0 on them (ROADMAP item 2).
    jfi = jain_index(airtimes) if any(airtimes) else 1.0 / len(airtimes)

    util = min(busy_us / window_us, 1.0)

    violated = 1.0 if delay_smooth > d_th_us else 0.0
    violation = ema_update(prev.violation_rate, violated, ALPHA_VIOLATION)

    return StepMetrics(
        jfi=jfi,
        pc1_delay_inst_us=delay_inst,
        pc1_delay_smooth_us=delay_smooth,
        collision_rate=rates,
        collision_trend=fast - slow,
        airtime_util=util,
        violation_rate=violation,
        airtime_ema=airtime_ema,
        coll_ema_fast=fast,
        coll_ema_slow=slow,
        coll_rate_agg=agg,
    )


def build_observation(metrics: StepMetrics, d_th_us: float) -> np.ndarray:
    """Fixed-order feature vector, every entry clipped to [-5, 5].

    Layout: [delay_inst/D_th, delay_smooth/D_th, per-node collision rates
    (node-id order), collision_trend, airtime_util, violation_rate].
    """
    if d_th_us <= 0:
        raise ValueError("d_th_us must be > 0")
    # Every feature is finite by construction (guarded divisions, means of
    # integer delays, a min()'d utilisation), so clipping is all that is left.
    vec = np.array([
        metrics.pc1_delay_inst_us / d_th_us,
        metrics.pc1_delay_smooth_us / d_th_us,
        *metrics.collision_rate,
        metrics.collision_trend,
        metrics.airtime_util,
        metrics.violation_rate,
    ], dtype=np.float64)
    return vec.clip(-OBS_CLIP, OBS_CLIP, out=vec)


def observation_dim(n_nodes: int) -> int:
    return n_nodes + 5
