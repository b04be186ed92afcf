"""Per-control-step performance signals derived from channel outcome traces.

Converts the raw TxOutcome stream of one control window into the smoothed
signal set the controller observes: Jain's fairness index over per-node
successful airtime, instantaneous and EMA-smoothed PC1 access delay, per-node
collision rates, a fast-minus-slow collision trend, channel airtime
utilization, and the QoS-violation rate. Sparse windows carry the previous
value rather than emitting zeros, matching the smoothing the controller's
constraint signal relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .medium import PClass, TxKind, TxOutcome

# Smoothing constants; settle within roughly one 100-step episode.
ALPHA_DELAY = 0.2
ALPHA_FAST = 0.3
ALPHA_SLOW = 0.05
ALPHA_VIOLATION = 0.2

OBS_CLIP = 5.0


def jain_index(airtimes: Sequence[float]) -> float:
    """Jain's fairness index (sum x)^2 / (n * sum x^2).

    An all-zero vector is vacuously fair and returns 1.0. Values are divided
    by the largest one first so that squaring tiny airtimes cannot underflow.
    """
    if len(airtimes) == 0:
        raise ValueError("jain_index requires a non-empty list")
    peak = float(max(airtimes))
    if peak == 0.0:
        return 1.0
    scaled = [float(x) / peak for x in airtimes]
    total = sum(scaled)
    sq = sum(x * x for x in scaled)
    return total * total / (len(airtimes) * sq)


def ema_update(prev: float, sample: float, alpha: float) -> float:
    """One exponential-moving-average step: alpha*sample + (1-alpha)*prev."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must be in (0, 1]")
    return alpha * sample + (1.0 - alpha) * prev


@dataclass
class StepMetrics:
    """Signals for one control window plus the carried EMA state."""

    jfi: float
    pc1_delay_inst_us: float
    pc1_delay_smooth_us: float
    collision_rate: dict[int, float]
    collision_trend: float
    airtime_util: float
    violation_rate: float
    # carried smoothing state: per-node success-airtime EMA for the fairness
    # index, fast/slow EMAs of the aggregate collision rate for the trend
    airtime_ema: dict[int, float] = None
    coll_ema_fast: float = 0.0
    coll_ema_slow: float = 0.0
    coll_rate_agg: float = 0.0

    @classmethod
    def initial(cls, node_ids: Iterable[int]) -> "StepMetrics":
        ids = list(node_ids)
        return cls(
            jfi=1.0,
            pc1_delay_inst_us=0.0,
            pc1_delay_smooth_us=0.0,
            collision_rate={i: 0.0 for i in ids},
            collision_trend=0.0,
            airtime_util=0.0,
            violation_rate=0.0,
            airtime_ema={i: 0.0 for i in ids},
        )


def step_metrics(
    outcomes: Sequence[TxOutcome],
    prev: StepMetrics,
    window_us: int,
    busy_us: int,
    d_th_us: float = 2000.0,
    pc1_pending_age_us: float = 0.0,
) -> StepMetrics:
    """Aggregate one window's outcomes into the next StepMetrics.

    busy_us is the channel occupancy inside the window, from the simulator's
    occupancy integrator, so frames still in flight at the window edges count.

    pc1_pending_age_us is the age of the oldest undelivered PC1 head-of-line
    frame at the window edge. A window without PC1 completions carries the
    previous instantaneous delay, floored by that age: a starving queue whose
    frame has waited longer than the last measured delay is already worse off,
    and without the floor a fully collapsed channel would read as zero delay.
    """
    if window_us <= 0:
        raise ValueError("window_us must be > 0")

    node_ids = list(prev.collision_rate.keys())
    succ = {i: 0 for i in node_ids}
    coll = {i: 0 for i in node_ids}
    success_air = {i: 0 for i in node_ids}
    pc1_delays: list[int] = []
    for o in outcomes:
        if o.kind == TxKind.SUCCESS:
            succ[o.node] = succ.get(o.node, 0) + 1
            success_air[o.node] = success_air.get(o.node, 0) + o.duration_us
            if o.pclass == PClass.PC1 and o.access_delay_us is not None:
                pc1_delays.append(o.access_delay_us)
        elif o.kind == TxKind.COLLISION:
            coll[o.node] = coll.get(o.node, 0) + 1

    # per-node collision rate, carried when a node made no attempts
    rates = {}
    for i in node_ids:
        attempts = succ[i] + coll[i]
        rates[i] = coll[i] / attempts if attempts else prev.collision_rate[i]

    total_succ = sum(succ.values())
    total_coll = sum(coll.values())
    agg = (
        total_coll / (total_succ + total_coll)
        if (total_succ + total_coll)
        else prev.coll_rate_agg
    )
    fast = ema_update(prev.coll_ema_fast, agg, ALPHA_FAST)
    slow = ema_update(prev.coll_ema_slow, agg, ALPHA_SLOW)

    if pc1_delays:
        delay_inst = float(np.mean(pc1_delays))
    else:
        delay_inst = max(prev.pc1_delay_inst_us, float(pc1_pending_age_us))
    delay_smooth = ema_update(prev.pc1_delay_smooth_us, delay_inst, ALPHA_DELAY)

    # Fairness over within-window success airtime. A window that delivered
    # nothing scores the 1/n floor rather than a vacuous or stale value, so a
    # collision-collapsed channel cannot keep earning ghost fairness. The
    # smoothed per-node shares are still tracked for reporting.
    airtime_ema = {
        i: ema_update(prev.airtime_ema[i], float(success_air[i]), ALPHA_DELAY)
        for i in node_ids
    }
    airtimes = [success_air[i] for i in node_ids]
    jfi = jain_index(airtimes) if any(airtimes) else 1.0 / len(node_ids)

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


def build_observation(metrics: StepMetrics, d_th_us: float = 2000.0) -> np.ndarray:
    """Fixed-order feature vector, every entry clipped to [-5, 5].

    Layout: [delay_inst/D_th, delay_smooth/D_th, per-node collision rates
    (node-id order), collision_trend, airtime_util, violation_rate].
    """
    if d_th_us <= 0:
        raise ValueError("d_th_us must be > 0")
    # Every feature is finite by construction (guarded divisions, means of
    # integer delays, a min()'d utilisation), so clipping is all that is left.
    rates = metrics.collision_rate
    vec = np.array([
        metrics.pc1_delay_inst_us / d_th_us,
        metrics.pc1_delay_smooth_us / d_th_us,
        *(rates[i] for i in sorted(rates)),
        metrics.collision_trend,
        metrics.airtime_util,
        metrics.violation_rate,
    ], dtype=np.float64)
    return np.clip(vec, -OBS_CLIP, OBS_CLIP, out=vec)


def observation_dim(n_nodes: int) -> int:
    return n_nodes + 5
