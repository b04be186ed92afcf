"""Metrics: fairness index, EMA smoothing, window aggregation, observations."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coexctl.medium import PClass, Tech, TxKind, TxOutcome
from coexctl.metrics import (
    StepMetrics,
    build_observation,
    ema_update,
    jain_index,
    observation_dim,
    step_metrics,
)


def outcome(node, kind, start, end, pclass=PClass.PC3, delay=None):
    return TxOutcome(
        node=node, tech=Tech.NRU, pclass=pclass, kind=kind,
        start_us=start, end_us=end, access_delay_us=delay,
    )


# ----------------------------------------------------------------------
# jain_index


@pytest.mark.parametrize(
    "airtimes,expected",
    [([1, 1, 1], 1.0), ([1, 0], 0.5), ([3, 1, 0, 0], 0.4),
     ([0.0, 5e-324], 0.5), ([7.6e-160, 0.0], 0.5)],
)
def test_jain_examples(airtimes, expected):
    assert jain_index(airtimes) == pytest.approx(expected, abs=1e-12)


def test_jain_empty_rejected():
    with pytest.raises(ValueError):
        jain_index([])


def test_jain_all_zero_is_vacuously_fair():
    assert jain_index([0, 0, 0]) == 1.0


# Each x is 0 or >= 1e-300, so c * x stays a normal float: a subnormal x such
# as 5e-324 would underflow to 0 when scaled, and no index could then agree.
@given(
    st.lists(st.just(0.0) | st.floats(min_value=1e-300, max_value=1e6), min_size=1,
             max_size=10),
    st.floats(min_value=1e-3, max_value=1e3),
)
@settings(max_examples=200, deadline=None)
def test_jain_scale_invariant_and_bounded(xs, c):
    j = jain_index(xs)
    n = len(xs)
    assert 1.0 / n - 1e-12 <= j <= 1.0 + 1e-12
    assert jain_index([c * x for x in xs]) == pytest.approx(j, rel=1e-12, abs=1e-12)


def test_jain_unity_iff_equal():
    assert jain_index([2.5, 2.5, 2.5]) == pytest.approx(1.0, abs=1e-12)
    assert jain_index([2.5, 2.5, 2.4]) < 1.0


# ----------------------------------------------------------------------
# ema_update


def test_ema_no_memory_at_alpha_one():
    assert ema_update(123.0, 7.0, 1.0) == 7.0


def test_ema_first_step_blend():
    assert ema_update(0.0, 1.0, 0.1) == pytest.approx(0.1, abs=1e-15)


def test_ema_geometric_convergence():
    prev, target, alpha = 10.0, 3.0, 0.25
    e0 = abs(prev - target)
    x = prev
    for k in range(1, 30):
        x = ema_update(x, target, alpha)
        assert abs(x - target) == pytest.approx((1 - alpha) ** k * e0, rel=1e-9)


def test_ema_rejects_bad_alpha():
    with pytest.raises(ValueError):
        ema_update(0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        ema_update(0.0, 1.0, 1.5)


# ----------------------------------------------------------------------
# step_metrics


def initial3():
    return StepMetrics.initial(range(3))


def test_collision_rate_counting_oracle():
    prev = initial3()
    window = [
        outcome(0, TxKind.COLLISION, 0, 100),
        outcome(0, TxKind.COLLISION, 200, 300),
        outcome(0, TxKind.COLLISION, 400, 500),
        outcome(0, TxKind.SUCCESS, 600, 700, delay=50),
        outcome(1, TxKind.SUCCESS, 800, 900, delay=10),
    ]
    m = step_metrics(window, prev, 2500, busy_us=0)
    assert m.collision_rate[0] == pytest.approx(0.75)
    assert m.collision_rate[1] == 0.0
    assert m.collision_rate[2] == prev.collision_rate[2]  # no attempts: carried


def test_delay_carry_rule():
    prev = initial3()
    m1 = step_metrics(
        [outcome(0, TxKind.SUCCESS, 0, 100, pclass=PClass.PC1, delay=777)], prev, 2500,
        busy_us=0,
    )
    assert m1.pc1_delay_inst_us == 777
    m2 = step_metrics([], m1, 2500, busy_us=0)
    assert m2.pc1_delay_inst_us == 777  # carried
    assert m2.pc1_delay_smooth_us == pytest.approx(
        0.2 * 777 + 0.8 * m1.pc1_delay_smooth_us
    )


def test_pending_age_floors_carried_delay():
    prev = initial3()
    m = step_metrics([], prev, 2500, busy_us=0, pc1_pending_age_us=9999.0)
    assert m.pc1_delay_inst_us == 9999.0
    # a younger pending frame leaves the carry untouched
    m2 = step_metrics([], m, 2500, busy_us=0, pc1_pending_age_us=100.0)
    assert m2.pc1_delay_inst_us == 9999.0


def test_idle_window_util_zero():
    # util is the occupancy integral's share of the window, clipped at 1.0
    for busy_us in (0, 1700, 2500, 2600):
        m = step_metrics([], initial3(), 2500, busy_us=busy_us)
        assert m.airtime_util == min(busy_us / 2500, 1.0)
    assert m.airtime_util == 1.0


def test_jfi_within_window_shares_and_smoothed_tracking():
    prev = initial3()
    window = [
        outcome(0, TxKind.SUCCESS, 0, 1000, delay=1),
        outcome(1, TxKind.SUCCESS, 1000, 2000, delay=1),
    ]
    m1 = step_metrics(window, prev, 2500, busy_us=0)
    assert m1.jfi == pytest.approx(jain_index([1000, 1000, 0]))
    # smoothed per-node shares carried for reporting: 0.2*[1000, 1000, 0]
    assert m1.airtime_ema == {0: 200.0, 1: 200.0, 2: 0.0}


def test_jfi_floors_at_1_over_n_when_nothing_delivers():
    m = initial3()
    m2 = step_metrics([outcome(2, TxKind.COLLISION, 0, 500)], m, 2500, busy_us=0)
    assert m2.jfi == pytest.approx(1.0 / 3.0)  # nothing delivered: least fair


def test_step_metrics_outcome_order_invariant():
    prev = initial3()
    window = [
        outcome(0, TxKind.COLLISION, 0, 100),
        outcome(1, TxKind.SUCCESS, 200, 400, pclass=PClass.PC1, delay=42),
        outcome(2, TxKind.SUCCESS, 500, 900),
        outcome(0, TxKind.SUCCESS, 1000, 1200, delay=3),
    ]
    a = step_metrics(window, prev, 2500, busy_us=0)
    b = step_metrics(list(reversed(window)), prev, 2500, busy_us=0)
    assert a == b


def test_trend_is_fast_minus_slow():
    prev = initial3()
    window = [outcome(0, TxKind.COLLISION, 0, 100), outcome(1, TxKind.SUCCESS, 200, 300)]
    m = step_metrics(window, prev, 2500, busy_us=0)
    agg = 0.5
    assert m.coll_ema_fast == pytest.approx(0.3 * agg)
    assert m.coll_ema_slow == pytest.approx(0.05 * agg)
    assert m.collision_trend == pytest.approx(m.coll_ema_fast - m.coll_ema_slow)


def test_violation_rate_tracks_threshold():
    prev = initial3()
    m = step_metrics(
        [outcome(0, TxKind.SUCCESS, 0, 100, pclass=PClass.PC1, delay=50_000)],
        prev, 2500, busy_us=0, d_th_us=2000.0,
    )
    # smoothed delay = 0.2*50000 = 10000 > 2000
    assert m.pc1_delay_smooth_us > 2000
    assert m.violation_rate == pytest.approx(0.2)


# ----------------------------------------------------------------------
# build_observation


def test_observation_anchor_at_threshold():
    m = initial3()
    m.pc1_delay_smooth_us = 2000.0
    obs = build_observation(m, d_th_us=2000.0)
    assert obs[1] == 1.0


def test_observation_layout_and_dim():
    m = initial3()
    obs = build_observation(m)
    assert obs.shape == (observation_dim(3),)
    assert obs.shape == (8,)


def test_observation_all_quiet_is_zero():
    m = StepMetrics.initial(range(2))
    obs = build_observation(m)
    assert np.all(obs == 0.0)


@given(
    st.floats(min_value=-1e9, max_value=1e9),
    st.floats(min_value=-1e9, max_value=1e9),
    st.floats(min_value=-10, max_value=10),
    st.lists(st.floats(min_value=-2, max_value=2), min_size=2, max_size=2),
)
@settings(max_examples=200, deadline=None)
def test_observation_always_finite_and_clipped(d1, d2, trend, rates):
    m = StepMetrics.initial(range(2))
    m.pc1_delay_inst_us = d1
    m.pc1_delay_smooth_us = d2
    m.collision_trend = trend
    m.collision_rate = {0: rates[0], 1: rates[1]}
    obs = build_observation(m)
    assert np.all(np.isfinite(obs))
    assert np.all(obs <= 5.0) and np.all(obs >= -5.0)


def test_observation_rejects_nonpositive_normalizer():
    with pytest.raises(ValueError):
        build_observation(initial3(), d_th_us=0.0)
