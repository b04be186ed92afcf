"""Metrics: fairness index, EMA smoothing, window aggregation, observations."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coexctl.medium import NodeStats
from coexctl.metrics import (
    StepMetrics,
    build_observation,
    ema_update,
    jain_index,
    observation_dim,
    step_metrics,
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


def test_jain_bits_are_the_left_to_right_sums():
    # the compensated builtin sum() of CPython 3.12+ gives 0x1.9d460c7c28604p-2
    assert jain_index([3392, 1000, 0, 0, 0, 3290, 0, 1311]).hex() == "0x1.9d460c7c28601p-2"


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
    return StepMetrics.initial(3)


def quiet3():
    return [NodeStats() for _ in range(3)]


def test_collision_rate_counting_oracle():
    prev = initial3()
    window = [
        NodeStats(successes=1, collisions=3, success_air_us=100, collision_air_us=300,
                  delay_sum_us=50),
        NodeStats(successes=1, success_air_us=100, delay_sum_us=10),
        NodeStats(),
    ]
    m = step_metrics(window, [], prev, 2500, busy_us=0, d_th_us=2000.0)
    assert m.collision_rate[0] == pytest.approx(0.75)
    assert m.collision_rate[1] == 0.0
    assert m.collision_rate[2] == prev.collision_rate[2]  # no attempts: carried


def test_window_of_another_node_count_is_refused():
    with pytest.raises(ValueError, match="window has 3 nodes, state 2"):
        step_metrics(quiet3(), [], StepMetrics.initial(2), 2500, busy_us=0, d_th_us=2000.0)


def test_delay_carry_rule():
    prev = initial3()
    window = [NodeStats(successes=1, success_air_us=100, delay_sum_us=777), NodeStats(),
              NodeStats()]
    m1 = step_metrics(window, [0], prev, 2500, busy_us=0, d_th_us=2000.0)
    assert m1.pc1_delay_inst_us == 777
    m2 = step_metrics(quiet3(), [0], m1, 2500, busy_us=0, d_th_us=2000.0)
    assert m2.pc1_delay_inst_us == 777  # carried
    assert m2.pc1_delay_smooth_us == pytest.approx(
        0.2 * 777 + 0.8 * m1.pc1_delay_smooth_us
    )


def test_pc1_delay_is_the_mean_over_pc1_successes_only():
    window = [
        NodeStats(successes=2, success_air_us=200, delay_sum_us=300),
        NodeStats(successes=5, success_air_us=500, delay_sum_us=99_999),  # PC3
        NodeStats(successes=1, success_air_us=100, delay_sum_us=400),
    ]
    m = step_metrics(window, [0, 2], initial3(), 2500, busy_us=0, d_th_us=2000.0)
    assert m.pc1_delay_inst_us == float(np.mean([100, 200, 400]))


def test_pending_age_floors_carried_delay():
    prev = initial3()
    m = step_metrics(quiet3(), [0], prev, 2500, busy_us=0, d_th_us=2000.0,
                     pc1_pending_age_us=9999.0)
    assert m.pc1_delay_inst_us == 9999.0
    # a younger pending frame leaves the carry untouched
    m2 = step_metrics(quiet3(), [0], m, 2500, busy_us=0, d_th_us=2000.0,
                      pc1_pending_age_us=100.0)
    assert m2.pc1_delay_inst_us == 9999.0
    # only an age above 4 * d_th_us is starvation-scale and floors the carry
    for age, inst in ((8000, 0.0), (8001, 8001.0)):
        m3 = step_metrics(quiet3(), [0], prev, 2500, busy_us=0, d_th_us=2000.0,
                          pc1_pending_age_us=age)
        assert m3.pc1_delay_inst_us == inst


def test_idle_window_util_zero():
    # util is the occupancy integral's share of the window, clipped at 1.0
    for busy_us in (0, 1700, 2500, 2600):
        m = step_metrics(quiet3(), [], initial3(), 2500, busy_us=busy_us, d_th_us=2000.0)
        assert m.airtime_util == min(busy_us / 2500, 1.0)
    assert m.airtime_util == 1.0


def test_jfi_within_window_shares_and_smoothed_tracking():
    prev = initial3()
    window = [
        NodeStats(successes=1, success_air_us=1000, delay_sum_us=1),
        NodeStats(successes=1, success_air_us=1000, delay_sum_us=1),
        NodeStats(),
    ]
    m1 = step_metrics(window, [], prev, 2500, busy_us=0, d_th_us=2000.0)
    assert m1.jfi == pytest.approx(jain_index([1000, 1000, 0]))
    # smoothed per-node shares carried for reporting: 0.2*[1000, 1000, 0]
    assert m1.airtime_ema == [200.0, 200.0, 0.0]


def test_jfi_floors_at_1_over_n_when_nothing_delivers():
    m = initial3()
    window = [NodeStats(), NodeStats(), NodeStats(collisions=1, collision_air_us=500)]
    m2 = step_metrics(window, [], m, 2500, busy_us=0, d_th_us=2000.0)
    assert m2.jfi == pytest.approx(1.0 / 3.0)  # nothing delivered: least fair


def test_trend_is_fast_minus_slow():
    prev = initial3()
    window = [NodeStats(collisions=1, collision_air_us=100),
              NodeStats(successes=1, success_air_us=100), NodeStats()]
    m = step_metrics(window, [], prev, 2500, busy_us=0, d_th_us=2000.0)
    agg = 0.5
    assert m.coll_ema_fast == pytest.approx(0.3 * agg)
    assert m.coll_ema_slow == pytest.approx(0.05 * agg)
    assert m.collision_trend == pytest.approx(m.coll_ema_fast - m.coll_ema_slow)


def test_violation_rate_tracks_threshold():
    prev = initial3()
    window = [NodeStats(successes=1, success_air_us=100, delay_sum_us=50_000), NodeStats(),
              NodeStats()]
    m = step_metrics(window, [0], prev, 2500, busy_us=0, d_th_us=2000.0)
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
    obs = build_observation(m, d_th_us=2000.0)
    assert obs.shape == (observation_dim(3),)
    assert obs.shape == (8,)


def test_observation_all_quiet_is_zero():
    m = StepMetrics.initial(2)
    obs = build_observation(m, d_th_us=2000.0)
    assert np.all(obs == 0.0)


@given(
    st.floats(min_value=-1e9, max_value=1e9),
    st.floats(min_value=-1e9, max_value=1e9),
    st.floats(min_value=-10, max_value=10),
    st.lists(st.floats(min_value=-2, max_value=2), min_size=2, max_size=2),
)
@settings(max_examples=200, deadline=None)
def test_observation_always_finite_and_clipped(d1, d2, trend, rates):
    m = StepMetrics.initial(2)
    m.pc1_delay_inst_us = d1
    m.pc1_delay_smooth_us = d2
    m.collision_trend = trend
    m.collision_rate = rates
    obs = build_observation(m, d_th_us=2000.0)
    assert np.all(np.isfinite(obs))
    assert np.all(obs <= 5.0) and np.all(obs >= -5.0)


def test_observation_rejects_nonpositive_normalizer():
    with pytest.raises(ValueError):
        build_observation(initial3(), d_th_us=0.0)
