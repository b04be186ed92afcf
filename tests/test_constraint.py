"""Constraint pipeline: violation scaling, negative-only cost, dual dynamics."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coexctl.constraint import (
    DualController,
    augment_state,
    constraint_signals,
    learner_cost,
    relative_violation,
    sample_lambda,
    scale_violation,
)
from coexctl.metrics import StepMetrics

TOL = 1e-12


# ----------------------------------------------------------------------
# relative_violation


@pytest.mark.parametrize(
    "delay,d_th,expected",
    [(2000.0, 2000.0, 0.0), (0.0, 2000.0, 1.0), (4000.0, 2000.0, -1.0)],
)
def test_relative_violation_examples(delay, d_th, expected):
    assert relative_violation(delay, d_th) == pytest.approx(expected, abs=TOL)


def test_threshold_invariance_1000_triples():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        delay = float(rng.uniform(0.0, 10_000.0))
        d_th = float(rng.uniform(1.0, 10_000.0))
        c = float(rng.uniform(1e-3, 1e3))
        assert relative_violation(c * delay, c * d_th) == pytest.approx(
            relative_violation(delay, d_th), abs=TOL, rel=TOL
        )


# ----------------------------------------------------------------------
# scale_violation


def test_scale_examples():
    assert scale_violation(0.0, 0.5) == 0.0
    assert scale_violation(0.7, 0.7) == pytest.approx(math.tanh(1.0), abs=TOL)
    assert scale_violation(-0.5, 0.5) == pytest.approx(math.tanh(-1.0), abs=TOL)
    assert abs(scale_violation(-0.5, 0.5) + 0.76159) < 1e-5


def test_scale_is_odd_strictly_increasing_and_bounded():
    rng = np.random.default_rng(1)
    # strict monotonicity checked where float64 tanh still resolves increments
    vs = np.sort(rng.uniform(-2.5, 2.5, size=200))
    scaled = [scale_violation(float(v), 0.5) for v in vs]
    assert all(a < b for a, b in zip(scaled, scaled[1:]))
    wide = rng.uniform(-100, 100, size=200)
    assert all(-1.0 <= scale_violation(float(v), 0.5) <= 1.0 for v in wide)
    for v in wide:
        assert scale_violation(float(-v), 0.5) == pytest.approx(
            -scale_violation(float(v), 0.5), abs=TOL
        )


def test_scale_rejects_bad_kappa():
    with pytest.raises(ValueError):
        scale_violation(0.1, 0.0)


# ----------------------------------------------------------------------
# learner_cost


@pytest.mark.parametrize("v,expected", [(0.4, 0.0), (-0.4, -0.4), (0.0, 0.0)])
def test_learner_cost_examples(v, expected):
    assert learner_cost(v) == expected


@given(st.floats(min_value=-1.0, max_value=1.0))
@settings(max_examples=200, deadline=None)
def test_learner_cost_nonpositive_monotone(v):
    assert learner_cost(v) <= 0.0
    assert learner_cost(v) <= learner_cost(min(v + 0.1, 1.0)) + 1e-15


# ----------------------------------------------------------------------
# dual_update


def test_dual_update_arithmetic():
    ctrl = DualController(lambda_max=5.0, eta_lambda=0.05)
    ctrl.lam, ctrl.v_ema = 1.0, -0.5
    assert ctrl.dual_update() == pytest.approx(1.025, abs=TOL)
    assert ctrl.v_ema == -0.5  # untouched


def test_dual_update_projects_at_zero():
    ctrl = DualController(lambda_max=5.0, eta_lambda=0.05)
    ctrl.lam, ctrl.v_ema = 0.0, 0.8
    assert ctrl.dual_update() == 0.0


def test_dual_update_clamps_at_max():
    ctrl = DualController(lambda_max=5.0, eta_lambda=0.05)
    ctrl.lam, ctrl.v_ema = 4.99, -1.0
    assert ctrl.dual_update() == 5.0


def test_dual_reaches_clamp_in_exactly_100_updates():
    ctrl = DualController(lambda_max=5.0, eta_lambda=0.05)
    ctrl.lam, ctrl.v_ema = 0.0, -1.0
    for k in range(99):
        ctrl.dual_update()
    assert ctrl.lam < 5.0
    ctrl.dual_update()
    assert ctrl.lam == 5.0


def test_dual_reaches_zero_in_exactly_100_updates():
    ctrl = DualController(lambda_max=5.0, eta_lambda=0.05)
    ctrl.lam, ctrl.v_ema = 5.0, 1.0
    for k in range(99):
        ctrl.dual_update()
    assert ctrl.lam > 0.0
    ctrl.dual_update()
    assert ctrl.lam == 0.0


def test_dual_monotone_under_persistent_signal():
    ctrl = DualController()
    ctrl.v_ema = -0.3
    seq = [ctrl.dual_update() for _ in range(400)]
    assert all(a <= b for a, b in zip(seq, seq[1:]))
    assert seq[-1] == 5.0


def test_observe_is_ema_of_scaled_violation():
    ctrl = DualController(alpha_v=0.2)
    ctrl.observe(1.0)
    assert ctrl.v_ema == pytest.approx(0.2)
    ctrl.observe(1.0)
    assert ctrl.v_ema == pytest.approx(0.2 + 0.8 * 0.2)
    assert -1.0 <= ctrl.v_ema <= 1.0


# ----------------------------------------------------------------------
# sample_lambda / augment_state


def test_sample_lambda_range_and_mean():
    rng = np.random.default_rng(2)
    draws = [sample_lambda(rng, 5.0) for _ in range(100_000)]
    assert all(0.0 <= d <= 5.0 for d in draws)
    assert abs(np.mean(draws) - 2.5) < 0.05


def test_sample_lambda_degenerate():
    rng = np.random.default_rng(0)
    assert sample_lambda(rng, 0.0) == 0.0


def test_augment_state_boundaries():
    obs = np.zeros(4)
    assert augment_state(obs, 0.0, 5.0)[-1] == 0.0
    assert augment_state(obs, 5.0, 5.0)[-1] == 1.0
    assert augment_state(obs, 2.5, 5.0).shape == (5,)


def test_augment_state_rejects_out_of_range():
    with pytest.raises(ValueError):
        augment_state(np.zeros(3), 6.0, 5.0)


# ----------------------------------------------------------------------
# pipeline consistency


def step_with_delays(inst_us: float, smooth_us: float) -> StepMetrics:
    return replace(StepMetrics.initial(1), pc1_delay_inst_us=inst_us,
                   pc1_delay_smooth_us=smooth_us)


def test_constraint_signals_scaled_consistency():
    # the scaled arm reads the smoothed delay
    v, v_dual, cost = constraint_signals(step_with_delays(9000.0, 3000.0), 2000.0, 0.5,
                                         scaling=True)
    assert v == pytest.approx(-0.5, abs=TOL)
    assert v_dual == pytest.approx(math.tanh(-1.0), abs=TOL)
    assert cost == min(0.0, v_dual)
    # the dual consumes the bit-identical value whose negative part the
    # learner consumed
    assert cost == learner_cost(v_dual)


def test_constraint_signals_raw_arm():
    # the raw arm reads the unsmoothed instantaneous delay
    v, v_dual, cost = constraint_signals(step_with_delays(9000.0, 3000.0), 2000.0, 0.5,
                                         scaling=False)
    assert v == v_dual == cost == pytest.approx(-3.5, abs=TOL)
