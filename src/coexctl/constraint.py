"""Signed threshold-invariant constraint signals and the online dual variable.

The delay constraint is turned into a bounded learning signal in three steps:
a signed relative violation v = (D_th - delay)/D_th (positive means satisfied),
a tanh(v/kappa) squash that keeps the signal in (-1, 1) with smooth slope near
the threshold, and a negative-only part min(0, v_scaled) for the learner so
that safe operation above the threshold is never penalized. The dual variable
consumes the full signed, EMA-smoothed signal: the same scaled value the
learner saw, which keeps training and execution on one scale.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .metrics import StepMetrics, ema_update


def relative_violation(delay_us: float, d_th_us: float) -> float:
    """Signed relative slack: positive when the delay constraint is satisfied."""
    if d_th_us <= 0:
        raise ValueError("d_th_us must be > 0")
    return (d_th_us - delay_us) / d_th_us


def scale_violation(v: float, kappa: float) -> float:
    """tanh(v / kappa); kappa sets the transition slope near the threshold."""
    if kappa <= 0:
        raise ValueError("kappa must be > 0")
    return math.tanh(v / kappa)


def learner_cost(v_scaled: float) -> float:
    """Negative-only component: penalize violations, ignore safe slack."""
    return min(0.0, v_scaled)


def sample_lambda(rng: np.random.Generator, lambda_max: float) -> float:
    """Training-time dual draw, uniform over the clamp interval [0, lambda_max]."""
    if lambda_max < 0:
        raise ValueError("lambda_max must be >= 0")
    if lambda_max == 0:
        return 0.0
    return float(rng.uniform(0.0, lambda_max))


def augment_state(obs: np.ndarray, lam: float, lambda_max: float) -> np.ndarray:
    """A new float64 vector: obs, then lambda/lambda_max (0.0 when lambda_max is 0)."""
    if not 0.0 <= lam <= max(lambda_max, 0.0) + 1e-12:
        raise ValueError(f"lambda {lam} outside [0, {lambda_max}]")
    out = np.empty(len(obs) + 1)
    out[:-1] = obs
    out[-1] = lam / lambda_max if lambda_max > 0 else 0.0
    return out


@dataclass
class DualConfig:
    """The dual's settings. Every run uses these defaults; tests vary them."""

    lambda_max: float = 5.0
    eta_lambda: float = 0.05
    update_period: int = 5
    kappa: float = 0.5
    alpha_v: float = 0.2

    def validate(self) -> None:
        for name, ok, rule in (
            ("lambda_max", self.lambda_max >= 0, ">= 0"),
            ("eta_lambda", self.eta_lambda > 0, "> 0"),
            ("update_period", self.update_period >= 1, ">= 1"),
            ("kappa", self.kappa > 0, "> 0"),
            ("alpha_v", 0.0 < self.alpha_v <= 1.0, "in (0, 1]"),
        ):
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)!r}")

    def controller(self) -> DualController:
        """A fresh controller on these settings."""
        return DualController(**asdict(self))


@dataclass
class DualController(DualConfig):
    """Dual variable with EMA-smoothed violation feedback.

    Every control step the scaled signed violation is folded into v_ema; every
    update_period steps dual_update moves lambda against it and projects onto
    [0, lambda_max]. v_ema persists across episode boundaries.
    """

    lam: float = 0.0
    v_ema: float = 0.0
    _comp: float = 0.0  # Kahan compensation for the accumulated updates

    def __post_init__(self) -> None:
        self.validate()

    def observe(self, v_scaled: float) -> float:
        """Fold one step's scaled violation into the EMA; returns the new EMA."""
        self.v_ema = ema_update(self.v_ema, v_scaled, self.alpha_v)
        return self.v_ema

    def feed(self, v_scaled: float, step: int, smooth: bool = True) -> None:
        """One control step of dual feedback: fold in the violation, then run
        dual_update on every update_period-th step of the episode.

        With smooth off (the raw ablation arm) the unsmoothed value replaces
        the EMA, so the raw signal drives the dual directly.
        """
        if smooth:
            self.observe(v_scaled)
        else:
            self.v_ema = v_scaled
        if (step + 1) % self.update_period == 0:
            self.dual_update()

    def dual_update(self) -> float:
        """lambda <- clamp([lambda - eta * v_ema]^+, 0, lambda_max).

        Compensated accumulation keeps long constant-signal ramps exact: one
        hundred eta-sized steps land on the clamp rather than one ulp short.
        """
        delta = -self.eta_lambda * self.v_ema - self._comp
        total = self.lam + delta
        self._comp = (total - self.lam) - delta
        self.lam = total
        if self.lam <= 0.0:
            self.lam, self._comp = 0.0, 0.0
        elif self.lam - self._comp >= self.lambda_max:
            # _comp holds (rounded - true), so lam - _comp is the true running sum
            self.lam, self._comp = self.lambda_max, 0.0
        return self.lam

    def reset(self, lam0: float = 0.0) -> None:
        if not 0.0 <= lam0 <= self.lambda_max + 1e-12:
            raise ValueError(f"lambda0 {lam0} outside [0, {self.lambda_max}]")
        self.lam = lam0
        self._comp = 0.0


def constraint_signals(
    step: StepMetrics, d_th_us: float, kappa: float, scaling: bool
) -> tuple[float, float, float]:
    """One step of the constraint pipeline: (v, v_for_dual, cost_for_learner).

    With scaling on, v is the violation of the step's smoothed delay,
    v_for_dual is tanh(v/kappa) and the learner cost is its negative part;
    the dual consumes the bit-identical scaled value whose negative part the
    learner consumed. With scaling off (the ablation arm), v is the violation
    of the unsmoothed instantaneous delay, and this raw signal, unbounded in
    both directions, goes to both sides.
    """
    if scaling:
        v = relative_violation(step.pc1_delay_smooth_us, d_th_us)
        v_scaled = scale_violation(v, kappa)
        return v, v_scaled, learner_cost(v_scaled)
    v = relative_violation(step.pc1_delay_inst_us, d_th_us)
    return v, v, v
