"""Constrained-MDP wrapper around the channel simulator.

One control step applies the decoded MAC parameters, advances the medium by
2.5 ms, and returns the observation plus the objective pair
(f0, f1) = (JFI of the window, smoothed PC1 access delay). Episodes are 100
steps; by default the medium state persists across episodes to mimic a
continuing ergodic process, and a hard reset (fresh simulator) happens only
when an explicit seed is supplied.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import metrics as met
from .constraint import DualController, augment_state
from .medium import (
    ConfigError,
    ContenderConfig,
    PClass,
    Simulator,
    Tech,
    counters,
)

STEP_DURATION_US = 2500
EPISODE_STEPS = 100
D_TH_US = 2000.0

# CW mode: CWmax_PCi = 2^(a_i + b_i) - 1 with b_PC1 = 0, b_PC3 = 4; CWmin is
# pinned to each class's a=0 value so BEB keeps a floor.
CW_B_PC1 = 0
CW_B_PC3 = 4
CW_MIN_PC1 = 2**CW_B_PC1 - 1
CW_MIN_PC3 = 2**CW_B_PC3 - 1

AIFSN_PC1_OPTIONS = (1, 2, 3)
AIFSN_PC3_OPTIONS = (1, 2, 3, 4, 5, 6, 7)
MCOT_OPTIONS_US = tuple(range(1000, 4001, 500))


@dataclass(frozen=True)
class ActionSpace:
    """Discrete per-class option grid; index is row-major with PC1 slowest."""

    mode: str
    pc1_options: tuple
    pc3_options: tuple

    @classmethod
    def for_mode(cls, mode: str) -> "ActionSpace":
        mode = mode.lower()
        if mode == "cw":
            return cls("cw", tuple(range(7)), tuple(range(7)))
        if mode == "aifsn":
            return cls("aifsn", AIFSN_PC1_OPTIONS, AIFSN_PC3_OPTIONS)
        if mode == "mcot":
            return cls("mcot", MCOT_OPTIONS_US, MCOT_OPTIONS_US)
        raise ValueError(f"unknown action mode: {mode!r}")

    @property
    def cardinality(self) -> int:
        return len(self.pc1_options) * len(self.pc3_options)

    def encode(self, i1: int, i3: int) -> int:
        return i1 * len(self.pc3_options) + i3

    def split(self, index: int) -> tuple[int, int]:
        if not 0 <= index < self.cardinality:
            raise ValueError(f"action index {index} out of range [0, {self.cardinality})")
        return divmod(index, len(self.pc3_options))


def decode_action(index: int, space: ActionSpace) -> dict[PClass, dict]:
    """Map a flat action index to per-class MAC parameter updates."""
    i1, i3 = space.split(index)
    v1, v3 = space.pc1_options[i1], space.pc3_options[i3]
    if space.mode == "cw":
        return {
            PClass.PC1: {"cw_min": CW_MIN_PC1, "cw_max": 2 ** (v1 + CW_B_PC1) - 1},
            PClass.PC3: {"cw_min": CW_MIN_PC3, "cw_max": 2 ** (v3 + CW_B_PC3) - 1},
        }
    if space.mode == "aifsn":
        return {PClass.PC1: {"aifsn": v1}, PClass.PC3: {"aifsn": v3}}
    return {PClass.PC1: {"mcot_us": v1}, PClass.PC3: {"mcot_us": v3}}


@dataclass
class StepResult:
    observation: np.ndarray
    f0: float
    f1: float
    done: bool
    info: met.StepMetrics


def coex_mix_preset(gnb_pc1: int = 1, gnb_pc3: int = 1, ap_pc3: int = 1) -> list[ContenderConfig]:
    """Saturated gNB PC1 / gNB PC3 / AP PC3 mix with default MAC parameters."""
    contenders = []
    if gnb_pc1:
        contenders.append(
            ContenderConfig(Tech.NRU, PClass.PC1, aifsn=2, cw_min=7, cw_max=15,
                            mcot_us=2000, count=gnb_pc1)
        )
    if gnb_pc3:
        contenders.append(
            ContenderConfig(Tech.NRU, PClass.PC3, aifsn=3, cw_min=127, cw_max=255,
                            mcot_us=4000, count=gnb_pc3)
        )
    if ap_pc3:
        contenders.append(
            ContenderConfig(Tech.WIFI, PClass.PC3, aifsn=3, cw_min=127, cw_max=255,
                            mcot_us=4000, count=ap_pc3)
        )
    if not contenders:
        raise ConfigError("scenario needs at least one contender")
    return contenders


def single_pc1_preset() -> list[ContenderConfig]:
    """Lone gNB PC1 with a deterministic zero-width backoff window."""
    return [ContenderConfig(Tech.NRU, PClass.PC1, aifsn=2, cw_min=0, cw_max=0, mcot_us=2000)]


class CoexEnv:
    """reset/step environment over one simulator instance on the default medium timings."""

    episode_steps = EPISODE_STEPS

    def __init__(
        self,
        contenders: list[ContenderConfig],
        action_mode: str = "cw",
        cr_lbt: bool = False,
        d_th_us: float = D_TH_US,
    ):
        self.contenders = contenders
        self.space = ActionSpace.for_mode(action_mode)
        self.cr_lbt = cr_lbt
        self.d_th_us = d_th_us
        self.sim: Optional[Simulator] = None
        # the action index last applied to self.sim; None on a fresh simulator
        self._applied: Optional[int] = None
        self.lam = 0.0
        # the observation's lambda normaliser; a rollout sets it from its dual
        self.lambda_max = DualController.lambda_max
        self._step_count = 0
        self._metrics: Optional[met.StepMetrics] = None
        # PC1 node indices, live NodeStats; counter tuples, occupancy at the last window edge
        self._pc1: list[int] = []
        self._live: list = []
        self._prev_counts: list[tuple] = []
        self._prev_occupied = 0

    # ------------------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return sum(c.count for c in self.contenders)

    @property
    def observation_dim(self) -> int:
        # +1 for the appended dual-variable feature
        return met.observation_dim(self.n_nodes) + 1

    @property
    def n_actions(self) -> int:
        return self.space.cardinality

    @property
    def step_count(self) -> int:
        return self._step_count

    def reset(self, seed: Optional[int] = None, lambda0: float = 0.0) -> np.ndarray:
        """Start an episode; a seed forces a fresh simulator (on the contenders'
        default MAC parameters), otherwise the medium persists and only
        metrics and the step counter restart."""
        if seed is not None or self.sim is None:
            if seed is None:
                raise ValueError("first reset requires a seed")
            self.sim = Simulator(self.contenders, cr_lbt_enabled=self.cr_lbt, seed=seed)
            self._applied = None
            self._pc1 = [n.idx for n in self.sim.nodes if n.cfg.pclass == PClass.PC1]
        self._step_count = 0
        self._metrics = met.StepMetrics.initial(len(self.sim.nodes))
        self._live = [n.stats for n in self.sim.nodes]
        self._prev_counts = list(map(counters, self._live))
        self._prev_occupied = self.sim.occupied_us_at()
        self.lam = lambda0
        return self._observe()

    def _observe(self) -> np.ndarray:
        base = met.build_observation(self._metrics, self.d_th_us)
        return augment_state(base, self.lam, self.lambda_max)

    def _apply_action(self, index: int) -> None:
        # applying an assignment twice changes nothing, so a repeat is skipped
        if index == self._applied:
            return
        # only the gNB (NR-U) classes are actuated; Wi-Fi keeps its preset parameters
        per_class = decode_action(index, self.space)
        self.sim.apply_mac_params({(Tech.NRU, pclass): params
                                   for pclass, params in per_class.items()})
        self._applied = index

    def step(self, action: Optional[int]) -> StepResult:
        """One control step; action None leaves the current MAC parameters
        untouched (the fixed-parameter baseline)."""
        if self.sim is None or self._metrics is None:
            raise RuntimeError("reset() must be called before step()")
        if self._step_count >= EPISODE_STEPS:
            raise RuntimeError("episode is done; call reset()")
        if action is not None:
            self._apply_action(action)
        sim = self.sim
        sim.run_for(STEP_DURATION_US)
        counts = list(map(counters, self._live))
        occupied = sim.occupied_us_at()
        busy = occupied - self._prev_occupied
        self._prev_occupied = occupied
        pending_age = max(
            (sim.clock - sim.nodes[i].hol_since_us for i in self._pc1), default=0
        )
        self._metrics = met.step_metrics(
            counts,
            self._prev_counts,
            self._pc1,
            self._metrics,
            STEP_DURATION_US,
            busy,
            d_th_us=self.d_th_us,
            pc1_pending_age_us=pending_age,
        )
        self._prev_counts = counts
        self._step_count += 1
        done = self._step_count >= EPISODE_STEPS
        return StepResult(
            observation=self._observe(),
            f0=self._metrics.jfi,
            f1=self._metrics.pc1_delay_smooth_us,
            done=done,
            info=self._metrics,
        )
