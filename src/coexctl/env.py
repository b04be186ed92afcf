"""Constrained-MDP wrapper around the channel simulator.

One control step applies the action's row of the action table, advances the
medium by 2.5 ms, and returns the window's StepMetrics: f0 is its jfi, f1 its
pc1_delay_smooth_us. observe(lam, lambda_max) builds the augmented state from
the caller's dual variable. Episodes are 100 steps; by default the medium
state persists across episodes to mimic a continuing ergodic process, and a
hard reset (fresh simulator) happens only when an explicit seed is supplied.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import metrics as met
from .constraint import augment_state
from .medium import ConfigError, ContenderConfig, PClass, Simulator, Tech

STEP_DURATION_US = 2500
EPISODE_STEPS = 100
D_TH_US = 2000.0

# CW mode: CWmax_PCi = 2^(a_i + b_i) - 1 with b_PC1 = 0, b_PC3 = 4; CWmin is
# pinned to each class's a=0 value so BEB keeps a floor.
CW_B_PC1 = 0
CW_B_PC3 = 4
CW_MIN_PC1 = 2**CW_B_PC1 - 1
CW_MIN_PC3 = 2**CW_B_PC3 - 1

# Each mode's (PC1 options, PC3 options): the cw exponent a_i, the AIFSN or
# the MCOT in microseconds.
ACTION_GRIDS = {
    "cw": (tuple(range(7)), tuple(range(7))),
    "aifsn": ((1, 2, 3), (1, 2, 3, 4, 5, 6, 7)),
    "mcot": (tuple(range(1000, 4001, 500)), tuple(range(1000, 4001, 500))),
}


def _class_params(mode: str, pclass: PClass, value: int) -> dict:
    """One class's MAC parameters for one option of the mode's grid."""
    if mode == "cw":
        cw_min, b = (CW_MIN_PC1, CW_B_PC1) if pclass == PClass.PC1 else (CW_MIN_PC3, CW_B_PC3)
        return {"cw_min": cw_min, "cw_max": 2 ** (value + b) - 1}
    return {"aifsn": value} if mode == "aifsn" else {"mcot_us": value}


def action_table(mode: str) -> list[dict]:
    """Each action's Simulator.apply_mac_params assignment, by index: row-major
    over ACTION_GRIDS[mode], the PC1 option varying slowest. Only the gNB
    (NR-U) classes are set; Wi-Fi keeps its preset parameters."""
    if mode not in ACTION_GRIDS:
        raise ValueError(f"unknown action mode: {mode!r}")
    pc1, pc3 = ACTION_GRIDS[mode]
    return [{(Tech.NRU, PClass.PC1): _class_params(mode, PClass.PC1, v1),
             (Tech.NRU, PClass.PC3): _class_params(mode, PClass.PC3, v3)}
            for v1 in pc1 for v3 in pc3]


def coex_mix_preset(gnb_pc1: int = 1, gnb_pc3: int = 1, ap_pc3: int = 1) -> list[ContenderConfig]:
    """Saturated mix with default MAC parameters, one entry per node: gnb_pc1
    gNB PC1, then gnb_pc3 gNB PC3, then ap_pc3 AP PC3 entries. The entries of
    one class share one config object, which is frozen."""
    pc1 = ContenderConfig(Tech.NRU, PClass.PC1, aifsn=2, cw_min=7, cw_max=15, mcot_us=2000)
    pc3 = ContenderConfig(Tech.NRU, PClass.PC3, aifsn=3, cw_min=127, cw_max=255, mcot_us=4000)
    ap = ContenderConfig(Tech.WIFI, PClass.PC3, aifsn=3, cw_min=127, cw_max=255, mcot_us=4000)
    contenders = [pc1] * gnb_pc1 + [pc3] * gnb_pc3 + [ap] * ap_pc3
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
        # each action index's assignment of MAC parameters
        self.actions = action_table(action_mode)
        self.cr_lbt = cr_lbt
        self.d_th_us = d_th_us
        self.sim: Optional[Simulator] = None
        # the action index last applied to self.sim; None on a fresh simulator
        self._applied: Optional[int] = None
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
        return len(self.contenders)

    @property
    def observation_dim(self) -> int:
        # +1 for the appended dual-variable feature
        return met.observation_dim(self.n_nodes) + 1

    @property
    def n_actions(self) -> int:
        return len(self.actions)

    def reset(self, seed: Optional[int] = None) -> None:
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
        self._prev_counts = list(map(met.window_counters, self._live))
        self._prev_occupied = self.sim.occupied_us_at()

    def observe(self, lam: float, lambda_max: float) -> np.ndarray:
        """The policy input: the latest window's features, then lam / lambda_max."""
        base = met.build_observation(self._metrics, self.d_th_us)
        return augment_state(base, lam, lambda_max)

    def _apply_action(self, index: int) -> None:
        # applying an assignment twice changes nothing, so a repeat is skipped
        if index == self._applied:
            return
        # refused explicitly, since a list would read -1 as its last row
        if not 0 <= index < len(self.actions):
            raise ValueError(f"action index {index} out of range [0, {len(self.actions)})")
        self.sim.apply_mac_params(self.actions[index])
        self._applied = index

    def step(self, action: Optional[int]) -> met.StepMetrics:
        """One control step, returning the window's StepMetrics; action None
        keeps the current MAC parameters (the fixed-parameter baseline)."""
        if self.sim is None or self._metrics is None:
            raise RuntimeError("reset() must be called before step()")
        if self._step_count >= EPISODE_STEPS:
            raise RuntimeError("episode is done; call reset()")
        if action is not None:
            self._apply_action(action)
        sim = self.sim
        sim.run_for(STEP_DURATION_US)
        counts = list(map(met.window_counters, self._live))
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
        return self._metrics
