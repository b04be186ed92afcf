"""Event-driven simulator of a single unlicensed channel shared by NR-U and Wi-Fi.

All times are integer microseconds. Wi-Fi contenders run EDCA-style deferment
(AIFS = SIFS + aifsn * slot) followed by a slotted backoff countdown and
transmit the instant their counter reaches zero. NR-U contenders run the same
deferment/countdown but may only start data at multiples of the frame-slot
period: a node whose countdown ends mid-gap commits to the next boundary and
either holds a reservation (plain LBT) or runs pulse-and-listen
collision-resolution micro-slots (CR-LBT) until the boundary.

The reservation hold is a commitment, not a carrier: other contenders keep
counting down during it, so two NR-U nodes can commit to the same boundary and
a Wi-Fi node can start mid-gap and get stepped on at the boundary. This is what
makes simultaneous-start collisions the dominant failure mode of plain LBT
under saturation. CR pulses, by contrast, are real energy: they freeze other
countdowns, and a committed node that hears energy during one of its listen
intervals aborts the attempt and re-defers without advancing its backoff stage.

Any temporal overlap between data transmissions is a collision for every
participant. Reservation holds and CR pulses never corrupt data.

A CR listen half is shorter than the smallest AIFS (MediumParams.validate
refuses timings where it is not), so no countdown ends inside a pulse train:
nodes that pulse in phase are exactly those that committed at the same
microsecond, and they share one heap event per pulse edge. Every running
countdown is served by one access timer kept beside the heap at the earliest
countdown end.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from typing import Iterable, Optional

import numpy as np

OBS_SLOT_US = 9
SIFS_US = 16
NRU_SLOT_BOUNDARY_US = 500
CR_SLOT_US = 18


class Tech(str, Enum):
    NRU = "NRU"
    WIFI = "WIFI"


class PClass(str, Enum):
    PC1 = "PC1"
    PC3 = "PC3"


class TxKind(str, Enum):
    SUCCESS = "SUCCESS"
    COLLISION = "COLLISION"
    RS = "RS"
    CR_PULSE = "CR_PULSE"


class ConfigError(ValueError):
    """Raised when a medium or contender configuration violates an invariant."""


@dataclass
class MediumParams:
    """Shared channel timing constants.

    frame_tx_us=None means saturated nodes fill their MCOT grant; when set it
    caps every data frame and must not exceed the smallest configured MCOT.
    """

    obs_slot_us: int = OBS_SLOT_US
    sifs_us: int = SIFS_US
    nru_slot_boundary_us: int = NRU_SLOT_BOUNDARY_US
    frame_tx_us: Optional[int] = None
    cr_slot_us: int = CR_SLOT_US
    cr_slot_count: int = 27
    # When True the reservation hold blocks other contenders' countdowns
    # (exploration switch; the default non-blocking hold is what reproduces
    # boundary-synchronised collisions under saturation).
    rs_blocks_medium: bool = False

    def validate(self) -> None:
        for name in ("obs_slot_us", "sifs_us", "nru_slot_boundary_us", "cr_slot_us"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"MediumParams.{name} must be > 0")
        if self.frame_tx_us is not None and self.frame_tx_us <= 0:
            raise ConfigError("MediumParams.frame_tx_us must be > 0 when set")
        if self.cr_slot_count < 1:
            raise ConfigError("MediumParams.cr_slot_count must be >= 1")
        if self.cr_slot_count * self.cr_slot_us > self.nru_slot_boundary_us:
            raise ConfigError(
                "MediumParams.cr_slot_count * cr_slot_us must fit in nru_slot_boundary_us"
            )
        if self.cr_slot_us % 2 != 0:
            raise ConfigError("MediumParams.cr_slot_us must be even (pulse/listen halves)")
        if self.cr_slot_us // 2 >= self.sifs_us + self.obs_slot_us:
            raise ConfigError(
                "MediumParams.cr_slot_us / 2 must be below the smallest AIFS"
                " (sifs_us + obs_slot_us)"
            )


def _is_pow2m1(v: int) -> bool:
    return v >= 0 and ((v + 1) & v) == 0


@dataclass
class ContenderConfig:
    """Static MAC parameters of one contender class instance."""

    tech: Tech
    pclass: PClass
    aifsn: int
    cw_min: int
    cw_max: int
    mcot_us: int
    count: int = 1

    def validate(self, medium: Optional[MediumParams] = None) -> None:
        if self.aifsn < 1:
            raise ConfigError(f"{self.label()}: aifsn must be >= 1, got {self.aifsn}")
        if self.cw_min < 0:
            raise ConfigError(f"{self.label()}: cw_min must be >= 0, got {self.cw_min}")
        if self.cw_max < self.cw_min:
            raise ConfigError(
                f"{self.label()}: cw_max ({self.cw_max}) must be >= cw_min ({self.cw_min})"
            )
        if not _is_pow2m1(self.cw_max):
            raise ConfigError(f"{self.label()}: cw_max must be 2^k - 1, got {self.cw_max}")
        if not _is_pow2m1(self.cw_min):
            raise ConfigError(f"{self.label()}: cw_min must be 2^j - 1, got {self.cw_min}")
        if self.mcot_us <= 0:
            raise ConfigError(f"{self.label()}: mcot_us must be > 0, got {self.mcot_us}")
        if self.count < 1:
            raise ConfigError(f"{self.label()}: count must be >= 1, got {self.count}")
        if medium is not None and medium.frame_tx_us is not None:
            if medium.frame_tx_us > self.mcot_us:
                raise ConfigError(
                    f"{self.label()}: frame_tx_us ({medium.frame_tx_us}) exceeds mcot_us"
                    f" ({self.mcot_us})"
                )

    def label(self) -> str:
        return f"{self.tech.value}/{self.pclass.value}"


@dataclass
class TxOutcome:
    """One completed channel event (data frame, reservation hold, or CR pulse)."""

    node: int
    tech: Tech
    pclass: PClass
    kind: TxKind
    start_us: int
    end_us: int
    access_delay_us: Optional[int] = None

    @property
    def duration_us(self) -> int:
        return self.end_us - self.start_us


@dataclass
class NodeStats:
    """Cumulative per-node counters (monotone; callers diff for windows)."""

    successes: int = 0
    collisions: int = 0
    success_air_us: int = 0
    collision_air_us: int = 0
    reserve_us: int = 0
    pulse_us: int = 0
    delay_sum_us: int = 0

    def since(self, start: "NodeStats") -> "NodeStats":
        """Counters accumulated after the snapshot start (a window diff)."""
        return NodeStats(*(getattr(self, f.name) - getattr(start, f.name) for f in fields(self)))

    @property
    def attempts(self) -> int:
        return self.successes + self.collisions

    def collision_probability(self) -> float:
        return self.collisions / self.attempts if self.attempts else 0.0

    def airtime_efficiency(self) -> float:
        occupied = self.success_air_us + self.collision_air_us + self.reserve_us + self.pulse_us
        return self.success_air_us / occupied if occupied else 0.0


# Node life cycle states.
_DEFER = 0     # waiting for the channel to go idle
_PENDING = 1   # AIFS + countdown in progress, due at pending_at
_COMMITTED = 2 # NR-U gap hold / CR phase, fire at boundary
_TX = 3        # data frame in flight


@dataclass
class _Commit:
    t0: int
    boundary: int
    n_pulses: int = 0


@dataclass
class NodeState:
    """Dynamic MAC state of one contender."""

    idx: int
    name: str
    cfg: ContenderConfig
    cw_current: int = 0
    backoff: int = 0
    hol_since_us: int = 0
    state: int = _DEFER
    anchor: int = 0
    pending_at: int = 0
    aifs: int = 0  # aifs_us() of the current cfg, cached by the Simulator
    commit: Optional[_Commit] = None
    stats: NodeStats = field(default_factory=NodeStats)

    def aifs_us(self, medium: MediumParams) -> int:
        return medium.sifs_us + self.cfg.aifsn * medium.obs_slot_us


@dataclass
class _ActiveTx:
    node: NodeState
    start: int
    end: int
    collided: bool


def draw_backoff(rng: np.random.Generator, cw_current: int) -> int:
    """Uniform integer in [0, cw_current], inclusive."""
    if cw_current < 0:
        raise ValueError("cw_current must be >= 0")
    return int(rng.integers(0, cw_current + 1))


def on_collision(node: NodeState, rng: np.random.Generator) -> NodeState:
    """Binary exponential backoff: double the window within [cw_min, cw_max] and redraw.

    The frame is retained; under saturation there is no retry limit.
    """
    node.cw_current = min(max(2 * (node.cw_current + 1) - 1, node.cfg.cw_min), node.cfg.cw_max)
    node.backoff = draw_backoff(rng, node.cw_current)
    return node


def on_success(node: NodeState, end_us: int, rng: np.random.Generator) -> NodeState:
    """Reset the window, queue the next frame immediately (saturation)."""
    node.cw_current = node.cfg.cw_min
    node.backoff = draw_backoff(rng, node.cw_current)
    node.hol_since_us = end_us
    return node


# Heap event kinds; a heap entry is (t, kind, seq, payload), so at equal
# timestamps the kind sets the order: frees before pulse ends before fires
# before pulse starts, so a frame ending exactly at a boundary does not collide
# with the transmission starting there. The access timer is not a heap entry,
# but _EV_ACCESS is its rank in this order: after fires, before pulse starts. A
# pulse end runs its train's listen check only after all of the train's pulses
# have ended, so in-phase pulses do not abort each other.
_EV_TX_END = 0
_EV_PULSE_END = 1
_EV_FIRE = 2
_EV_ACCESS = 3
_EV_PULSE_START = 4

_NEVER = float("inf")  # access timer value while no countdown is running


class Simulator:
    """Deterministic microsecond-resolution event loop for one shared channel."""

    def __init__(
        self,
        medium: MediumParams,
        contenders: Iterable[ContenderConfig],
        cr_lbt_enabled: bool = False,
        seed: int = 0,
        cr_redraw_on_defer: bool = False,
    ):
        contenders = list(contenders)
        if not contenders:
            raise ConfigError("contender list must be non-empty")
        medium.validate()
        for cfg in contenders:
            cfg.validate(medium)

        self.medium = medium
        self.cr_lbt_enabled = cr_lbt_enabled
        self.cr_redraw_on_defer = cr_redraw_on_defer
        self.rng = np.random.default_rng(seed)
        self.clock = 0

        self.nodes: list[NodeState] = []
        for cfg in contenders:
            for i in range(cfg.count):
                idx = len(self.nodes)
                name = f"{cfg.tech.value.lower()}_{cfg.pclass.value.lower()}_{i}"
                node = NodeState(idx=idx, name=name, cfg=replace(cfg, count=1))
                node.cw_current = node.cfg.cw_min
                node.backoff = draw_backoff(self.rng, node.cw_current)
                self.nodes.append(node)

        self._heap: list[tuple[int, int, int, tuple]] = []
        self._seq = 0
        self._blocking = 0
        self._busy_since = 0
        self._occ_count = 0
        self._occ_since = 0
        self._occupied_us = 0
        self._active_tx: list[_ActiveTx] = []
        self._fires: dict[int, list[NodeState]] = {}
        self._outcomes: list[TxOutcome] = []
        # the access timer: the earliest pending_at, or _NEVER
        self._access_at = _NEVER
        self._idle_at = 0
        self._cache_aifs()
        self._handlers = {
            _EV_TX_END: self._ev_tx_end,
            _EV_PULSE_END: self._ev_pulse_end,
            _EV_FIRE: self._ev_fire,
            _EV_PULSE_START: self._ev_pulse_start,
        }

        # Channel idle at t=0: anchor everyone.
        self._on_idle(0)

    # ------------------------------------------------------------------
    # public API

    def run_for(self, duration_us: int) -> list[TxOutcome]:
        """Advance the event loop exactly duration_us; return outcomes ending in the window."""
        if duration_us <= 0:
            raise ValueError("duration_us must be > 0")
        target = self.clock + duration_us
        out = self._outcomes = []
        heap, handlers = self._heap, self._handlers
        while True:
            # the heap top or the access timer, whichever is first in (t, kind) order
            t = self._access_at
            if heap and (heap[0][0] < t or heap[0][0] == t and heap[0][1] < _EV_ACCESS):
                if heap[0][0] > target:
                    break
                t, kind, _, payload = heapq.heappop(heap)
                self.clock = t
                handlers[kind](t, *payload)
            elif t <= target:
                self.clock = t
                self._ev_access(t)
            else:
                break
        self.clock = target
        return out

    def apply_mac_params(self, assignment: dict[tuple[Tech, PClass], dict]) -> None:
        """Update MAC parameters per (tech, pclass); takes effect at next draws.

        The whole assignment is validated against the target configs first; on
        any violation nothing is changed.
        """
        staged: list[tuple[NodeState, ContenderConfig]] = []
        for node in self.nodes:
            key = (node.cfg.tech, node.cfg.pclass)
            if key not in assignment:
                continue
            new_cfg = replace(node.cfg, **assignment[key])
            new_cfg.validate(self.medium)
            staged.append((node, new_cfg))
        for node, new_cfg in staged:
            node.cfg = new_cfg
        self._cache_aifs()

    def occupied_us_at(self, t: Optional[int] = None) -> int:
        """Cumulative channel occupancy (data + holds + pulses) up to time t."""
        t = self.clock if t is None else t
        total = self._occupied_us
        if self._occ_count > 0 and t > self._occ_since:
            total += t - self._occ_since
        return total

    def stats_snapshot(self) -> list[NodeStats]:
        return [replace(n.stats) for n in self.nodes]

    def node_names(self) -> list[str]:
        return [n.name for n in self.nodes]

    # ------------------------------------------------------------------
    # event machinery

    def _cache_aifs(self) -> None:
        for node in self.nodes:
            node.aifs = node.aifs_us(self.medium)
        self._min_aifs = min(node.aifs for node in self.nodes)

    def _push(self, t: int, kind: int, payload: tuple) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (t, kind, self._seq, payload))

    def _emit(self, node: NodeState, kind: TxKind, start: int, end: int,
              delay: Optional[int] = None) -> None:
        self._outcomes.append(TxOutcome(node.idx, node.cfg.tech, node.cfg.pclass, kind,
                                        start, end, delay))

    # -- occupancy / blocking bookkeeping

    def _occ_start(self, t: int) -> None:
        if self._occ_count == 0:
            self._occ_since = t
        self._occ_count += 1

    def _occ_end(self, t: int) -> None:
        self._occ_count -= 1
        if self._occ_count == 0:
            self._occupied_us += t - self._occ_since

    def _blocking_start(self, t: int, src: Optional[NodeState]) -> None:
        if self._blocking == 0:
            self._busy_since = t
            self._freeze_pending(t)
        self._blocking += 1
        self._occ_start(t)
        if not self.cr_lbt_enabled:
            return
        # Energy appearing inside a committed CR node's listen interval aborts it.
        for node in self.nodes:
            c = node.commit
            if c is not None and node is not src and self._in_listen(c, t):
                self._abort_commit(node, t)

    def _blocking_end(self, t: int) -> None:
        self._blocking -= 1
        self._occ_end(t)
        if self._blocking == 0:
            self._on_idle(t)

    def _freeze_pending(self, t: int) -> None:
        if t - self._idle_at < self._min_aifs and t < self._access_at:
            # Busy again sooner than the smallest AIFS after going idle (every
            # CR listen half): no slot was consumed, so the countdowns stay as
            # they are and _on_idle re-anchors them; only the timer is dropped.
            # The timer test sends a countdown ending now, which an AIFS raised
            # mid-countdown allows, down the path below so that it fires.
            self._access_at = _NEVER
            return
        for node in self.nodes:
            if node.state != _PENDING or node.pending_at <= t:
                # an access at exactly t completed its last slot; let it fire
                continue
            elapsed = t - node.anchor - node.aifs
            consumed = 0
            if elapsed > 0:
                consumed = min(elapsed // self.medium.obs_slot_us, node.backoff)
            node.backoff -= consumed
            node.state = _DEFER

    def _on_idle(self, t: int) -> None:
        self._idle_at = t
        slot = self.medium.obs_slot_us
        for node in self.nodes:
            if node.state > _PENDING:  # committed or transmitting
                continue
            node.anchor = t
            node.state = _PENDING
            node.pending_at = t + node.aifs + slot * node.backoff
        self._arm_access()

    def _arm_access(self) -> None:
        """Point the access timer at the earliest pending countdown, if any."""
        self._access_at = min(
            (node.pending_at for node in self.nodes if node.state == _PENDING), default=_NEVER
        )

    # -- node events

    def _ev_access(self, t: int) -> None:
        """The access timer: every countdown ending at t, in node-index order.

        This is the order one heap entry per node gave. Every pending countdown
        was anchored at the latest idle transition (a busy start freezes or
        keeps all of them, and the next idle re-anchors them together), and
        that transition took the nodes in index order, so equal-time accesses
        popped in index order by sequence number. Nothing an access schedules
        lands at t ahead of the remaining accesses: pulse starts sort after
        them and every other event is later.
        """
        for node in self.nodes:
            if node.state == _PENDING and node.pending_at == t:
                self._access(node, t)
        self._arm_access()

    def _access(self, node: NodeState, t: int) -> None:
        if self._blocking > 0 and self._busy_since < t:
            # defensive: countdown should have been frozen already
            node.state = _DEFER
            return
        node.state = _DEFER  # transient; set below
        if node.cfg.tech == Tech.WIFI:
            self._start_tx(node, t)
            return
        period = self.medium.nru_slot_boundary_us
        boundary = ((t + period - 1) // period) * period
        if boundary == t:
            self._start_tx(node, t)
        else:
            self._commit(node, t, boundary)

    def _commit(self, node: NodeState, t: int, boundary: int) -> None:
        commit = _Commit(t0=t, boundary=boundary)
        node.commit = commit
        node.state = _COMMITTED
        if boundary not in self._fires:
            self._fires[boundary] = []
            self._push(boundary, _EV_FIRE, (boundary,))
        self._fires[boundary].append(node)
        if self.cr_lbt_enabled:
            gap = boundary - t
            commit.n_pulses = min(gap // self.medium.cr_slot_us, self.medium.cr_slot_count)
            if commit.n_pulses and len(self._train(t)) == 1:
                self._push(t, _EV_PULSE_START, (t,))  # first member starts the train
        elif self.medium.rs_blocks_medium:
            self._blocking_start(t, node)  # reservation hold that blocks sensing
        else:
            self._occ_start(t)  # reservation hold: occupancy accounting only

    def _train(self, t0: int) -> list[NodeState]:
        """The CR nodes pulsing in phase: live commits made at t0, in index order."""
        return [node for node in self.nodes if node.commit is not None and node.commit.t0 == t0]

    def _ev_pulse_start(self, t: int, t0: int) -> None:
        train = self._train(t0)
        if not train:
            return  # all aborted by an out-of-phase train, which only a direct _commit makes
        for node in train:
            self._blocking_start(t, node)
        self._push(t + self.medium.cr_slot_us // 2, _EV_PULSE_END, (t0,))

    def _ev_pulse_end(self, t: int, t0: int) -> None:
        train = self._train(t0)
        slot = self.medium.cr_slot_us
        half = slot // 2  # the next pulse starts one listen half from now
        for node in train:
            self._blocking_end(t)
            self._emit(node, TxKind.CR_PULSE, t - half, t)
            node.stats.pulse_us += half
        # every member's listen interval starts now; energy that persists
        # after all of the train's pulses have ended aborts them all
        if self._blocking > 0:
            for node in train:
                self._abort_commit(node, t)
        elif t + half < t0 + train[0].commit.n_pulses * slot:
            self._push(t + half, _EV_PULSE_START, (t0,))

    def _in_listen(self, c: _Commit, t: int) -> bool:
        if t < c.t0 or t >= c.boundary:
            return False
        d = t - c.t0
        slot = self.medium.cr_slot_us
        half = slot // 2
        if d < c.n_pulses * slot:
            return (d % slot) >= half
        return True  # remainder of the gap is pure listening

    def _abort_commit(self, node: NodeState, t: int) -> None:
        self._fires[node.commit.boundary].remove(node)
        node.commit = None
        node.state = _DEFER
        if self.cr_redraw_on_defer:
            node.backoff = draw_backoff(self.rng, node.cw_current)
        # no BEB advance either way; re-anchors at the next idle transition

    def _ev_fire(self, t: int, boundary: int) -> None:
        for node in self._fires.pop(boundary):
            c = node.commit
            if not self.cr_lbt_enabled:
                if self.medium.rs_blocks_medium:
                    self._blocking_end(t)
                else:
                    self._occ_end(t)
                if t > c.t0:
                    self._emit(node, TxKind.RS, c.t0, t)
                node.stats.reserve_us += t - c.t0
            node.commit = None
            self._start_tx(node, t)

    def _frame_us(self, node: NodeState) -> int:
        if self.medium.frame_tx_us is not None:
            return min(self.medium.frame_tx_us, node.cfg.mcot_us)
        return node.cfg.mcot_us

    def _start_tx(self, node: NodeState, t: int) -> None:
        dur = self._frame_us(node)
        collided = len(self._active_tx) > 0
        for other in self._active_tx:
            other.collided = True
        tx = _ActiveTx(node=node, start=t, end=t + dur, collided=collided)
        self._active_tx.append(tx)
        node.state = _TX
        self._blocking_start(t, node)
        self._push(t + dur, _EV_TX_END, (node.idx, t))

    def _ev_tx_end(self, t: int, idx: int, start: int) -> None:
        node = self.nodes[idx]
        tx = next(a for a in self._active_tx if a.node is node and a.start == start)
        self._active_tx.remove(tx)
        dur = tx.end - tx.start
        if tx.collided:
            node.stats.collisions += 1
            node.stats.collision_air_us += dur
            self._emit(node, TxKind.COLLISION, tx.start, t)
            on_collision(node, self.rng)
        else:
            delay = tx.start - node.hol_since_us
            node.stats.successes += 1
            node.stats.success_air_us += dur
            node.stats.delay_sum_us += delay
            self._emit(node, TxKind.SUCCESS, tx.start, t, delay)
            on_success(node, t, self.rng)
        node.state = _DEFER
        self._blocking_end(t)
