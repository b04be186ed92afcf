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

The channel's timings are the module constants below, and a saturated node's
data frame fills its MCOT grant. The CR train is exact under three rules on the
constants, which tests/test_medium.py checks: CR_SLOT_US is even (a pulse half
and a listen half), the CR_SLOT_COUNT pulses fit in NRU_SLOT_BOUNDARY_US, and a
listen half is shorter than the smallest AIFS (9 us against SIFS_US +
OBS_SLOT_US = 25 us). So no countdown can progress inside a pulse train, and
the train is one busy period for countdowns: each member holds the channel from
its first pulse start to its last pulse end (or its abort), while occupancy
still counts only the pulses. Nodes that pulse in phase are exactly those that
committed at the same microsecond; together they are one train.

A train starts in the access-timer call where its members commit and is two
heap events: its first pulse end (the listen check) and its last pulse end.
Its first pulse freezes every countdown and aborts every other live commit
(each is in a listen half or its tail), and a data frame still on air at the
check aborts the train, so no hold can start during a train that passed its
check: it is the channel's only occupant until its last pulse ends. So the
pulses after the check are settled in closed form, by the last pulse end and
at the end of each run_for window: each pulse ended adds its half to occupancy
and pulse_us, and an open pulse sets the occupancy count and start. The pulses
a settle ends become one record, (first pulse start, stop, keys), where keys
are the members' (idx, tech, pclass); run_for returns them as Outcomes, which
expands each record into its CR_PULSE outcomes, in time and node-index order,
only when a caller first reads it.

Every running countdown is served by one access timer kept beside the heap,
always at the earliest countdown end. The idle and freeze sweeps set it as
they go; an access sweep re-arms it after, as an access can freeze later
nodes. The nodes with a frame on air are kept in a list, which a frame start
marks as collided without a sweep.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Iterable, Optional, Union

import numpy as np

OBS_SLOT_US = 9
SIFS_US = 16
NRU_SLOT_BOUNDARY_US = 500
CR_SLOT_US = 18
CR_SLOT_COUNT = 27


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


def _is_pow2m1(v: int) -> bool:
    return v >= 0 and ((v + 1) & v) == 0


@dataclass(frozen=True)
class ContenderConfig:
    """Static MAC parameters of one contender (node). Frozen: a new setting
    replaces the config, so nodes can share one and it can key a cache."""

    tech: Tech
    pclass: PClass
    aifsn: int
    cw_min: int
    cw_max: int
    mcot_us: int

    def validate(self) -> None:
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

    def label(self) -> str:
        return f"{self.tech.value}/{self.pclass.value}"


@dataclass(slots=True)
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


class Outcomes(Sequence):
    """run_for's outcomes, read-only; the first read expands the CR pulse records.

    A pulse record (first pulse start, stop, member keys) stands for the pulses
    starting in range(first, stop, CR_SLOT_US), each for every member. Expanding
    reads or changes no simulator state. Wrap it in list() to mutate or concatenate.
    """

    __slots__ = ("_items", "_list")

    def __init__(self, items: list[Union[TxOutcome, tuple]]):
        self._items = items
        self._list: Optional[list[TxOutcome]] = None

    def _expanded(self) -> list[TxOutcome]:
        if self._list is None:
            slot, half, out = CR_SLOT_US, CR_SLOT_US // 2, []
            for item in self._items:
                if type(item) is tuple:
                    first, stop, keys = item
                    out += [TxOutcome(idx, tech, pclass, TxKind.CR_PULSE, start, start + half)
                            for start in range(first, stop, slot)
                            for idx, tech, pclass in keys]
                else:
                    out.append(item)
            self._list, self._items = out, []
        return self._list

    def __len__(self) -> int:
        return len(self._expanded())

    def __getitem__(self, i):
        return self._expanded()[i]

    def __iter__(self):
        return iter(self._expanded())


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

    @property
    def attempts(self) -> int:
        return self.successes + self.collisions

    def collision_probability(self) -> float:
        return collision_probability(self.successes, self.collisions)

    def airtime_efficiency(self) -> float:
        occupied = self.success_air_us + self.collision_air_us + self.reserve_us + self.pulse_us
        return self.success_air_us / occupied if occupied else 0.0


def collision_probability(successes: int, collisions: int) -> float:
    """The share of a node's attempts that collided, 0.0 without attempts."""
    attempts = successes + collisions
    return collisions / attempts if attempts else 0.0


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
    held: bool = False  # a CR train member's hold on the channel, first pulse to last


@dataclass
class _Train:
    """CR nodes pulsing in phase (live commits made at t0), from their first pulse on."""

    t0: int
    members: list["NodeState"]
    n_pulses: int
    keys: tuple[tuple[int, Tech, PClass], ...]  # the members' (idx, tech, pclass)
    edges: int = 1  # pulse edges run so far; edge i is at t0 + i * CR_SLOT_US / 2


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
    aifs: int = 0  # SIFS + aifsn slots of the current cfg, cached by the Simulator
    commit: Optional[_Commit] = None
    collided: bool = False  # the data frame in flight overlapped another
    stats: NodeStats = field(default_factory=NodeStats)


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
# timestamps the kind sets the order: frees before pulse ends before fires, so
# a frame ending exactly at a boundary does not collide with the transmission
# starting there. The access timer goes after all three at equal times. One
# pulse-end event serves all of a train's in-phase pulses, so they do not
# abort each other.
_EV_TX_END = 0
_EV_PULSE_END = 1
_EV_FIRE = 2

_NEVER = float("inf")  # access timer value while no countdown is running


class Simulator:
    """Deterministic microsecond-resolution event loop for one shared channel."""

    def __init__(
        self,
        contenders: Iterable[ContenderConfig],
        cr_lbt_enabled: bool = False,
        seed: int = 0,
    ):
        contenders = list(contenders)
        if not contenders:
            raise ConfigError("contender list must be non-empty")
        for cfg in contenders:
            cfg.validate()

        self.cr_lbt_enabled = cr_lbt_enabled
        self.rng = np.random.default_rng(seed)
        self.clock = 0

        self.nodes: list[NodeState] = []
        numbered: dict[tuple, int] = {}  # nodes named so far, by (tech, pclass)
        for idx, cfg in enumerate(contenders):
            i = numbered.get((cfg.tech, cfg.pclass), 0)
            numbered[cfg.tech, cfg.pclass] = i + 1
            name = f"{cfg.tech.value.lower()}_{cfg.pclass.value.lower()}_{i}"
            node = NodeState(idx=idx, name=name, cfg=cfg)
            node.cw_current = cfg.cw_min
            node.backoff = draw_backoff(self.rng, node.cw_current)
            self.nodes.append(node)

        self._heap: list[tuple[int, int, int, tuple]] = []
        self._seq = 0
        self._blocking = 0
        self._occ_count = 0
        self._occ_since = 0
        self._occupied_us = 0
        self._fires: dict[int, list[NodeState]] = {}
        self._outcomes: list[Union[TxOutcome, tuple]] = []  # and pulse records (see Outcomes)
        # apply_mac_params' validated configs, by (old config, update)
        self._built_cfgs: dict[tuple, ContenderConfig] = {}
        # the train whose pulses are settled lazily: it passed its listen check
        # and its next event is its last pulse end
        self._lazy: Optional[_Train] = None
        self._on_air: list[NodeState] = []  # the nodes whose data frame is in flight
        # the access timer: the earliest pending_at, or _NEVER
        self._access_at = _NEVER
        self._cache_aifs()
        self._handlers = (self._ev_tx_end, self._ev_pulse_end, self._ev_fire)  # by kind

        # Channel idle at t=0: anchor everyone.
        self._on_idle(0)

    # ------------------------------------------------------------------
    # public API

    def run_for(self, duration_us: int) -> Outcomes:
        """Advance the event loop exactly duration_us; return outcomes ending in the window."""
        if isinstance(duration_us, bool) or not isinstance(duration_us, (int, np.integer)):
            raise TypeError(f"duration_us must be an integer number of us, got {duration_us!r}")
        if duration_us <= 0:
            raise ValueError("duration_us must be > 0")
        target = self.clock + int(duration_us)
        out = self._outcomes = []
        heap, handlers = self._heap, self._handlers
        while True:
            # the heap top or the access timer, which goes last at equal times
            t = self._access_at
            if heap and heap[0][0] <= t:
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
        if self._lazy is not None:
            self._settle(self._lazy, target)
        self.clock = target
        return Outcomes(out)

    def apply_mac_params(self, assignment: dict[tuple[Tech, PClass], dict]) -> None:
        """Update MAC parameters per (tech, pclass); takes effect at next draws.

        The whole assignment is validated against the target configs first; on
        any violation nothing is changed. Each distinct (config, update) pair is
        built and validated once per simulator.
        """
        staged: list[tuple[NodeState, ContenderConfig]] = []
        for node in self.nodes:
            params = assignment.get((node.cfg.tech, node.cfg.pclass))
            if params is None:
                continue
            key = (node.cfg, tuple(params.items()))
            new_cfg = self._built_cfgs.get(key)
            if new_cfg is None:
                new_cfg = replace(node.cfg, **params)
                new_cfg.validate()
                self._built_cfgs[key] = new_cfg
            staged.append((node, new_cfg))
        for node, new_cfg in staged:
            node.cfg = new_cfg
        self._cache_aifs()

    def occupied_us_at(self) -> int:
        """Cumulative channel occupancy (data + holds + pulses) up to the clock."""
        total = self._occupied_us
        if self._occ_count > 0 and self.clock > self._occ_since:
            total += self.clock - self._occ_since
        return total

    def stats_snapshot(self) -> list[NodeStats]:
        return [replace(n.stats) for n in self.nodes]

    def node_names(self) -> list[str]:
        return [n.name for n in self.nodes]

    # ------------------------------------------------------------------
    # event machinery

    def _cache_aifs(self) -> None:
        for node in self.nodes:
            node.aifs = SIFS_US + node.cfg.aifsn * OBS_SLOT_US

    def _push(self, t: int, kind: int, payload: tuple) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (t, kind, self._seq, payload))

    def _emit(self, node: NodeState, kind: TxKind, start: int, end: int,
              delay: Optional[int] = None) -> None:
        self._outcomes.append(TxOutcome(node.idx, node.cfg.tech, node.cfg.pclass, kind,
                                        start, end, delay))

    # -- occupancy / blocking bookkeeping

    def _occ_start(self, t: int, n: int = 1) -> None:
        if self._occ_count == 0:
            self._occ_since = t
        self._occ_count += n

    def _occ_end(self, t: int, n: int = 1) -> None:
        self._occ_count -= n
        if self._occ_count == 0:
            self._occupied_us += t - self._occ_since

    def _blocking_start(self, t: int, holds: int = 1) -> None:
        if self._blocking == 0:
            self._freeze_pending(t)
        self._blocking += holds
        if not self.cr_lbt_enabled:
            return
        # Energy appearing inside a committed CR node's listen interval aborts
        # it. The new holds are counted first, so the aborts cannot idle the
        # channel; a node taking a hold is never in its own listen interval.
        for node in self.nodes:
            c = node.commit
            if c is not None and self._in_listen(c, t):
                self._abort_commit(node, t)

    def _blocking_end(self, t: int, holds: int = 1) -> None:
        self._blocking -= holds
        if self._blocking == 0:
            self._on_idle(t)

    def _freeze_pending(self, t: int) -> None:
        slot, due = OBS_SLOT_US, _NEVER
        for node in self.nodes:
            if node.state != _PENDING:
                continue
            if node.pending_at <= t:
                # an access at exactly t completed its last slot; let it fire
                if node.pending_at < due:
                    due = node.pending_at
                continue
            # the slots counted down since the node's AIFS ended
            elapsed = t - node.anchor - node.aifs
            if elapsed >= slot:
                left = node.backoff - elapsed // slot
                node.backoff = left if left > 0 else 0
            node.state = _DEFER
        self._access_at = due

    def _on_idle(self, t: int) -> None:
        slot, first = OBS_SLOT_US, _NEVER
        for node in self.nodes:
            if node.state > _PENDING:  # committed or transmitting
                continue
            node.anchor = t
            node.state = _PENDING
            at = node.pending_at = t + node.aifs + slot * node.backoff
            if at < first:
                first = at
        self._access_at = first

    def _arm_access(self) -> None:
        """Point the access timer at the earliest pending countdown, if any."""
        self._access_at = min(
            (node.pending_at for node in self.nodes if node.state == _PENDING), default=_NEVER
        )

    # -- node events

    def _ev_access(self, t: int) -> None:
        """The access timer: every countdown ending at t, in node-index order.

        Every pending countdown was anchored at the latest idle transition, in
        index order, so this is the order one heap entry per node gave. Nothing
        an access schedules lands at t, so the CR commits made here, which pulse
        in phase, start their train once every access is served.
        """
        members = []
        for node in self.nodes:
            if node.state == _PENDING and node.pending_at == t:
                self._access(node, t)
                if node.commit is not None and node.commit.n_pulses:
                    members.append(node)
        self._arm_access()
        if members:
            self._start_train(t, members)

    def _access(self, node: NodeState, t: int) -> None:
        if node.cfg.tech == Tech.WIFI:
            self._start_tx(node, t)
            return
        period = NRU_SLOT_BOUNDARY_US
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
            commit.n_pulses = min(gap // CR_SLOT_US, CR_SLOT_COUNT)
            return
        self._occ_start(t)  # reservation hold

    def _start_train(self, t: int, members: list[NodeState]) -> None:
        """A train's first pulse: its members hold the channel until their last pulse ends."""
        keys = tuple((node.idx, node.cfg.tech, node.cfg.pclass) for node in members)
        tr = _Train(t, members, members[0].commit.n_pulses, keys)
        for node in members:
            node.commit.held = True
        self._blocking_start(t, len(members))
        self._occ_start(t, len(members))
        self._push(t + CR_SLOT_US // 2, _EV_PULSE_END, (tr,))

    def _ev_pulse_end(self, t: int, tr: _Train) -> None:
        """The train's listen check at its pulse end t, after settling it up to t."""
        self._lazy = None
        self._settle(tr, t)
        # the members' listen half starts: energy besides their own holds aborts them
        if self._blocking > len(tr.members):
            for node in tr.members:
                self._abort_commit(node, t)
        elif tr.edges < 2 * tr.n_pulses:  # settle the pulses up to the last lazily
            self._lazy = tr
            self._push(t + (tr.n_pulses - 1) * CR_SLOT_US, _EV_PULSE_END, (tr,))
        else:  # the last pulse: the train's busy period ends
            for node in tr.members:
                node.commit.held = False
            self._blocking_end(t, len(tr.members))

    def _settle(self, tr: _Train, t: int) -> None:
        """Settle the train's pulse edges up to t in closed form (see module docstring).

        Pulse k runs for a half from t0 + k * CR_SLOT_US; its end is edge 2k + 1.
        """
        slot = CR_SLOT_US
        half = slot // 2
        stop = min(2 * tr.n_pulses, (t - tr.t0) // half + 1)  # edges at or before t
        first, ended = tr.edges // 2, stop // 2  # pulses first..ended-1 end here
        if tr.edges == 1:  # the check
            self._occ_end(tr.t0 + half, len(tr.members))
        else:
            self._occupied_us += (ended - first) * half
            self._occ_count = len(tr.members) * (stop % 2)
            if stop % 2:
                self._occ_since = tr.t0 + (stop - 1) * half
        tr.edges = stop
        if ended > first:
            self._outcomes.append((tr.t0 + first * slot, tr.t0 + ended * slot, tr.keys))
        for node in tr.members:
            node.stats.pulse_us += (ended - first) * half

    def _in_listen(self, c: _Commit, t: int) -> bool:
        if t < c.t0 or t >= c.boundary:
            return False
        d, slot = t - c.t0, CR_SLOT_US
        # a listen half, or the rest of the gap after the pulses
        return d >= c.n_pulses * slot or d % slot >= slot // 2

    def _abort_commit(self, node: NodeState, t: int) -> None:
        c = node.commit
        self._fires[c.boundary].remove(node)
        node.commit = None
        node.state = _DEFER
        # no BEB advance and no redraw; re-anchors at the next idle transition
        if c.held:
            self._blocking_end(t)

    def _ev_fire(self, t: int, boundary: int) -> None:
        for node in self._fires.pop(boundary):
            c = node.commit
            if not self.cr_lbt_enabled:
                self._occ_end(t)
                if t > c.t0:
                    self._emit(node, TxKind.RS, c.t0, t)
                node.stats.reserve_us += t - c.t0
            node.commit = None
            self._start_tx(node, t)

    def _start_tx(self, node: NodeState, t: int) -> None:
        node.collided = False
        for other in self._on_air:
            other.collided = node.collided = True
        self._on_air.append(node)
        node.state = _TX
        self._occ_start(t)
        self._blocking_start(t)
        self._push(t + node.cfg.mcot_us, _EV_TX_END, (node.idx, t))

    def _ev_tx_end(self, t: int, idx: int, start: int) -> None:
        node = self.nodes[idx]
        dur = t - start
        if node.collided:
            node.stats.collisions += 1
            node.stats.collision_air_us += dur
            self._emit(node, TxKind.COLLISION, start, t)
            on_collision(node, self.rng)
        else:
            delay = start - node.hol_since_us
            node.stats.successes += 1
            node.stats.success_air_us += dur
            node.stats.delay_sum_us += delay
            self._emit(node, TxKind.SUCCESS, start, t, delay)
            on_success(node, t, self.rng)
        node.state = _DEFER
        self._on_air.remove(node)
        self._occ_end(t)
        self._blocking_end(t)
