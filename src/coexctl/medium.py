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
countdowns, and a committed node that hears energy while it listens aborts
the attempt and re-defers without advancing its backoff stage.

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

Every live commit is to the next boundary, ceil(t / NRU_SLOT_BOUNDARY_US) *
NRU_SLOT_BOUNDARY_US for a commit made at t, and fires there or aborts before
it. So the simulator keeps one list of the committed nodes, in commit order,
whose one boundary fire starts their frames in that order. A CR commit made at
t sends _pulses(t) pulses, one a slot from t, and listens from its last pulse
end up to the boundary (the whole time if it has no pulses); energy starting
while it listens aborts it.

A train starts in the access-timer call where its members commit and has two
pulse-end events: its first pulse end (the listen check) and its last pulse
end. Its first pulse freezes every countdown and aborts every other live commit
(each committed earlier and is listening), and a data frame still on air at the
check aborts the train, so no hold can start during a train that passed its
check: it is the channel's only occupant until its last pulse ends. So no
blocking start lands inside a train's pulses, a member is aborted only at its
check, and the pulses after the check are settled in closed form, by the last
pulse end and at the end of each run_for window: each pulse ended adds its half
to occupancy and pulse_us, and an open pulse sets the occupancy count and
start. The pulses a settle ends become one record, (first pulse start, stop,
keys), where keys are the members' (idx, tech, pclass); run_for returns them as
Outcomes, which expands each record into its CR_PULSE outcomes, in time and
node-index order, only when a caller first reads it.

Only frame ends, of which many can be pending, go on the event heap. Each other
event has at most one pending, so it is a field beside the heap: the train's
next pulse end (one train exists at a time), the boundary fire (armed while a
commit is live) and the access timer, always at the earliest running countdown
end (the idle, freeze and access sweeps each set it in their one pass over the
nodes). run_for serves the earliest of the four, at equal times in the order it
states. The channel is held while a frame is on air or a train runs; the nodes
on air are kept in a list, which a frame start marks as collided without a
sweep.

An AIFSN change (apply_mac_params) updates each node's cached AIFS at once,
also mid-countdown: a countdown's armed due time keeps the AIFS it was armed
with at the idle transition, but a later freeze counts the slots elapsed since
the anchor from the end of the new AIFS. So a larger new AIFSN leaves a frozen
node more backoff than its armed due time implied, a smaller one less; a
countdown that is not frozen ends at its armed due time.
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
    commit_at: int = 0  # when the node committed; read only while it is _COMMITTED
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


def _pulses(t: int) -> int:
    """The CR pulses of a commit made at t: one a slot from t, up to the next boundary."""
    return min(-t % NRU_SLOT_BOUNDARY_US // CR_SLOT_US, CR_SLOT_COUNT)


_NEVER = float("inf")  # the time of an event that is not pending


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

        # the frame ends: (end, seq, node idx, start); seq keeps equal ends in push order
        self._heap: list[tuple[int, int, int, int]] = []
        self._seq = 0
        self._occ_count = 0
        self._occ_since = 0
        self._occupied_us = 0
        # the committed nodes, in commit order, and the boundary they fire at,
        # _NEVER while none is: every live commit is to the next boundary
        self._committed: list[NodeState] = []
        self._fire_at = _NEVER
        self._outcomes: list[Union[TxOutcome, tuple]] = []  # and pulse records (see Outcomes)
        # apply_mac_params' validated configs, by (old config, update)
        self._built_cfgs: dict[tuple, ContenderConfig] = {}
        # the train holding the channel and its next pulse end: first its
        # listen check, then its last pulse end
        self._train: Optional[_Train] = None
        self._edge_at = _NEVER
        self._on_air: list[NodeState] = []  # the nodes whose data frame is in flight
        # the access timer: the earliest pending_at, or _NEVER
        self._access_at = _NEVER
        self._cache_aifs()

        # Channel idle at t=0: anchor everyone.
        self._on_idle(0)

    # ------------------------------------------------------------------
    # public API

    def run_for(self, duration_us: int) -> Outcomes:
        """Advance the event loop exactly duration_us; return outcomes ending in the window."""
        if type(duration_us) is not int and (  # a plain int passes the first test
                isinstance(duration_us, bool) or not isinstance(duration_us, (int, np.integer))):
            raise TypeError(f"duration_us must be an integer number of us, got {duration_us!r}")
        if duration_us <= 0:
            raise ValueError("duration_us must be > 0")
        target = self.clock + int(duration_us)
        out = self._outcomes = []
        heap = self._heap
        while True:
            # the earliest event; at equal times frame ends go first, in start order
            # (so one ending at a boundary does not collide with one starting
            # there), then the pulse end, the boundary fire and the access timer:
            # each is taken over the ones before it only when strictly earlier
            t, serve = (heap[0][0], None) if heap else (_NEVER, None)  # None: a frame end
            if self._edge_at < t:
                t, serve = self._edge_at, self._ev_pulse_end
            if self._fire_at < t:
                t, serve = self._fire_at, self._ev_fire
            if self._access_at < t:
                t, serve = self._access_at, self._ev_access
            if t > target:
                break
            self.clock = t
            if serve is None:
                _, _, idx, start = heapq.heappop(heap)
                self._ev_tx_end(t, self.nodes[idx], start)
            else:
                serve(t)
        tr = self._train
        if tr is not None and tr.edges > 1:  # past its check: settled lazily
            self._settle(tr, target)
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

    def _blocking_start(self, t: int, idle: bool) -> None:
        """Frames or a train start at t; if the channel was idle, they freeze the countdowns."""
        if idle:
            self._freeze_pending(t)
        if not self.cr_lbt_enabled or not self._committed:
            return
        # Energy aborts a committed CR node that is listening: from its last
        # pulse end (its whole gap if it has no pulses) up to the boundary. No
        # blocking start lands inside a train's pulses, and a train's members
        # are not listening at its first pulse.
        slot, listening = CR_SLOT_US, []
        for node in self._committed:
            pulses = _pulses(node.commit_at)
            if t >= node.commit_at + (pulses * slot - slot // 2 if pulses else 0):
                listening.append(node)
        for node in listening:
            self._abort_commit(node)

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

    # -- node events

    def _ev_access(self, t: int) -> None:
        """The access timer: every countdown ending at t, in node-index order,
        and the timer re-armed at the earliest countdown left, in one sweep.

        Every pending countdown was anchored at the latest idle transition, in
        index order, so this is the order one heap entry per node gave. Nothing
        an access schedules lands at t, so the CR commits made here, which pulse
        in phase, start their train once every access is served. The only
        access that changes another countdown starts a frame on an idle
        channel, which freezes every countdown not due at t; so at the sweep's
        end the countdowns it passed either all still run or all are frozen,
        and the earliest one's state tells which.
        """
        members, first, earliest = [], _NEVER, None
        for node in self.nodes:
            if node.state != _PENDING:
                continue
            if node.pending_at != t:
                if node.pending_at < first:
                    first, earliest = node.pending_at, node
                continue
            self._access(node, t)
            if node.state == _COMMITTED:
                members.append(node)
        running = earliest is not None and earliest.state == _PENDING
        self._access_at = first if running else _NEVER
        if members and self.cr_lbt_enabled:
            self._start_train(t, members)

    def _access(self, node: NodeState, t: int) -> None:
        gap = -t % NRU_SLOT_BOUNDARY_US  # to the next boundary
        if node.cfg.tech == Tech.WIFI or not gap:
            self._start_tx(t, (node,))
        else:
            self._commit(node, t, t + gap)

    def _commit(self, node: NodeState, t: int, boundary: int) -> None:
        node.commit_at = t
        node.state = _COMMITTED
        self._fire_at = boundary
        self._committed.append(node)
        if not self.cr_lbt_enabled:
            self._occ_start(t)  # reservation hold

    def _start_train(self, t: int, members: list[NodeState]) -> None:
        """A train's first pulse: its members hold the channel until their last pulse ends."""
        n_pulses = _pulses(t)  # a frame starting in this sweep may have cleared the fire
        if not n_pulses:  # too close to the boundary: the members only listen
            return
        keys = tuple((node.idx, node.cfg.tech, node.cfg.pclass) for node in members)
        self._blocking_start(t, not self._on_air)
        self._occ_start(t, len(members))
        self._train = _Train(t, members, n_pulses, keys)
        self._edge_at = t + CR_SLOT_US // 2

    def _ev_pulse_end(self, t: int) -> None:
        """The train's listen check or last pulse end at t, after settling it up to t."""
        tr = self._train
        self._settle(tr, t)
        if not self._on_air and tr.edges < 2 * tr.n_pulses:  # passed its check
            self._edge_at = t + (tr.n_pulses - 1) * CR_SLOT_US  # settle up to it lazily
            return
        # the check failed or the last pulse ended: the train's busy period ends
        self._train, self._edge_at = None, _NEVER
        if self._on_air:  # the members' listen half starts: a frame on air aborts them
            for node in tr.members:
                self._abort_commit(node)
        else:
            self._on_idle(t)

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

    def _abort_commit(self, node: NodeState) -> None:
        self._committed.remove(node)
        if not self._committed:
            self._fire_at = _NEVER
        node.state = _DEFER
        # no BEB advance and no redraw; re-anchors at the next idle transition

    def _ev_fire(self, t: int) -> None:
        committed, self._committed = self._committed, []
        self._fire_at = _NEVER
        if not self.cr_lbt_enabled:
            self._occ_end(t, len(committed))  # the reservation holds end
            for node in committed:  # each committed before t: its gap was nonzero
                self._emit(node, TxKind.RS, node.commit_at, t)
                node.stats.reserve_us += t - node.commit_at
        self._start_tx(t, committed)

    def _start_tx(self, t: int, nodes: Sequence[NodeState]) -> None:
        """Start the nodes' data frames at t, in order, as one blocking start."""
        idle = not self._on_air and self._train is None
        for node in nodes:
            node.collided = False
            for other in self._on_air:
                other.collided = node.collided = True
            self._on_air.append(node)
            node.state = _TX
            self._seq += 1
            heapq.heappush(self._heap, (t + node.cfg.mcot_us, self._seq, node.idx, t))
        self._occ_start(t, len(nodes))
        self._blocking_start(t, idle)

    def _ev_tx_end(self, t: int, node: NodeState, start: int) -> None:
        dur = t - start
        stats = node.stats
        if node.collided:
            stats.collisions += 1
            stats.collision_air_us += dur
            self._emit(node, TxKind.COLLISION, start, t)
            on_collision(node, self.rng)
        else:
            delay = start - node.hol_since_us
            stats.successes += 1
            stats.success_air_us += dur
            stats.delay_sum_us += delay
            self._emit(node, TxKind.SUCCESS, start, t, delay)
            on_success(node, t, self.rng)
        node.state = _DEFER
        self._on_air.remove(node)
        self._occ_end(t)
        if not self._on_air and self._train is None:
            self._on_idle(t)
