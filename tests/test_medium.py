"""Channel simulator: configuration, backoff, gap behavior, collisions, timing."""

import bisect
import hashlib
from dataclasses import FrozenInstanceError, astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from coexctl import medium
from coexctl.medium import (
    ConfigError,
    ContenderConfig,
    PClass,
    Simulator,
    Tech,
    TxKind,
    draw_backoff,
    on_collision,
    on_success,
    NodeState,
    NodeStats,
    _NEVER,
    _PENDING,
    _TX,
)


def coex_mix_contenders():
    return [
        ContenderConfig(Tech.NRU, PClass.PC1, aifsn=2, cw_min=7, cw_max=15, mcot_us=2000),
        ContenderConfig(Tech.NRU, PClass.PC3, aifsn=3, cw_min=127, cw_max=255, mcot_us=4000),
        ContenderConfig(Tech.WIFI, PClass.PC3, aifsn=3, cw_min=127, cw_max=255, mcot_us=4000),
    ]


def single_nru_pc1(cw=0, aifsn=2, mcot=2000):
    return [ContenderConfig(Tech.NRU, PClass.PC1, aifsn=aifsn, cw_min=cw, cw_max=cw, mcot_us=mcot)]


def data_outcomes(outcomes):
    return [o for o in outcomes if o.kind in (TxKind.SUCCESS, TxKind.COLLISION)]


# ----------------------------------------------------------------------
# Simulator construction


def test_coex_mix_preset_has_three_contenders():
    sim = Simulator(coex_mix_contenders(), seed=0)
    assert len(sim.nodes) == 3
    assert sim.node_names() == ["nru_pc1_0", "nru_pc3_0", "wifi_pc3_0"]


def test_empty_contender_list_rejected():
    with pytest.raises(ConfigError):
        Simulator([], seed=0)


def test_invalid_config_names_field():
    bad = ContenderConfig(Tech.NRU, PClass.PC1, aifsn=0, cw_min=0, cw_max=0, mcot_us=2000)
    with pytest.raises(ConfigError, match="aifsn"):
        Simulator([bad], seed=0)
    bad = ContenderConfig(Tech.NRU, PClass.PC1, aifsn=2, cw_min=0, cw_max=14, mcot_us=2000)
    with pytest.raises(ConfigError, match="cw_max"):
        Simulator([bad], seed=0)


def test_contender_config_is_frozen():
    cfg = coex_mix_contenders()[0]
    with pytest.raises(FrozenInstanceError):
        cfg.aifsn = 3
    assert cfg.aifsn == 2


def test_same_seed_identical_first_1000_outcomes():
    traces = []
    for _ in range(2):
        sim = Simulator(coex_mix_contenders(), seed=42)
        out = []
        while len(out) < 1000:
            out.extend(sim.run_for(100_000))
        traces.append(out[:1000])
    a, b = traces
    assert [(o.node, o.kind, o.start_us, o.end_us) for o in a] == [
        (o.node, o.kind, o.start_us, o.end_us) for o in b
    ]


# ----------------------------------------------------------------------
# draw_backoff


def test_draw_backoff_degenerate_window():
    rng = np.random.default_rng(0)
    assert all(draw_backoff(rng, 0) == 0 for _ in range(100))


def test_draw_backoff_uniform_mean():
    rng = np.random.default_rng(1)
    draws = [draw_backoff(rng, 15) for _ in range(100_000)]
    assert abs(np.mean(draws) - 7.5) < 0.1


def test_draw_backoff_chi_square_uniformity():
    rng = np.random.default_rng(2)
    draws = [draw_backoff(rng, 15) for _ in range(100_000)]
    counts = np.bincount(draws, minlength=16)
    assert len(counts) == 16
    _, p = stats.chisquare(counts)
    assert p > 0.01


# ----------------------------------------------------------------------
# BEB transitions


def make_node(cw_min, cw_max, cw_current=None):
    cfg = ContenderConfig(Tech.WIFI, PClass.PC3, aifsn=3, cw_min=cw_min, cw_max=cw_max,
                          mcot_us=4000)
    node = NodeState(idx=0, name="n", cfg=cfg)
    node.cw_current = cfg.cw_min if cw_current is None else cw_current
    return node


@pytest.mark.parametrize(
    "cw_current,cw_max,expected",
    [(15, 63, 31), (63, 63, 63), (0, 0, 0)],
)
def test_on_collision_doubles_and_clamps(cw_current, cw_max, expected):
    node = make_node(cw_min=0, cw_max=cw_max, cw_current=cw_current)
    rng = np.random.default_rng(0)
    on_collision(node, rng)
    assert node.cw_current == expected
    assert 0 <= node.backoff <= node.cw_current


def test_on_success_resets_window_and_queues_next_frame():
    node = make_node(cw_min=15, cw_max=63, cw_current=63)
    rng = np.random.default_rng(0)
    on_success(node, end_us=12345, rng=rng)
    assert node.cw_current == 15
    assert node.hol_since_us == 12345
    assert 0 <= node.backoff <= 15


def test_beb_ladder_closed_form():
    # after k collisions from the cw_min stage: min(2^k (cw_min+1) - 1, cw_max)
    rng = np.random.default_rng(3)
    for cw_min, cw_max in [(0, 0), (0, 63), (15, 63), (15, 1023)]:
        node = make_node(cw_min, cw_max)
        for k in range(1, 12):
            on_collision(node, rng)
            assert node.cw_current == min(2**k * (cw_min + 1) - 1, cw_max)
        on_success(node, 0, rng)
        assert node.cw_current == cw_min


def test_collision_after_a_raised_cw_min_floors_the_window_at_it():
    cfg = [ContenderConfig(Tech.NRU, PClass.PC1, aifsn=2, cw_min=0, cw_max=0, mcot_us=2000)]
    sim = Simulator(cfg, seed=0)
    sim.apply_mac_params({(Tech.NRU, PClass.PC1): {"cw_min": 3, "cw_max": 3}})
    node = sim.nodes[0]
    assert node.cw_current == 0
    on_collision(node, sim.rng)
    assert node.cw_current == 3
    assert 0 <= node.backoff <= 3


def test_lone_wifi_inter_success_gap_is_aifs_plus_frame():
    # aifsn=2, cw fixed 0: every inter-success gap = AIFS + frame duration
    cfg = [ContenderConfig(Tech.WIFI, PClass.PC1, aifsn=2, cw_min=0, cw_max=0, mcot_us=2000)]
    sim = Simulator(cfg, seed=0)
    out = data_outcomes(sim.run_for(200_000))
    assert all(o.kind == TxKind.SUCCESS for o in out)
    aifs = 16 + 2 * 9
    ends = [o.end_us for o in out]
    gaps = {b - a for a, b in zip(ends, ends[1:])}
    assert gaps == {aifs + 2000}


def test_success_delay_is_start_minus_hol():
    sim = Simulator(single_nru_pc1(), seed=0)
    out = data_outcomes(sim.run_for(100_000))
    prev_end = 0
    for o in out:
        assert o.kind == TxKind.SUCCESS
        assert o.access_delay_us == o.start_us - prev_end
        prev_end = o.end_us


# ----------------------------------------------------------------------
# NR-U gap behavior


def test_plain_gap_emits_reservation_then_boundary_start():
    sim = Simulator(single_nru_pc1(), seed=0)
    out = sim.run_for(10_000)
    rs = [o for o in out if o.kind == TxKind.RS]
    data = data_outcomes(out)
    # access at AIFS end (34 us), hold to the 500 us boundary, data at boundary
    assert rs[0].start_us == 34 and rs[0].end_us == 500
    assert data[0].start_us == 500
    for r, d in zip(rs, data):
        assert r.end_us == d.start_us
        assert d.start_us % 500 == 0


def test_zero_gap_transmits_immediately_without_rs():
    # aifsn=276 puts the first access exactly on the 2500 us boundary
    cfg = [ContenderConfig(Tech.NRU, PClass.PC1, aifsn=276, cw_min=0, cw_max=0, mcot_us=2000)]
    sim = Simulator(cfg, seed=0)
    out = sim.run_for(6_000)
    assert (16 + 276 * 9) % 500 == 0
    assert [o.kind for o in out][0] == TxKind.SUCCESS
    assert out[0].start_us == 2500
    assert not [o for o in out if o.kind == TxKind.RS]


def test_cr_staggered_commits_resolve_to_single_transmitter(monkeypatch):
    # Node 0 (AIFS 34 us) commits first and pulses five times; node 1 (AIFS
    # 43 us) resumes once that train ends and its first pulse falls in node
    # 0's listen tail, so node 0 aborts. The two then take turns until node 1's
    # train is the last before the 500 us boundary, where it alone transmits.
    cfg = [
        ContenderConfig(Tech.NRU, PClass.PC1, aifsn=2, cw_min=0, cw_max=0, mcot_us=2000),
        ContenderConfig(Tech.NRU, PClass.PC3, aifsn=3, cw_min=0, cw_max=0, mcot_us=2000),
    ]
    monkeypatch.setattr(medium, "CR_SLOT_COUNT", 5)
    sim = Simulator(cfg, cr_lbt_enabled=True, seed=0)
    out = sim.run_for(3_000)
    pulses = [(o.node, o.start_us) for o in out if o.kind == TxKind.CR_PULSE and o.end_us < 500]
    # each train needs its hold released at its last pulse end, or the other
    # node's countdown never resumes
    assert pulses == [(node, t0 + 18 * i) for node, t0 in ((0, 34), (1, 158), (0, 273), (1, 397))
                      for i in range(5)]
    assert [(o.node, o.kind, o.start_us, o.end_us) for o in data_outcomes(out)] == [
        (1, TxKind.SUCCESS, 500, 2500),
    ]


def test_plain_hold_does_not_block_wifi_and_boundary_start_collides():
    # Wi-Fi finishing backoff inside the reservation gap is stepped on at the
    # boundary: both transmissions collide.
    cfg = [
        ContenderConfig(Tech.NRU, PClass.PC1, aifsn=2, cw_min=0, cw_max=0, mcot_us=2000),
        ContenderConfig(Tech.WIFI, PClass.PC3, aifsn=4, cw_min=0, cw_max=0, mcot_us=4000),
    ]
    sim = Simulator(cfg, seed=0)
    out = sim.run_for(10_000)
    rs = [o for o in out if o.kind == TxKind.RS][0]
    data = data_outcomes(out)
    wifi = [o for o in data if o.tech == Tech.WIFI][0]
    nru = [o for o in data if o.tech == Tech.NRU][0]
    assert rs.start_us < wifi.start_us < rs.end_us  # started mid-gap
    assert nru.start_us == rs.end_us
    assert wifi.kind == TxKind.COLLISION and nru.kind == TxKind.COLLISION


def test_cr_pulses_block_wifi_countdown():
    # under CR-LBT the pulse train is real energy: no Wi-Fi start inside a gap
    cfg = [
        ContenderConfig(Tech.NRU, PClass.PC1, aifsn=2, cw_min=0, cw_max=0, mcot_us=2000),
        ContenderConfig(Tech.WIFI, PClass.PC3, aifsn=4, cw_min=0, cw_max=0, mcot_us=4000),
    ]
    sim = Simulator(cfg, cr_lbt_enabled=True, seed=0)
    out = sim.run_for(100_000)
    pulses = [o for o in out if o.kind == TxKind.CR_PULSE]
    assert pulses, "expected CR pulses"
    starts = {o.start_us for o in data_outcomes(out) if o.tech == Tech.WIFI}
    for p in pulses:
        gap_start = p.start_us
        # no Wi-Fi data transmission begins strictly inside any pulse
        assert not any(gap_start < s < p.end_us for s in starts)


def test_cr_cross_tech_tie_resolves_without_collision():
    # simultaneous Wi-Fi data start and NR-U commit: the gNB hears the frame
    # in its first listen interval and defers; the Wi-Fi frame succeeds.
    cfg = [
        ContenderConfig(Tech.NRU, PClass.PC1, aifsn=2, cw_min=0, cw_max=0, mcot_us=2000),
        ContenderConfig(Tech.WIFI, PClass.PC1, aifsn=2, cw_min=0, cw_max=0, mcot_us=2000),
    ]
    sim = Simulator(cfg, cr_lbt_enabled=True, seed=0)
    out = sim.run_for(20_000)
    data = data_outcomes(out)
    assert data, "expected transmissions"
    assert all(o.kind == TxKind.SUCCESS for o in data)
    assert all(o.tech == Tech.WIFI for o in data)


# ----------------------------------------------------------------------
# resolve semantics


def test_single_transmitter_success():
    sim = Simulator(single_nru_pc1(), seed=1)
    out = data_outcomes(sim.run_for(50_000))
    assert out and all(o.kind == TxKind.SUCCESS for o in out)


def test_identical_backoff_wifi_pair_collides():
    cfg = [
        ContenderConfig(Tech.WIFI, PClass.PC3, aifsn=3, cw_min=0, cw_max=0, mcot_us=4000),
        ContenderConfig(Tech.WIFI, PClass.PC3, aifsn=3, cw_min=0, cw_max=0, mcot_us=4000),
    ]
    sim = Simulator(cfg, seed=0)
    out = data_outcomes(sim.run_for(50_000))
    assert out and all(o.kind == TxKind.COLLISION for o in out)
    # simultaneous starts
    starts = sorted(o.start_us for o in out)
    assert starts[0::2] == starts[1::2]


def test_no_success_overlaps_any_data_interval():
    sim = Simulator(coex_mix_contenders(), seed=9)
    out = data_outcomes(sim.run_for(1_000_000))
    spans = sorted((o.start_us, o.end_us, o.kind) for o in out)
    for (s1, e1, k1), (s2, e2, k2) in zip(spans, spans[1:]):
        if s2 < e1:  # overlap
            assert k1 == TxKind.COLLISION and k2 == TxKind.COLLISION


def test_nru_data_starts_on_slot_boundaries():
    sim = Simulator(coex_mix_contenders(), seed=4)
    out = data_outcomes(sim.run_for(1_000_000))
    for o in out:
        if o.tech == Tech.NRU:
            assert o.start_us % 500 == 0


# ----------------------------------------------------------------------
# run_for


def test_run_for_requires_positive_duration():
    sim = Simulator(single_nru_pc1(), seed=0)
    with pytest.raises(ValueError):
        sim.run_for(0)


@pytest.mark.parametrize("duration", [2500.5, 2500.0, True, False])
def test_run_for_refuses_a_duration_that_is_not_an_integer(duration):
    sim = Simulator(coex_mix_contenders(), seed=0)
    with pytest.raises(TypeError, match=f"got {duration!r}$"):
        sim.run_for(duration)
    assert sim.clock == 0


@pytest.mark.parametrize("duration", [np.int64(2500), np.int32(2500), np.uint16(2500)])
def test_run_for_accepts_a_numpy_integer_duration(duration):
    sims = [Simulator(coex_mix_contenders(), seed=0) for _ in range(2)]
    key = lambda o: (o.node, o.kind, o.start_us, o.end_us, o.access_delay_us)
    assert [key(o) for o in sims[0].run_for(duration)] == [key(o) for o in sims[1].run_for(2500)]
    assert sims[0].clock == 2500 and type(sims[0].clock) is int


def test_run_for_split_windows_compose():
    sims = [Simulator(coex_mix_contenders(), seed=5) for _ in range(2)]
    whole = list(sims[0].run_for(2500)) + list(sims[0].run_for(2500))
    halves = []
    for _ in range(4):
        halves.extend(sims[1].run_for(1250))
    key = lambda o: (o.node, o.kind, o.start_us, o.end_us)
    assert [key(o) for o in whole] == [key(o) for o in halves]
    assert sims[0].clock == sims[1].clock == 5000


def test_saturated_preset_busy_fraction_above_0_9():
    sim = Simulator(coex_mix_contenders(), seed=6)
    sim.run_for(10_000_000)
    assert sim.occupied_us_at() / sim.clock > 0.9


def test_occupancy_integrator_matches_trace_union():
    sim = Simulator(coex_mix_contenders(), seed=7)
    horizon = 1_000_000
    out = list(sim.run_for(horizon))
    occupied_at_horizon = sim.occupied_us_at()
    out.extend(sim.run_for(50_000))  # flush frames spanning the horizon
    spans = sorted(
        (o.start_us, min(o.end_us, horizon)) for o in out if o.start_us < horizon
    )
    union = 0
    cur_s = cur_e = None
    for s, e in spans:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                union += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        union += cur_e - cur_s
    assert union == occupied_at_horizon


def test_work_conservation_idle_bound():
    sim = Simulator(coex_mix_contenders(), seed=8)
    out = list(sim.run_for(2_000_000))
    spans = sorted((o.start_us, o.end_us) for o in out)
    merged = []
    for s, e in spans:
        if merged and s <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], e))
        else:
            merged.append((s, e))
    max_aifs = 16 + 3 * 9
    bound = max_aifs + 255 * 9 + 500
    for (s1, e1), (s2, e2) in zip(merged, merged[1:]):
        assert s2 - e1 <= bound


def test_cr_single_contender_matches_plain_throughput():
    runs = {}
    for cr in (False, True):
        sim = Simulator(single_nru_pc1(), cr_lbt_enabled=cr, seed=3)
        out = data_outcomes(sim.run_for(500_000))
        runs[cr] = [(o.start_us, o.end_us, o.kind) for o in out]
    assert runs[False] == runs[True]
    assert all(k == TxKind.SUCCESS for _, _, k in runs[True])


# ----------------------------------------------------------------------
# apply_mac_params


def test_apply_mac_params_takes_effect_on_next_draws():
    sim = Simulator(coex_mix_contenders(), seed=10)
    sim.run_for(100_000)
    sim.apply_mac_params({
        (Tech.NRU, PClass.PC1): {"cw_min": 0, "cw_max": 7},
        (Tech.NRU, PClass.PC3): {"cw_min": 15, "cw_max": 63},
    })
    sim.run_for(500_000)
    for node in sim.nodes:
        if node.cfg.tech == Tech.NRU:
            assert node.cw_current <= node.cfg.cw_max
            assert node.backoff <= node.cw_current


def test_apply_mac_params_idempotent():
    traces = []
    for repeats in (1, 2):
        sim = Simulator(coex_mix_contenders(), seed=11)
        sim.run_for(50_000)
        for _ in range(repeats):
            sim.apply_mac_params({(Tech.NRU, PClass.PC1): {"cw_min": 0, "cw_max": 7}})
        out = sim.run_for(200_000)
        traces.append([(o.node, o.kind, o.start_us, o.end_us) for o in out])
    assert traces[0] == traces[1]


def test_apply_mac_params_rejects_and_leaves_state():
    sim = Simulator(coex_mix_contenders(), seed=12)
    before = {n.idx: n.cfg.mcot_us for n in sim.nodes}
    with pytest.raises(ConfigError, match="mcot_us"):
        sim.apply_mac_params({(Tech.NRU, PClass.PC1): {"mcot_us": 1000},
                              (Tech.NRU, PClass.PC3): {"mcot_us": 0}})
    assert {n.idx: n.cfg.mcot_us for n in sim.nodes} == before


def test_apply_mac_params_reuses_built_configs_and_still_refuses():
    sim = Simulator(coex_mix_contenders(), seed=12)
    pc1 = sim.nodes[0]
    preset = pc1.cfg
    sim.apply_mac_params({(Tech.NRU, PClass.PC1): {"aifsn": 1}})
    built = pc1.cfg
    sim.apply_mac_params({(Tech.NRU, PClass.PC1): {"aifsn": 2}})  # the preset's value
    back = pc1.cfg
    assert back == preset and back is not preset
    sim.apply_mac_params({(Tech.NRU, PClass.PC1): {"aifsn": 1}})
    assert pc1.cfg is built  # the same update of the same config: built once
    sim.apply_mac_params({(Tech.NRU, PClass.PC1): {"aifsn": 2}})
    assert pc1.cfg is back
    before = [n.cfg for n in sim.nodes]
    # a cached update inside a refused assignment changes nothing
    with pytest.raises(ConfigError, match="aifsn"):
        sim.apply_mac_params({(Tech.NRU, PClass.PC1): {"aifsn": 1},
                              (Tech.NRU, PClass.PC3): {"aifsn": 0}})
    assert [n.cfg for n in sim.nodes] == before and pc1.cfg is back
    # an update cached as valid on one config is refused on a config it does not fit
    sim.apply_mac_params({(Tech.NRU, PClass.PC1): {"cw_min": 15}})
    sim.apply_mac_params({(Tech.NRU, PClass.PC1): {"cw_min": 7, "cw_max": 7}})
    before = [n.cfg for n in sim.nodes]
    with pytest.raises(ConfigError, match="cw_max"):
        sim.apply_mac_params({(Tech.NRU, PClass.PC1): {"cw_min": 15}})
    assert [n.cfg for n in sim.nodes] == before


def test_medium_invariants_validated():
    # the closed-form train settle is exact only under these (module docstring):
    # a pulse half and a listen half, the pulses fit before the boundary, and a
    # listen half is shorter than the smallest AIFS (aifsn 1)
    assert medium.CR_SLOT_US % 2 == 0
    assert medium.CR_SLOT_COUNT * medium.CR_SLOT_US <= medium.NRU_SLOT_BOUNDARY_US
    assert medium.CR_SLOT_US // 2 < medium.SIFS_US + medium.OBS_SLOT_US


def test_node_state_invariants_hold_throughout_run():
    sim = Simulator(coex_mix_contenders(), seed=13)
    for _ in range(60):
        sim.run_for(10_000)
        for node in sim.nodes:
            assert 0 <= node.backoff <= node.cw_current <= node.cfg.cw_max
            assert node.cfg.cw_min <= node.cw_current
            assert node.hol_since_us <= sim.clock


# ----------------------------------------------------------------------
# equal-time event order
#
# At one timestamp the event kind sets the order: frame ends, then pulse ends
# and listen checks, then boundary fires, then accesses, whose CR commits start
# their train at once. Each scenario below forces one of those ties with
# zero-width windows.


def nru_then_wifi_448():
    # NR-U accesses at 25 us and holds to the 500 us boundary; the Wi-Fi node
    # accesses at 52 us and its 448 us frame ends exactly on that boundary.
    return [
        ContenderConfig(Tech.NRU, PClass.PC1, aifsn=1, cw_min=0, cw_max=0, mcot_us=448),
        ContenderConfig(Tech.WIFI, PClass.PC3, aifsn=4, cw_min=0, cw_max=0, mcot_us=448),
    ]


def test_frame_ending_at_a_boundary_does_not_collide_with_the_frame_starting_there():
    # the frame end is processed before the boundary fire, so the NR-U frame
    # starts on a free channel
    out = Simulator(nru_then_wifi_448(), seed=0).run_for(990)
    assert [(o.node, o.kind, o.start_us, o.end_us) for o in out] == [
        (1, TxKind.SUCCESS, 52, 500),
        (0, TxKind.RS, 25, 500),
        (0, TxKind.SUCCESS, 500, 948),
    ]


def test_boundary_fire_starts_before_an_access_due_there():
    # after the channel frees at 948 us the NR-U node commits to the 1000 us
    # boundary (at 973 us) and the Wi-Fi access falls due at exactly 1000 us:
    # both frames start there and collide. The fire runs first, so the NR-U
    # frame's end event is queued, and its record emitted, first.
    out = Simulator(nru_then_wifi_448(), seed=0).run_for(1_460)
    assert [(o.node, o.kind, o.start_us, o.end_us) for o in out[3:]] == [
        (0, TxKind.RS, 973, 1000),
        (0, TxKind.COLLISION, 1000, 1448),
        (1, TxKind.COLLISION, 1000, 1448),
    ]


def test_accesses_due_at_the_same_microsecond_run_in_node_index_order():
    # three zero-window contenders fall due together at 43 us (aifsn 3): the
    # Wi-Fi nodes start at once and the NR-U node between them commits to the
    # 500 us boundary, where it steps on both frames. The Wi-Fi frames end
    # together, so their records come out in the order they started.
    cfg = [
        ContenderConfig(Tech.WIFI, PClass.PC3, aifsn=3, cw_min=0, cw_max=0, mcot_us=1448),
        ContenderConfig(Tech.NRU, PClass.PC3, aifsn=3, cw_min=0, cw_max=0, mcot_us=1448),
        ContenderConfig(Tech.WIFI, PClass.PC1, aifsn=3, cw_min=0, cw_max=0, mcot_us=1448),
    ]
    out = Simulator(cfg, seed=0).run_for(1_960)
    assert [(o.node, o.kind, o.start_us, o.end_us) for o in out] == [
        (1, TxKind.RS, 43, 500),
        (0, TxKind.COLLISION, 43, 1491),
        (2, TxKind.COLLISION, 43, 1491),
        (1, TxKind.COLLISION, 500, 1948),
    ]


def test_accesses_due_together_under_cr_lbt_pulse_in_phase_and_collide():
    # both NR-U nodes fall due at 34 us and commit in index order; their pulse
    # trains are in phase, neither hears the other, and both fire at 500 us
    cfg = [
        ContenderConfig(Tech.NRU, PClass.PC1, aifsn=2, cw_min=0, cw_max=0, mcot_us=2000),
        ContenderConfig(Tech.NRU, PClass.PC3, aifsn=2, cw_min=0, cw_max=0, mcot_us=2000),
    ]
    out = Simulator(cfg, cr_lbt_enabled=True, seed=0).run_for(2_600)
    pulses = [o for o in out if o.kind == TxKind.CR_PULSE]
    assert [(o.node, o.start_us) for o in pulses[:4]] == [(0, 34), (1, 34), (0, 52), (1, 52)]
    assert [(o.node, o.kind, o.start_us) for o in data_outcomes(out)] == [
        (0, TxKind.COLLISION, 500), (1, TxKind.COLLISION, 500),
    ]


def test_countdown_due_at_a_busy_start_fires_after_a_raised_aifs():
    # The channel frees at 966 us; the NR-U node commits at 991 us to the
    # 1000 us boundary and the Wi-Fi countdown (AIFS 34 us) ends at 1000 us.
    # Raising every AIFSN to 5 (AIFS 61 us) at 967 us does not move a
    # countdown already running, so both frames start at 1000 us and collide,
    # although the channel turns busy only 34 us after going idle.
    cfg = [
        ContenderConfig(Tech.NRU, PClass.PC1, aifsn=1, cw_min=0, cw_max=0, mcot_us=466),
        ContenderConfig(Tech.WIFI, PClass.PC3, aifsn=2, cw_min=0, cw_max=0, mcot_us=441),
    ]
    sim = Simulator(cfg, seed=0)
    assert [(o.node, o.kind, o.end_us) for o in sim.run_for(967)][-1] == (0, TxKind.SUCCESS, 966)
    sim.apply_mac_params({(tech, pclass): {"aifsn": 5} for tech in Tech for pclass in PClass})
    out = sim.run_for(1_500)
    assert [(o.node, o.kind, o.start_us) for o in data_outcomes(out)][:2] == [
        (1, TxKind.COLLISION, 1000), (0, TxKind.COLLISION, 1000),
    ]


def dense_cr_contenders():
    return [
        *[ContenderConfig(Tech.NRU, PClass.PC1, aifsn=2, cw_min=7, cw_max=15, mcot_us=2000)] * 2,
        *[ContenderConfig(Tech.NRU, PClass.PC3, aifsn=3, cw_min=127, cw_max=255,
                          mcot_us=4000)] * 3,
        *[ContenderConfig(Tech.WIFI, PClass.PC3, aifsn=3, cw_min=127, cw_max=255,
                          mcot_us=4000)] * 3,
    ]


def aifsn_windows_digest(cr_lbt):
    # 400 control windows of 2.5 ms on the dense 2+3+3 mix, each preceded by a
    # seeded random AIFSN assignment for every (tech, class)
    rng = np.random.default_rng(2024)
    sim = Simulator(dense_cr_contenders(), cr_lbt_enabled=cr_lbt, seed=17)
    h = hashlib.sha256()
    for _ in range(400):
        sim.apply_mac_params({
            (Tech.NRU, PClass.PC1): {"aifsn": int(rng.integers(1, 4))},
            (Tech.NRU, PClass.PC3): {"aifsn": int(rng.integers(1, 8))},
            (Tech.WIFI, PClass.PC3): {"aifsn": int(rng.integers(1, 8))},
        })
        for o in sim.run_for(2_500):
            h.update(f"{o.node},{o.kind.value},{o.start_us},{o.end_us},{o.access_delay_us}\n"
                     .encode())
        h.update(f"{sim.clock},{sim.occupied_us_at()}\n".encode())
    return h.hexdigest()


# Computed before the single access timer replaced per-node access events.
@pytest.mark.parametrize("cr_lbt,digest", [
    (False, "0595fb7e3d6d2d2b5455011bfd88398e8d690e59489030e4a89de082af566d0a"),
    (True, "9c7a622b332ef9849ca52ebbe81b02d30b7b521d2c0e14e815f5a8a960d07231"),
])
def test_random_aifsn_windows_outcome_stream_is_pinned(cr_lbt, digest):
    assert aifsn_windows_digest(cr_lbt) == digest


def test_random_aifsn_windows_outcome_stream_is_pinned_at_a_12_us_cr_slot(monkeypatch):
    # computed before in-phase CR pulses shared one event per pulse edge
    monkeypatch.setattr(medium, "CR_SLOT_US", 12)
    monkeypatch.setattr(medium, "CR_SLOT_COUNT", 40)
    assert (aifsn_windows_digest(cr_lbt=True)
            == "022527b12e52a2674dfd00d2fd95b7bef18830eae8a59034fc83ba6ab8b5a457")


def union_us_before(spans, edges):
    """Length of the union of the [start, end) spans below each edge."""
    merged = []
    for s, e in sorted(spans):
        if merged and s <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], e)
        else:
            merged.append([s, e])
    starts = [s for s, _ in merged]
    done = np.cumsum([0] + [e - s for s, e in merged])  # done[i]: first i segments
    out = []
    for edge in edges:
        i = bisect.bisect_left(starts, edge)
        out.append(int(done[i - 1]) + min(merged[i - 1][1], edge) - starts[i - 1] if i else 0)
    return out


def test_short_windows_give_the_results_of_one_long_window():
    # 200 ms of the 2+3+3 CR-LBT mix under one seeded random AIFSN assignment,
    # run as one window and as random 1-40 us windows, which end inside pulses,
    # listen halves and the gaps between trains (windows of a multiple of the
    # 500 us slot boundary never end inside a train)
    rng = np.random.default_rng(31)
    assignment = {
        (Tech.NRU, PClass.PC1): {"aifsn": int(rng.integers(1, 4))},
        (Tech.NRU, PClass.PC3): {"aifsn": int(rng.integers(1, 8))},
        (Tech.WIFI, PClass.PC3): {"aifsn": int(rng.integers(1, 8))},
    }
    sims = [Simulator(dense_cr_contenders(), cr_lbt_enabled=True, seed=23)
            for _ in range(2)]
    for sim in sims:
        sim.apply_mac_params(assignment)
    whole = list(sims[0].run_for(200_000))
    short, sim = [], sims[1]
    edges, occupied, pulse_us = [], [0], 0
    while sim.clock < 200_000:
        start = sim.clock
        out = sim.run_for(min(int(rng.integers(1, 41)), 200_000 - sim.clock))
        short.extend(out)
        # a window reports exactly what ended in it
        assert all(start < o.end_us <= sim.clock for o in out)
        assert occupied[-1] <= sim.occupied_us_at() <= sim.clock
        edges.append(sim.clock)
        occupied.append(sim.occupied_us_at())
        pulse_us += sum(o.duration_us for o in out if o.kind == TxKind.CR_PULSE)
        assert sum(n.stats.pulse_us for n in sim.nodes) == pulse_us
    key = lambda o: (o.node, o.kind, o.start_us, o.end_us, o.access_delay_us)
    assert [key(o) for o in whole] == [key(o) for o in short]
    assert sum(o.kind == TxKind.CR_PULSE for o in whole) > 1000
    assert [vars(s) for s in sims[0].stats_snapshot()] == [vars(s) for s in sim.stats_snapshot()]
    assert sims[0].clock == sim.clock == 200_000
    assert sims[0].occupied_us_at() == sim.occupied_us_at()
    # at every edge, occupancy counts each pulse and frame started by then
    whole.extend(sims[0].run_for(10_000))  # end what spans the last edge
    assert occupied[1:] == union_us_before([(o.start_us, o.end_us) for o in whole], edges)


def test_reading_the_outcomes_changes_no_simulator_state():
    # two same-seed runs of the 2+3+3 CR-LBT mix in random windows: one reads
    # each window's outcomes at once (length, iteration, indexing), the other
    # keeps them unread until the end, as the perfbench tracer does
    rng = np.random.default_rng(41)
    sims = [Simulator(dense_cr_contenders(), cr_lbt_enabled=True, seed=37) for _ in range(2)]
    key = lambda o: (o.node, o.kind, o.start_us, o.end_us, o.access_delay_us)
    read, kept = [], []
    while sims[0].clock < 100_000:
        duration = int(rng.integers(1, 3_000))
        out = sims[0].run_for(duration)
        items = list(out)
        assert len(out) == len(items) and all(out[i] is o for i, o in enumerate(items))
        assert out[-len(items):] == items
        read += [key(o) for o in out]
        kept.append(sims[1].run_for(duration))

    def state(sim):
        return ([vars(s) for s in sim.stats_snapshot()], sim.clock, sim.occupied_us_at(),
                [(n.state, n.backoff, n.cw_current, n.hol_since_us) for n in sim.nodes],
                sim.rng.bit_generator.state)

    assert state(sims[0]) == state(sims[1])
    assert [key(o) for out in kept for o in out] == read
    assert sum(kind == TxKind.CR_PULSE for _, kind, *_ in read) > 1000


def test_each_cr_pulse_outcome_is_half_a_slot_of_its_nodes_pulse_us():
    # random 1-40 us windows of the 2+3+3 CR-LBT mix end inside pulses, listen
    # halves and the gaps between trains; per node and window, the CR_PULSE
    # outcomes and the pulse_us gained count the same pulses
    rng = np.random.default_rng(5)
    half = medium.CR_SLOT_US // 2
    sim = Simulator(dense_cr_contenders(), cr_lbt_enabled=True, seed=29)
    pulses = np.zeros(len(sim.nodes), dtype=int)
    while sim.clock < 100_000:
        if sim.clock % 2_500 < 40:
            sim.apply_mac_params({
                (Tech.NRU, PClass.PC1): {"aifsn": int(rng.integers(1, 4))},
                (Tech.NRU, PClass.PC3): {"aifsn": int(rng.integers(1, 8))},
                (Tech.WIFI, PClass.PC3): {"aifsn": int(rng.integers(1, 8))},
            })
        before = sim.stats_snapshot()
        out = sim.run_for(int(rng.integers(1, 41)))
        counts = np.bincount([o.node for o in out if o.kind == TxKind.CR_PULSE],
                             minlength=len(sim.nodes))
        gained = [now.pulse_us - start.pulse_us
                  for now, start in zip(sim.stats_snapshot(), before)]
        assert list(counts * half) == gained
        pulses += counts
    assert pulses.sum() > 1000 and np.count_nonzero(pulses) >= 3


@pytest.mark.parametrize("mcot_us", [None, 5])
def test_no_hold_starts_during_a_train_that_passed_its_check(monkeypatch, mcot_us):
    # A passed train is settled lazily up to its last pulse end, which is exact
    # only if no frame, hold or other train starts meanwhile. A 5 us frame is
    # shorter than a listen half, so a frame starting at a train's first pulse
    # ends before the train's check.
    blocking_start, pulse_end = Simulator._blocking_start, Simulator._ev_pulse_end
    passed = []

    def checked_blocking_start(self, t, holds=1):
        assert self._lazy is None
        blocking_start(self, t, holds)

    def counted_pulse_end(self, t, tr):
        pulse_end(self, t, tr)
        if t == tr.t0 + medium.CR_SLOT_US // 2 and tr.members[0].commit is not None:
            passed.append(tr)

    monkeypatch.setattr(Simulator, "_blocking_start", checked_blocking_start)
    monkeypatch.setattr(Simulator, "_ev_pulse_end", counted_pulse_end)
    rng = np.random.default_rng(2024)
    contenders = dense_cr_contenders()
    if mcot_us is not None:
        contenders = [replace(c, mcot_us=mcot_us) for c in contenders]
    sim = Simulator(contenders, cr_lbt_enabled=True, seed=17)
    for _ in range(80):
        sim.apply_mac_params({
            (Tech.NRU, PClass.PC1): {"aifsn": int(rng.integers(1, 4))},
            (Tech.NRU, PClass.PC3): {"aifsn": int(rng.integers(1, 8))},
            (Tech.WIFI, PClass.PC3): {"aifsn": int(rng.integers(1, 8))},
        })
        sim.run_for(2_500)
    assert len(passed) > 50


# ----------------------------------------------------------------------
# invariants under random contender mixes and MAC assignments


POW2M1 = [0, 1, 3, 7, 15, 31, 63, 127, 255, 1023]


@st.composite
def mac_params(draw):
    lo, hi = sorted(draw(st.sampled_from(POW2M1)) for _ in range(2))
    return {"aifsn": draw(st.integers(1, 7)), "cw_min": lo, "cw_max": hi,
            "mcot_us": draw(st.integers(1, 8)) * 500}


KEYS = [(tech, pclass) for tech in Tech for pclass in PClass]


@st.composite
def random_runs(draw):
    mix = draw(st.lists(st.tuples(st.sampled_from(KEYS), mac_params()), min_size=1, max_size=8))
    contenders = [ContenderConfig(tech, pclass, **params) for (tech, pclass), params in mix]
    windows = draw(st.lists(
        st.dictionaries(st.sampled_from(KEYS), mac_params(), max_size=len(KEYS)),
        min_size=1, max_size=12))
    return contenders, windows


@settings(max_examples=200, deadline=None)
@given(run=random_runs(), cr_lbt=st.booleans(), seed=st.integers(0, 2**16))
def test_invariants_hold_under_random_mixes_and_assignments(run, cr_lbt, seed):
    contenders, windows = run
    sim = Simulator(contenders, cr_lbt_enabled=cr_lbt, seed=seed)
    # a node's window bounds hold again once it has succeeded or collided
    # after its CW parameters last changed (new values take effect at next draws)
    settled = [True] * len(sim.nodes)
    data = []
    for assignment in windows:
        for node in sim.nodes:
            new = assignment.get((node.cfg.tech, node.cfg.pclass))
            if new and (new["cw_min"], new["cw_max"]) != (node.cfg.cw_min, node.cfg.cw_max):
                settled[node.idx] = False
        sim.apply_mac_params(assignment)
        before = [astuple(node.stats) for node in sim.nodes]
        out = sim.run_for(2_500)
        for node, start in zip(sim.nodes, before):
            delta = NodeStats(*(a - b for a, b in zip(astuple(node.stats), start)))
            mine = [o for o in out if o.node == node.idx]
            spans = {kind: [o.duration_us for o in mine if o.kind == kind] for kind in TxKind}
            assert delta.successes == len(spans[TxKind.SUCCESS])
            assert delta.collisions == len(spans[TxKind.COLLISION])
            assert delta.success_air_us == sum(spans[TxKind.SUCCESS])
            assert delta.collision_air_us == sum(spans[TxKind.COLLISION])
            assert delta.reserve_us == sum(spans[TxKind.RS])
            assert delta.pulse_us == sum(spans[TxKind.CR_PULSE])
            assert delta.delay_sum_us == sum(
                o.access_delay_us for o in mine if o.kind == TxKind.SUCCESS)
            if spans[TxKind.SUCCESS] or spans[TxKind.COLLISION]:
                settled[node.idx] = True
            assert node.stats.success_air_us + node.stats.collision_air_us <= sim.clock
            assert 0 <= node.backoff <= node.cw_current
            assert node.hol_since_us <= sim.clock
            if settled[node.idx]:
                assert node.cfg.cw_min <= node.cw_current <= node.cfg.cw_max
        assert 0 <= sim.occupied_us_at() <= sim.clock
        # the access timer sits exactly at the earliest running countdown
        assert sim._access_at == min(
            (node.pending_at for node in sim.nodes if node.state == _PENDING), default=np.inf)
        data.extend(data_outcomes(out))
    for o in data:
        if o.kind == TxKind.SUCCESS:
            assert not any(p is not o and p.start_us < o.end_us and o.start_us < p.end_us
                           for p in data)


def check_timer_and_on_air(sim):
    # the sweeps arm the access timer at the earliest running countdown, and
    # the on-air list holds exactly the nodes with a data frame in flight
    assert sim._access_at == min(
        (node.pending_at for node in sim.nodes if node.state == _PENDING), default=_NEVER)
    assert sorted(node.idx for node in sim._on_air) == [
        node.idx for node in sim.nodes if node.state == _TX]


@settings(max_examples=200, deadline=None)
@given(run=random_runs(), cr_lbt=st.booleans(), seed=st.integers(0, 2**16))
def test_timer_and_on_air_list_hold_after_every_sweep(run, cr_lbt, seed):
    contenders, windows = run
    sim = Simulator(contenders, cr_lbt_enabled=cr_lbt, seed=seed)
    check_timer_and_on_air(sim)

    def checked(method):
        def call(*args):
            method(*args)
            check_timer_and_on_air(sim)
        return call

    for name in ("_on_idle", "_freeze_pending", "_ev_access"):
        setattr(sim, name, checked(getattr(sim, name)))
    for assignment in windows:
        sim.apply_mac_params(assignment)
        sim.run_for(2_500)
