"""Environment: action decoding, reset/step semantics, episode structure."""

import hashlib
import struct
from dataclasses import astuple, replace

import numpy as np
import pytest

from coexctl.env import (
    ACTION_GRIDS,
    CoexEnv,
    action_table,
    single_pc1_preset,
    coex_mix_preset,
)
from coexctl import medium
from coexctl.constraint import DualController
from coexctl.medium import CR_SLOT_US, PClass, Simulator, Tech, TxKind
from coexctl.metrics import ALPHA_DELAY, StepMetrics, ema_update, jain_index

# the observation's lambda normaliser when no dual sets one
LAMBDA_MAX = DualController.lambda_max
PC1, PC3 = (Tech.NRU, PClass.PC1), (Tech.NRU, PClass.PC3)


def row(mode, i1, i3):
    """The table row of PC1 option i1 and PC3 option i3."""
    return action_table(mode)[i1 * len(ACTION_GRIDS[mode][1]) + i3]


# ----------------------------------------------------------------------
# action tables


def test_cardinalities():
    assert len(action_table("cw")) == 49
    assert len(action_table("aifsn")) == 21
    assert len(action_table("mcot")) == 49
    for mode in ("CW", "dcf"):
        with pytest.raises(ValueError, match="unknown action mode"):
            action_table(mode)


def test_cw_decode_examples():
    assert row("cw", 0, 0) == {PC1: {"cw_min": 0, "cw_max": 0}, PC3: {"cw_min": 15, "cw_max": 15}}
    assert row("cw", 3, 2)[PC1]["cw_max"] == 7
    assert row("cw", 3, 2)[PC3]["cw_max"] == 63


def test_mcot_decode_example():
    table = action_table("mcot")
    assert table[0] == {PC1: {"mcot_us": 1000}, PC3: {"mcot_us": 1000}}
    assert table[-1][PC1] == {"mcot_us": 4000}


def test_aifsn_option_sets():
    assert ACTION_GRIDS["aifsn"] == ((1, 2, 3), (1, 2, 3, 4, 5, 6, 7))
    assert row("aifsn", 1, 6) == {PC1: {"aifsn": 2}, PC3: {"aifsn": 7}}


@pytest.mark.parametrize("mode", ["cw", "aifsn", "mcot"])
def test_decode_encode_bijection(mode):
    # row i1 * |PC3| + i3 sets PC1 by option i1 alone and PC3 by option i3 alone
    table = action_table(mode)
    n1, n3 = map(len, ACTION_GRIDS[mode])
    assert len(table) == n1 * n3
    for i1 in range(n1):
        for i3 in range(n3):
            assert table[i1 * n3 + i3][PC1] == table[i1 * n3][PC1]
            assert table[i1 * n3 + i3][PC3] == table[i3][PC3]
    assert len({repr(table[i1 * n3][PC1]) for i1 in range(n1)}) == n1
    assert len({repr(table[i3][PC3]) for i3 in range(n3)}) == n3
    assert set(table[0]) == {PC1, PC3}


def test_decode_rejects_out_of_range():
    env = CoexEnv(coex_mix_preset(), action_mode="cw")
    env.reset(seed=1)
    for index in (49, -1):
        with pytest.raises(ValueError, match="out of range"):
            env.step(index)
    # nothing was applied: the nodes keep their preset parameters
    assert [n.cfg for n in env.sim.nodes] == [replace(c, count=1) for c in coex_mix_preset()]


def test_row_major_pc1_slowest():
    table = action_table("cw")
    assert table[0] == {PC1: {"cw_min": 0, "cw_max": 0}, PC3: {"cw_min": 15, "cw_max": 15}}
    assert table[6] == {PC1: {"cw_min": 0, "cw_max": 0}, PC3: {"cw_min": 15, "cw_max": 1023}}
    assert table[7] == {PC1: {"cw_min": 0, "cw_max": 1}, PC3: {"cw_min": 15, "cw_max": 15}}


@pytest.mark.parametrize("mode", ["cw", "aifsn", "mcot"])
def test_every_row_applies_to_the_dense_mix(mode):
    preset = {(c.tech, c.pclass): replace(c, count=1) for c in coex_mix_preset(2, 3, 3)}
    env = CoexEnv(coex_mix_preset(2, 3, 3), action_mode=mode, cr_lbt=True)
    env.reset(seed=17)
    ap_cfgs = [n.cfg for n in env.sim.nodes if n.cfg.tech == Tech.WIFI]
    for index, assignment in enumerate(env.actions):
        env.step(index)  # a row the simulator refused would raise ConfigError
        for node in env.sim.nodes:
            key = (node.cfg.tech, node.cfg.pclass)
            if node.cfg.tech == Tech.NRU:
                assert node.cfg == replace(preset[key], **assignment[key])
        assert all(n.cfg is cfg for n, cfg in zip(env.sim.nodes[5:], ap_cfgs))
    assert len({repr(r) for r in env.actions}) == len(env.actions)


# ----------------------------------------------------------------------
# reset


def test_reset_determinism_and_augmentation():
    obs = []
    for _ in range(2):
        env = CoexEnv(coex_mix_preset(), action_mode="cw")
        assert env.reset(seed=3) is None
        obs.append(env.observe(0.0, 5.0))
    assert np.array_equal(obs[0], obs[1])
    assert obs[0][-1] == 0.0  # lambda = 0 -> augmentation slot 0
    clock = env.sim.clock
    o = env.observe(2.5, 5.0)
    assert o[-1] == 0.5
    assert np.array_equal(o[:-1], obs[0][:-1])
    assert env.sim.clock == clock  # observing advances nothing
    for lam in (-0.5, 5.5):
        with pytest.raises(ValueError, match="outside"):
            env.observe(lam, 5.0)


def test_first_reset_requires_seed():
    env = CoexEnv(coex_mix_preset(), action_mode="cw")
    with pytest.raises(ValueError):
        env.reset()


def test_observation_dim_contract():
    env = CoexEnv(coex_mix_preset(), action_mode="cw")
    env.reset(seed=1)
    assert env.observe(0.0, LAMBDA_MAX).shape == (env.observation_dim,)
    assert env.observation_dim == 3 + 5 + 1
    for _ in range(5):
        env.step(10)
        assert env.observe(0.0, LAMBDA_MAX).shape == (env.observation_dim,)


# ----------------------------------------------------------------------
# step


def test_episode_is_100_steps_and_then_errors():
    env = CoexEnv(coex_mix_preset(), action_mode="cw")
    env.reset(seed=2)
    assert env.episode_steps == 100
    for _ in range(100):
        assert isinstance(env.step(20), StepMetrics)
    with pytest.raises(RuntimeError, match="episode is done"):
        env.step(20)


def test_fixed_action_sequence_reproducible():
    seqs = []
    for _ in range(2):
        env = CoexEnv(coex_mix_preset(), action_mode="cw")
        env.reset(seed=5)
        seqs.append([(r.jfi, r.pc1_delay_smooth_us) for r in (env.step(13) for _ in range(100))])
    assert seqs[0] == seqs[1]


def test_single_contender_jfi_is_one():
    env = CoexEnv(single_pc1_preset(), action_mode="cw")
    env.reset(seed=1)
    for _ in range(100):
        assert env.step(0).jfi == 1.0


def test_episode_average_f0_within_bounds():
    env = CoexEnv(coex_mix_preset(), action_mode="cw")
    env.reset(seed=8)
    f0s = [env.step(24).jfi for _ in range(100)]
    n = env.n_nodes
    assert 1.0 / n <= float(np.mean(f0s)) <= 1.0


def test_clock_advances_exactly_2500_per_step():
    env = CoexEnv(coex_mix_preset(), action_mode="cw")
    env.reset(seed=4)
    t0 = env.sim.clock
    env.step(0)
    assert env.sim.clock - t0 == 2500
    for _ in range(99):
        env.step(0)
    assert env.sim.clock - t0 == 250_000


def test_soft_reset_persists_medium_state():
    env = CoexEnv(coex_mix_preset(), action_mode="cw")
    env.reset(seed=6)
    for _ in range(100):
        last = env.step(0)
    assert last.pc1_delay_smooth_us > 0.0
    clock = env.sim.clock
    env.reset()  # soft: same simulator, metrics and step counter zeroed
    assert env.sim.clock == clock
    assert not env.observe(0.0, LAMBDA_MAX).any()  # the smoothed PC1 delay among the features
    info = env.step(0)
    assert info.pc1_delay_smooth_us == ema_update(0.0, info.pc1_delay_inst_us, ALPHA_DELAY)
    for _ in range(99):  # a whole episode again
        env.step(0)
    with pytest.raises(RuntimeError, match="episode is done"):
        env.step(0)


def test_mcot_mode_changes_frame_lengths():
    env = CoexEnv(coex_mix_preset(), action_mode="mcot")
    env.reset(seed=9)
    env.step(0)  # row (0, 0): MCOT 1000/1000
    for node in env.sim.nodes:
        if node.cfg.tech.value == "NRU":
            assert node.cfg.mcot_us == 1000
    env.step(6 * 7 + 6)  # row (6, 6)
    for node in env.sim.nodes:
        if node.cfg.tech.value == "NRU":
            assert node.cfg.mcot_us == 4000


@pytest.mark.parametrize("mode", ["cw", "aifsn", "mcot"])
def test_wifi_not_actuated_by_default(mode):
    env = CoexEnv(coex_mix_preset(), action_mode=mode)
    env.reset(seed=10)
    # the gNB PC3 node and the AP share a class; an action moves only the gNB
    _, gnb_pc3, ap = env.sim.nodes
    before = gnb_pc3.cfg, ap.cfg
    env.step(0)  # row (0, 0)
    assert gnb_pc3.cfg != before[0]
    assert ap.cfg is before[1]


def test_repeated_action_is_applied_once_and_again_after_a_seeded_reset(monkeypatch):
    calls = []
    apply = Simulator.apply_mac_params

    def spy(sim, assignment):
        calls.append(assignment)
        apply(sim, assignment)

    monkeypatch.setattr(Simulator, "apply_mac_params", spy)
    env = CoexEnv(coex_mix_preset(), action_mode="aifsn")
    env.reset(seed=12)
    for a in (4, 4, 4, 9, 9, 4, None, 4):
        env.step(a)
    assert len(calls) == 3  # 4, 9, 4; the None step and the repeats apply nothing
    env.reset()  # soft reset: same simulator, parameters still in force
    env.step(4)
    assert len(calls) == 3
    env.reset(seed=12)  # fresh simulator on the preset defaults
    env.step(4)
    assert len(calls) == 4
    pc1, pc3 = ACTION_GRIDS["aifsn"]
    assert [n.cfg.aifsn for n in env.sim.nodes if n.cfg.tech == Tech.NRU] == [pc1[0], pc3[4]]


@pytest.mark.parametrize("mode", ["cw", "aifsn", "mcot"])
def test_skipping_repeated_actions_leaves_results_unchanged(mode):
    # reference: the same parameters applied by hand before every baseline step
    actions = np.random.default_rng(3).integers(0, 3, size=60)
    env, ref = (CoexEnv(coex_mix_preset(), action_mode=mode) for _ in range(2))
    env.reset(seed=13)
    ref.reset(seed=13)
    for a in actions:
        ref.sim.apply_mac_params(action_table(mode)[int(a)])
        r, want = env.step(int(a)), ref.step(None)
        assert r == want
        assert np.array_equal(env.observe(0.0, LAMBDA_MAX), ref.observe(0.0, LAMBDA_MAX))


@pytest.mark.parametrize("mode", ["cw", "aifsn", "mcot"])
def test_observations_are_finite_and_clipped_under_random_actions(mode):
    env = CoexEnv(coex_mix_preset(), action_mode=mode)
    rng = np.random.default_rng(14)
    env.reset(seed=14)
    obs = [env.observe(0.0, LAMBDA_MAX)]
    for _ in range(3):
        for _ in range(env.episode_steps):
            env.step(int(rng.integers(env.n_actions)))
            obs.append(env.observe(0.0, LAMBDA_MAX))
        env.reset()
        obs.append(env.observe(0.0, LAMBDA_MAX))
    obs = np.array(obs[:301])
    assert np.isfinite(obs).all()
    assert (np.abs(obs) <= 5.0).all()


def tally_step(outcomes, prev, env):
    """Reference for one step's per-node signals, re-counted from the outcome stream."""
    n = env.n_nodes
    succ, coll, air, pc1_delays = [0] * n, [0] * n, [0] * n, []
    for o in outcomes:
        if o.kind == TxKind.SUCCESS:
            succ[o.node] += 1
            air[o.node] += o.duration_us
            if o.pclass == PClass.PC1:
                pc1_delays.append(o.access_delay_us)
        elif o.kind == TxKind.COLLISION:
            coll[o.node] += 1
    rates = [c / (s + c) if s + c else r for s, c, r in zip(succ, coll, prev["rates"])]
    if pc1_delays:
        delay = float(np.mean(pc1_delays))
    else:
        sim = env.sim
        age = max(sim.clock - nd.hol_since_us for nd in sim.nodes if nd.cfg.pclass == PClass.PC1)
        delay = max(prev["delay"], float(age if age > 4 * env.d_th_us else 0))
    return {
        "rates": rates,
        "jfi": jain_index(air) if any(air) else 1.0 / n,
        "ema": [ema_update(e, float(a), ALPHA_DELAY) for e, a in zip(prev["ema"], air)],
        "delay": delay,
    }


@pytest.mark.parametrize("mode", ["cw", "aifsn", "mcot"])
def test_step_signals_equal_a_recount_of_the_outcome_stream(monkeypatch, mode):
    env = CoexEnv(coex_mix_preset(2, 3, 3), action_mode=mode, cr_lbt=True)
    rng = np.random.default_rng(15)
    env.reset(seed=15)
    windows = []
    run_for = env.sim.run_for

    def capture(duration_us):
        windows.append(run_for(duration_us))
        return windows[-1]

    monkeypatch.setattr(env.sim, "run_for", capture)
    for episode in range(3):
        if episode:
            env.reset()  # soft reset: the medium persists, the signals restart
        ref = {"rates": [0.0] * env.n_nodes, "ema": [0.0] * env.n_nodes, "delay": 0.0}
        for _ in range(env.episode_steps):
            info = env.step(int(rng.integers(env.n_actions)))
            ref = tally_step(windows[-1], ref, env)
            assert info.collision_rate == ref["rates"]
            assert info.jfi == ref["jfi"]
            assert info.airtime_ema == ref["ema"]
            assert info.pc1_delay_inst_us == ref["delay"]
    assert len(windows) == 300


def signal_stream_digest(mode):
    """SHA-256 over 100 random-action steps of the dense CR mix: each step's
    observation bytes (at lambda 0), then every float of its StepMetrics in
    field order."""
    env = CoexEnv(coex_mix_preset(2, 3, 3), action_mode=mode, cr_lbt=True)
    rng = np.random.default_rng(16)
    env.reset(seed=16)
    h = hashlib.sha256(env.observe(0.0, LAMBDA_MAX).tobytes())
    for _ in range(100):
        res = env.step(int(rng.integers(env.n_actions)))
        h.update(env.observe(0.0, LAMBDA_MAX).tobytes())
        values = [v for f in astuple(res) for v in (f if isinstance(f, list) else [f])]
        h.update(struct.pack(f"<{len(values)}d", *values))
    return h.hexdigest()


# Pinned before the window fold became one pass. The stream uses only
# IEEE basic operations (no BLAS, no libm), so the pins hold on any machine
# and interpreter.
SIGNAL_STREAM_PINS = {
    "cw": "d2a96a041abecdbbeb37094dc1d8757fb6e2f1a82bcac4ebcd42ea8d495dd5d7",
    "aifsn": "998d80c85634c5e30a1a6ac1773815247f68d6e6098e5be19adc66ee2c029308",
    "mcot": "04730aea4a83b46ef87ad754790b584e5b3e2027bfd8b0a02348ae038fe743ea",
}


@pytest.mark.parametrize("mode", ["cw", "aifsn", "mcot"])
def test_dense_cr_signal_stream_is_pinned(mode):
    assert signal_stream_digest(mode) == SIGNAL_STREAM_PINS[mode]


def test_a_dense_cr_step_pushes_few_heap_events(monkeypatch):
    # the dense_cr_eval shape: 2+3+3 nodes, CR-LBT, aifsn actions. A CR pulse
    # train is three heap events whatever its length, not one per pulse edge.
    kinds = []
    push = Simulator._push

    def counting(sim, t, kind, payload):
        kinds.append(kind)
        push(sim, t, kind, payload)

    monkeypatch.setattr(Simulator, "_push", counting)
    env = CoexEnv(coex_mix_preset(2, 3, 3), action_mode="aifsn", cr_lbt=True)
    env.reset(seed=1)
    for step in range(200):
        if step == env.episode_steps:
            env.reset()
        env.step(step % env.n_actions)
    half = CR_SLOT_US // 2
    assert sum(node.stats.pulse_us for node in env.sim.nodes) // half > 10 * 200
    assert len(kinds) <= 8 * 200


def test_steps_build_no_cr_pulse_outcomes(monkeypatch):
    # CoexEnv.step reads no outcome, so run_for builds only its frames' TxOutcomes
    env = CoexEnv(coex_mix_preset(2, 3, 3), action_mode="aifsn", cr_lbt=True)
    env.reset(seed=9)
    built = []
    tx_outcome = medium.TxOutcome

    def counted(*args):
        built.append(args)
        return tx_outcome(*args)

    monkeypatch.setattr(medium, "TxOutcome", counted)
    rng = np.random.default_rng(9)
    before = env.sim.stats_snapshot()
    for _ in range(env.episode_steps):
        env.step(int(rng.integers(env.n_actions)))
    after = env.sim.stats_snapshot()
    assert sum(now.pulse_us - start.pulse_us for now, start in zip(after, before)) > 0
    assert len(built) <= sum(now.attempts - start.attempts for now, start in zip(after, before))
