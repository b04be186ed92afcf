"""Environment: action decoding, reset/step semantics, episode structure."""

import hashlib
import struct
from dataclasses import astuple

import numpy as np
import pytest

from coexctl.env import (
    ActionSpace,
    CoexEnv,
    decode_action,
    single_pc1_preset,
    coex_mix_preset,
)
from coexctl import medium
from coexctl.medium import CR_SLOT_US, PClass, Simulator, Tech, TxKind
from coexctl.metrics import ALPHA_DELAY, ema_update, jain_index


# ----------------------------------------------------------------------
# action spaces


def test_cardinalities():
    assert ActionSpace.for_mode("cw").cardinality == 49
    assert ActionSpace.for_mode("aifsn").cardinality == 21
    assert ActionSpace.for_mode("mcot").cardinality == 49


def test_cw_decode_examples():
    space = ActionSpace.for_mode("cw")
    d = decode_action(space.encode(0, 0), space)
    assert d[PClass.PC1] == {"cw_min": 0, "cw_max": 0}
    assert d[PClass.PC3] == {"cw_min": 15, "cw_max": 15}
    d = decode_action(space.encode(3, 2), space)
    assert d[PClass.PC1]["cw_max"] == 7
    assert d[PClass.PC3]["cw_max"] == 63


def test_mcot_decode_example():
    space = ActionSpace.for_mode("mcot")
    d = decode_action(0, space)
    assert d[PClass.PC1] == {"mcot_us": 1000}
    assert d[PClass.PC3] == {"mcot_us": 1000}
    d = decode_action(space.cardinality - 1, space)
    assert d[PClass.PC1] == {"mcot_us": 4000}


def test_aifsn_option_sets():
    space = ActionSpace.for_mode("aifsn")
    assert space.pc1_options == (1, 2, 3)
    assert space.pc3_options == (1, 2, 3, 4, 5, 6, 7)
    d = decode_action(space.encode(1, 6), space)
    assert d[PClass.PC1] == {"aifsn": 2}
    assert d[PClass.PC3] == {"aifsn": 7}


@pytest.mark.parametrize("mode", ["cw", "aifsn", "mcot"])
def test_decode_encode_bijection(mode):
    space = ActionSpace.for_mode(mode)
    seen = set()
    for idx in range(space.cardinality):
        i1, i3 = space.split(idx)
        assert space.encode(i1, i3) == idx
        decoded = tuple(sorted(decode_action(idx, space)[PClass.PC1].items()) +
                        sorted(decode_action(idx, space)[PClass.PC3].items()))
        assert decoded not in seen
        seen.add(decoded)
    assert len(seen) == space.cardinality


def test_decode_rejects_out_of_range():
    space = ActionSpace.for_mode("cw")
    with pytest.raises(ValueError):
        decode_action(49, space)
    with pytest.raises(ValueError):
        decode_action(-1, space)


def test_row_major_pc1_slowest():
    space = ActionSpace.for_mode("cw")
    assert space.split(0) == (0, 0)
    assert space.split(6) == (0, 6)
    assert space.split(7) == (1, 0)


# ----------------------------------------------------------------------
# reset


def test_reset_determinism_and_augmentation():
    obs = []
    for _ in range(2):
        env = CoexEnv(coex_mix_preset(), action_mode="cw")
        obs.append(env.reset(seed=3, lambda0=0.0))
    assert np.array_equal(obs[0], obs[1])
    assert obs[0][-1] == 0.0  # lambda0 = 0 -> augmentation slot 0
    env = CoexEnv(coex_mix_preset(), action_mode="cw")
    o = env.reset(seed=3, lambda0=2.5)
    assert o[-1] == 0.5
    assert env.step_count == 0


def test_first_reset_requires_seed():
    env = CoexEnv(coex_mix_preset(), action_mode="cw")
    with pytest.raises(ValueError):
        env.reset()


def test_observation_dim_contract():
    env = CoexEnv(coex_mix_preset(), action_mode="cw")
    o = env.reset(seed=1)
    assert o.shape == (env.observation_dim,)
    assert env.observation_dim == 3 + 5 + 1
    for _ in range(5):
        r = env.step(10)
        assert r.observation.shape == (env.observation_dim,)


# ----------------------------------------------------------------------
# step


def test_episode_is_100_steps_and_then_errors():
    env = CoexEnv(coex_mix_preset(), action_mode="cw")
    env.reset(seed=2)
    for k in range(100):
        r = env.step(20)
        assert r.done == (k == 99)
    with pytest.raises(RuntimeError):
        env.step(20)


def test_fixed_action_sequence_reproducible():
    seqs = []
    for _ in range(2):
        env = CoexEnv(coex_mix_preset(), action_mode="cw")
        env.reset(seed=5)
        seqs.append([(r.f0, r.f1) for r in (env.step(13) for _ in range(100))])
    assert seqs[0] == seqs[1]


def test_single_contender_jfi_is_one():
    env = CoexEnv(single_pc1_preset(), action_mode="cw")
    env.reset(seed=1)
    for _ in range(100):
        r = env.step(0)
        assert r.f0 == 1.0


def test_episode_average_f0_within_bounds():
    env = CoexEnv(coex_mix_preset(), action_mode="cw")
    env.reset(seed=8)
    f0s = [env.step(24).f0 for _ in range(100)]
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
    assert last.info.pc1_delay_smooth_us > 0.0
    clock = env.sim.clock
    obs = env.reset()  # soft: same simulator, metrics zeroed
    assert env.sim.clock == clock
    assert env.step_count == 0
    assert not obs.any()  # the smoothed PC1 delay among the features
    info = env.step(0).info
    assert info.pc1_delay_smooth_us == ema_update(0.0, info.pc1_delay_inst_us, ALPHA_DELAY)


def test_mcot_mode_changes_frame_lengths():
    env = CoexEnv(coex_mix_preset(), action_mode="mcot")
    env.reset(seed=9)
    space = env.space
    env.step(space.encode(0, 0))  # MCOT 1000/1000
    for node in env.sim.nodes:
        if node.cfg.tech.value == "NRU":
            assert node.cfg.mcot_us == 1000
    env.step(space.encode(6, 6))
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
    env.step(env.space.encode(0, 0))
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
    assert [n.cfg.aifsn for n in env.sim.nodes if n.cfg.tech == Tech.NRU] == [
        env.space.pc1_options[0], env.space.pc3_options[4]]


@pytest.mark.parametrize("mode", ["cw", "aifsn", "mcot"])
def test_skipping_repeated_actions_leaves_results_unchanged(mode):
    # reference: the same parameters applied by hand before every baseline step
    actions = np.random.default_rng(3).integers(0, 3, size=60)
    env, ref = (CoexEnv(coex_mix_preset(), action_mode=mode) for _ in range(2))
    env.reset(seed=13)
    ref.reset(seed=13)
    for a in actions:
        ref.sim.apply_mac_params({(Tech.NRU, pclass): params
                                  for pclass, params in decode_action(int(a), ref.space).items()})
        r, want = env.step(int(a)), ref.step(None)
        assert (r.f0, r.f1) == (want.f0, want.f1)
        assert np.array_equal(r.observation, want.observation)


@pytest.mark.parametrize("mode", ["cw", "aifsn", "mcot"])
def test_observations_are_finite_and_clipped_under_random_actions(mode):
    env = CoexEnv(coex_mix_preset(), action_mode=mode)
    rng = np.random.default_rng(14)
    obs = [env.reset(seed=14)]
    for _ in range(3):
        for _ in range(env.episode_steps):
            obs.append(env.step(int(rng.integers(env.n_actions))).observation)
        obs.append(env.reset())
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
            info = env.step(int(rng.integers(env.n_actions))).info
            ref = tally_step(windows[-1], ref, env)
            assert info.collision_rate == ref["rates"]
            assert info.jfi == ref["jfi"]
            assert info.airtime_ema == ref["ema"]
            assert info.pc1_delay_inst_us == ref["delay"]
    assert len(windows) == 300


def signal_stream_digest(mode):
    """SHA-256 over 100 random-action steps of the dense CR mix: each step's
    observation bytes, then every float of its StepMetrics in field order."""
    env = CoexEnv(coex_mix_preset(2, 3, 3), action_mode=mode, cr_lbt=True)
    rng = np.random.default_rng(16)
    h = hashlib.sha256(env.reset(seed=16).tobytes())
    for _ in range(100):
        res = env.step(int(rng.integers(env.n_actions)))
        h.update(res.observation.tobytes())
        values = [v for f in astuple(res.info) for v in (f if isinstance(f, list) else [f])]
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
