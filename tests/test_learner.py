"""Q-learner: reward assembly, action selection, TD targets, gradients, buffer."""

import hashlib
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from coexctl import learner as learner_mod
from coexctl.learner import (
    Adam,
    LearnerConfig,
    MLP,
    QLearner,
    ReplayBuffer,
    assemble_reward,
    blas_threads,
    blas_threads_for,
    epsilon_at,
    load_policy,
    save_policy,
    select_action,
    td_targets,
)


def tiny_config(**kw):
    base = dict(hidden_layers=(8,), batch_size=4, buffer_capacity=64,
                learning_rate=1e-2, target_sync_interval=1000)
    base.update(kw)
    return LearnerConfig(**base)


# ----------------------------------------------------------------------
# assemble_reward


def test_assemble_reward_examples():
    assert assemble_reward(0.9, 2.0, -0.3) == pytest.approx(0.3, abs=1e-12)
    assert assemble_reward(0.7, 0.0, -0.5) == 0.7
    assert assemble_reward(0.7, 3.0, 0.0) == 0.7


def test_assemble_reward_strictly_decreasing_in_lambda():
    rewards = [assemble_reward(0.5, lam, -0.2) for lam in np.linspace(0, 5, 20)]
    assert all(a > b for a, b in zip(rewards, rewards[1:]))


# ----------------------------------------------------------------------
# select_action


def test_select_action_greedy_argmax_lowest_index_tie():
    rng = np.random.default_rng(0)
    assert select_action(np.array([0.1, 0.7, 0.7]), 0.0, rng) == 1


def test_select_action_uniform_at_epsilon_one():
    rng = np.random.default_rng(1)
    q = np.zeros(7)
    draws = [select_action(q, 1.0, rng) for _ in range(70_000)]
    counts = np.bincount(draws, minlength=7)
    _, p = stats.chisquare(counts)
    assert p > 0.01


def test_select_action_shift_invariant():
    rng = np.random.default_rng(2)
    q = np.array([0.3, -0.1, 0.9, 0.9])
    assert select_action(q, 0.0, rng) == select_action(q + 123.4, 0.0, rng) == 2


def test_select_action_validates():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        select_action(np.array([]), 0.0, rng)
    with pytest.raises(ValueError):
        select_action(np.array([1.0]), 1.5, rng)


def test_epsilon_schedule_monotone_within_bounds():
    values = [epsilon_at(s, 1000) for s in range(0, 1001, 10)]
    assert values[0] == 1.0
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert all(0.01 <= v <= 1.0 for v in values)
    assert values[-1] == pytest.approx(0.01)
    # holds at the floor after the anneal fraction
    assert epsilon_at(500, 1000) == pytest.approx(0.01)
    assert epsilon_at(900, 1000) == pytest.approx(0.01)


# ----------------------------------------------------------------------
# td_targets


def test_td_targets_terminal_is_reward():
    q = lambda obs: np.zeros((len(obs), 2)) + 99.0
    y = td_targets(np.array([0.5]), q(np.zeros((1, 3))), np.array([True]), 0.99)
    assert y[0] == 0.5


def test_td_targets_gamma_zero_is_reward():
    q = lambda obs: np.ones((len(obs), 2)) * 7.0
    y = td_targets(np.array([0.3, -0.2]), q(np.zeros((2, 3))), np.array([False, False]), 0.0)
    assert np.allclose(y, [0.3, -0.2])


def test_td_targets_match_bellman_oracle_on_two_state_chain():
    # states s0, s1; two actions. Q_target is a fixed table; transitions are
    # hand-built and the expected targets hand-computed.
    q_table = {(0,): np.array([1.0, 2.0]), (1,): np.array([-0.5, 0.25])}

    def q_fn(obs):
        return np.stack([q_table[(int(o[0]),)] for o in obs])

    obs = np.array([[0.0], [1.0], [0.0], [1.0]])
    next_obs = np.array([[1.0], [0.0], [0.0], [1.0]])
    rewards = np.array([1.0, 0.5, -1.0, 2.0])
    terminals = np.array([False, False, True, False])
    gamma = 0.9
    expected = np.array([
        1.0 + 0.9 * 0.25,   # -> s1, max(-0.5, 0.25)
        0.5 + 0.9 * 2.0,    # -> s0, max(1, 2)
        -1.0,               # terminal
        2.0 + 0.9 * 0.25,
    ])
    y = td_targets(rewards, q_fn(next_obs), terminals, gamma)
    assert np.allclose(y, expected, atol=1e-9)


# ----------------------------------------------------------------------
# replay buffer


def test_buffer_fifo_eviction():
    buf = ReplayBuffer(capacity=5, obs_dim=2)
    for i in range(8):
        buf.push(np.zeros(2), 0, float(i), np.zeros(2), False)
    assert len(buf) == 5
    assert sorted(buf.rewards.tolist()) == [3.0, 4.0, 5.0, 6.0, 7.0]


@given(st.integers(min_value=1, max_value=20), st.integers(min_value=0, max_value=60))
@settings(max_examples=100, deadline=None)
def test_buffer_size_never_exceeds_capacity(capacity, pushes):
    buf = ReplayBuffer(capacity=capacity, obs_dim=1)
    for i in range(pushes):
        buf.push(np.zeros(1), 0, float(i), np.zeros(1), False)
    assert len(buf) == min(capacity, pushes)
    if pushes > capacity:
        kept = set(buf.rewards.tolist())
        assert kept == {float(i) for i in range(pushes - capacity, pushes)}


# ----------------------------------------------------------------------
# networks and training


def test_network_output_dim_matches_actions():
    lrn = QLearner(obs_dim=6, n_actions=11, config=tiny_config(), seed=0)
    for _ in range(5):
        x = np.random.default_rng(0).normal(size=6)
        assert lrn.q_values(x).shape == (11,)


@pytest.mark.parametrize("hidden_layers", [(0,), (16, 0), (-3,)])
def test_learner_refuses_a_hidden_layer_narrower_than_one(hidden_layers):
    config = LearnerConfig(hidden_layers=hidden_layers)
    with pytest.raises(ValueError, match="hidden_layers must be widths >= 1"):
        config.validate()
    with pytest.raises(ValueError, match="hidden_layers"):
        QLearner(obs_dim=9, n_actions=49, config=config)


def test_target_initialized_as_copy_and_sync_idempotent():
    lrn = QLearner(obs_dim=4, n_actions=3, config=tiny_config(), seed=1)
    probe = np.random.default_rng(2).normal(size=(5, 4))
    assert np.allclose(lrn.online.forward(probe), lrn.target.forward(probe))
    lrn.optimizer.step(lrn.online.flat, np.ones_like(lrn.online.flat))
    assert not np.allclose(lrn.online.forward(probe), lrn.target.forward(probe))
    lrn.sync_target()
    a = lrn.target.forward(probe).copy()
    lrn.sync_target()
    assert np.array_equal(a, lrn.target.forward(probe))
    assert np.allclose(lrn.online.forward(probe), lrn.target.forward(probe))


def test_train_step_noop_until_batch_available():
    lrn = QLearner(obs_dim=3, n_actions=2, config=tiny_config(batch_size=8), seed=0)
    for i in range(7):
        lrn.buffer.push(np.zeros(3), 0, 1.0, np.zeros(3), True)
        assert lrn.train_step() is None
    lrn.buffer.push(np.zeros(3), 0, 1.0, np.zeros(3), True)
    assert lrn.train_step() is not None


def test_loss_nonnegative():
    lrn = QLearner(obs_dim=3, n_actions=4, config=tiny_config(), seed=3)
    rng = np.random.default_rng(4)
    for _ in range(20):
        lrn.buffer.push(rng.normal(size=3), int(rng.integers(4)),
                        float(rng.normal()), rng.normal(size=3), bool(rng.integers(2)))
    for _ in range(50):
        assert lrn.train_step() >= 0.0


def test_fixed_transition_td_error_converges():
    lrn = QLearner(obs_dim=2, n_actions=2,
                   config=tiny_config(batch_size=4, learning_rate=5e-2), seed=5)
    obs = np.array([1.0, -1.0])
    for _ in range(8):
        lrn.buffer.push(obs, 1, 0.5, np.zeros(2), True)
    for _ in range(500):
        lrn.train_step()
    assert abs(lrn.q_values(obs)[1] - 0.5) < 1e-3


def test_loss_gradient_matches_central_finite_differences():
    rng = np.random.default_rng(6)
    net = MLP([3, 5, 2], rng)
    obs = rng.normal(size=(4, 3))
    actions = np.array([0, 1, 1, 0])
    targets = rng.normal(size=4)

    def loss_value():
        q = net.forward(obs)
        err = q[np.arange(4), actions] - targets
        return float(np.mean(err**2))

    q_all, acts = net.forward_cached(obs)
    err = q_all[np.arange(4), actions] - targets
    dout = np.zeros_like(q_all)
    dout[np.arange(4), actions] = 2.0 * err / 4
    grads_w, grads_b = net.backward(acts, dout)
    analytic = grads_w + grads_b

    h = 1e-6
    for p_idx, param in enumerate(net.weights + net.biases):
        flat = param.reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + h
            up = loss_value()
            flat[k] = orig - h
            down = loss_value()
            flat[k] = orig
            numeric = (up - down) / (2 * h)
            ana = analytic[p_idx].reshape(-1)[k]
            denom = max(abs(numeric), abs(ana), 1e-8)
            assert abs(numeric - ana) / denom <= 1e-4


def test_forward_results_survive_later_calls():
    # hidden activations reuse per-network scratch: what forward returns, for a
    # batch or a single observation, and the activations forward_cached hands
    # to backward, must outlive a forward
    rng = np.random.default_rng(16)
    net = MLP([3, 5, 4, 2], rng)
    x1, x2 = rng.normal(size=(6, 3)), rng.normal(size=(6, 3))
    out1 = net.forward(x1)
    kept = out1.copy()
    single = net.forward(x1[0])
    single_kept = single.copy()
    q, acts = net.forward_cached(x1)
    acts_kept = [a.copy() for a in acts]
    net.forward(x2)
    net.forward(x2[0])
    assert np.array_equal(out1, kept) and np.array_equal(q, kept)
    assert np.array_equal(single, single_kept)
    assert all(np.array_equal(a, k) for a, k in zip(acts, acts_kept))


@pytest.mark.parametrize("dims", [[9, 64, 64, 49], [14, 128, 128, 49], [9, 1024, 1024, 1024, 49]])
def test_a_single_observation_has_the_bits_of_row_0_of_a_one_row_batch(dims):
    # a single observation runs as a vector; the greedy step's bits rest on this,
    # at 1 BLAS thread and at the count a rollout of the shape sets
    rng = np.random.default_rng(19)
    net = MLP(dims, rng)
    xs = rng.normal(size=(20, dims[0]))
    before = blas_threads()
    counts = {None} if before is None else {1, blas_threads_for(dims, 1)}
    try:
        for count in counts:
            blas_threads(count)
            for x in xs:
                single = net.forward(x)
                assert single.shape == (dims[-1],)
                assert np.array_equal(single, net.forward(x[None, :])[0])
    finally:
        blas_threads(before)


def test_adam_moves_against_gradient():
    p = np.array([1.0, -2.0])
    opt = Adam(p, lr=0.1)
    for _ in range(50):
        opt.step(p, np.array([1.0, -1.0]))
    assert p[0] < 1.0 and p[1] > -2.0


def reference_adam(params, grads_per_step, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The per-array Adam update, one array at a time, without blocking."""
    ms = [np.zeros_like(p) for p in params]
    vs = [np.zeros_like(p) for p in params]
    for t, grads in enumerate(grads_per_step, start=1):
        b1c = 1.0 - beta1**t
        b2c = 1.0 - beta2**t
        for p, g, m, v in zip(params, grads, ms, vs):
            m *= beta1
            m += (1.0 - beta1) * g
            v *= beta2
            v += (1.0 - beta2) * g * g
            p -= lr * (m / b1c) / (np.sqrt(v / b2c) + eps)


def test_blocked_adam_is_bit_equal_to_per_array_update():
    # 10*300 + 300*200 + 200*49 + biases = 73,349 parameters: two full
    # blocks of the flat update and a partial tail, with layers across block edges
    rng = np.random.default_rng(13)
    net = MLP([10, 300, 200, 49], rng)
    assert net.flat.size > 2 * learner_mod._BLOCK
    assert net.flat.size % learner_mod._BLOCK != 0
    ref = [p.copy() for p in net.weights + net.biases]
    grad_steps = [rng.normal(size=net.flat.size) for _ in range(5)]
    opt = Adam(net.flat, lr=1e-3)
    for g in grad_steps:
        net.grad[...] = g
        opt.step(net.flat, net.grad)
    per_array = []
    for g in grad_steps:
        gw, gb = learner_mod._layer_views(g, net.dims)
        per_array.append(gw + gb)
    reference_adam(ref, per_array, lr=1e-3)
    for got, want in zip(net.weights + net.biases, ref):
        assert np.array_equal(got, want)


def test_initial_weights_are_one_uniform_draw_per_array():
    # the init fills weights a block of rows at a time; the values must be
    # those of one draw per array, in layer order
    net = MLP([10, 300, 400, 49], np.random.default_rng(15))  # 300x400: 3 row blocks
    rng = np.random.default_rng(15)
    for w, b in zip(net.weights, net.biases):
        bound = 1.0 / np.sqrt(w.shape[0])
        assert np.array_equal(w, rng.uniform(-bound, bound, size=w.shape))
        assert np.array_equal(b, rng.uniform(-bound, bound, size=b.shape))


def assert_views_of_flat(net):
    for p in net.weights + net.biases:
        assert np.shares_memory(p, net.flat)


def test_parameters_stay_views_of_the_flat_buffer(tmp_path):
    lrn = QLearner(obs_dim=4, n_actions=3, config=tiny_config(hidden_layers=(8, 6)), seed=1)
    assert_views_of_flat(lrn.online)
    assert_views_of_flat(lrn.target)
    lrn.online.flat += 1.0
    lrn.sync_target()
    assert_views_of_flat(lrn.target)
    assert np.array_equal(lrn.target.flat, lrn.online.flat)
    assert not np.shares_memory(lrn.target.flat, lrn.online.flat)
    path = tmp_path / "policy.bin"
    save_policy(str(path), lrn, meta={})
    net = load_policy(str(path)).network()
    assert_views_of_flat(net)
    assert np.array_equal(net.flat, lrn.online.flat)


def test_backward_returns_views_of_the_grad_buffer():
    rng = np.random.default_rng(14)
    net = MLP([3, 5, 4, 2], rng)
    _, acts = net.forward_cached(rng.normal(size=(6, 3)))
    grads_w, grads_b = net.backward(acts, rng.normal(size=(6, 2)))
    for g in grads_w + grads_b:
        assert np.shares_memory(g, net.grad)
    assert [g.shape for g in grads_w] == [w.shape for w in net.weights]
    assert [g.shape for g in grads_b] == [b.shape for b in net.biases]


# ----------------------------------------------------------------------
# BLAS threads

DESK_DIMS = [9, 128, 128, 49]  # coex_mix, cw actions, the desk config's hidden layers


@pytest.fixture
def blas_count():
    """The current BLAS thread count, put back after the test; skips without control."""
    count = blas_threads()
    if count is None:
        pytest.skip("numpy's OpenBLAS exposes no thread control")
    yield count
    blas_threads(count)


def test_blas_threads_is_a_no_op_when_the_lookup_finds_nothing(monkeypatch):
    before = blas_threads()
    with monkeypatch.context() as m:
        m.setattr(learner_mod, "_openblas", lambda: None)
        assert blas_threads() is None
        assert blas_threads(1) is None
        assert blas_threads_for(DESK_DIMS, 64) is None
    assert blas_threads() == before


def test_thread_policy_is_one_at_the_desk_shape_and_the_default_at_full_scale(monkeypatch):
    monkeypatch.setattr(learner_mod, "_openblas", lambda: (None, None, 7))  # default 7
    full = [9, 1024, 1024, 1024, 49]
    assert blas_threads_for(DESK_DIMS, 64) == 1
    assert blas_threads_for(DESK_DIMS, 1) == 1
    assert blas_threads_for(full, 256) == 7
    assert blas_threads_for(full, 1) == 7
    # past the measured crossover: wider layers, or the desk width at batch 256
    assert blas_threads_for([9, 256, 256, 49], 64) == 7
    assert blas_threads_for(DESK_DIMS, 256) == 7


def test_desk_shape_rollouts_run_at_one_blas_thread(blas_count):
    from coexctl.constraint import DualController
    from coexctl.env import CoexEnv, coex_mix_preset
    from coexctl.learner import greedy_rollout, run_training

    env = CoexEnv(coex_mix_preset(), action_mode="cw")
    config = LearnerConfig(hidden_layers=(128, 128), batch_size=64, buffer_capacity=1000)
    assert [env.observation_dim, *config.hidden_layers, env.n_actions] == DESK_DIMS
    blas_threads(2)
    seen = set()
    result = run_training(env, DualController(), config, seed=0, episodes=1,
                          log_hook=lambda entry: seen.add(blas_threads()))
    assert seen == {1}

    blas_threads(2)
    net = result.learner.online
    forward, seen = net.forward, set()

    def spy(x):
        seen.add(blas_threads())
        return forward(x)

    net.forward = spy
    greedy_rollout(env, net, DualController(), episodes=1, seed=0)
    assert seen == {1}


def test_blas_thread_count_does_not_change_the_bits(blas_count):
    # the per-shape policy rests on this: only the speed depends on the count
    rng = np.random.default_rng(4)
    transitions = [(rng.random(9), int(rng.integers(49)), float(rng.random()),
                    rng.random(9), bool(rng.random() < 0.1)) for _ in range(300)]
    flats = []
    for count in (2, 1):
        blas_threads(count)
        lrn = QLearner(9, 49, LearnerConfig(hidden_layers=(128, 128), batch_size=64,
                                            buffer_capacity=300, learning_rate=1e-3), seed=5)
        for tr in transitions:
            lrn.buffer.push(*tr)
        for _ in range(50):
            lrn.train_step()
        flats.append(lrn.online.flat.tobytes())
    assert flats[0] == flats[1]


# ----------------------------------------------------------------------
# policy artifact


def test_policy_artifact_roundtrip(tmp_path):
    lrn = QLearner(obs_dim=5, n_actions=6, config=tiny_config(), seed=7)
    path = tmp_path / "policy.bin"
    save_policy(str(path), lrn, meta={"action_mode": "cw"})
    art = load_policy(str(path))
    assert art.obs_dim == 5 and art.n_actions == 6
    assert art.meta["action_mode"] == "cw"
    probe = np.random.default_rng(8).normal(size=(3, 5))
    assert np.array_equal(art.network().forward(probe), lrn.online.forward(probe))


def test_artifact_network_adopts_a_copy_of_the_payload_without_drawing(tmp_path, monkeypatch):
    lrn = QLearner(obs_dim=5, n_actions=4, config=tiny_config(hidden_layers=(8, 6)), seed=9)
    path = tmp_path / "policy.bin"
    save_policy(str(path), lrn, meta={})
    art = load_policy(str(path))

    def no_init(*args, **kwargs):
        raise AssertionError("network() drew a throwaway initialisation")

    monkeypatch.setattr(MLP, "__init__", no_init)
    net = art.network()
    assert net.flat.tobytes() == lrn.online.flat.tobytes()
    assert_views_of_flat(net)
    assert not np.shares_memory(net.flat, art.flat)
    net.flat[:] = 0.0  # the artifact keeps its payload
    assert art.flat.tobytes() == lrn.online.flat.tobytes()


def test_training_with_lambda_max_zero_is_unconstrained():
    from coexctl.constraint import DualController
    from coexctl.env import CoexEnv, coex_mix_preset
    from coexctl.learner import run_training

    env = CoexEnv(coex_mix_preset(), action_mode="cw")
    dual = DualController(lambda_max=0.0)
    res = run_training(env, dual, tiny_config(hidden_layers=(16,), batch_size=16),
                       seed=2, scaling=True, episodes=2)
    assert all(row.lam == 0.0 for row in res.log)
    assert all(row.reward == row.jfi for row in res.log)


@pytest.mark.parametrize("entry", ["greedy_rollout", "run_training"])
def test_greedy_rollout_normalises_lambda_by_the_duals_lambda_max(monkeypatch, entry):
    # each policy input is built once, from the dual's lambda at the policy call:
    # one augment_state call after each reset and one after each step
    from coexctl import env as env_mod
    from coexctl.constraint import DualController
    from coexctl.env import EPISODE_STEPS, CoexEnv, coex_mix_preset
    from coexctl.learner import greedy_rollout, run_training

    env = CoexEnv(coex_mix_preset(), action_mode="cw")
    dual = DualController(lambda_max=8.0, eta_lambda=0.5)
    episodes = 2
    augmented = []
    augment = env_mod.augment_state

    def counting(obs, lam, lambda_max):
        augmented.append(lam)
        return augment(obs, lam, lambda_max)

    # through both module names, so an augmentation in the loop itself counts too
    monkeypatch.setattr(env_mod, "augment_state", counting)
    monkeypatch.setattr(learner_mod, "augment_state", counting)
    seen = []  # (last feature of the policy input, lambda) at each policy call

    def record(x):
        seen.append((float(np.asarray(x).reshape(-1)[-1]), dual.lam))

    if entry == "greedy_rollout":
        net = MLP([env.observation_dim, 16, env.n_actions], np.random.default_rng(0))
        forward = net.forward

        def spy(x):
            record(x)
            return forward(x)

        net.forward = spy
        log = greedy_rollout(env, net, dual, episodes=episodes, seed=0).log
    else:
        act = QLearner.act

        def spy(self, obs, epsilon):
            record(obs)
            return act(self, obs, epsilon)

        monkeypatch.setattr(QLearner, "act", spy)
        log = run_training(env, dual, tiny_config(hidden_layers=(16,), batch_size=16),
                           seed=0, episodes=episodes).log
    assert len(augmented) == episodes * (EPISODE_STEPS + 1)
    assert len(log) == len(seen) == episodes * EPISODE_STEPS
    assert max(lam for _, lam in seen) == 8.0
    assert all(feat == lam / 8.0 for feat, lam in seen)


def test_greedy_rollout_equals_a_loop_of_public_calls():
    # the dense CR-LBT aifsn mix of the benchmark's greedy evaluation, and an
    # oracle loop written from public calls only: every row, field by field
    from coexctl.constraint import DualController, constraint_signals
    from coexctl.env import CoexEnv, coex_mix_preset
    from coexctl.learner import greedy_rollout

    def dense_env():
        return CoexEnv(coex_mix_preset(2, 3, 3), action_mode="aifsn", cr_lbt=True)

    env = dense_env()
    net = MLP([env.observation_dim, 128, 128, env.n_actions], np.random.default_rng(0))
    episodes, seed = 2, 3
    got = greedy_rollout(env, net, DualController(), episodes=episodes, seed=seed).log

    env, dual = dense_env(), DualController()
    want = []
    for episode in range(episodes):
        env.reset(seed=seed if episode == 0 else None)
        obs = env.observe(dual.lam, dual.lambda_max)
        for step in range(env.episode_steps):
            action = int(np.argmax(net.forward(obs[None, :])[0]))
            info = env.step(action)
            lam = dual.lam
            v, v_scaled, cost = constraint_signals(info, env.d_th_us, dual.kappa, True)
            reward = assemble_reward(info.jfi, lam, cost)
            dual.feed(v_scaled, step)
            obs = env.observe(dual.lam, dual.lambda_max)
            want.append({
                "episode": episode, "step": step, "lam": lam, "v": v, "v_scaled": v_scaled,
                "v_ema": dual.v_ema, "cost": cost, "jfi": info.jfi,
                "delay_inst_us": info.pc1_delay_inst_us,
                "delay_smooth_us": info.pc1_delay_smooth_us,
                "collision_rate": info.coll_rate_agg, "airtime_util": info.airtime_util,
                "violation_rate": info.violation_rate, "reward": reward, "epsilon": 0.0,
                "action": action, "loss": 0.0,
            })
    assert len(got) == len(want) == episodes * env.episode_steps
    # repr tells -0.0 from 0.0 and an int from a float, and round-trips each float
    for row, expected in zip(got, want):
        assert {k: repr(v) for k, v in row._asdict().items()} == \
            {k: repr(v) for k, v in expected.items()}


@pytest.mark.parametrize("episodes", [0, -2])
def test_greedy_rollout_needs_at_least_one_episode(episodes):
    from coexctl.env import CoexEnv, coex_mix_preset
    from coexctl.learner import greedy_rollout

    with pytest.raises(ValueError, match="episodes must be >= 1"):
        greedy_rollout(CoexEnv(coex_mix_preset()), None, None, episodes=episodes, seed=0)


def test_a_mix_with_two_entries_of_one_class_reports_every_node():
    from coexctl.env import CoexEnv, coex_mix_preset
    from coexctl.learner import greedy_rollout

    pc1 = coex_mix_preset(1, 0, 0)[0]
    env = CoexEnv([pc1, pc1, pc1, *coex_mix_preset(0, 1, 1)])
    rollout = greedy_rollout(env, None, None, episodes=1, seed=0)
    assert env.sim.node_names() == ["nru_pc1_0", "nru_pc1_1", "nru_pc1_2", "nru_pc3_0",
                                    "wifi_pc3_0"]
    assert len(rollout.stats) == env.n_nodes == 5


def test_policy_artifact_checksum_detects_corruption(tmp_path):
    lrn = QLearner(obs_dim=3, n_actions=2, config=tiny_config(), seed=9)
    path = tmp_path / "policy.bin"
    save_policy(str(path), lrn, meta={})
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="checksum"):
        load_policy(str(path))


def rewrite_artifact(path, edit_header=lambda h: None, payload_suffix=b""):
    """Rewrite a saved artifact's header and payload, re-signing the checksum."""
    blob = path.read_bytes()
    (hlen,) = struct.unpack("<I", blob[4:8])
    header = json.loads(blob[8:8 + hlen])
    payload = blob[8 + hlen:] + payload_suffix
    edit_header(header)
    header["checksum"] = hashlib.sha256(payload).hexdigest()
    head = json.dumps(header, sort_keys=True).encode()
    path.write_bytes(blob[:4] + struct.pack("<I", len(head)) + head + payload)


def test_load_policy_rejects_trailing_payload_bytes(tmp_path):
    lrn = QLearner(obs_dim=3, n_actions=2, config=tiny_config(), seed=9)
    path = tmp_path / "policy.bin"
    save_policy(str(path), lrn, meta={})
    rewrite_artifact(path, payload_suffix=b"\0" * 8)
    with pytest.raises(ValueError, match="payload"):
        load_policy(str(path))


def test_load_policy_rejects_hidden_layers_that_disagree_with_shapes(tmp_path):
    lrn = QLearner(obs_dim=3, n_actions=2, config=tiny_config(hidden_layers=(4,)), seed=9)
    path = tmp_path / "policy.bin"
    save_policy(str(path), lrn, meta={})
    rewrite_artifact(path, edit_header=lambda h: h.update(hidden_layers=[5]))
    with pytest.raises(ValueError, match="shapes"):
        load_policy(str(path))


def framed(header):
    """An artifact prefix (magic, header length) and the given JSON header, no payload."""
    head = json.dumps(header).encode()
    return b"CXQP" + struct.pack("<I", len(head)) + head


FULL_HEADER = {"version": 1, "obs_dim": 3, "n_actions": 2, "hidden_layers": [],
               "shapes": [[3, 2], [2]], "checksum": ""}


@pytest.mark.parametrize("blob,match", [
    pytest.param(b"PK\x03\x04", "not a policy artifact", id="no_magic"),
    pytest.param(b"CXQP", "prefix", id="magic_only"),
    pytest.param(b"CXQP\x05\x00", "prefix", id="short_prefix"),
    pytest.param(framed([1, 2]), "JSON object", id="list_header"),
    pytest.param(framed("version"), "JSON object", id="string_header"),
    *(pytest.param(framed({k: v for k, v in FULL_HEADER.items() if k != key}), f"lacks {key}",
                   id=f"no_{key}") for key in FULL_HEADER),
    pytest.param(framed({**FULL_HEADER, "version": 2}), "unsupported artifact version 2",
                 id="version_2"),
])
def test_load_policy_refuses_malformed_files_with_value_error(tmp_path, blob, match):
    path = tmp_path / "policy.bin"
    path.write_bytes(blob)
    with pytest.raises(ValueError, match=match):
        load_policy(str(path))


@pytest.mark.parametrize("key,value", [
    ("hidden_layers", 5),
    ("hidden_layers", [4, "8"]),
    ("hidden_layers", [True]),
    ("obs_dim", "3"),
    ("obs_dim", 0),
    ("n_actions", 2.0),
    ("n_actions", None),
    ("shapes", 7),
    ("shapes", [3, 2]),
    ("meta", [1]),
])
def test_load_policy_refuses_wrong_typed_header_values_by_name(tmp_path, key, value):
    path = tmp_path / "policy.bin"
    path.write_bytes(framed({**FULL_HEADER, key: value}))
    with pytest.raises(ValueError, match=f"header {key} is not"):
        load_policy(str(path))
