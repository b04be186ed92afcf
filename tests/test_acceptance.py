"""Acceptance gate: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line per
criterion. Criteria 7 and 8 share two 500-episode desk-scale training runs,
which run side by side in two worker processes and dominate the runtime (over
a minute); everything else is seconds.
"""

import math
import multiprocessing

import numpy as np
import pytest

from coexctl.constraint import (
    DualController,
    learner_cost,
    relative_violation,
    scale_violation,
)
from coexctl.env import D_TH_US, CoexEnv, single_pc1_preset, coex_mix_preset
from coexctl.harness import report_from_rollout
from coexctl.learner import (
    LearnerConfig,
    MLP,
    QLearner,
    ReplayBuffer,
    epsilon_at,
    greedy_rollout,
    run_training,
    td_targets,
)
from coexctl.medium import (
    ContenderConfig,
    PClass,
    Simulator,
    Tech,
    TxKind,
)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {status}: {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} failed: {name} {detail}"


# ----------------------------------------------------------------------
# 1. constraint-pipeline exactness


def test_criterion_1_constraint_pipeline_exactness():
    tol = 1e-12
    ok = True
    ok &= abs(relative_violation(2000.0, 2000.0) - 0.0) <= tol
    ok &= abs(relative_violation(0.0, 2000.0) - 1.0) <= tol
    ok &= abs(relative_violation(4000.0, 2000.0) + 1.0) <= tol
    ok &= abs(scale_violation(0.0, 0.5)) <= tol
    ok &= abs(scale_violation(0.5, 0.5) - math.tanh(1.0)) <= tol
    ok &= abs(scale_violation(-0.5, 0.5) - math.tanh(-1.0)) <= tol
    ok &= learner_cost(0.4) == 0.0
    ok &= learner_cost(-0.4) == -0.4
    ok &= learner_cost(0.0) == 0.0
    ctrl = DualController(lambda_max=5.0, eta_lambda=0.05)
    ctrl.lam, ctrl.v_ema = 1.0, -0.5
    ok &= abs(ctrl.dual_update() - 1.025) <= tol
    ctrl.lam, ctrl.v_ema = 0.0, 0.8
    ctrl._comp = 0.0
    ok &= ctrl.dual_update() == 0.0
    ctrl.lam, ctrl.v_ema = 4.99, -1.0
    ctrl._comp = 0.0
    ok &= ctrl.dual_update() == 5.0
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        delay = float(rng.uniform(0.0, 10_000.0))
        d_th = float(rng.uniform(1.0, 10_000.0))
        c = float(rng.uniform(1e-3, 1e3))
        worst = max(worst, abs(
            relative_violation(c * delay, c * d_th) - relative_violation(delay, d_th)
        ))
    ok &= worst <= tol
    _report(1, "constraint pipeline reproduces worked examples and threshold"
               " invariance at 1e-12", bool(ok), f"max invariance error {worst:.2e}")


# ----------------------------------------------------------------------
# 2. dual dynamics oracle


def test_criterion_2_dual_dynamics_exact_step_counts():
    up = DualController(lambda_max=5.0, eta_lambda=0.05)
    up.v_ema = -1.0
    k_up = 0
    while up.lam < 5.0:
        up.dual_update()
        k_up += 1
        assert k_up <= 1000
    down = DualController(lambda_max=5.0, eta_lambda=0.05)
    down.lam, down.v_ema = 5.0, 1.0
    k_down = 0
    while down.lam > 0.0:
        down.dual_update()
        k_down += 1
        assert k_down <= 1000
    ok = k_up == 100 and k_down == 100
    _report(2, "lambda reaches the 5.0 clamp in exactly 100 updates and returns"
               " to 0 in exactly 100", ok, f"up={k_up}, down={k_down}")


# ----------------------------------------------------------------------
# 3. simulator conservation and exclusion


def _coex_mix_contenders():
    return [
        ContenderConfig(Tech.NRU, PClass.PC1, aifsn=2, cw_min=7, cw_max=15, mcot_us=2000),
        ContenderConfig(Tech.NRU, PClass.PC3, aifsn=3, cw_min=127, cw_max=255, mcot_us=4000),
        ContenderConfig(Tech.WIFI, PClass.PC3, aifsn=3, cw_min=127, cw_max=255, mcot_us=4000),
    ]


def test_criterion_3_conservation_and_exclusion():
    horizon = 1_000_000
    window = 2_500
    sim = Simulator(_coex_mix_contenders(), seed=2024)
    outcomes = []
    edges = [0]
    occupied = [0]
    for _ in range(horizon // window):
        outcomes.extend(sim.run_for(window))
        edges.append(sim.clock)
        occupied.append(sim.occupied_us_at())
    outcomes.extend(sim.run_for(60_000))  # flush in-flight frames

    # exclusion: no SUCCESS interval overlaps any other data interval
    data = sorted(
        (o.start_us, o.end_us, o.kind)
        for o in outcomes
        if o.kind in (TxKind.SUCCESS, TxKind.COLLISION)
    )
    exclusion_ok = True
    for (s1, e1, k1), (s2, e2, k2) in zip(data, data[1:]):
        if s2 < e1 and (k1 == TxKind.SUCCESS or k2 == TxKind.SUCCESS):
            exclusion_ok = False

    # conservation: per window, channel occupancy (union of all outcome
    # intervals) + idle == window length, exactly; the simulator's occupancy
    # integrator is cross-checked against the independent trace union
    spans = sorted((o.start_us, o.end_us) for o in outcomes)
    merged = []
    for s, e in spans:
        if merged and s <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], e)
        else:
            merged.append([s, e])

    def union_in(a: int, b: int) -> int:
        total = 0
        for s, e in merged:
            lo, hi = max(s, a), min(e, b)
            if lo < hi:
                total += hi - lo
        return total

    conservation_ok = True
    for i in range(len(edges) - 1):
        a, b = edges[i], edges[i + 1]
        busy_trace = union_in(a, b)
        busy_integrator = occupied[i + 1] - occupied[i]
        idle = (b - a) - busy_trace
        if busy_trace + idle != b - a or busy_trace != busy_integrator or idle < 0:
            conservation_ok = False
            break
    _report(3, "per-window airtime + idle == window exactly; no SUCCESS overlap",
            exclusion_ok and conservation_ok)


# ----------------------------------------------------------------------
# 4. single-contender analytic delay


def test_criterion_4_single_contender_analytic_delay():
    # Closed form from the timing constants: a lone saturated NRU PC1 node
    # with AIFSN=2 and CW pinned to 0 completes AIFS 16+2*9=34 us after each
    # frame ends on a slot boundary, holds 466 us to the next boundary, and
    # transmits. Access delay (head-of-line to transmission start) is
    # therefore exactly 500 us every cycle.
    expected = 500.0
    sim = Simulator(
        [ContenderConfig(Tech.NRU, PClass.PC1, aifsn=2, cw_min=0, cw_max=0, mcot_us=2000)],
        cr_lbt_enabled=False,
        seed=7,
    )
    out = sim.run_for(10_000_000)
    delays = [o.access_delay_us for o in out if o.kind == TxKind.SUCCESS]
    mean = float(np.mean(delays))
    ok = abs(mean - expected) / expected < 0.01
    _report(4, "single-contender mean access delay matches the closed-form"
               " 500 us cycle within 1%", ok, f"mean={mean:.2f} us over {len(delays)} frames")


# ----------------------------------------------------------------------
# 5. CR-LBT directional comparison against plain LBT


def test_criterion_5_cr_lbt_directional():
    seeds = range(1, 11)
    horizon = 10_000_000
    agg = {False: {}, True: {}}
    for cr in (False, True):
        for seed in seeds:
            sim = Simulator(_coex_mix_contenders(), cr_lbt_enabled=cr, seed=seed)
            sim.run_for(horizon)
            for n in sim.nodes:
                a = agg[cr].setdefault(n.name, [0, 0, 0, 0])
                s = n.stats
                a[0] += s.collisions
                a[1] += s.attempts
                a[2] += s.success_air_us
                a[3] += (s.success_air_us + s.collision_air_us + s.reserve_us + s.pulse_us)

    def coll(cr, name):
        c = agg[cr][name]
        return c[0] / c[1]

    def eff(cr, name):
        c = agg[cr][name]
        return c[2] / c[3]

    drop = coll(False, "nru_pc3_0") - coll(True, "nru_pc3_0")
    a_ok = drop >= 0.30
    b_ok = coll(True, "nru_pc1_0") <= 0.02
    c_ok = all(eff(True, n) > eff(False, n) for n in agg[False])
    detail = (
        f"gNB PC3 collision {coll(False, 'nru_pc3_0'):.1%} -> {coll(True, 'nru_pc3_0'):.1%}"
        f" (drop {drop * 100:.1f} pts); gNB PC1 CR {coll(True, 'nru_pc1_0'):.2%};"
        f" efficiency "
        + ", ".join(f"{n} {eff(False, n):.2f}->{eff(True, n):.2f}" for n in agg[False])
    )
    _report(5, "CR-LBT cuts gNB PC3 collisions by >= 30 points, keeps gNB PC1"
               " <= 2%, and raises every node's airtime efficiency",
            a_ok and b_ok and c_ok, detail)


# ----------------------------------------------------------------------
# 6. learner correctness


def test_criterion_6_learner_oracles():
    # TD targets vs brute-force Bellman backup on a 2-state/2-action chain
    q_table = {0: np.array([1.0, 2.0]), 1: np.array([-0.5, 0.25])}

    def q_fn(obs):
        return np.stack([q_table[int(o[0])] for o in obs])

    rewards = np.array([1.0, 0.5, -1.0, 2.0])
    next_obs = np.array([[1.0], [0.0], [0.0], [1.0]])
    terminals = np.array([False, False, True, False])
    gamma = 0.9
    expected = np.array([
        rewards[0] + gamma * q_table[1].max(),
        rewards[1] + gamma * q_table[0].max(),
        rewards[2],
        rewards[3] + gamma * q_table[1].max(),
    ])
    y = td_targets(rewards, q_fn(next_obs), terminals, gamma)
    bellman_ok = bool(np.all(np.abs(y - expected) <= 1e-9))

    # analytic gradients vs central finite differences on a 2-layer toy net
    rng = np.random.default_rng(11)
    net = MLP([4, 6, 3], rng)
    obs = rng.normal(size=(5, 4))
    actions = np.array([0, 2, 1, 0, 2])
    targets = rng.normal(size=5)

    def loss_value():
        q = net.forward(obs)
        err = q[np.arange(5), actions] - targets
        return float(np.mean(err**2))

    q_all, acts = net.forward_cached(obs)
    err = q_all[np.arange(5), actions] - targets
    dout = np.zeros_like(q_all)
    dout[np.arange(5), actions] = 2.0 * err / 5
    analytic = sum(net.backward(acts, dout), [])
    h = 1e-6
    worst_rel = 0.0
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
            worst_rel = max(worst_rel, abs(numeric - ana) / denom)
    grad_ok = worst_rel <= 1e-4

    # replay buffer FIFO and epsilon-schedule invariants
    fifo_ok = True
    rng = np.random.default_rng(12)
    for _ in range(50):
        cap = int(rng.integers(1, 12))
        pushes = int(rng.integers(0, 40))
        buf = ReplayBuffer(capacity=cap, obs_dim=1)
        for i in range(pushes):
            buf.push(np.zeros(1), 0, float(i), np.zeros(1), False)
        fifo_ok &= len(buf) == min(cap, pushes)
        if pushes > cap:
            fifo_ok &= set(buf.rewards.tolist()) == {
                float(i) for i in range(pushes - cap, pushes)
            }
    eps = [epsilon_at(s, 10_000) for s in range(0, 10_001, 7)]
    eps_ok = (
        eps[0] == 1.0
        and all(a >= b for a, b in zip(eps, eps[1:]))
        and all(0.01 <= e <= 1.0 for e in eps)
    )
    _report(6, "TD targets match the Bellman oracle (1e-9), gradients match"
               " finite differences (<= 1e-4), buffer FIFO and epsilon"
               " invariants hold",
            bellman_ok and grad_ok and fifo_ok and eps_ok,
            f"max grad rel err {worst_rel:.2e}")


# ----------------------------------------------------------------------
# 7 & 8. desk-scale training effect and scaling ablation (shared runs)


DESK = LearnerConfig(
    hidden_layers=(128, 128), batch_size=64, buffer_capacity=50_000,
    learning_rate=5e-4, target_sync_interval=250,
)
TRAIN_SEED = 0
EVAL_SEED = 1000


def desk_training_rollout(scaling: bool):
    """One 500-episode desk training and its greedy evaluation."""
    env = CoexEnv(coex_mix_preset(), action_mode="cw")
    result = run_training(env, DualController(), DESK, seed=TRAIN_SEED,
                          scaling=scaling, episodes=500)
    eval_env = CoexEnv(coex_mix_preset(), action_mode="cw")
    return greedy_rollout(
        eval_env, result.learner.online, DualController(), episodes=50,
        seed=EVAL_SEED, scaling=scaling,
    )


@pytest.fixture(scope="module")
def desk_scale_runs():
    # The two trainings (scaling on and off) run in two spawned worker
    # processes; run_training sets each to one BLAS thread, the count the
    # desk shape runs fastest at.
    with multiprocessing.get_context("spawn").Pool(2) as pool:
        trained = pool.map_async(desk_training_rollout, (True, False))
        base_env = CoexEnv(coex_mix_preset(), action_mode="cw")
        baseline = greedy_rollout(base_env, None, None, episodes=50, seed=EVAL_SEED)
        on, off = trained.get(timeout=3600)
    return {key: report_from_rollout(rollout, D_TH_US)
            for key, rollout in ((True, on), (False, off), ("baseline", baseline))}


def test_criterion_7_desk_scale_training_effect(desk_scale_runs):
    trained = desk_scale_runs[True]
    baseline = desk_scale_runs["baseline"]
    a_ok = trained.violation_fraction < baseline.violation_fraction
    jfi_t, jfi_b = trained.mean_jfi, baseline.mean_jfi
    b_ok = jfi_t >= 0.9 * jfi_b
    _report(7, "500-episode CW training lowers the violation fraction below"
               " baseline and keeps mean JFI >= 0.9x baseline",
            a_ok and b_ok,
            f"violations {trained.violation_fraction:.3f} vs baseline"
            f" {baseline.violation_fraction:.3f}; JFI {jfi_t:.3f} vs {jfi_b:.3f}")


def test_criterion_8_scaling_ablation_direction(desk_scale_runs):
    on = desk_scale_runs[True]
    off = desk_scale_runs[False]
    ok = off.violation_fraction >= on.violation_fraction
    _report(8, "scaling-off evaluation violation fraction >= scaling-on",
            ok, f"off {off.violation_fraction:.3f} vs on {on.violation_fraction:.3f}")


# ----------------------------------------------------------------------
# 9. determinism


def test_criterion_9_manifest_determinism(tmp_path):
    from coexctl.harness import ExperimentConfig, cmd_baseline, cmd_train

    logs = {}
    for label in ("first", "second"):
        cfg = ExperimentConfig(
            episodes=3, eval_episodes=3, seed=17, out_dir=str(tmp_path / label),
            learner=LearnerConfig(
                hidden_layers=(32, 32), batch_size=32, buffer_capacity=2000,
                learning_rate=1e-3, target_sync_interval=200,
            ),
        )
        _, log = cmd_train(cfg)
        cmd_baseline(cfg)
        logs[label] = (
            open(log, "rb").read(),
            open(f"{cfg.out_dir}/baseline_log.csv", "rb").read(),
        )
    ok = logs["first"] == logs["second"]
    _report(9, "identical (manifest, seed) -> bit-identical metrics logs", ok)
