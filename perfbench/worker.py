"""One workload process: set up, run the closed control loop, write and check outputs.

Run by perfbench/run.py, one process per repetition:

    python3 -m perfbench.worker --workload desk_train --seed 1 --out DIR \\
        --episodes 20 --spawned-at T [--trace]

It drives coexctl only through its public functions and writes one JSON
result to DIR/result.json.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.workloads import WORKLOADS, configure  # noqa: E402

clock = time.perf_counter  # CLOCK_MONOTONIC on Linux: comparable across processes


class Timings(dict):
    def timed(self, key: str, fn, *args, **kwargs):
        t0 = clock()
        result = fn(*args, **kwargs)
        self[key] = clock() - t0
        return result


def blas_threads():
    """Thread count the loaded OpenBLAS will use, or None when it cannot be asked."""
    with open("/proc/self/maps") as f:
        libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def check_step_log(path: str, n_nodes: int, lambda_max: float) -> tuple[str, int, int, dict]:
    """SHA-256 of the step log plus per-episode range checks.

    Returns (sha256, episodes seen, episodes failing a check, failures by check).
    """
    with open(path, "rb") as f:
        blob = f.read()
    lines = blob.decode().splitlines()
    header = lines[0].split(",")
    col = {name: i for i, name in enumerate(header)}
    bad_episodes: set[int] = set()
    episodes: set[int] = set()
    failures = {"finite": 0, "airtime_util": 0, "jfi": 0, "lam": 0}
    eps = 1e-12
    for line in lines[1:]:
        cells = line.split(",")
        episode = int(cells[col["episode"]])
        episodes.add(episode)
        values = {name: float(cells[i]) for name, i in col.items()}
        problems = []
        if not all(math.isfinite(v) for v in values.values()):
            problems.append("finite")
        if not 0.0 <= values["airtime_util"] <= 1.0:
            problems.append("airtime_util")
        if not 1.0 / n_nodes - eps <= values["jfi"] <= 1.0 + eps:
            problems.append("jfi")
        if not 0.0 <= values["lam"] <= lambda_max:
            problems.append("lam")
        for p in problems:
            failures[p] += 1
        if problems:
            bad_episodes.add(episode)
    return hashlib.sha256(blob).hexdigest(), len(episodes), len(bad_episodes), failures


def sim_totals(sim) -> dict:
    stats = sim.stats_snapshot()
    out = {k: sum(getattr(s, k) for s in stats) for k in (
        "successes", "collisions", "success_air_us", "collision_air_us", "reserve_us", "pulse_us")}
    out["clock_us"] = sim.clock
    # each node's data airtime must fit in the simulated time
    out["airtime_within_clock"] = all(
        s.success_air_us + s.collision_air_us <= sim.clock for s in stats)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--episodes", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    harness_s = Timings()

    t0 = clock()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from coexctl import harness, learner
    harness_s["import_s"] = clock() - t0

    tracer = None
    if args.trace:
        from perfbench.tracing import Tracer
        tracer = Tracer()
        tracer.install()

    cfg = harness_s.timed("load_config_s", harness.load_config, os.path.join(ROOT, wl.config))
    configure(cfg, wl, args.seed)
    env = cfg.build_env()
    dual = cfg.dual.controller()

    # Marks taken from outside: the first reset's return is the start of the
    # first control step; in evaluation each env.step entry is a step boundary.
    first_step_at = []
    setup_cpu_s = []
    step_entries = []
    reset, step = env.reset, env.step

    def marked_reset(*a, **k):
        obs = reset(*a, **k)
        if not first_step_at:
            first_step_at.append(clock())
            # the main thread's CPU time since process start; unlike wall time it
            # leaves out waiting while the numpy-started BLAS threads hold the CPU
            setup_cpu_s.append(time.thread_time())
        return obs

    def marked_step(action):
        step_entries.append(clock())
        return step(action)

    env.reset = marked_reset
    os.makedirs(args.out, exist_ok=True)
    log_path = os.path.join(args.out, "step_log.csv")
    checks = {}

    if wl.kind == "train":
        boundaries = []
        result = learner.run_training(
            env, dual, cfg.learner, seed=cfg.seed, scaling=cfg.scaling, episodes=args.episodes,
            log_hook=lambda entry: boundaries.append(clock()),
            hard_episode_resets=cfg.hard_episode_resets,
        )
        artifact = os.path.join(args.out, "policy.bin")
        harness_s.timed("save_policy_s", learner.save_policy, artifact, result.learner,
                        meta={"action_mode": cfg.action_mode, "scenario": cfg.scenario,
                              "cr_lbt": cfg.cr_lbt, "scaling": cfg.scaling, "seed": cfg.seed,
                              "episodes": args.episodes})
        harness_s.timed("write_step_log_s", harness.write_step_log, log_path, result.log)
        harness_s.timed("manifest_s", harness.write_manifest,
                        os.path.join(args.out, "manifest.json"), cfg)
        outputs_at = clock()
        # The first gradient update runs once the buffer holds batch_size
        # transitions, i.e. in step batch_size - 1; timing starts at its start.
        warm = cfg.learner.batch_size - 1
        window = ([first_step_at[0]] + boundaries)[warm:]
        n_steps = len(result.log)
        train_steps = result.learner.train_steps
        loaded = harness_s.timed("load_policy_s", learner.load_policy, artifact)
        online = result.learner.online
        checks["artifact_round_trip"] = all(
            a.shape == b.shape and (a == b).all()
            for a, b in zip(loaded.arrays, online.weights + online.biases))
    else:
        artifact = harness_s.timed("load_policy_s", learner.load_policy,
                                   os.path.join(os.path.dirname(args.out), "policy.bin"))
        if artifact.obs_dim != env.observation_dim or artifact.n_actions != env.n_actions:
            raise SystemExit("policy artifact does not match the workload's env")
        net = artifact.network()
        env.step = marked_step
        rollout = learner.greedy_rollout(env, net, dual, episodes=args.episodes, seed=cfg.seed,
                                         scaling=cfg.scaling)
        loop_end = clock()
        report = harness.report_from_rollout(rollout, cfg.d_th_us)
        report.write(os.path.join(args.out, "eval_report.txt"))
        harness_s.timed("write_step_log_s", harness.write_step_log, log_path, rollout.log)
        harness_s.timed("manifest_s", harness.write_manifest,
                        os.path.join(args.out, "manifest.json"), cfg)
        outputs_at = clock()
        window = step_entries + [loop_end]
        n_steps = len(rollout.log)
        train_steps = 0
        checks["report_finite"] = all(math.isfinite(v) for v in (
            report.mean_pc1_delay_ms, report.p95_pc1_delay_ms, report.mean_jfi,
            report.violation_fraction))

    sha, episodes, failed, failures = check_step_log(log_path, env.n_nodes, cfg.dual.lambda_max)
    checks["episodes_logged"] = (
        episodes == args.episodes and n_steps == episodes * env.episode_steps)
    totals = sim_totals(env.sim)
    checks["airtime_within_clock"] = totals.pop("airtime_within_clock")
    window_steps = len(window) - 1
    res = {
        "traced": bool(args.trace),
        "episodes": args.episodes,
        "steps": n_steps,
        "setup_s": setup_cpu_s[0],
        "setup_wall_s": first_step_at[0] - args.spawned_at,
        "window_steps": window_steps,
        "steps_per_s": window_steps / (outputs_at - window[0]),
        "tail_s": outputs_at - window[-1],
        "step_us": [(b - a) * 1e6 for a, b in zip(window[:-1], window[1:])],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "harness": dict(harness_s),
        "log_sha256": sha,
        "failed_episodes": failed,
        "row_failures": failures,
        "checks": checks,
        "sim": totals,
        "train_steps": train_steps,
        "blas_threads": blas_threads(),
    }
    if tracer is not None:
        res["boundaries"] = window
        res["outcomes"] = tracer.write(os.path.join(args.out, "spans.csv"))
    with open(os.path.join(args.out, "result.json"), "w") as f:
        json.dump(res, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
