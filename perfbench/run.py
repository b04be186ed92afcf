"""Benchmark driver: runs one workload in fresh worker processes and reports metrics.

    python3 perfbench/run.py --workload desk_train --seed 1 --seconds 25 --trace 0

Each repetition is a separate worker process (perfbench/worker.py) that sets
up, runs the closed control loop for a fixed number of episodes, writes the
step log, artifact and manifest, and checks them. Repetitions continue until
--seconds have passed (at least MIN_WORKERS of them). With --trace 0 the last
stdout line is a JSON object holding the end-to-end metrics; with --trace 1
untraced and traced repetitions alternate and it holds the per-layer metrics
and the tracing overhead. Every repetition of a run uses the same seed, so
their step logs and simulated counts must match exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.analysis import (  # noqa: E402
    SLOW_SIDE_PCT,
    LayerTotals,
    median,
    nearest_rank,
    read_spans,
    step_blocks,
    tail_percentile,
)
from perfbench.workloads import WORKLOADS, configure  # noqa: E402

MIN_WORKERS = {False: 3, True: 4}  # by trace mode; traced runs alternate two kinds
WORKER_TIMEOUT_S = 120
BUDGET_S = 150  # no new repetition starts when it would likely end after this
SELF_SUM_TOLERANCE = 1e-6
POLICY_SEED = 0  # weights of the untrained policy that evaluation workloads load

END_TO_END = {
    "setup_s": "s",
    "env_steps_per_s": "1/s",
    "step_p50_us": "us",
    "step_p90_us": "us",
    "peak_rss_mib": "MiB",
}

_DENSE = "env_steps_per_s and step_p50_us on dense_cr_eval"
_TRAIN = "env_steps_per_s on desk_train and full_train"
_EXACT = "nothing: exact simulated count; a speed-only change leaves it identical"
# Per-layer metrics of the traced run: (name, unit, better, what it should move).
PER_LAYER = (
    ("medium.run_for_us", "us", "lower", _DENSE),
    ("medium.host_us_per_outcome", "us", "lower", _DENSE),
    ("medium.apply_mac_params_us", "us", "lower",
     "env_steps_per_s on desk_train and dense_cr_eval"),
    ("medium.self_us", "us", "lower", _DENSE),
    ("medium.successes_per_step", "count", "higher", _EXACT),
    ("medium.collisions_per_step", "count", "lower", _EXACT),
    ("medium.rs_per_step", "count", "lower", _EXACT),
    ("medium.cr_pulses_per_step", "count", "lower", _EXACT),
    ("medium.collision_frac", "frac", "lower", _EXACT),
    ("medium.useful_airtime_frac", "frac", "higher", _EXACT),
    ("metrics.step_metrics_us", "us", "lower",
     "env_steps_per_s on dense_cr_eval, less on desk_train"),
    ("metrics.build_observation_us", "us", "lower",
     "env_steps_per_s on dense_cr_eval, less on desk_train"),
    ("metrics.self_us", "us", "lower", "env_steps_per_s on dense_cr_eval, less on desk_train"),
    ("env.step_p50_us", "us", "lower", "step_p50_us on dense_cr_eval"),
    ("env.step_p99_us", "us", "lower", "step_p90_us and e2e.step_p99_us on dense_cr_eval"),
    ("env.self_us", "us", "lower", "step_p50_us on dense_cr_eval"),
    ("constraint.us_per_step", "us", "lower", "nothing: control layer"),
    ("learner.train_step_p50_us", "us", "lower", _TRAIN),
    ("learner.train_step_p99_us", "us", "lower",
     "step_p90_us and e2e.step_p99_us on desk_train and full_train"),
    ("learner.forward_us", "us", "lower", _TRAIN),
    ("learner.backward_us", "us", "lower", _TRAIN),
    ("learner.adam_us", "us", "lower", _TRAIN),
    ("learner.buffer_sample_us", "us", "lower", _TRAIN),
    ("learner.buffer_push_us", "us", "lower", "env_steps_per_s on desk_train"),
    ("learner.act_p50_us", "us", "lower", "step_p50_us on full_train and dense_cr_eval"),
    ("learner.act_p99_us", "us", "lower",
     "step_p90_us and e2e.step_p99_us on full_train and dense_cr_eval"),
    ("learner.self_us", "us", "lower", _TRAIN),
    ("learner.train_steps", "count", "higher", "nothing: exact count"),
    ("learner.target_syncs", "count", "higher", "nothing: exact count"),
    ("loop.self_us", "us", "lower", "env_steps_per_s on desk_train and dense_cr_eval"),
    ("harness.import_s", "s", "lower", "setup_s on every workload"),
    ("harness.load_config_s", "s", "lower", "setup_s on every workload"),
    ("harness.load_policy_s", "s", "lower", "setup_s on dense_cr_eval"),
    ("harness.save_policy_s", "s", "lower", "env_steps_per_s on desk_train and full_train"),
    ("harness.write_step_log_s", "s", "lower", "env_steps_per_s on every workload"),
    ("harness.manifest_s", "s", "lower", "env_steps_per_s on every workload"),
    ("e2e.step_p99_us", "us", "lower",
     "nothing: the untraced end-to-end step tail, reported without a bound"),
    ("trace.step_us", "us", "lower", "the traced step time the self times add up to"),
    ("trace.self_sum_frac", "frac", "higher", "nothing: must read 1"),
    ("trace.untraced_steps_per_s", "1/s", "higher", "nothing: reference for the overhead"),
    ("trace.traced_steps_per_s", "1/s", "higher", "nothing: reference for the overhead"),
    ("trace.overhead_frac", "frac", "lower", "nothing: cost of tracing"),
)


def run_environment() -> dict:
    import numpy as np

    def git(*cmd):
        try:
            out = subprocess.run(["git", *cmd], cwd=ROOT, capture_output=True, text=True,
                                 timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    status = git("status", "--porcelain")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "git_head": git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "model": "unvalidated: no reference measurements, so no accuracy error",
    }


def worker_environ() -> tuple[dict, list[str]]:
    """The parent's environment without inherited thread-count pins."""
    cleared = sorted(k for k in os.environ
                     if k.endswith("_NUM_THREADS") or k == "VECLIB_MAXIMUM_THREADS")
    return {k: v for k, v in os.environ.items() if k not in cleared}, cleared


def prepare_policy(workload, seed: int, workdir: str) -> float:
    """Write the untrained policy an evaluation workload loads; returns seconds.

    Its weights come from POLICY_SEED, not from seed: the greedy actions of an
    untrained network set the channel's contention level, so a policy drawn per
    seed would change the amount of simulated work by several percent.
    """
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from coexctl import harness, learner

    cfg = configure(harness.load_config(os.path.join(ROOT, workload.config)), workload, seed)
    env = cfg.build_env()
    q = learner.QLearner(env.observation_dim, env.n_actions, cfg.learner,
                         seed=POLICY_SEED)
    t0 = time.perf_counter()
    learner.save_policy(os.path.join(workdir, "policy.bin"), q,
                        meta={"action_mode": cfg.action_mode, "scenario": cfg.scenario,
                              "cr_lbt": cfg.cr_lbt, "scaling": cfg.scaling, "seed": POLICY_SEED})
    return time.perf_counter() - t0


def run_worker(workload: str, seed: int, episodes: int, out: str, traced: bool,
               environ: dict) -> dict:
    cmd = [sys.executable, "-m", "perfbench.worker", "--workload", workload,
           "--seed", str(seed), "--out", out, "--episodes", str(episodes)]
    if traced:
        cmd.append("--trace")
    started = time.perf_counter()
    cmd += ["--spawned-at", repr(started)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=environ, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
        error = None if proc.returncode == 0 else proc.stderr.strip()[-2000:]
    except subprocess.TimeoutExpired:
        error = f"timed out after {WORKER_TIMEOUT_S} s"
    wall = time.perf_counter() - started
    if error is not None:
        return {"error": error, "episodes": episodes, "traced": traced, "wall_s": wall}
    with open(os.path.join(out, "result.json")) as f:
        res = json.load(f)
    res["wall_s"] = wall
    if traced:
        res["spans"] = read_spans(os.path.join(out, "spans.csv"))
    return res


def step_tail(workers: list[dict]) -> tuple[float, float, int]:
    """(pct, value, n) of the pooled step times at the highest percentile with 10 beyond."""
    steps = [us for w in workers for us in w["step_us"]]
    return (*tail_percentile(steps), len(steps))


def end_to_end(workers: list[dict]) -> tuple[dict, dict]:
    blocks = [b for w in workers for b in step_blocks(w["step_us"], w["tail_s"])]
    n = len(workers)
    slow = SLOW_SIDE_PCT
    values = {
        "setup_s": median([w["setup_s"] for w in workers]),
        "env_steps_per_s": nearest_rank(sorted(b[0] for b in blocks), 100.0 - slow),
        "step_p50_us": nearest_rank(sorted(b[1] for b in blocks), slow),
        "step_p90_us": nearest_rank(sorted(b[2] for b in blocks), slow),
        "peak_rss_mib": median([w["peak_rss_mib"] for w in workers]),
    }
    over = f"over {len(blocks)} blocks from {n} processes"
    notes = {
        "setup_s": f"main-thread CPU time, median of {n} processes",
        "env_steps_per_s": f"block rate, p{100 - slow:g} {over}",
        "step_p50_us": f"block p50, p{slow:g} {over}",
        "step_p90_us": f"block p90, p{slow:g} {over}",
        "peak_rss_mib": f"median of {n} processes",
    }
    return values, notes


def per_layer(workers: list[dict], prep_save_s: float | None) -> dict:
    traced = [w for w in workers if w["traced"]]
    plain = [w for w in workers if not w["traced"]]
    layers = LayerTotals()
    for w in traced:
        spans, outcomes = w["spans"]
        layers.add(spans, outcomes, w["boundaries"])
    out = layers.metrics()
    steps = traced[0]["steps"]
    for kind, key in (("SUCCESS", "successes"), ("COLLISION", "collisions"),
                      ("RS", "rs"), ("CR_PULSE", "cr_pulses")):
        out[f"medium.{key}_per_step"] = traced[0]["outcomes"][kind] / steps
    sim = traced[0]["sim"]
    attempts = sim["successes"] + sim["collisions"]
    occupied = sim["success_air_us"] + sim["collision_air_us"] + sim["reserve_us"] + sim["pulse_us"]
    out["medium.collision_frac"] = sim["collisions"] / attempts if attempts else 0.0
    out["medium.useful_airtime_frac"] = sim["success_air_us"] / occupied if occupied else 0.0
    out["learner.train_steps"] = float(traced[0]["train_steps"])
    for key in ("import_s", "load_config_s", "load_policy_s", "save_policy_s",
                "write_step_log_s", "manifest_s"):
        samples = [w["harness"][key] for w in workers if key in w["harness"]]
        out[f"harness.{key}"] = median(samples) if samples else prep_save_s
    untraced_rate = median([w["steps_per_s"] for w in plain])
    traced_rate = median([w["steps_per_s"] for w in traced])
    out["e2e.step_p99_us"] = step_tail(plain)[1]
    out["trace.untraced_steps_per_s"] = untraced_rate
    out["trace.traced_steps_per_s"] = traced_rate
    out["trace.overhead_frac"] = 1.0 - traced_rate / untraced_rate
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="fewest episodes per repetition and two repetitions (self-tests)")
    args = ap.parse_args(argv)
    traced_run = bool(args.trace)
    wl = WORKLOADS[args.workload]

    for need in ("src/coexctl/__init__.py", wl.config):
        if not os.path.isfile(os.path.join(ROOT, need)):
            print(f"error: {need} not found under {ROOT}; run from a coexctl checkout",
                  file=sys.stderr)
            return 2

    episodes = wl.smoke_episodes if args.smoke else wl.episodes
    min_workers = 2 if args.smoke else MIN_WORKERS[traced_run]
    workdir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        prep_save_s = prepare_policy(wl, args.seed, workdir) if wl.kind == "eval" else None
        environ, cleared = worker_environ()
        info = run_environment()
        info["cleared_env"] = cleared
        workers = []
        began = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - began
            if len(workers) >= min_workers and elapsed >= args.seconds:
                break
            if workers and elapsed + max(w["wall_s"] for w in workers) > BUDGET_S:
                break
            i = len(workers)
            out = os.path.join(workdir, f"w{i}")
            workers.append(run_worker(args.workload, args.seed, episodes, out,
                                      traced_run and i % 2 == 1, environ))
            shutil.rmtree(out, ignore_errors=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still uses it

    ok = [w for w in workers if "error" not in w]
    crashed = [w for w in workers if "error" in w]
    for w in crashed:
        print(f"repetition failed: {w['error']}", file=sys.stderr)
    if not ok or (traced_run and {w["traced"] for w in ok} != {False, True}):
        print("error: no usable repetition", file=sys.stderr)
        return 1

    info["blas_threads"] = ok[0]["blas_threads"]
    print("env " + json.dumps(info, sort_keys=True))
    for i, w in enumerate(ok):
        print(f"repetition {i} traced={int(w['traced'])} setup_s={w['setup_s']:.4f}"
              f" setup_wall_s={w['setup_wall_s']:.4f}"
              f" steps_per_s={w['steps_per_s']:.2f} wall_s={w['wall_s']:.2f}"
              f" log_sha256={w['log_sha256']}")

    checks = {
        "log_sha256_identical": len({w["log_sha256"] for w in ok}) == 1 and len(ok) >= 2,
        "sim_counts_identical": len({json.dumps(w["sim"], sort_keys=True) for w in ok}) == 1,
    }
    for w in ok:
        for name, passed in w["checks"].items():
            checks[name] = checks.get(name, True) and passed
    row_failures = {}
    for w in ok:
        for name, n in w["row_failures"].items():
            row_failures[name] = row_failures.get(name, 0) + n
    for name, n in row_failures.items():
        checks[f"rows_{name}"] = n == 0

    if traced_run:
        metrics = per_layer(ok, prep_save_s)
        checks["self_times_sum_to_step_time"] = (
            abs(metrics["trace.self_sum_frac"] - 1.0) <= SELF_SUM_TOLERANCE)
        values = {name: (metrics[name], unit, f"moves {moves}")
                  for name, unit, _, moves in PER_LAYER}
    else:
        e2e, notes = end_to_end(ok)
        values = {k: (v, END_TO_END[k], notes[k]) for k, v in e2e.items()}

    attempted = sum(w["episodes"] for w in workers)
    failed = sum(w["failed_episodes"] for w in ok) + sum(w["episodes"] for w in crashed)
    for name, passed in checks.items():
        print(f"check {name} {'PASS' if passed else 'FAIL'}")
    print(f"log_sha256 {ok[0]['log_sha256']}")
    print("sim_counts " + json.dumps(ok[0]["sim"], sort_keys=True))
    for w in ok:
        if w["traced"]:
            print("outcome_counts " + json.dumps(w["outcomes"], sort_keys=True))
            break
    print(f"episodes attempted={attempted} failed={failed}")
    for name, (value, unit, note) in values.items():
        print(f"{name} {value!r} {unit}" + (f" ({note})" if note else ""))
    if not traced_run:
        pct, tail, n = step_tail(ok)
        pooled = nearest_rank(sorted(us for w in ok for us in w["step_us"]), 50.0)
        wall = median([w["setup_wall_s"] for w in ok])
        print(f"setup_wall_s {wall!r} s (median of {len(ok)} processes; unbounded:"
              " not in the result line)")
        print(f"pooled_step_p50_us {pooled!r} us (n={n}; unbounded: not in the result line)")
        print(f"step_p99_us {tail!r} us (p{pct:g} of n={n}; unbounded: not in the result line)")
    print(json.dumps({
        "correct": all(checks.values()) and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
