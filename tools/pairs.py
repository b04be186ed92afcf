"""Run the benchmark on a parent revision and on the working tree, in alternating pairs.

    python tools/pairs.py PARENT_REF WORKLOAD N

Extracts `git archive PARENT_REF` and the working tree's tracked files (as they
are on disk, edits included) into two temporary directories, the same way:
each becomes a tar stream unpacked into a fresh directory. It then runs the
benchmark command of `BENCHMARK.json` with `--trace 0` and its `run_seconds` on
both sides N times. Pair i uses seed i + 1 on both sides; even pairs run the
parent first, odd pairs the change. Nothing under `perfbench/` and no
`BENCHMARK.json` is edited: both are read from the extracted trees.

Refuses to run while an untracked, non-ignored file sits under `src/`,
`tools/`, `perfbench/`, `configs/` or `tests/`: it would be left out of the
change tree, which would then be a different program from the one on disk.

Writes `BENCH_<WORKLOAD>_<parent short sha>.json` in the repository root, or
`BENCH_<WORKLOAD>_<parent short sha>_control.json` with `"control": true` when
the working tree runs the same benchmark as the parent (no difference under
`src/`, `perfbench/` or `configs/`, nor in `BENCHMARK.json` or
`pyproject.toml`), so a control run measures the host's noise floor and never
overwrites a claim. The file records the SHA-256 of `git diff PARENT_REF` and,
for each end-to-end metric, both sides' values, median and quartiles, the
change/parent ratio of the medians, the pairs the change won (ties count for
neither), and a verdict against the metric's bound: `worse` when the change's
median is worse by more than the bound, `unresolved` when the parent's own
quartile spread exceeds the bound and the change does not beat every parent
run, otherwise `within bound`. It also records whether every pair's
`log_sha256` and `sim_counts` are equal, whether every run passed its checks,
and the host (nproc, numpy, BLAS and its thread count). Temporary directories
go where `tempfile` puts them (set TMPDIR to move them).
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# tracked trees and files whose untracked additions would silently go missing
# from the change tree, and those the benchmark runs
WATCHED = ("src", "tools", "perfbench", "configs", "tests")
BENCH_INPUTS = ("src", "perfbench", "configs", "BENCHMARK.json", "pyproject.toml")


def git(*args: str, stdout_bytes: bool = False):
    out = subprocess.run(["git", "-C", ROOT, *args], check=True, capture_output=True,
                         text=not stdout_bytes).stdout
    return out if stdout_bytes else out.strip()


def working_tree_tar() -> bytes:
    buf = io.BytesIO()
    with tarfile.open(fileobj=buf, mode="w") as tar:
        for path in git("ls-files", "-z").split("\0"):
            if path and os.path.lexists(os.path.join(ROOT, path)):
                tar.add(os.path.join(ROOT, path), arcname=path, recursive=False)
    return buf.getvalue()


def unpack(tar_bytes: bytes, label: str) -> str:
    tree = tempfile.mkdtemp(prefix=f"pairs_{label}_")
    with tarfile.open(fileobj=io.BytesIO(tar_bytes)) as tar:
        tar.extractall(tree)
    return tree


def run_bench(tree: str, bench: dict, workload: str, seed: int) -> dict:
    """One benchmark run in tree; the metrics, digests and host lines it printed."""
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    if cmd[0] in ("python", "python3"):
        cmd[0] = sys.executable
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    run = {"seed": seed, "exit": proc.returncode}
    for line in proc.stdout.splitlines():
        key, _, rest = line.partition(" ")
        if key == "env":
            run["env"] = json.loads(rest)
        elif key == "log_sha256":
            run["log_sha256"] = rest
        elif key == "sim_counts":
            run["sim_counts"] = json.loads(rest)
        elif line.startswith("{"):
            result = json.loads(line)
            run["correct"] = result["correct"]
            run["metrics"] = {k: v["value"] for k, v in result["metrics"].items()}
    if proc.returncode != 0 or "metrics" not in run:
        run["correct"] = False
        run["stderr"] = proc.stderr.strip()[-2000:]
    return run


def summary(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"values": values, "q1": q1, "median": median, "q3": q3}


def compare(metric: dict, parent: list[float], change: list[float]) -> dict:
    sign = 1.0 if metric["better"] == "lower" else -1.0  # positive = worse
    p, c = summary(parent), summary(change)
    worse_by = sign * (c["median"] - p["median"]) / p["median"]
    spread = (p["q3"] - p["q1"]) / p["median"]
    beats_all = max(sign * v for v in change) < min(sign * v for v in parent)
    if worse_by > metric["bound"]:
        verdict = "worse"
    elif spread > metric["bound"] and not beats_all:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {
        "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
        "parent": p, "change": c, "ratio": c["median"] / p["median"],
        "pairs_won": sum(sign * (b - a) < 0 for a, b in zip(parent, change)),
        "verdict": verdict,
    }


def main(parent_ref: str, workload: str, n: int) -> int:
    untracked = git("ls-files", "--others", "--exclude-standard", "--", *WATCHED).splitlines()
    if untracked:
        print("untracked files would be left out of the change tree; add or ignore them: "
              + " ".join(untracked), file=sys.stderr)
        return 2
    parent_sha = git("rev-parse", "--verify", f"{parent_ref}^{{commit}}")
    diff = git("diff", "--binary", parent_sha, stdout_bytes=True)
    control = not git("diff", "--name-only", parent_sha, "--", *BENCH_INPUTS)
    trees = {"parent": unpack(git("archive", "--format=tar", parent_sha, stdout_bytes=True),
                              "parent"),
             "change": unpack(working_tree_tar(), "change")}
    try:
        with open(os.path.join(trees["change"], "BENCHMARK.json")) as f:
            bench = json.load(f)
        runs = {"parent": [], "change": []}
        for i in range(n):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_bench(trees[side], bench, workload, i + 1))
                r = runs[side][-1]
                print(f"pair {i} {side} seed={i + 1} correct={r['correct']} "
                      + " ".join(f"{k}={v:.4g}" for k, v in r.get("metrics", {}).items()),
                      file=sys.stderr, flush=True)
    finally:
        for tree in trees.values():
            shutil.rmtree(tree, ignore_errors=True)

    pairs = list(zip(runs["parent"], runs["change"]))
    ok = all(r["correct"] for side in runs.values() for r in side)
    metrics = {}
    if ok:
        metrics = {m["name"]: compare(m, [p["metrics"][m["name"]] for p, _ in pairs],
                                      [c["metrics"][m["name"]] for _, c in pairs])
                   for m in bench["end_to_end"]}
    env = runs["change"][0].get("env", {})
    report = {
        "workload": workload,
        "parent": parent_sha,
        "change": f"working tree of {git('rev-parse', 'HEAD')}",
        "control": control,
        "diff_sha256": hashlib.sha256(diff).hexdigest(),
        "pairs": n,
        "seeds": [i + 1 for i in range(n)],
        "first": ["parent" if i % 2 == 0 else "change" for i in range(n)],
        "run_seconds": bench["run_seconds"],
        "host": {key: env.get(key) for key in ("nproc", "python", "numpy", "blas",
                                               "blas_threads")},
        "all_runs_correct": ok,
        "log_sha256_equal": all(p.get("log_sha256") == c.get("log_sha256") for p, c in pairs),
        "sim_counts_equal": all(p.get("sim_counts") == c.get("sim_counts") for p, c in pairs),
        "metrics": metrics,
    }
    if not ok:
        report["failed_runs"] = [r for side in runs.values() for r in side if not r["correct"]]
    suffix = "_control" if control else ""
    path = os.path.join(ROOT, f"BENCH_{workload}_{parent_sha[:7]}{suffix}.json")
    with open(path, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    print(path)
    for name, m in metrics.items():
        print(f"{name}: {m['parent']['median']:.4g} -> {m['change']['median']:.4g}"
              f" ({m['ratio']:.3f}x, won {m['pairs_won']}/{n}) {m['verdict']}")
    return 0 if ok else 1


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit("usage: python tools/pairs.py PARENT_REF WORKLOAD N")
    sys.exit(main(sys.argv[1], sys.argv[2], int(sys.argv[3])))
