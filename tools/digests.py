"""Print the SHA-256 of a fixed set of train/evaluate/baseline artifacts.

    python tools/digests.py OUT_DIR

Runs `cmd_train`, `cmd_evaluate` and `cmd_baseline` on `configs/smoke.json`
as-is, on `configs/desk_cw.json` with 20 training and 5 evaluation episodes,
and on `configs/desk_cw.json` turned into the dense CR-LBT mix (`dense_cr`:
aifsn actions, 2+3+3 nodes, same episode counts), each with scaling on and
off, writing into OUT_DIR/<run>/. Prints one `name sha256` line per step log,
report and `policy.bin` (36 in all).
A refactor that must not change results prints the same lines before and
after. The float64 results depend on the BLAS build, so compare digests
made on the same machine.
"""

from __future__ import annotations

import hashlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from coexctl.harness import cmd_baseline, cmd_evaluate, cmd_train, load_config  # noqa: E402

# (run name, config file, train episodes, eval episodes, config overrides);
# None keeps the config's value
DENSE_CR = {"cr_lbt": True, "action_mode": "aifsn",
            "counts": {"gnb_pc1": 2, "gnb_pc3": 3, "ap_pc3": 3}}
RUNS = (
    ("smoke", "smoke.json", None, None, {}),
    ("desk_cw", "desk_cw.json", 20, 5, {}),
    ("dense_cr", "desk_cw.json", 20, 5, DENSE_CR),
)
FILES = ("train_log.csv", "eval_log.csv", "baseline_log.csv", "eval_report.txt",
         "baseline_report.txt", "policy.bin")


def sha256(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def main(out_dir: str) -> None:
    for name, config, episodes, eval_episodes, overrides in RUNS:
        for scaling in (True, False):
            run = f"{name}_{'on' if scaling else 'off'}"
            cfg = load_config(os.path.join(ROOT, "configs", config))
            for key, value in overrides.items():
                setattr(cfg, key, value)
            cfg.scaling = scaling
            cfg.out_dir = os.path.join(out_dir, run)
            if episodes is not None:
                cfg.episodes = episodes
                cfg.eval_episodes = eval_episodes
            artifact, _ = cmd_train(cfg)
            cmd_evaluate(artifact, cfg)
            cmd_baseline(cfg)
            for file in FILES:
                print(f"{run}/{file} {sha256(os.path.join(cfg.out_dir, file))}", flush=True)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tools/digests.py OUT_DIR")
    main(sys.argv[1])
