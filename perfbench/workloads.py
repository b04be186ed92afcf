"""The benchmark's workloads: a bundled config plus overrides, run as a closed loop.

Every workload is one single-threaded control loop in its own process: each
2.5 ms control step starts only after the previous one has ended, so a slower
system simply completes fewer steps per host second.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "train" (run_training) or "eval" (greedy_rollout of a saved policy)
    config: str  # bundled config, relative to the repository root
    overrides: dict = field(default_factory=dict)
    learner_overrides: dict = field(default_factory=dict)
    # episodes (100 control steps each) run by one worker process; the smoke
    # value is the least that still exercises the same shape and code path
    episodes: int = 1
    smoke_episodes: int = 1


WORKLOADS = {
    # Learner per-call overhead dominates: a 2x128 network at batch 64 costs
    # about 1 ms per train_step against about 0.1 ms in the simulator.
    "desk_train": Workload(
        "desk_train", "train", "configs/desk_cw.json",
        overrides={"cr_lbt": False, "counts": {"gnb_pc1": 1, "gnb_pc3": 1, "ap_pc3": 1}},
        learner_overrides={"hidden_layers": (128, 128), "batch_size": 64},
        episodes=20, smoke_episodes=1,
    ),
    # GEMM- and memory-bound learner at the paper's full shape; three episodes
    # are the fewest that get past the 256-step buffer warm-up.
    "full_train": Workload(
        "full_train", "train", "configs/full_scale.json",
        episodes=3, smoke_episodes=3,
    ),
    # Simulator-bound greedy evaluation: eight nodes with CR-LBT push about
    # 50x more heap events per step than desk_train, and the learner only
    # runs a batch-1 forward pass.
    "dense_cr_eval": Workload(
        "dense_cr_eval", "eval", "configs/desk_cw.json",
        overrides={
            "cr_lbt": True, "action_mode": "aifsn",
            "counts": {"gnb_pc1": 2, "gnb_pc3": 3, "ap_pc3": 3},
        },
        learner_overrides={"hidden_layers": (128, 128)},
        episodes=30, smoke_episodes=1,
    ),
}


def configure(cfg, workload: Workload, seed: int):
    """Apply the workload's overrides and the seed to a loaded ExperimentConfig."""
    for key, value in workload.overrides.items():
        setattr(cfg, key, dict(value) if isinstance(value, dict) else value)
    cfg.learner = dataclasses.replace(cfg.learner, **workload.learner_overrides)
    cfg.seed = seed
    cfg.validate()
    return cfg
