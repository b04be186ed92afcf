"""Experiment orchestration: configs, presets, commands, logs, and reports.

File formats, all plain text so diff-based oracles stay trivial:
  - experiment configs and run manifests: JSON (unknown keys rejected;
    ExperimentConfig.validate refuses a value whose type is not its field
    default's, from a file or from code)
  - per-step metrics logs and event traces: CSV with a fixed header row
  - evaluation reports: key=value lines, one metric per line
"""

from __future__ import annotations

import csv
import json
import math
import os
import subprocess
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields
from typing import ClassVar, Optional

import numpy as np

from . import __version__
from .constraint import DualConfig
from .env import ACTION_GRIDS, D_TH_US, CoexEnv, coex_mix_preset
from .learner import (
    LearnerConfig,
    Rollout,
    StepLog,
    blas_threads_for,
    greedy_rollout,
    load_policy,
    run_training,
    save_policy,
)


COUNT_KEYS = ("gnb_pc1", "gnb_pc3", "ap_pc3")  # coex_mix node counts, by preset argument


@dataclass
class ExperimentConfig:
    """Fully validated experiment description (full-scale training values as defaults)."""

    scenario: ClassVar[str] = "coex_mix"  # the one preset; policy artifacts record it
    action_mode: str = "cw"
    cr_lbt: bool = False
    scaling: bool = True
    seed: int = 0
    episodes: int = 10_000
    eval_episodes: int = 50
    d_th_us: float = D_TH_US
    out_dir: str = "runs/default"
    counts: dict = field(default_factory=lambda: {"gnb_pc1": 1, "gnb_pc3": 1, "ap_pc3": 1})
    learner: LearnerConfig = field(default_factory=LearnerConfig)
    hard_episode_resets: bool = False

    @property
    def dual(self) -> DualConfig:
        """The dual's settings, which no run varies: DualConfig's defaults."""
        return DualConfig()

    def validate(self) -> None:
        """Every config rule, for a config from a file or from code: each field
        and learner field has its default's type, then each value its range."""
        for prefix, section in (("", self), ("learner: ", self.learner)):
            for f in fields(section):
                value = getattr(section, f.name)
                default = f.default if f.default is not MISSING else f.default_factory()
                if not _well_typed(value, default):
                    raise ConfigFileError(f"{prefix}wrong type for {f.name!r}: {value!r}")
        if self.action_mode not in ACTION_GRIDS:
            raise ConfigFileError(f"action_mode must be {'/'.join(ACTION_GRIDS)},"
                                  f" got {self.action_mode!r}")
        if self.episodes < 1:
            raise ConfigFileError(f"episodes must be >= 1, got {self.episodes}")
        if self.eval_episodes < 1:
            raise ConfigFileError(f"eval_episodes must be >= 1, got {self.eval_episodes}")
        if self.d_th_us <= 0:
            raise ConfigFileError("d_th_us must be > 0")
        if self.seed < 0:
            raise ConfigFileError(f"seed must be >= 0, got {self.seed}")
        unknown = set(self.counts) - set(COUNT_KEYS)
        if unknown:
            raise ConfigFileError(f"unknown scenario count keys: {sorted(unknown)}")
        for key, value in self.counts.items():
            if not _is_int(value, 0):
                raise ConfigFileError(f"counts: {key} must be an int >= 0, got {value!r}")
        if not any(self.node_counts().values()):
            raise ConfigFileError("counts: a coex_mix needs at least one node, all three are 0")
        try:
            self.learner.validate()
        except ValueError as e:
            raise ConfigFileError(f"learner: {e}") from e

    def node_counts(self) -> dict:
        """The coex_mix node counts; a count the config leaves out is 1."""
        return {key: self.counts.get(key, 1) for key in COUNT_KEYS}

    def artifact_config(self) -> dict:
        """The ARTIFACT_CONFIG_KEYS values a policy artifact records and
        evaluation must match, with counts as the node mix they build."""
        return {key: self.node_counts() if key == "counts" else getattr(self, key)
                for key in ARTIFACT_CONFIG_KEYS}

    def build_env(self) -> CoexEnv:
        return CoexEnv(coex_mix_preset(**self.node_counts()), action_mode=self.action_mode,
                       cr_lbt=self.cr_lbt, d_th_us=self.d_th_us)


class ConfigFileError(ValueError):
    """Raised on unparseable configs, unknown keys, or invalid values."""


# config fields a policy artifact records at training and evaluation must match
ARTIFACT_CONFIG_KEYS = ("action_mode", "scenario", "counts", "cr_lbt", "scaling", "d_th_us")


def _is_int(value, lo: Optional[int] = None) -> bool:
    return (isinstance(value, int) and not isinstance(value, bool)
            and (lo is None or value >= lo))


def _well_typed(value, default) -> bool:
    """Whether value fits a field whose default is default. A float field takes
    an int or a float within the finite float range: not the NaN or Infinity
    that json.load accepts, nor an int too large to convert to a float."""
    if isinstance(default, bool):
        return isinstance(value, bool)
    if isinstance(default, int):
        return _is_int(value)
    if isinstance(default, float):
        return (_is_int(value) or isinstance(value, float)) and abs(value) <= sys.float_info.max
    if isinstance(default, tuple):  # hidden_layers
        return isinstance(value, tuple) and all(map(_is_int, value))
    return isinstance(value, type(default))


def _from_dict(cls, data: dict, context: str):
    if not isinstance(data, dict):
        raise ConfigFileError(f"{context} must be a JSON object, got {data!r}")
    unknown = set(data) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigFileError(f"unknown key {sorted(unknown)[0]!r} in {context}")
    return cls(**{key: tuple(value) if isinstance(value, list) else value
                  for key, value in data.items()})


def config_from_dict(data: dict) -> ExperimentConfig:
    data = dict(data)
    learner = _from_dict(LearnerConfig, data.pop("learner", {}), "learner")
    cfg = _from_dict(ExperimentConfig, data, "experiment config")
    cfg.learner = learner
    cfg.validate()
    return cfg


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as f:
            data = json.load(f)
    except json.JSONDecodeError as e:
        raise ConfigFileError(f"config {path} is not valid JSON: {e}") from e
    if not isinstance(data, dict):
        raise ConfigFileError(f"config {path} must hold a JSON object")
    return config_from_dict(data)


# ----------------------------------------------------------------------
# log and report files

def write_step_log(path: str, rows: list[StepLog]) -> None:
    """CSV with a header row and CRLF line ends, the bytes csv.writer gives: no value
    holds a comma, quote or newline, and str of a float is its repr."""
    with open(path, "w", newline="") as f:
        f.write(",".join(StepLog._fields) + "\r\n")
        f.writelines(",".join(map(str, r)) + "\r\n" for r in rows)


def read_step_log(path: str) -> list[dict]:
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        out = []
        for row in reader:
            parsed = {}
            for k, v in row.items():
                if k in ("episode", "step", "action"):
                    parsed[k] = int(v)
                else:
                    parsed[k] = float(v)
            out.append(parsed)
        return out


def _git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], capture_output=True, text=True,
                          cwd=os.path.dirname(__file__), timeout=5)


def code_version() -> str:
    """The git HEAD, with "+dirty" when tracked files have local edits."""
    try:
        rev = _git("rev-parse", "HEAD")
        if rev.returncode == 0:
            status = _git("status", "--porcelain", "--untracked-files=no")
            dirty = status.returncode == 0 and status.stdout.strip()
            return rev.stdout.strip() + ("+dirty" if dirty else "")
    except (OSError, subprocess.TimeoutExpired):
        pass
    return f"coexctl-{__version__}"


def write_manifest(path: str, cfg: ExperimentConfig) -> None:
    env = cfg.build_env()
    dims = [env.observation_dim, *cfg.learner.hidden_layers, env.n_actions]
    manifest = {
        "config": asdict(cfg),
        "seed": cfg.seed,
        "code_version": code_version(),
        # the thread count training runs at: it moves speed, not results
        "blas_threads": blas_threads_for(dims, cfg.learner.batch_size),
    }
    with open(path, "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


@dataclass
class EvalReport:
    """Per-node and aggregate evaluation quantities (delays in milliseconds)."""

    # the metric names in file order; a per-node metric has a row per node
    AGGREGATES: ClassVar[tuple] = ("d_th_ms", "mean_pc1_delay_ms", "p95_pc1_delay_ms",
                                   "mean_jfi", "violation_fraction")
    PER_NODE: ClassVar[tuple] = ("collision_probability", "airtime_efficiency")

    nodes: list
    collision_probability: dict
    airtime_efficiency: dict
    mean_pc1_delay_ms: float
    p95_pc1_delay_ms: float
    mean_jfi: float
    violation_fraction: float
    d_th_ms: float

    def metrics(self) -> dict[str, float]:
        """The report's rows, keyed and ordered as in the file."""
        rows = {key: getattr(self, key) for key in self.AGGREGATES}
        for metric in self.PER_NODE:
            rows.update((f"{metric}[{n}]", getattr(self, metric)[n]) for n in self.nodes)
        return rows

    def to_lines(self) -> list[str]:
        return [f"{key}={value}" for key, value in self.metrics().items()]

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            f.write("\n".join(self.to_lines()) + "\n")


def read_report(path: str) -> EvalReport:
    """Parse a report file; a malformed, repeated, unknown, missing or non-finite
    value is refused, and so is an empty node label and a per-node metric
    without rows or whose nodes differ from the first per-node metric's."""
    scalars: dict[str, float] = {}
    per_node: dict[str, dict[str, float]] = {metric: {} for metric in EvalReport.PER_NODE}
    seen: set[str] = set()
    with open(path) as f:
        for number, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{number}: report line without '=': {line!r}")
            key, value = line.split("=", 1)
            if key in seen:
                raise ValueError(f"{path}:{number}: repeated report key {key!r}: {line!r}")
            seen.add(key)
            try:
                parsed = float(value)
            except ValueError:
                raise ValueError(f"{path}:{number}: report value is not a number: {line!r}") from None
            if not math.isfinite(parsed):
                raise ValueError(f"{path}:{number}: non-finite report value: {line!r}")
            metric, _, node = key.partition("[")
            if metric in per_node:
                if not node.endswith("]"):
                    raise ValueError(f"{path}:{number}: per-node report line without ']': {line!r}")
                if node == "]":
                    raise ValueError(f"{path}:{number}: per-node report line with an empty"
                                     f" node label: {line!r}")
                per_node[metric][node[:-1]] = parsed
            elif key in EvalReport.AGGREGATES:
                scalars[key] = parsed
            else:
                raise ValueError(f"{path}:{number}: unknown report key {key!r}: {line!r}")
    for key in EvalReport.AGGREGATES:
        if key not in scalars:
            raise ValueError(f"{path}: report lacks {key}")
    first = EvalReport.PER_NODE[0]
    nodes = set(per_node[first])
    for metric, rows in per_node.items():
        if not rows:
            raise ValueError(f"{path}: report has no {metric} rows")
        if set(rows) != nodes:
            only_first = ", ".join(sorted(nodes - set(rows))) or "none"
            only_here = ", ".join(sorted(set(rows) - nodes)) or "none"
            raise ValueError(f"{path}: {first} and {metric} list different nodes"
                             f" (only in {first}: {only_first}; only in {metric}: {only_here})")
    return EvalReport(nodes=list(per_node[first]), **per_node, **scalars)


def node_display_label(sim_name: str, all_names: list[str]) -> str:
    """Map simulator node ids to display row labels (gNB PC1, AP PC3)."""
    tech, pclass, idx = sim_name.split("_")
    side = "gNB" if tech == "nru" else "AP"
    label = f"{side} {pclass.upper()}"
    same_class = [n for n in all_names if n.rsplit("_", 1)[0] == sim_name.rsplit("_", 1)[0]]
    if len(same_class) > 1:
        label += f" #{idx}"
    return label


def report_from_rollout(rollout: Rollout, d_th_us: float) -> EvalReport:
    """The report of a rollout: each node's NodeStats ratios over the whole
    rollout under its display label, and aggregates over the step log. The
    p95 is the nearest rank, the ceil(0.95 n)-th smallest of the n delays."""
    names = list(rollout.stats)
    stats = {node_display_label(n, names): s for n, s in rollout.stats.items()}
    delays = [entry.delay_smooth_us for entry in rollout.log]
    return EvalReport(
        nodes=list(stats),
        collision_probability={label: s.collision_probability() for label, s in stats.items()},
        airtime_efficiency={label: s.airtime_efficiency() for label, s in stats.items()},
        mean_pc1_delay_ms=float(np.mean(delays)) / 1000.0,
        p95_pc1_delay_ms=float(np.percentile(delays, 95, method="inverted_cdf")) / 1000.0,
        mean_jfi=float(np.mean([entry.jfi for entry in rollout.log])),
        violation_fraction=sum(d > d_th_us for d in delays) / len(delays),
        d_th_ms=d_th_us / 1000.0,
    )


# ----------------------------------------------------------------------
# commands

def cmd_train(cfg: ExperimentConfig) -> tuple[str, str]:
    """Run training; write the policy artifact, step log, and manifest.

    Returns (artifact_path, log_path).
    """
    cfg.validate()
    os.makedirs(cfg.out_dir, exist_ok=True)
    env = cfg.build_env()
    dual = cfg.dual.controller()
    result = run_training(
        env, dual, cfg.learner, seed=cfg.seed, scaling=cfg.scaling, episodes=cfg.episodes,
        hard_episode_resets=cfg.hard_episode_resets,
    )
    artifact_path = os.path.join(cfg.out_dir, "policy.bin")
    log_path = os.path.join(cfg.out_dir, "train_log.csv")
    save_policy(
        artifact_path,
        result.learner,
        meta={**cfg.artifact_config(), "seed": cfg.seed, "episodes": cfg.episodes},
    )
    write_step_log(log_path, result.log)
    write_manifest(os.path.join(cfg.out_dir, "manifest.json"), cfg)
    return artifact_path, log_path


def cmd_evaluate(artifact_path: str, cfg: ExperimentConfig) -> EvalReport:
    """Greedy rollout of a stored policy with online dual updates only.

    The artifact must have been trained under the same artifact_config() as
    cfg; a mismatch raises ConfigFileError instead of running.
    """
    cfg.validate()
    artifact = load_policy(artifact_path)
    env = cfg.build_env()
    if artifact.obs_dim != env.observation_dim or artifact.n_actions != env.n_actions:
        raise ConfigFileError(
            f"artifact dimensions (obs={artifact.obs_dim}, actions={artifact.n_actions}) do not"
            f" match config (obs={env.observation_dim}, actions={env.n_actions})"
        )
    for key, value in cfg.artifact_config().items():
        trained = artifact.meta.get(key)
        if trained != value:
            raise ConfigFileError(
                f"artifact was trained with {key}={trained!r} but the config has {key}={value!r}"
            )
    return _report_rollout(cfg, env, artifact.network(), cfg.dual.controller(), "eval")


def cmd_baseline(cfg: ExperimentConfig) -> EvalReport:
    """Static default MAC parameters, no learning, no dual updates."""
    cfg.validate()
    return _report_rollout(cfg, cfg.build_env(), None, None, "baseline")


def _report_rollout(cfg: ExperimentConfig, env: CoexEnv, q_net, dual, name: str) -> EvalReport:
    """Greedy rollout of env over cfg.eval_episodes; writes <name>_report.txt and
    <name>_log.csv to cfg.out_dir. The output directory is made first, so a bad
    one fails before any simulation."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    rollout = greedy_rollout(env, q_net, dual, episodes=cfg.eval_episodes, seed=cfg.seed,
                             scaling=cfg.scaling)
    report = report_from_rollout(rollout, cfg.d_th_us)
    report.write(os.path.join(cfg.out_dir, f"{name}_report.txt"))
    write_step_log(os.path.join(cfg.out_dir, f"{name}_log.csv"), rollout.log)
    return report


def cmd_compare(report_paths: list[str]) -> str:
    """Side-by-side table of >= 2 reports with signed deltas against the first."""
    if len(report_paths) < 2:
        raise ValueError("compare needs at least two reports")
    reports = [read_report(p) for p in report_paths]
    base = reports[0]
    for i, r in enumerate(reports[1:], start=1):
        if set(r.nodes) != set(base.nodes):
            raise ValueError(
                f"node sets differ between {report_paths[0]} and {report_paths[i]}"
            )
    labels = [os.path.basename(p) for p in report_paths]
    tables = [r.metrics() for r in reports]
    rows = [(key, [table[key] for table in tables]) for key in tables[0]]

    width = max(len(r[0]) for r in rows)
    header = ["metric".ljust(width)] + [f"{l:>14}" for l in labels]
    header += [f"{'d(' + l + ')':>14}" for l in labels[1:]]
    lines = ["  ".join(header)]
    for name, values in rows:
        cells = [name.ljust(width)] + [f"{v:14.6f}" for v in values]
        cells += [f"{v - values[0]:+14.6f}" for v in values[1:]]
        lines.append("  ".join(cells))
    return "\n".join(lines) + "\n"


def cmd_trace(cfg: ExperimentConfig, duration_us: int, out_path: str) -> int:
    """Export the raw event trace of a fixed-parameter run as CSV.

    Returns the number of records written.
    """
    cfg.validate()
    env = cfg.build_env()
    env.reset(seed=cfg.seed)
    outcomes = env.sim.run_for(duration_us)
    names = env.sim.node_names()
    with open(out_path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["t_start", "t_end", "node", "tech", "class", "kind", "delay"])
        for o in outcomes:
            w.writerow([
                o.start_us, o.end_us, names[o.node], o.tech.value, o.pclass.value, o.kind.value,
                o.access_delay_us if o.access_delay_us is not None else "",
            ])
    return len(outcomes)
