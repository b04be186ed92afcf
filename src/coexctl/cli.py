"""Command-line front end: train, evaluate, baseline, compare, trace."""

from __future__ import annotations

import argparse
import sys

from .harness import (
    ConfigFileError,
    ExperimentConfig,
    cmd_baseline,
    cmd_compare,
    cmd_evaluate,
    cmd_train,
    cmd_trace,
    load_config,
)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="experiment config JSON")
    p.add_argument("--seed", type=int, help="override config seed")
    p.add_argument("--action-mode", choices=["cw", "aifsn", "mcot"], help="controlled parameter")
    p.add_argument("--cr-lbt", choices=["on", "off"], help="collision-resolution LBT")
    p.add_argument("--scaling", choices=["on", "off"], help="violation scaling pipeline")
    p.add_argument("--out", help="output directory")


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    if args.seed is not None:
        cfg.seed = args.seed
    if getattr(args, "episodes", None) is not None:
        cfg.episodes = args.episodes
    if getattr(args, "eval_episodes", None) is not None:
        cfg.eval_episodes = args.eval_episodes
    if args.action_mode is not None:
        cfg.action_mode = args.action_mode
    if args.cr_lbt is not None:
        cfg.cr_lbt = args.cr_lbt == "on"
    if args.scaling is not None:
        cfg.scaling = args.scaling == "on"
    if args.out is not None:
        cfg.out_dir = args.out
    cfg.validate()
    return cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="coexctl",
        description="NR-U/Wi-Fi coexistence experiments with a constrained Q-learning controller",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a policy and write the artifact + log")
    _add_common(p_train)
    p_train.add_argument("--episodes", type=int, help="override training episode count")

    p_eval = sub.add_parser("evaluate", help="greedy rollout of a stored policy")
    p_eval.add_argument("artifact", help="policy artifact path")
    _add_common(p_eval)
    p_eval.add_argument("--eval-episodes", type=int, help="override evaluation episode count")

    p_base = sub.add_parser("baseline", help="fixed default-parameter rollout")
    _add_common(p_base)
    p_base.add_argument("--eval-episodes", type=int, help="override evaluation episode count")

    p_cmp = sub.add_parser("compare", help="side-by-side report comparison with deltas")
    p_cmp.add_argument("reports", nargs="+", help=">= 2 report files")

    p_trace = sub.add_parser("trace", help="export the raw event trace as CSV")
    _add_common(p_trace)
    p_trace.add_argument("--duration-us", type=int, default=1_000_000)
    p_trace.add_argument("--trace-out", default="trace.csv")

    args = parser.parse_args(argv)
    try:
        if args.command == "train":
            cfg = _build_config(args)
            artifact, log = cmd_train(cfg)
            print(f"artifact: {artifact}")
            print(f"log: {log}")
        elif args.command == "evaluate":
            cfg = _build_config(args)
            report = cmd_evaluate(args.artifact, cfg)
            print("\n".join(report.to_lines()))
        elif args.command == "baseline":
            cfg = _build_config(args)
            report = cmd_baseline(cfg)
            print("\n".join(report.to_lines()))
        elif args.command == "compare":
            print(cmd_compare(args.reports), end="")
        elif args.command == "trace":
            cfg = _build_config(args)
            n = cmd_trace(cfg, args.duration_us, args.trace_out)
            print(f"wrote {n} records to {args.trace_out}")
    except (ConfigFileError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
