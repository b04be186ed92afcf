"""Command-line front end: train, evaluate, baseline, compare, trace."""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from .env import ACTION_GRIDS
from .harness import (
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
    p.add_argument("--action-mode", choices=list(ACTION_GRIDS), help="controlled parameter")
    p.add_argument("--cr-lbt", choices=["on", "off"], help="collision-resolution LBT")
    p.add_argument("--scaling", choices=["on", "off"], help="violation scaling pipeline")
    p.add_argument("--out", dest="out_dir", help="output directory")


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    """The config file's values (or the defaults), then each flag that was
    given: a flag's dest is the name of the field it sets."""
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    for f in fields(cfg):
        value = getattr(args, f.name, None)
        if value is not None:
            setattr(cfg, f.name, value == "on" if isinstance(f.default, bool) else value)
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
    except (ValueError, OSError) as e:  # a ConfigFileError is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
