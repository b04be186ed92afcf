"""Spans around coexctl's public entry points, recorded from outside the package.

Each wrapper is installed where the entry point is looked up by its caller:
`env` and `learner` import `augment_state` and `constraint_signals` by name,
so those module attributes are replaced; `env` reaches the metrics layer
through its `met` module reference, so that reference is swapped for a
namespace holding wrapped functions; methods are wrapped on their classes.
Spans stay in memory and are written out once the workload has finished.
Installing is process-wide, which is why only a worker process installs it.
"""

from __future__ import annotations

import csv
import functools
import itertools
import time
import types

from coexctl import constraint, env, learner, medium, metrics
from perfbench.analysis import SPAN_FIELDS

# (owner, attribute, span name); the layer is the span name's first component
METHOD_SPANS = (
    (medium.Simulator, "run_for", "medium.run_for"),
    (medium.Simulator, "apply_mac_params", "medium.apply_mac_params"),
    (medium.Simulator, "stats_snapshot", "medium.stats_snapshot"),
    (env.CoexEnv, "reset", "env.reset"),
    (env.CoexEnv, "step", "env.step"),
    (constraint.DualController, "observe", "constraint.observe"),
    (constraint.DualController, "dual_update", "constraint.dual_update"),
    (learner.QLearner, "act", "learner.act"),
    (learner.QLearner, "train_step", "learner.train_step"),
    (learner.QLearner, "sync_target", "learner.sync_target"),
    (learner.MLP, "forward", "learner.forward"),
    (learner.MLP, "forward_cached", "learner.forward"),
    (learner.MLP, "backward", "learner.backward"),
    (learner.Adam, "step", "learner.adam"),
    (learner.ReplayBuffer, "push", "learner.buffer_push"),
    (learner.ReplayBuffer, "sample", "learner.buffer_sample"),
)
FUNCTION_SPANS = (
    (learner, "constraint_signals", "constraint.constraint_signals"),
    (learner, "augment_state", "constraint.augment_state"),
    (env, "augment_state", "constraint.augment_state"),
)
METRICS_SPANS = (
    ("step_metrics", "metrics.step_metrics"),
    ("build_observation", "metrics.build_observation"),
)


class Tracer:
    """In-memory span recorder: (id, name, start, end, parent) with parent -1 at top level."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.outcomes: list[tuple] = []  # (span id, run_for result list)
        self._stack: list[int] = []
        self._ids = itertools.count()

    def wrap(self, name: str, fn, keep_result: bool = False):
        spans, stack, ids, outcomes = self.spans, self._stack, self._ids, self.outcomes
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, name, t0, t1, parent))
            if keep_result:
                outcomes.append((sid, result))
            return result

        return traced

    def install(self) -> None:
        for owner, attr, name in METHOD_SPANS:
            fn = getattr(owner, attr)
            setattr(owner, attr, self.wrap(name, fn, keep_result=(name == "medium.run_for")))
        for module, attr, name in FUNCTION_SPANS:
            setattr(module, attr, self.wrap(name, getattr(module, attr)))
        met = types.SimpleNamespace(**vars(metrics))
        for attr, name in METRICS_SPANS:
            setattr(met, attr, self.wrap(name, getattr(metrics, attr)))
        env.met = met

    def outcome_counts(self) -> tuple[dict[int, int], dict[str, int]]:
        """Outcomes per run_for span, and exact totals by outcome kind."""
        per_span: dict[int, int] = {}
        totals = {kind.value: 0 for kind in medium.TxKind}
        for sid, result in self.outcomes:
            per_span[sid] = len(result)
            for o in result:
                totals[o.kind.value] += 1
        return per_span, totals

    def write(self, path: str) -> dict[str, int]:
        """Write every span as CSV; returns the outcome totals by kind."""
        per_span, totals = self.outcome_counts()
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(SPAN_FIELDS)
            for sid, name, start, end, parent in self.spans:
                w.writerow([sid, name, repr(start), repr(end), parent, per_span.get(sid, "")])
        return totals

