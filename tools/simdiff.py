"""Compare the working tree's channel simulator with the one at a git revision.

    python tools/simdiff.py REF N

Loads `git show REF:src/coexctl/medium.py` as a standalone module (the file
imports nothing from the package) and runs N seeded random scenarios through
both `Simulator`s. A scenario draws a contender mix, `cr_lbt` and a run of
windows of random length, each preceded by a random assignment of `aifsn`,
`cw_max` and `mcot_us` per (tech, class). About half the `mcot_us` values, in
the mix and in the assignments, are short, 5 to 1000 us, and the rest are
multiples of 500 us up to 4000; a short frame can end before the next boundary,
so a boundary fire whose commits were all aborted can meet an idle channel. The
channel timings are the module's constants, except `CR_SLOT_COUNT`: each
scenario draws it from {5, 27} and sets it on both modules. Both values meet
the train invariants of the module docstring. With 27 pulses a commit's listen
tail, from its last pulse end to the boundary, is shorter than 27 us, and 3000
scenarios at 27 abort one commit there, the others at a train's listen check or
with no pulses; 5 pulses leave a tail of up to 418 us, where frames and other
trains abort many commits. `cw_min` stays at each node's starting value, as in
the environment's cw mode. A drawn entry with a count of k becomes k contender
configs, one per node. Both simulators are built with the working tree's
arguments, so an older revision's extra parameters keep their defaults. After
every window it compares the outcomes, `clock`, `occupied_us_at()`, every
node's `NodeStats`, its backoff state, its life-cycle `state`, `pending_at` and
`anchor`, and the access timer `_access_at`, so a stale timer shows before it
changes an outcome. It prints the first mismatch and exits 1. A refactor that
must not change the simulator's results reports 0 mismatches.
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from dataclasses import astuple

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from coexctl import medium as new  # noqa: E402

POW2M1 = [0, 1, 3, 7, 15, 31, 63, 127, 255]


def load_ref(ref: str):
    source = subprocess.run(["git", "-C", ROOT, "show", f"{ref}:src/coexctl/medium.py"],
                            check=True, capture_output=True, text=True).stdout
    spec = importlib.util.spec_from_loader("simdiff_ref_medium", loader=None)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    exec(compile(source, f"{ref}:src/coexctl/medium.py", "exec"), module.__dict__)
    return module


def draw_mcot(rng: np.random.Generator) -> int:
    if rng.random() < 0.5:
        return int(rng.integers(5, 1001))  # short: can end before the next boundary
    return 500 * int(rng.integers(1, 9))


def draw_scenario(rng: np.random.Generator) -> dict:
    keys = [(tech, pclass) for tech in ("NRU", "WIFI") for pclass in ("PC1", "PC3")]
    mix = []
    for _ in range(int(rng.integers(1, 6))):
        lo, hi = sorted(int(v) for v in rng.choice(POW2M1[:6], 2))
        mix.append({"key": keys[int(rng.integers(len(keys)))], "aifsn": int(rng.integers(1, 8)),
                    "cw_min": lo, "cw_max": hi, "mcot_us": draw_mcot(rng),
                    "count": int(rng.integers(1, 4))})
    windows = []
    for _ in range(int(rng.integers(1, 13))):
        assignment = {}
        for key in keys:
            members = [c for c in mix if c["key"] == key]
            if not members or rng.random() < 0.4:
                continue
            floor = max(c["cw_min"] for c in members)
            assignment[key] = {"aifsn": int(rng.integers(1, 8)),
                               "cw_max": int(rng.choice([v for v in POW2M1 if v >= floor])),
                               "mcot_us": draw_mcot(rng)}
        windows.append((assignment, int(rng.integers(1, 5001))))
    return {
        "mix": mix,
        "cr_lbt": bool(rng.random() < 0.6),
        "seed": int(rng.integers(2**16)),
        "windows": windows,
        "cr_slot_count": int(rng.choice([5, 27])),
    }


def build(mod, sc: dict):
    mod.CR_SLOT_COUNT = sc["cr_slot_count"]
    contenders = [mod.ContenderConfig(mod.Tech(c["key"][0]), mod.PClass(c["key"][1]),
                                      c["aifsn"], c["cw_min"], c["cw_max"], c["mcot_us"])
                  for c in sc["mix"] for _ in range(c["count"])]
    return mod.Simulator(contenders, cr_lbt_enabled=sc["cr_lbt"], seed=sc["seed"])


def state(mod, sim, assignment: dict, duration: int):
    """Run one window and return everything the two simulators must agree on."""
    sim.apply_mac_params({(mod.Tech(tech), mod.PClass(pclass)): dict(params)
                          for (tech, pclass), params in assignment.items()})
    out = [(o.node, o.kind.value, o.start_us, o.end_us, o.access_delay_us)
           for o in sim.run_for(duration)]
    nodes = [(astuple(n.stats), n.backoff, n.cw_current, n.hol_since_us, n.state, n.pending_at,
              n.anchor) for n in sim.nodes]
    return {"outcomes": out, "clock": sim.clock, "occupied": sim.occupied_us_at(),
            "nodes": nodes, "access_at": sim._access_at}


def main(ref: str, n: int) -> int:
    old = load_ref(ref)
    windows = 0
    for i in range(n):
        sc = draw_scenario(np.random.default_rng(i))
        sims = build(old, sc), build(new, sc)
        for w, (assignment, duration) in enumerate(sc["windows"]):
            a, b = (state(mod, sim, assignment, duration) for mod, sim in zip((old, new), sims))
            windows += 1
            if a != b:
                print(f"mismatch in scenario {i}, window {w}: {sc}")
                for key in a:
                    if a[key] != b[key]:
                        print(f"  {key}\n    {ref}: {a[key]}\n    working tree: {b[key]}")
                return 1
    print(f"{n} scenarios ({windows} windows), 0 mismatches against {ref}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: python tools/simdiff.py REF N")
    sys.exit(main(sys.argv[1], int(sys.argv[2])))
