#!/usr/bin/env python3
"""Scale curve: covkb on seeded synthetic pools of growing size.

For each checkout and pool size, generates the pool with that checkout's
`perfbench/synth.write_pool` (pool seed 11, `arrival_p = 1.0`), runs the
scenario once untimed by a profiler (run seed 5) and once under cProfile,
and records:

- wall time per step of the plain run
- the final node count and the `full` and `reduced` edge counts
- cumulative cProfile seconds in `compute_table`, `compute_permanence`,
  `insert_rule` and `covers_pair` (0 where a checkout lacks the function),
  and the number of `covers_pair` calls
- the sha256 of `steps.csv` and `state.snapshot`, which must agree
  between checkouts at each size

Compare two commits by exporting each into its own directory:

    python3 scripts/scale_curve.py --checkout parent=DIR --checkout change=DIR \\
        --out BENCH_scale.json

Each (checkout, size) runs in a fresh interpreter that imports covkb from
that checkout's `src/`.  The 8,000-clause size takes minutes per run.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import json
import os
import platform
import pstats
import subprocess
import sys
import tempfile
import time

# pool clauses -> (capacity, steps)
SIZES = {800: (250, 200), 3000: (1500, 600), 8000: (4000, 1500)}
POOL_SEED = 11
RUN_SEED = 5
PROFILED = ("compute_table", "compute_permanence", "insert_rule", "covers_pair")


def measure(root: str, size: int, work: str) -> dict:
    """One checkout at one size; runs inside the worker interpreter."""
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    import synth
    from covkb import harness

    capacity, steps = SIZES[size]
    pool_dir = os.path.join(work, "pool")
    synth.write_pool(pool_dir, POOL_SEED, size=size, steps=steps,
                     capacity=capacity, arrival_p=1.0)
    cfg = harness.load_scenario(os.path.join(pool_dir, "synth.scn"))

    plain = os.path.join(work, "plain")
    start = time.perf_counter()
    _, state = harness.run_scenario(cfg, out_dir=plain, seed=RUN_SEED)
    wall = time.perf_counter() - start

    profile = cProfile.Profile()
    profile.enable()
    harness.run_scenario(cfg, out_dir=os.path.join(work, "profiled"), seed=RUN_SEED)
    profile.disable()
    cumulative = {name: 0.0 for name in PROFILED}
    pair_calls = 0
    for (_, _, func), (_, ncalls, _, cum, _) in pstats.Stats(profile).stats.items():
        if func in cumulative:
            cumulative[func] += cum
        if func == "covers_pair":
            pair_calls += ncalls

    hashes = {}
    for name in ("steps.csv", "state.snapshot"):
        with open(os.path.join(plain, name), "rb") as fh:
            hashes[name] = hashlib.sha256(fh.read()).hexdigest()
    graph = state.graph
    return {
        "capacity": capacity,
        "steps": steps,
        "wall_s": wall,
        "ms_per_step": 1000.0 * wall / steps,
        "final_nodes": len(graph),
        "full_edges": sum(len(e) for e in graph.full.values()),
        "reduced_edges": sum(len(e) for e in graph.reduced.values()),
        "cprofile_cumulative_s": cumulative,
        "covers_pair_calls": pair_calls,
        "sha256": hashes,
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--checkout", action="append", default=[],
                    help="LABEL=DIR, a checkout to measure (repeatable)")
    ap.add_argument("--out", help="JSON file to write")
    ap.add_argument("--worker", nargs=2, metavar=("ROOT", "SIZE"), help=argparse.SUPPRESS)
    args = ap.parse_args()

    if args.worker:
        with tempfile.TemporaryDirectory() as work:
            print(json.dumps(measure(args.worker[0], int(args.worker[1]), work)))
        return

    if not args.checkout or not args.out:
        ap.error("--checkout and --out are required")
    checkouts = dict(c.split("=", 1) for c in args.checkout)
    results = {label: {} for label in checkouts}
    for size in SIZES:
        for label, root in checkouts.items():
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__),
                 "--worker", os.path.abspath(root), str(size)],
                capture_output=True, text=True, check=True,
            )
            results[label][str(size)] = row = json.loads(proc.stdout.splitlines()[-1])
            print(f"{label} {size}: {row['ms_per_step']:.1f} ms/step, "
                  f"{row['final_nodes']} nodes", flush=True)
    report = {
        "command": "python3 scripts/scale_curve.py " + " ".join(
            f"--checkout {label}=DIR" for label in checkouts),
        "settings": {"pool_seed": POOL_SEED, "run_seed": RUN_SEED, "arrival_p": 1.0,
                     "sizes": {str(s): {"capacity": SIZES[s][0], "steps": SIZES[s][1]}
                               for s in SIZES}},
        "machine": f"{os.cpu_count()} CPUs, {platform.python_implementation()} "
                   f"{platform.python_version()}",
        "results": results,
        "hashes_match": {
            str(s): len({json.dumps(results[c][str(s)]["sha256"]) for c in checkouts}) == 1
            for s in SIZES
        },
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
