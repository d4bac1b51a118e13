#!/usr/bin/env python3
"""Work counts: how often covkb's traced functions run on fixed units.

Runs chess unit 1, incremental unit 1 and synth unit 1 once each under
perfbench's tracer (`perfbench/tracing.py`), which wraps covkb's public
functions from outside the library.  For each unit it records the call
count of every function in CALLS, the value of every counter in
COUNTERS, and the work inside the metrics and graph layers that WORK
names, counted through wrappers this script installs beside the
tracer's.  The counts are deterministic, so they gate the work a change
does, not its speed: tests/test_workcounts.py counts again and compares
with WORKCOUNTS.json.  A change that means to move a count re-records it:

    python3 scripts/workcounts.py --out WORKCOUNTS.json

`--root DIR` counts another checkout, importing covkb and perfbench from
DIR; without `--out` the counts go to stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from typing import Dict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

UNITS = (("chess", 1), ("incremental", 1), ("synth", 1))
CALLS = (
    "deduce.covers_pair", "deduce.general_fires", "deduce.theta_subsumes",
    "deduce.forward_closure", "deduce.extend_closure",
    "rules.canonical_form", "rules.rule_length",
    "covgraph.insert_rule", "covgraph.remove_rule", "metrics.compute_table",
)
COUNTERS = ("deduce.pair_hits",)
# Rows rescored (`metrics._support_row` calls), `CoverageGraph.anc` reads,
# nodes walked by `CoverageGraph._refresh` (its cone) and permanence passes
# (`compute_permanence` calls by the lifecycle and the harness).
WORK = ("metrics.support_rows", "covgraph.anc_reads", "covgraph.refresh_nodes",
        "metrics.permanence_passes")


def install_work_counts(counts: Dict[str, int]):
    """Wrap the functions behind WORK so that each call adds to `counts`;
    returns the undo.  A function the checkout lacks counts 0."""
    from covkb import covgraph, harness, lifecycle, metrics

    graph = covgraph.CoverageGraph
    targets = (
        ("metrics.support_rows", metrics, "_support_row", None),
        ("covgraph.anc_reads", graph, "anc", None),
        ("covgraph.refresh_nodes", graph, "_refresh", lambda args: len(args[1])),
        ("metrics.permanence_passes", lifecycle, "compute_permanence", None),
        ("metrics.permanence_passes", harness, "compute_permanence", None),
    )
    counts.update(dict.fromkeys(WORK, 0))
    originals = []
    for key, owner, attr, size in targets:
        fn = getattr(owner, attr, None)
        if fn is None:
            continue

        def counted(*args, _fn=fn, _key=key, _size=size, **kwargs):
            counts[_key] += 1 if _size is None else _size(args)
            return _fn(*args, **kwargs)

        originals.append((owner, attr, fn))
        setattr(owner, attr, counted)

    def undo() -> None:
        for owner, attr, fn in reversed(originals):
            setattr(owner, attr, fn)
    return undo


def count(root: str, name: str, unit: int, out: str) -> Dict[str, int]:
    """The counts of one unit of workload `name`; inputs and outputs go
    under `out`.  covkb, `tracing` and `workloads` must be importable."""
    import covkb
    import tracing
    import workloads

    workloads.prepare(name, out, unit)
    tracer = tracing.Tracer()
    work: Dict[str, int] = {}
    undo = tracing.install(tracer)
    undo_work = install_work_counts(work)
    try:
        workloads.execute(covkb, name, root, out, unit)
    finally:
        undo_work()
        undo()
    counts = {n: tracer.calls_of(n) for n in CALLS}
    counts.update({n: int(tracer.counters.get(n, 0)) for n in COUNTERS})
    counts.update(work)
    return counts


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", default=ROOT, help="checkout to count (default: this one)")
    ap.add_argument("--out", help="JSON file to write")
    args = ap.parse_args()
    root = os.path.abspath(args.root)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    units = {}
    for name, unit in UNITS:
        with tempfile.TemporaryDirectory() as out:
            units[f"{name}/{unit}"] = count(root, name, unit, out)
    text = json.dumps({"command": "python3 scripts/workcounts.py --out WORKCOUNTS.json",
                       "units": units}, indent=1) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
