"""The benchmark's workloads, their units of work and the output gates.

A unit is one closed-loop call into covkb's public harness: one
`run_scenario` for the scenario workloads, or one serial `run_grid` over
all 24 capacity x fraction cells with one repetition for `grid`.  Each
workload walks a fixed table of unit seeds; `--seed` only chooses the
order in which a run walks that table (`unit_order`).  The held-out
seed walks a second, disjoint table instead.  The tables are fixed so
that every unit's output bytes can be checked against the sha256
recorded in `references.json` from the seed commit.

Calls go through module attributes (`harness.run_scenario`, ...) so that
the tracer in `tracing.py` sees them when it is installed.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import synth

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references.json")

NAMES = ("chess", "incremental", "grid", "plateau", "synth")
TABLE = tuple(range(1, 49))  # unit seeds of every workload but incremental
# incremental's p99 is set by the few saturation steps in the units a run
# reaches, which differ from unit to unit.  Its runs walk a table small
# enough that each run of --seconds 15 reaches all of it (8 to 11 units).
TABLES = {"incremental": TABLE[:8]}
HELD_OUT_SEED = 7919
HELD_OUT_TABLE = tuple(range(49, 61))  # walked only by --seed HELD_OUT_SEED

# Units replayed by a traced run; sized for a few seconds per pass.
TRACE_UNITS = {"chess": 3, "incremental": 4, "grid": 2, "plateau": 2, "synth": 1}

# The step_tail_ms percentile: the highest of p90/p99/p99.9 that leaves at
# least ten steps beyond it in every run of --seconds 15, even on a machine
# at half speed.  It is fixed per workload, because a percentile that
# follows each run's step count jumps between p90 and p99 on synth (800 or
# 1000 steps) and makes runs incomparable.
TAIL_PERCENTILE = {"chess": 99.0, "incremental": 99.0, "grid": 99.0,
                   "plateau": 99.0, "synth": 90.0}

CONSERVATION_TOL = 1e-9
CELLS_PER_GRID_UNIT = 24  # 8 capacities x 3 fractions in grid.grid


def unit_order(name: str, seed: int) -> List[int]:
    """The seeded walk over the unit table that one run follows."""
    order = list(HELD_OUT_TABLE if seed == HELD_OUT_SEED else TABLES.get(name, TABLE))
    random.Random(seed).shuffle(order)
    return order


def fixture(root: str, name: str) -> str:
    return os.path.join(root, "fixtures", "chess", name)


def synth_dir(out: str, unit: int) -> str:
    return os.path.join(out, "inputs", f"synth-{unit}")


def prepare(name: str, out: str, unit: int) -> None:
    """Write the inputs a unit reads (only `synth` has generated ones)."""
    if name == "synth":
        synth.write_pool(synth_dir(out, unit), unit)


@dataclass
class Outcome:
    files: Dict[str, str]          # output name -> path, hashed by the gate
    state: object                  # final KnowledgeState, or None for grid
    cells: int
    failed_cells: int


def execute(covkb, name: str, root: str, out: str, unit: int,
            unit_dir: Optional[str] = None) -> Outcome:
    """Run one unit through the public API; this is the timed region.

    Inputs are read from under `out`, outputs go to `unit_dir`
    (default `out/unit`)."""
    harness = covkb.harness
    unit_dir = unit_dir or os.path.join(out, "unit")
    if name == "grid":
        grid = harness.load_grid(fixture(root, "grid.grid"))
        part = covkb.GridConfig(
            base=replace(grid.base, seed=unit),
            capacities=grid.capacities,
            fractions=grid.fractions,
            repetitions=1,
            base_seed=unit,
        )
        rows, failures = harness.run_grid(part, jobs=1)
        os.makedirs(unit_dir, exist_ok=True)
        path = os.path.join(unit_dir, "heatmap.csv")
        harness.write_heatmap_csv(rows, path)
        return Outcome({"heatmap.csv": path}, None, len(part.cells()), len(failures))
    if name == "synth":
        cfg = harness.load_scenario(os.path.join(synth_dir(out, unit), "synth.scn"))
    elif name == "incremental":
        cfg = harness.load_scenario(fixture(root, "incremental.scn"))
    else:
        cfg = harness.load_scenario(fixture(root, "chess.scn"))
        if name == "plateau":
            cfg = replace(cfg, capacity=0)
    _, state = harness.run_scenario(cfg, out_dir=unit_dir, seed=unit)
    files = {n: os.path.join(unit_dir, n) for n in ("steps.csv", "state.snapshot")}
    return Outcome(files, state, 1, 0)


def load_references() -> Dict[str, Dict[str, Dict[str, str]]]:
    with open(REFERENCES, "r", encoding="utf-8") as fh:
        return json.load(fh)["workloads"]


def file_hashes(outcome: Outcome) -> Dict[str, str]:
    out = {}
    for name, path in sorted(outcome.files.items()):
        with open(path, "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def check_state(covkb, state) -> Optional[str]:
    """Invariant gates on a final state; returns a reason or None."""
    graph = state.graph
    table = state.ensure_metrics()
    balance = covkb.conservation_check(graph, table.support, state.classes)
    worst = max(balance.values(), default=0.0)
    if worst > CONSERVATION_TOL:
        return f"conservation off by {worst:.3g}"
    try:
        graph.topological_order()
    except covkb.GraphError as exc:
        return f"graph not acyclic: {exc}"
    if graph.reduced != covkb.transitive_reduce(graph.nodes, graph.full):
        return "reduced edges differ from transitive_reduce(full)"
    return None


def gate(covkb, name: str, unit: int, outcome: Outcome,
         references: Dict[str, Dict[str, Dict[str, str]]],
         invariants: bool = True) -> Optional[str]:
    """Output and invariant gates after a unit; returns a reason or None."""
    want = references.get(name, {}).get(str(unit))
    if want is None:
        return f"no reference hashes for {name} unit {unit}"
    got = file_hashes(outcome)
    for file_name, digest in sorted(want.items()):
        if got.get(file_name) != digest:
            return f"{file_name} sha256 differs from the reference"
    if outcome.failed_cells:
        return f"{outcome.failed_cells} grid cells failed"
    if invariants and outcome.state is not None:
        return check_state(covkb, outcome.state)
    return None


def output_bytes(outcome: Outcome) -> int:
    return sum(os.path.getsize(p) for p in outcome.files.values())


def ops(outcome: Outcome) -> Tuple[int, int]:
    """(attempted, failed-by-the-program) operations: cells for grid, else steps."""
    if outcome.state is None:
        return outcome.cells, outcome.failed_cells
    return outcome.state.step_count, 0
