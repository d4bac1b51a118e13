"""One benchmark process: set up covkb, run units in a closed loop, gate them.

`run.py` starts this file as a child process, so that each setup starts
from a fresh interpreter and each workload's peak memory is its own.
Modes:

  probe  set up and stop when the first lifecycle step begins; reports
         the time since the parent started this process, speed-scaled
         and as wall time.
  run    with --trace 0, run units until their summed wall time reaches
         --seconds (each unit's own load and build included); with
         --trace 1, run the first TRACE_UNITS units once untraced and
         once traced (see tracing.py).

The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time

import tracing
import workloads

CLOCK = time.CLOCK_MONOTONIC


def now_ns() -> int:
    return time.clock_gettime_ns(CLOCK)


# Speed calibration.  The speed of the shared virtual machine the
# benchmark was built on drifted by up to 2x over tens of seconds, far
# more than any bound a benchmark can hold.  So after every step the
# timer also times one pass of a fixed, allocation-free dict loop, and
# the reported times are scaled to a machine on which that pass takes
# CAL_REF_NS.  Pure-Python covkb code and this loop slow down together,
# so the scaled times spread far less from run to run (see README.md).
CAL_KEYS = tuple((i & 31, i >> 5, "k") for i in range(400))
CAL_TABLE = dict.fromkeys(CAL_KEYS, 0)
CAL_REF_NS = 30_000   # the reference speed: one pass in 30 us
CAL_WINDOW = 9        # calibration passes whose median scales one step
SETUP_CAL_PASSES = 100


def calibrate() -> int:
    """Wall time of one pass of the calibration loop, in ns."""
    get = CAL_TABLE.get
    t0 = now_ns()
    for key in CAL_KEYS:
        get(key)
    return now_ns() - t0


def rolling_median(values, window: int):
    half = window // 2
    return [statistics.median(values[max(0, i - half):i + half + 1])
            for i in range(len(values))]


class FirstStep(BaseException):
    """Raised by a probe at its first step; BaseException so that covkb's
    per-cell `except Exception` in run_grid lets it through."""


class StepTimer:
    """Times each KnowledgeState.step call, and each run's step phase.

    A run (a `run_scenario` call or a grid cell) steps one state.  Its
    step phase runs from the start of its first step to the end of its
    last, so it leaves out the run's setup and output writing.  After
    each step, and in a burst at the first one, it times calibration
    passes; their wall time is kept out of every measured interval."""

    def __init__(self, cls, stop_at_first: bool = False):
        self.cls = cls
        self.original = cls.step
        self.first_ns = None
        self.setup_cal_ns = None
        self.lat_ns = []
        self.cal_ns = []
        self.cal_wall_ns = 0
        self.phase_ns = 0
        self.last_state = None
        self.last_end_ns = 0
        lat, cal = self.lat_ns, self.cal_ns
        original = self.original
        timer = self

        def step(state, arrivals):
            if timer.first_ns is None:
                timer.first_ns = now_ns()
                burst = [calibrate() for _ in range(SETUP_CAL_PASSES)]
                timer.setup_cal_ns = statistics.fmean(burst)
                timer.cal_wall_ns += now_ns() - timer.first_ns
                if stop_at_first:
                    raise FirstStep()
            t0 = now_ns()
            log = original(state, arrivals)
            t1 = now_ns()
            lat.append(t1 - t0)
            same_run = state is timer.last_state
            timer.phase_ns += t1 - (timer.last_end_ns if same_run else t0)
            cal.append(calibrate())
            t2 = now_ns()
            timer.cal_wall_ns += t2 - t1
            timer.last_state, timer.last_end_ns = state, t2
            return log

        cls.step = step

    def setup_s(self, spawned_ns: int):
        """(scaled, wall) seconds from the process spawn to the first step."""
        wall = (self.first_ns - spawned_ns) / 1e9
        return wall * CAL_REF_NS / self.setup_cal_ns, wall

    def scaled_lat_ns(self):
        """Each step's latency scaled by the calibration passes around it."""
        local = rolling_median(self.cal_ns, CAL_WINDOW)
        return [ns * CAL_REF_NS / c for ns, c in zip(self.lat_ns, local)]

    def scale(self, scaled_lat_ns) -> float:
        """Factor from this run's wall times to reference-speed times,
        weighted by the time each step took."""
        return sum(scaled_lat_ns) / sum(self.lat_ns)

    def undo(self) -> None:
        self.cls.step = self.original
        self.last_state = None


def import_covkb(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import covkb
    if not os.path.abspath(covkb.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"covkb was imported from {covkb.__file__}, not {src}")
    return covkb


def tail(sorted_ns, pct: float):
    """(value, samples beyond) of the pct-th percentile."""
    n = len(sorted_ns)
    rank = max(1, math.ceil(pct / 100.0 * n))
    return sorted_ns[rank - 1], n - rank


class Loop:
    """Runs units in the closed loop and keeps the operation accounting."""

    def __init__(self, covkb, args):
        self.covkb = covkb
        self.args = args
        self.references = workloads.load_references()
        self.attempted = 0
        self.failed = 0
        self.cells = 0
        self.bytes = 0
        self.reasons = []

    def unit(self, unit: int, timer, prepare: bool, invariants: bool = True) -> int:
        """Run and gate one unit; returns its wall time in ns, calibration
        passes left out."""
        a = self.args
        if prepare:
            workloads.prepare(a.workload, a.out, unit)
        n0 = len(timer.lat_ns) if timer else 0
        cal0 = timer.cal_wall_ns if timer else 0
        t_a = now_ns()
        try:
            outcome = workloads.execute(self.covkb, a.workload, a.root, a.out, unit)
            error = None
        except Exception as exc:  # a failing unit is counted, the run goes on
            outcome, error = None, f"{type(exc).__name__}: {exc}"
        t_b = now_ns()
        elapsed = t_b - t_a - (timer.cal_wall_ns - cal0 if timer else 0)
        steps = len(timer.lat_ns) - n0 if timer else 0
        if outcome is None:
            attempted = workloads.CELLS_PER_GRID_UNIT if a.workload == "grid" else steps + 1
            failed, reason = attempted, error
        else:
            attempted, failed = workloads.ops(outcome)
            reason = workloads.gate(self.covkb, a.workload, unit, outcome,
                                    self.references, invariants)
            if reason is not None:
                failed = attempted
            self.cells += outcome.cells
            self.bytes += workloads.output_bytes(outcome)
        if reason is not None:
            self.reasons.append(f"unit {unit}: {reason}")
        self.attempted += attempted
        self.failed += failed
        return elapsed


def timed_run(covkb, args, order) -> dict:
    timer = StepTimer(covkb.KnowledgeState)
    loop = Loop(covkb, args)
    measured_ns = 0
    index = 0
    while measured_ns < args.seconds * 1e9:
        measured_ns += loop.unit(order[index % len(order)], timer, prepare=index > 0)
        index += 1
    timer.undo()
    if timer.first_ns is None or timer.phase_ns == 0:
        raise SystemExit("no lifecycle step started: " + "; ".join(loop.reasons))
    lat = timer.scaled_lat_ns()
    scale = timer.scale(lat)
    lat.sort()
    measured = measured_ns / 1e9
    stepping = timer.phase_ns / 1e9
    wall_lat = sorted(timer.lat_ns)
    pct = workloads.TAIL_PERCENTILE[args.workload]
    tail_ns, beyond = tail(lat, pct)
    setup, wall_setup = timer.setup_s(args.spawned_ns)
    return {
        "setup_s": setup,
        "units": index,
        "steps": len(lat),
        "cells": loop.cells,
        "measured_s": measured,
        "stepping_s": stepping,
        "scale": scale,
        "steps_per_s": len(lat) / (stepping * scale),
        "cells_per_s": loop.cells / (measured * scale),
        "step_p50_ms": statistics.median(lat) / 1e6,
        "step_tail_ms": tail_ns / 1e6,
        "tail_percentile": pct,
        "tail_beyond": beyond,
        "wall": {
            "setup_s": wall_setup,
            "steps_per_s": len(lat) / stepping,
            "cells_per_s": loop.cells / measured,
            "step_p50_ms": statistics.median(wall_lat) / 1e6,
            "step_tail_ms": tail(wall_lat, pct)[0] / 1e6,
        },
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "reasons": loop.reasons,
    }


def traced_run(covkb, args, order) -> dict:
    units = order[: workloads.TRACE_UNITS[args.workload]]
    loop = Loop(covkb, args)
    wall_untraced = 0

    timer = StepTimer(covkb.KnowledgeState)
    for index, unit in enumerate(units):
        wall_untraced += loop.unit(unit, timer, prepare=index > 0)
    timer.undo()

    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    bytes_before = loop.bytes
    wall_traced = 0
    try:
        for unit in units:
            # The invariant gates call covkb and would add spans; the
            # untraced pass above already checked these units in full.
            wall_traced += loop.unit(unit, None, prepare=False, invariants=False)
    finally:
        undo()
    spans_path = os.path.join(args.out, "spans.csv")
    tracer.write(spans_path)
    layers = tracing.layer_metrics(tracer, wall_traced / 1e9, wall_untraced / 1e9,
                                 loop.bytes - bytes_before)
    return {
        "units": len(units),
        "wall_untraced_s": wall_untraced / 1e9,
        "wall_traced_s": wall_traced / 1e9,
        "layers": layers,
        "spans_file": os.path.relpath(spans_path, args.root),
        "attempted": loop.attempted,
        "failed": loop.failed,
        "reasons": loop.reasons,
    }


def probe(covkb, args, order) -> dict:
    timer = StepTimer(covkb.KnowledgeState, stop_at_first=True)
    try:
        workloads.execute(covkb, args.workload, args.root, args.out, order[0],
                          os.path.join(args.out, "probe"))
    except FirstStep:
        pass
    timer.undo()
    if timer.first_ns is None:
        raise SystemExit("probe finished without reaching a lifecycle step")
    setup, wall_setup = timer.setup_s(args.spawned_ns)
    return {"setup_s": setup, "wall": {"setup_s": wall_setup}}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("probe", "run"), required=True)
    ap.add_argument("--workload", choices=workloads.NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-ns", type=int, required=True)
    ap.add_argument("--root", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    covkb = import_covkb(args.root)
    order = workloads.unit_order(args.workload, args.seed)
    if args.mode == "probe":
        result = probe(covkb, args, order)
    elif args.trace:
        result = traced_run(covkb, args, order)
    else:
        result = timed_run(covkb, args, order)
    import numpy
    result["numpy"] = numpy.__version__
    print(json.dumps(result))


if __name__ == "__main__":
    main()
