#!/usr/bin/env python3
"""covkb benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload chess --seed 1 --seconds 15 --trace 0

Run from the root of a covkb checkout; covkb is imported from its `src/`
and every file the run writes goes under `.perfbench_out/`.  The loop is
closed, single-process and single-threaded: each unit (a `run_scenario`
call, or a serial `run_grid` over one repetition of the 24 grid cells)
starts when the previous one returns, and the program only sees the
inputs.  See README.md in this directory for the workloads and metrics.

With --trace 0 the run prints the end-to-end metrics, with --trace 1 the
per-layer ones.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 when a result
was printed, even if a gate failed (then correct is false).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")

SETUP_PROBES = 6          # setup-only processes besides the measured one
DEADLINE_S = 170.0        # the whole run ends before this

END_TO_END = (
    ("setup_s", "s"),
    ("steps_per_s", "1/s"),
    ("cells_per_s", "1/s"),
    ("step_p50_ms", "ms"),
    ("step_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def spawn(args, root: str, out: str, mode: str, deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        fail("out of time before all processes ran")
    cmd = [
        sys.executable, WORKER, "--mode", mode, "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--root", root, "--out", out,
    ]
    spawned = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(cmd + ["--spawned-ns", str(spawned)], cwd=root,
                              capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        fail(f"{mode} process did not finish within the time limit")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"{mode} process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment(numpy_version: str) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def end_to_end(args, root: str, out: str, deadline: float) -> dict:
    probes = [spawn(args, root, out, "probe", deadline) for _ in range(SETUP_PROBES)]
    res = spawn(args, root, out, "run", deadline)
    probes.append(res)
    res["setup_samples_s"] = [p["setup_s"] for p in probes]
    res["setup_s"] = statistics.median(res["setup_samples_s"])
    res["wall"]["setup_s"] = statistics.median(p["wall"]["setup_s"] for p in probes)
    metrics = {name: {"value": res[name], "unit": unit} for name, unit in END_TO_END}
    print(f"units {res['units']}  steps {res['steps']}  cells {res['cells']}  "
          f"measured {res['measured_s']:.3f} s  stepping {res['stepping_s']:.3f} s  "
          f"speed scale {res['scale']:.3f}")
    print(f"{'metric':<14} {'scaled':>12} {'':<4} {'wall':>12}")
    for name, unit in END_TO_END:
        wall = res["wall"].get(name)
        wall = f"{wall:>12.4f}" if wall is not None else f"{'':>12}"
        note = ""
        if name == "setup_s":
            note = f"median of {len(probes)} processes"
        elif name == "step_tail_ms":
            note = (f"p{res['tail_percentile']:g} of {res['steps']} steps, "
                    f"{res['tail_beyond']} beyond")
        print(f"{name:<14} {res[name]:>12.4f} {unit:<4} {wall} {note}")
    return {"result": res, "metrics": metrics}


def per_layer(args, root: str, out: str, deadline: float) -> dict:
    res = spawn(args, root, out, "run", deadline)
    layers = res["layers"]
    print(f"units {res['units']}  untraced {res['wall_untraced_s']:.3f} s  "
          f"traced {res['wall_traced_s']:.3f} s  spans -> {res['spans_file']}")
    for name, value in layers.items():
        print(f"{name:<30} {value:>14.6g}")
    units = load_units()
    missing = sorted(set(units) - set(layers))
    if missing:
        fail(f"traced run did not measure {missing}")
    metrics = {name: {"value": layers[name], "unit": unit} for name, unit in units.items()}
    return {"result": res, "metrics": metrics}


def load_units() -> dict:
    """Units of the per-layer metrics, as BENCHMARK.json declares them."""
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    with open(path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main() -> None:
    ap = argparse.ArgumentParser(description="covkb benchmark")
    ap.add_argument("--workload", choices=workloads.NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # A terminated run raises SystemExit, so subprocess.run kills and
    # reaps the worker it is waiting for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seconds <= 0:
        fail("--seconds must be positive")
    deadline = time.monotonic() + DEADLINE_S

    root = os.getcwd()
    for needed in (os.path.join("src", "covkb", "__init__.py"),
                   os.path.join("fixtures", "chess", "chess.scn")):
        if not os.path.isfile(os.path.join(root, needed)):
            fail(f"run from the root of a covkb checkout: {needed} is missing")
    out = os.path.join(root, ".perfbench_out", args.workload)
    os.makedirs(out, exist_ok=True)
    workloads.prepare(args.workload, out, workloads.unit_order(args.workload, args.seed)[0])

    print(f"covkb benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    run = per_layer if args.trace else end_to_end
    report = run(args, root, out, deadline)
    res = report["result"]
    report["environment"] = environment(res.pop("numpy"))
    report["args"] = vars(args)
    print("environment " + " ".join(f"{k}={v}" for k, v in report["environment"].items()))
    print(f"fail_frac {res['failed'] / res['attempted']:.6g} "
          f"({res['failed']} of {res['attempted']} operations)")
    for reason in res["reasons"]:
        print(f"gate failed: {reason}")
    with open(os.path.join(out, f"result-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": report["metrics"],
    }))


if __name__ == "__main__":
    main()
