#!/usr/bin/env python3
"""Record the sha256 of every unit's outputs, which the benchmark's gates
compare against.  Run from the checkout root, at the commit whose outputs
are the reference:

    python3 perfbench/record_references.py --workload chess
    ...one call per workload, in parallel if you like, then
    python3 perfbench/record_references.py --merge --commit <sha>

Partial results go to .perfbench_out/references/; --merge writes
perfbench/references.json with the environment they were recorded in.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import sys

import workloads

PARTS = os.path.join(".perfbench_out", "references")


def record(name: str, root: str) -> None:
    sys.path.insert(0, os.path.join(root, "src"))
    import covkb
    import numpy

    out = os.path.join(root, ".perfbench_out", f"record-{name}")
    hashes = {}
    for unit in workloads.TABLE + workloads.HELD_OUT_TABLE:
        workloads.prepare(name, out, unit)
        outcome = workloads.execute(covkb, name, root, out, unit)
        if outcome.failed_cells:
            raise SystemExit(f"{name} unit {unit}: {outcome.failed_cells} cells failed")
        if outcome.state is not None:
            reason = workloads.check_state(covkb, outcome.state)
            if reason:
                raise SystemExit(f"{name} unit {unit}: {reason}")
        hashes[str(unit)] = workloads.file_hashes(outcome)
        print(f"{name} {unit} {hashes[str(unit)]}", flush=True)
    os.makedirs(PARTS, exist_ok=True)
    with open(os.path.join(PARTS, f"{name}.json"), "w", encoding="utf-8") as fh:
        json.dump({"numpy": numpy.__version__, "hashes": hashes}, fh)


def merge(commit: str) -> None:
    parts = {}
    numpy_versions = set()
    for path in sorted(glob.glob(os.path.join(PARTS, "*.json"))):
        with open(path, "r", encoding="utf-8") as fh:
            part = json.load(fh)
        parts[os.path.basename(path)[:-5]] = part["hashes"]
        numpy_versions.add(part["numpy"])
    missing = sorted(set(workloads.NAMES) - set(parts))
    if missing:
        raise SystemExit(f"no recorded hashes for {missing}")
    doc = {
        "recorded_at": {
            "commit": commit,
            "python": platform.python_version(),
            "numpy": ",".join(sorted(numpy_versions)),
            "nproc": len(os.sched_getaffinity(0)),
        },
        "workloads": {name: parts[name] for name in workloads.NAMES},
    }
    with open(workloads.REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main() -> None:
    ap = argparse.ArgumentParser(description="record reference output hashes")
    ap.add_argument("--workload", choices=workloads.NAMES)
    ap.add_argument("--merge", action="store_true")
    ap.add_argument("--commit", default="unknown")
    args = ap.parse_args()
    if args.merge:
        merge(args.commit)
    elif args.workload:
        record(args.workload, os.getcwd())
    else:
        ap.error("give --workload or --merge")


if __name__ == "__main__":
    main()
