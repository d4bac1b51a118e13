#!/usr/bin/env python3
"""Output bytes of every recorded benchmark unit.

Runs each unit that `perfbench/references.json` records (every workload,
unit seeds 1-60) through perfbench's own `workloads.prepare`, `execute`
and `gate`, as tests/test_references.py does for a few of them: the
unit's files must hash to the reference and its final state must pass
the benchmark's invariant checks.  Each unit writes under its own
temporary directory.  Exits 1 and lists every failing unit; run it as

    python3 scripts/check_references.py
"""

from __future__ import annotations

import os
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import covkb  # noqa: E402
import workloads  # noqa: E402


def check(name: str, unit: int, references) -> str | None:
    """Why unit `unit` of workload `name` fails its gate, or None."""
    with tempfile.TemporaryDirectory() as out:
        try:
            workloads.prepare(name, out, unit)
            outcome = workloads.execute(covkb, name, ROOT, out, unit)
            return workloads.gate(covkb, name, unit, outcome, references)
        except Exception as exc:  # a crash fails its unit, not the whole check
            traceback.print_exc()
            return f"{type(exc).__name__}: {exc}"


def main() -> int:
    references = workloads.load_references()
    failures, units, start = [], 0, time.perf_counter()
    for name in workloads.NAMES:
        for unit in sorted(map(int, references.get(name, {}))):
            units += 1
            reason = check(name, unit, references)
            if reason is not None:
                failures.append(f"{name}/{unit}: {reason}")
    for line in failures:
        print(f"FAIL {line}")
    print(f"{units - len(failures)} of {units} units match their references "
          f"({time.perf_counter() - start:.1f} s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
