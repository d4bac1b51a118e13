"""Output bytes of every benchmark workload.

Each unit runs through perfbench's own `workloads.prepare`, `execute` and
`gate`: its files must hash to `perfbench/references.json` and its final
state must pass the benchmark's invariant checks.  Incremental is the only
workload that saturates a fact store: its queen rules read the rook and
bishop moves that phase one consolidates.  Outputs go to pytest's
temporary directory, so nothing is written under the checkout.
"""

import os
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import covkb  # noqa: E402
import workloads  # noqa: E402

UNITS = [(name, unit) for name in ("chess", "plateau", "synth", "incremental")
         for unit in workloads.TABLE[:2]] + [("grid", workloads.TABLE[0])]


@pytest.mark.parametrize("name, unit", UNITS)
def test_unit_matches_reference_bytes(tmp_path, name, unit):
    out = str(tmp_path)
    workloads.prepare(name, out, unit)
    outcome = workloads.execute(covkb, name, ROOT, out, unit)
    assert workloads.gate(covkb, name, unit, outcome, workloads.load_references()) is None
