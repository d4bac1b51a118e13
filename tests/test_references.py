"""Output bytes of the chess, plateau and synth benchmark workloads.

Each unit runs through perfbench's own `workloads.prepare`, `execute` and
`gate`: its files must hash to `perfbench/references.json` and its final
state must pass the benchmark's invariant checks.  Outputs go to pytest's
temporary directory, so nothing is written under the checkout.
"""

import os
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import covkb  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("unit", workloads.TABLE[:2])
@pytest.mark.parametrize("name", ["chess", "plateau", "synth"])
def test_unit_matches_reference_bytes(tmp_path, name, unit):
    out = str(tmp_path)
    workloads.prepare(name, out, unit)
    outcome = workloads.execute(covkb, name, ROOT, out, unit)
    assert workloads.gate(covkb, name, unit, outcome, workloads.load_references()) is None
