"""Work counts of covkb's traced functions on three benchmark units.

Each unit runs under perfbench's tracer, which wraps the library's public
functions from outside it, with the script's own wrappers around the
metrics and graph internals beside it.  Its call and work counts must
equal those recorded in WORKCOUNTS.json (see scripts/workcounts.py), as
test_references.py checks output bytes.  A change that moves a count re-records the file.
"""

import json
import os
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path[:0] = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "scripts")]

import workcounts  # noqa: E402

with open(os.path.join(ROOT, "WORKCOUNTS.json"), encoding="utf-8") as fh:
    RECORDED = json.load(fh)["units"]


def test_every_unit_is_recorded():
    assert sorted(RECORDED) == sorted(f"{name}/{unit}" for name, unit in workcounts.UNITS)


@pytest.mark.parametrize("name, unit", workcounts.UNITS)
def test_unit_work_counts_match_the_record(tmp_path, name, unit):
    counted = workcounts.count(ROOT, name, unit, str(tmp_path))
    assert counted == RECORDED[f"{name}/{unit}"]
