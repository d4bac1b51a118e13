"""Every script under demos/ runs to completion."""

import glob
import os
import subprocess
import sys

import pytest

DEMOS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..", "demos", "*.py")))


def test_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("script", DEMOS, ids=os.path.basename)
def test_demo_exits_0(script):
    done = subprocess.run(
        [sys.executable, script], capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
