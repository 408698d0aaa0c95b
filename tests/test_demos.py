"""The scripts under demos/ run to the end against the current package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import weylflow

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_are_found():
    # an empty glob would leave the parametrized test below with no cases
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_zero(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(weylflow.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr.decode()[-2000:]
    assert proc.stdout
