"""The demo scripts run to completion against the source tree and print the bytes in ``tests/snapshots/demo-*.out``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "name", ["ages_and_reidtai", "deviation_bounds", "machine_searches", "monomial_reflection_groups", "torus_verdicts"]
)
def test_demo_runs(name):
    result = subprocess.run(
        [sys.executable, str(REPO / "demos" / f"{name}.py")],
        capture_output=True,
        cwd=REPO,
        env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
        timeout=120,
    )
    assert result.returncode == 0, result.stderr.decode()
    assert b"Traceback" not in result.stderr
    assert result.stdout == (REPO / "tests" / "snapshots" / f"demo-{name}.out").read_bytes()
