"""Smoke test: every demo script runs to completion in a scratch directory."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ricci_liouville

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_all_five_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(ricci_liouville.__file__))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
