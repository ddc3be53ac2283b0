"""Smoke test: every demo script runs to completion in a scratch directory.

Each demo runs with RuntimeWarning turned into an error, as the suite's
own filter does, so a log of a nonpositive number or a division by zero
fails the demo instead of printing a NaN.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import child_env

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_all_five_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_runs(demo, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path,
        env=child_env(PYTHONWARNINGS="error::RuntimeWarning"),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_trumpet_profile_is_classified_in_family(tmp_path):
    # demo 04 writes its arc-length profile as s,x,y; classify accepts it
    demo = next(d for d in DEMOS if d.stem == "04_trumpet_surface")
    env = child_env(PYTHONWARNINGS="error::RuntimeWarning")
    subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env, check=True,
                   capture_output=True, timeout=120)
    proc = subprocess.run(
        [sys.executable, "-m", "ricci_liouville.cli", "classify",
         "--profile", "demo_output/trumpet_profile.csv", "--resample-n", "51",
         "--outdir", "classify"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    verdict = json.loads((tmp_path / "classify" / "verdict.json").read_text())
    assert verdict["verdict"] == "in family"
