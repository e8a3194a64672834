"""The example scripts run end to end, with warnings raised as errors."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _run(*args):
    """python -W error args from the root of the checkout, importing finspec from ./src."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    done = subprocess.run([sys.executable, "-W", "error", *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("d", (0, 1, 2, 6, 7))
def test_demo_lift_pipeline_runs(d):
    """Every KO-dimension the script accepts runs, and no check of the walk fails."""
    out = _run("scripts/demo_lift_pipeline.py", "--seed", "3", "--d", str(d))
    assert f"KO-dimension {d}" in out
    assert not [line for line in out.splitlines() if "FAIL" in line]


def test_example_bundle_validates(tmp_path):
    path = tmp_path / "bundle.json"
    _run("scripts/make_example_bundle.py", "--seed", "1", "--out", str(path))
    _run("-m", "finspec.cli", "validate", str(path))
