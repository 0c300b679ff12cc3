"""Smoke tests of the quick demo scripts: each runs to completion.

volatility_and_depth.py is the one caller of the dense drift-kill solve
outside the tests.  price_a_smile.py, step_convergence.py and
calibrate_from_log.py take ten seconds or more each and are left out.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", ["volatility_and_depth.py", "replay_session.py"])
def test_demo_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / script)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout
