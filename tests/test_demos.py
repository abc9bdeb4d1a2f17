"""Smoke test: the fast demos run to completion against the current package.

``two_surface_gain`` covers the multi-surface public API (``MultiRisScene``,
``realize_multi``, ``compose_multi``), ``sub6_near_field`` the sub-6 GHz
record and its near/far switch, and ``path_loss_curves`` the propagation
helpers; together they take about 2 s on a 2-CPU x86-64 host. The other
three demos take 3-7 s each and are left out to keep the unit suite fast.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", ["two_surface_gain", "sub6_near_field", "path_loss_curves"])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{demo}.py")],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
