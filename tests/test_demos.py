"""Smoke test: the fast demos and README's Quick start run to completion
against the current package.

``two_surface_gain`` covers the multi-surface public API (``Scene`` with
``extra_panels``, ``realize_multi``, ``compose_multi``), ``sub6_near_field``
the sub-6 GHz record and its near/far switch, ``path_loss_curves`` the
propagation helpers, and the Quick start block the single-surface ``Scene``
API; together they take about 3 s on a 2-CPU x86-64 host. The other three
demos take 3-7 s each and are left out to keep the unit suite fast.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_python(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )


@pytest.mark.parametrize("demo", ["two_surface_gain", "sub6_near_field", "path_loss_curves"])
def test_demo_runs(demo, tmp_path):
    proc = run_python([str(ROOT / "demos" / f"{demo}.py")], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Quick start\s+```python\n(.*?)```", readme, re.S)
    assert block, "README.md has no python block under '## Quick start'"
    proc = run_python(["-c", block.group(1)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("mean rate over 200 draws: ")
