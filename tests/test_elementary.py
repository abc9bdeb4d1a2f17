"""Elementary functions evaluated by the C math library."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rischan
from rischan import elementary as ef

import platform_probe


@pytest.mark.parametrize(
    "fn, ref",
    [
        (ef.cos, math.cos),
        (ef.exp, math.exp),
        (ef.log, math.log),
        (ef.log10, math.log10),
        (ef.arccos, math.acos),
        (ef.arctan, math.atan),
    ],
)
def test_elementwise_c_library_values(fn, ref):
    x = np.array([[0.125, 0.3], [0.7, 0.999]])
    got = fn(x)
    assert got.shape == x.shape and got.dtype == np.float64
    assert got.tolist() == [[ref(v) for v in row] for row in x.tolist()]


def test_two_argument_and_scalar_forms():
    y, x = np.array([1.0, -1.0, 0.5]), np.array([-2.0, -2.0, 3.0])
    assert ef.arctan2(y, x).tolist() == [math.atan2(a, b) for a, b in zip(y, x)]
    assert ef.power([0.25, 4.0], 0.57).tolist() == [math.pow(0.25, 0.57), math.pow(4.0, 0.57)]
    assert ef.pow10(-3.5).shape == () and float(ef.pow10(-3.5)) == math.pow(10.0, -3.5)
    c, s = ef.cis([0.0, 1.0])
    assert c.tolist() == [1.0, math.cos(1.0)] and s.tolist() == [0.0, math.sin(1.0)]
    assert ef.cbrt(np.array([-8.0, 27.0])).tolist() == pytest.approx([-2.0, 3.0], rel=1e-15)


def test_special_values_match_numpy():
    """Where the C function raises, the element gets numpy's value."""
    assert ef.log(np.array([0.0, -1.0, 1.0])).tolist()[0] == -math.inf
    assert math.isnan(ef.log(-1.0)) and math.isnan(ef.arccos(2.0)) and math.isnan(ef.cos(math.inf))
    c, s = ef.cis([math.inf, -math.inf, math.nan])  # no RuntimeWarning: the suite makes it an error
    assert np.isnan(c).all() and np.isnan(s).all()
    assert ef.exp([1000.0]).tolist() == [math.inf]
    assert ef.pow10([400.0]).tolist() == [math.inf]
    assert ef.power([0.0], -1.0).tolist() == [math.inf]


def cis_re(x):
    return ef.cis(x)[0]


def cis_im(x):
    return ef.cis(x)[1]


@pytest.mark.parametrize(
    "fn",
    [
        ef.cos, ef.exp, ef.log, ef.log10, ef.pow10, ef.cbrt, ef.arccos, ef.arctan,
        lambda x: ef.power(x, 0.57), cis_re, cis_im,
    ],
)
def test_zero_d_input_matches_one_element_array(fn):
    """The 0-d fast path gives the bits of the array path, special values included."""
    for v in (0.3, -2.5, 0.0, -0.0, 400.0, -400.0, 1e308, math.inf, -math.inf, math.nan):
        got, want = fn(v), fn(np.array([v]))
        assert got.shape == () and got.dtype == np.float64
        assert got.tobytes() == want.tobytes()
        assert fn(np.float64(v)).tobytes() == want.tobytes()


def test_numpy_sin_cos_are_the_c_library_at_every_simd_level():
    """``cis`` and ``cos`` give the bits of ``math.cos``/``math.sin`` on a
    seeded sample (special values included) at every SIMD dispatch level
    numpy was built for: one child process per level, each with the targets
    above it disabled. Under a numpy release in ``_CHECKED_NUMPY`` they run
    numpy's float64 cos/sin loops, so a release whose loops round on their
    own fails here once it is added there."""
    targets = platform_probe.simd_dispatch_targets()
    src = str(Path(rischan.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, str(Path(__file__).parent), os.environ.get("PYTHONPATH")]))
    child = "import json, platform_probe; print(json.dumps(platform_probe.sincos_mismatches(20261019, 30000)))"
    reports = {}
    for k in range(len(targets) + 1):
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(targets[k:]), PYTHONPATH=path)
        out = subprocess.run(
            [sys.executable, "-c", child], env=env, capture_output=True, text=True, timeout=300, check=True
        )
        reports[" ".join(targets[:k]) or "baseline"] = json.loads(out.stdout.splitlines()[-1])
    assert reports["baseline"]["simd"] == [], "NPY_DISABLE_CPU_FEATURES took no effect"
    differing = {level: r for level, r in reports.items() if r["cos"] or r["sin"]}
    assert not differing, differing


def test_math_sin_cos_path(monkeypatch):
    """Under a numpy release not in ``_CHECKED_NUMPY``, ``cis`` and ``cos``
    call ``math``: the same bits, for arrays, 0-d input and infinities."""
    monkeypatch.setattr(ef, "_NUMPY_SIN_COS", False)
    report = platform_probe.sincos_mismatches(7, 2000)
    assert report["cos"] == report["sin"] == 0, report
    for v in (0.3, -0.0, 1e22, math.inf):
        c, s = ef.cis(v)
        assert c.shape == s.shape == () and ef.cos(v).tobytes() == c.tobytes()
        one = ef.cis([v])
        assert c.tobytes() == one[0].tobytes() and s.tobytes() == one[1].tobytes()
