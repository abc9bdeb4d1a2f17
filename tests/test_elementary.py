"""Elementary functions evaluated by the C math library."""

import math

import numpy as np
import pytest

from rischan import elementary as ef


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
    assert ef.exp([1000.0]).tolist() == [math.inf]
    assert ef.pow10([400.0]).tolist() == [math.inf]
    assert ef.power([0.0], -1.0).tolist() == [math.inf]


@pytest.mark.parametrize(
    "fn",
    [
        ef.cos, ef.exp, ef.log, ef.log10, ef.pow10, ef.cbrt, ef.arccos, ef.arctan,
        lambda x: ef.power(x, 0.57),
    ],
)
def test_zero_d_input_matches_one_element_array(fn):
    """The 0-d fast path gives the bits of the array path, special values included."""
    for v in (0.3, -2.5, 0.0, -0.0, 400.0, -400.0, 1e308, math.inf, -math.inf, math.nan):
        got, want = fn(v), fn(np.array([v]))
        assert got.shape == () and got.dtype == np.float64
        assert got.tobytes() == want.tobytes()
        assert fn(np.float64(v)).tobytes() == want.tobytes()
