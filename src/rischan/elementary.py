"""Elementary functions for everything the generators write to disk.

numpy evaluates several float64 elementary functions (in numpy 2.4:
``exp``, ``log10``, ``power``, ``cbrt``, ``arccos``, ``arctan2``) with loops
it selects at run time from the CPU's features (AVX-512, AVX2/FMA or the
baseline), and those loops do not round alike: the same seed would give
different channel bytes on different machines. The functions here evaluate every element with the C
math library through :mod:`math` instead, so each input has one result for
a given C library whatever numpy dispatched to.

Each function takes an array-like (or a scalar) and returns a float64 array
of the same shape. Where the C function raises (outside its domain, or on
overflow) the element gets numpy's NaN or infinity instead.

The rest of the arithmetic on the generator path keeps to operations that
are exactly rounded on every CPU: float64 ``+ - * /`` and ``sqrt`` as
separate numpy calls (so nothing is fused into a multiply-add), complex
products written out in real and imaginary parts, and sums as fixed-shape
numpy reductions. No BLAS call is made on it.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

__all__ = [
    "cos", "cis", "exp", "log", "log10", "pow10", "power", "cbrt", "arccos", "arctan", "arctan2",
]

_pow10 = partial(math.pow, 10.0)
_cbrt = getattr(math, "cbrt", None) or (  # Python 3.10 has no math.cbrt
    lambda v: math.copysign(math.pow(abs(v), 1.0 / 3.0), v)
)
_NUMPY = {
    math.sin: np.sin, math.cos: np.cos, math.exp: np.exp, math.log: np.log,
    math.log10: np.log10, _pow10: partial(np.power, 10.0), math.pow: np.power,
    _cbrt: np.cbrt, math.acos: np.arccos, math.atan: np.arctan, math.atan2: np.arctan2,
}


def _ieee(fn):
    """``fn`` with numpy's special value (NaN, infinity) where the C
    function raises instead; these values are the same on every CPU."""
    fallback = _NUMPY[fn]

    def safe(*args):
        try:
            return fn(*args)
        except (ValueError, OverflowError):
            with np.errstate(all="ignore"):
                return float(fallback(*args))

    return safe


_SAFE = {fn: _ieee(fn) for fn in _NUMPY}


def _run(fn, shape, *columns) -> np.ndarray:
    """``fn`` over aligned lists of arguments, as a float64 array of ``shape``."""
    n = len(columns[0])
    try:
        out = np.fromiter(map(fn, *columns), dtype=float, count=n)
    except (ValueError, OverflowError):
        out = np.fromiter(map(_SAFE[fn], *columns), dtype=float, count=n)
    return out.reshape(shape)


def _apply(fn, x, *scalars) -> np.ndarray:
    """``fn(element, *scalars)`` over the elements of ``x``."""
    a = np.asarray(x, dtype=float)
    if not a.ndim:  # one element: the same C call without the list and iterator
        return np.array(_SAFE[fn](float(a), *map(float, scalars)))
    flat = a.ravel().tolist()
    return _run(fn, a.shape, flat, *([float(v)] * len(flat) for v in scalars))


def cos(x) -> np.ndarray:
    return _apply(math.cos, x)


def cis(x) -> tuple[np.ndarray, np.ndarray]:
    """(cos x, sin x): the real and imaginary parts of exp(j x)."""
    a = np.asarray(x, dtype=float)
    flat = a.ravel().tolist()
    return _run(math.cos, a.shape, flat), _run(math.sin, a.shape, flat)


def exp(x) -> np.ndarray:
    return _apply(math.exp, x)


def log(x) -> np.ndarray:
    return _apply(math.log, x)


def log10(x) -> np.ndarray:
    return _apply(math.log10, x)


def pow10(x) -> np.ndarray:
    """10 ** x."""
    return _apply(_pow10, x)


def power(x, p) -> np.ndarray:
    """x ** p, for a scalar exponent or one exponent per element of x."""
    if not np.ndim(p):
        return _apply(math.pow, x, p)
    a = np.asarray(x, dtype=float)
    return _run(math.pow, a.shape, a.ravel().tolist(), np.broadcast_to(p, a.shape).ravel().tolist())


def cbrt(x) -> np.ndarray:
    """Real cube root. Python 3.10 has no ``math.cbrt``; there it is
    ``copysign(|x| ** (1/3), x)``, which can differ from it in the last bit."""
    return _apply(_cbrt, x)


def arccos(x) -> np.ndarray:
    return _apply(math.acos, x)


def arctan(x) -> np.ndarray:
    return _apply(math.atan, x)


def arctan2(y, x) -> np.ndarray:
    y, x = np.asarray(y, dtype=float), np.asarray(x, dtype=float)
    if y.shape != x.shape:
        y, x = np.broadcast_arrays(y, x)
    return _run(math.atan2, y.shape, y.ravel().tolist(), x.ravel().tolist())
