"""Elementary functions for everything the generators write to disk.

numpy evaluates several float64 elementary functions (in numpy 2.4:
``exp``, ``log``, ``log10``, ``power``, ``cbrt``, ``arccos``, ``arctan``,
``arctan2``) with loops it selects at run time from the CPU's features
(AVX-512, AVX2/FMA or the baseline), and those loops do not round alike:
the same seed would give different channel bytes on different machines.
The functions here evaluate every element with the C math library, so each
input has one result for a given C library whatever numpy dispatched to.

:func:`cos` and :func:`cis` call numpy's float64 ``cos``/``sin`` loops
under the numpy releases and on the architectures in ``_CHECKED_NUMPY``:
there those loops make that same C-library call on each element at every
dispatch level (``tests/test_elementary.py`` checks this bit for bit, per
level). Elsewhere they go through :mod:`math`, with the same bits. Every
other function always goes through :mod:`math`, one call per element: at
the AVX-512 level numpy's own ``log``, ``exp``, ``arctan`` and ``log10``
loops give other bits than the C library on some inputs.

Each function takes an array-like (or a scalar) and returns a float64 array
of the same shape; the exponent of :func:`power` is one scalar. Where the C
function raises (outside its domain, or on overflow) the element gets
numpy's NaN or infinity instead. The cube root is the C library's ``cbrt``
(``math.cbrt``, Python >= 3.11).

The rest of the arithmetic on the generator path keeps to operations that
are exactly rounded on every CPU: float64 ``+ - * /`` and ``sqrt`` as
separate numpy calls (so nothing is fused into a multiply-add), complex
products written out in real and imaginary parts, and sums as fixed-shape
numpy reductions. No BLAS call is made on it.
"""

from __future__ import annotations

import math
import platform
from functools import partial

import numpy as np

__all__ = [
    "cos", "cis", "exp", "log", "log10", "pow10", "power", "cbrt", "arccos", "arctan", "arctan2",
]

_pow10 = partial(math.pow, 10.0)
# (major, minor, machine) of the numpy releases and architectures whose
# float64 cos/sin loops call the C library on each element at every SIMD
# level; add one only after tests/test_elementary.py passes there
_CHECKED_NUMPY = {(2, 4, "x86_64")}
_version = np.lib.NumpyVersion(np.__version__)
_NUMPY_SIN_COS = (_version.major, _version.minor, platform.machine()) in _CHECKED_NUMPY
_NUMPY = {
    math.sin: np.sin, math.cos: np.cos, math.exp: np.exp, math.log: np.log,
    math.log10: np.log10, _pow10: partial(np.power, 10.0), math.pow: np.power,
    math.cbrt: np.cbrt, math.acos: np.arccos, math.atan: np.arctan, math.atan2: np.arctan2,
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
    return cis(x)[0] if _NUMPY_SIN_COS else _apply(math.cos, x)


def cis(x) -> tuple[np.ndarray, np.ndarray]:
    """(cos x, sin x): the real and imaginary parts of exp(j x), by numpy's
    loops where they are checked (see above); an infinite element gives
    NaN, without a warning."""
    a = np.asarray(x, dtype=float)
    if not _NUMPY_SIN_COS:
        flat = a.ravel().tolist()
        return _run(math.cos, a.shape, flat), _run(math.sin, a.shape, flat)
    with np.errstate(invalid="ignore"):
        return np.cos(a, out=np.empty(a.shape)), np.sin(a, out=np.empty(a.shape))


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
    """x ** p, for a scalar exponent p."""
    return _apply(math.pow, x, p)


def cbrt(x) -> np.ndarray:
    """Real cube root."""
    return _apply(math.cbrt, x)


def arccos(x) -> np.ndarray:
    return _apply(math.acos, x)


def arctan(x) -> np.ndarray:
    return _apply(math.atan, x)


def arctan2(y, x) -> np.ndarray:
    y, x = np.asarray(y, dtype=float), np.asarray(x, dtype=float)
    if y.shape != x.shape:
        y, x = np.broadcast_arrays(y, x)
    return _run(math.atan2, y.shape, y.ravel().tolist(), x.ravel().tolist())
