"""Antenna arrays: element layouts, radiation pattern, steering vectors.

Array elements live on a wall-mounted plane (see :class:`geometry.Plane`) on
a uniform grid with configurable spacing (default half-wavelength). Element
``(i_h, i_v)`` sits at in-plane offset ``(i_h * s, i_v * s)`` from the
reference corner element, and flattens to index ``i_h * n_v + i_v``, so a
vertical column is contiguous and a uniform linear array is the ``n_v = 1``
row along the horizontal axis.

On this grid an array response is the Kronecker product of one response
per axis, which the channel generators exploit: :func:`power_factors`
forms the per-axis factors of any number of axes and ray sets in one pass,
and :func:`rank_one_sum` sums one hop's rank-one ray contributions over
its factors without forming the full N x M steering matrix
(:func:`response_sum` is the two for one ray set), with the arithmetic
rules of :mod:`rischan.elementary` (no BLAS, C-library elementary
functions).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import elementary as ef
from .geometry import DirectionAngles, Plane, SurfaceOrientation, direction_unit

__all__ = [
    "ArrayGeometry",
    "ElementPattern",
    "element_gain",
    "element_gain_cos",
    "steering_vector",
    "steering_matrix",
    "array_axes",
    "power_factors",
    "rank_one_sum",
    "response_sum",
    "as_complex",
]


@dataclass(frozen=True)
class ArrayGeometry:
    """A planar uniform array: grid shape, spacing, mounting plane.

    ``spacing_wavelengths`` scales with the carrier, so one geometry object
    is valid at any frequency; physical spacing comes out of
    :meth:`spacing_m`.
    """

    n_h: int
    n_v: int = 1
    spacing_wavelengths: float = 0.5
    orientation: SurfaceOrientation = SurfaceOrientation(Plane.YZ)

    def __post_init__(self) -> None:
        if self.n_h < 1 or self.n_v < 1:
            raise ValueError(f"array grid must be >= 1 in both axes, got {self.n_h}x{self.n_v}")
        if self.spacing_wavelengths <= 0:
            raise ValueError(f"spacing_wavelengths must be > 0, got {self.spacing_wavelengths!r}")

    @property
    def size(self) -> int:
        return self.n_h * self.n_v

    def spacing_m(self, wavelength: float) -> float:
        return self.spacing_wavelengths * wavelength

    def element_offsets(self, wavelength: float) -> np.ndarray:
        """(size, 3) world-frame offsets of each element from the corner."""
        s = self.spacing_m(wavelength)
        ih = np.repeat(np.arange(self.n_h), self.n_v)
        iv = np.tile(np.arange(self.n_v), self.n_h)
        out = np.zeros((self.size, 3))
        out[:, self.orientation.plane.axes[0]] = ih * s
        out[:, 2] = iv * s
        return out

    def element_centers(self, wavelength: float, center: np.ndarray) -> np.ndarray:
        """(size, 3) absolute element positions for a panel centered on
        ``center`` (used by near-field models where the absolute grid
        matters; steering phases are unaffected by the shift)."""
        offsets = self.element_offsets(wavelength)
        return np.asarray(center, dtype=float) + offsets - offsets.mean(axis=0)


@dataclass(frozen=True)
class ElementPattern:
    """Cosine-power element pattern, G(psi) = 2 (2q + 1) cos(psi)^(2q).

    Radiation is confined to the front hemisphere (zero for psi > pi/2);
    the normalization makes the pattern integrate to exactly 4 pi over the
    sphere for every q >= 0, i.e. it redistributes rather than creates
    power. The default q gives a ~5 dBi boresight element.
    """

    q: float = 0.285

    def __post_init__(self) -> None:
        if self.q < 0:
            raise ValueError(f"pattern exponent q must be >= 0, got {self.q!r}")

    @property
    def boresight_gain(self) -> float:
        return 2.0 * (2.0 * self.q + 1.0)


def element_gain(pattern: ElementPattern, boresight_angle) -> np.ndarray:
    """Pattern gain at angle(s) from the element normal; 0 behind."""
    psi = np.asarray(boresight_angle, dtype=float)
    g = element_gain_cos(pattern, np.where(psi <= math.pi / 2, ef.cos(psi), -1.0))
    return g if g.ndim else float(g)

def element_gain_cos(pattern: ElementPattern, cos_boresight) -> np.ndarray:
    """:func:`element_gain` from the cosine of the boresight angle:
    ``boresight_gain * cos^(2q)`` in front of the element (cosine >= 0); a
    negative cosine is behind the element and gives 0."""
    c = np.asarray(cos_boresight, dtype=float)
    front = c >= 0.0
    gain = pattern.boresight_gain * ef.power(np.where(front, c, 0.0), 2.0 * pattern.q)
    return np.where(front, gain, 0.0)

# Columns of one _powers block: past about a thousand columns of 16 rows
# the ladder's working set outgrows the core's cache, and a column took about
# twice as long at 2048 columns
_LADDER_COLUMNS = 1024

def _powers(wr, wi, out) -> None:
    """Fill ``out``, shape (2, n, K), with the (re, im) of w^i for i < n,
    for K unit numbers w.

    Built by doubling: rows [0, 2^k) times w^(2^k) give rows [2^k, 2^(k+1)),
    and w^(2^k) is squared for the next step; real arithmetic throughout.
    Each complex product is two real products over both halves of
    ``out``, then one difference and one sum.
    """
    n = out.shape[1]
    out[0, 0], out[1, 0] = 1.0, 0.0
    k = 1
    while k < n:
        j = min(2 * k, n)
        ab = out[:, : j - k]
        p, q = ab * wr, ab * wi  # (a wr, b wr), (a wi, b wi)
        np.subtract(p[0], q[1], out=out[0, k:j])  # a wr - b wi
        np.add(q[0], p[1], out=out[1, k:j])  # a wi + b wr
        if j < n:
            wr, wi = wr * wr - wi * wi, 2.0 * wr * wi
        k = j

def array_axes(geometry: ArrayGeometry, unit, wavelength: float) -> list:
    """(n, kd, u_axis) of each axis of ``geometry`` with more than one
    element, h then v: its element count, its phase step per unit of
    direction component, kd = (2 pi / lambda) s, and the components u_axis
    of the (M, 3) ray directions ``unit`` along the axis (the in-plane
    horizontal axis or z). Along the axis element i responds w^i with
    w = exp(j kd u_axis)."""
    kd = 2.0 * math.pi / wavelength * geometry.spacing_m(wavelength)
    horizontal = geometry.orientation.plane.axes[0]
    return [(n, kd, unit[:, axis]) for n, axis in ((geometry.n_h, horizontal), (geometry.n_v, 2)) if n > 1]

def power_factors(axes) -> list:
    """(re, im) of w^i for i < n, shape (n, M_k), for every (n, kd, u_axis)
    of ``axes`` (:func:`array_axes`, from any arrays and ray sets).

    The C library is called once for all the steps kd u_axis together, and
    one :func:`_powers` ladder, as tall as the tallest axis, serves every
    axis: its rows do not depend on its height, so each axis takes its
    first n rows of its own columns. The ladder is built in blocks of at
    most ``_LADDER_COLUMNS`` columns; each column's arithmetic is its own,
    so the blocks do not enter the bits.
    """
    if not axes:
        return []
    rows, kd, columns = zip(*axes)
    lengths = [column.size for column in columns]
    steps = np.concatenate(columns) * (kd[0] if kd.count(kd[0]) == len(kd) else np.repeat(kd, lengths))
    wr, wi = ef.cis(steps)
    ladder = np.empty((2, max(rows), steps.size))
    for first in range(0, steps.size, _LADDER_COLUMNS):
        block = slice(first, first + _LADDER_COLUMNS)
        _powers(wr[block], wi[block], ladder[:, :, block])
    re, im = ladder
    out, start = [], 0
    for n, m in zip(rows, lengths):
        out.append((re[:n, start:start + m], im[:n, start:start + m]))
        start += m
    return out

def rank_one_sum(coeff, factors) -> tuple[np.ndarray, np.ndarray]:
    """Sum over m of coeff_m f_1[:, m] (x) f_2[:, m] (x) ... (x) f_K[:, m].

    ``coeff`` is the (re, im) pair of an (M,) complex vector and each
    factor the (re, im) pair of an (n_k, M) matrix. Returns (re, im) of
    shape (n_1, ..., n_K). Complex products are taken in real arithmetic:
    elementwise for the coefficient and the first K - 1 factors, then the
    sum over m with the last factor as four real ``einsum`` contractions.
    ``einsum`` (without ``optimize``) runs numpy's own loops, not BLAS, and
    their order of summation is fixed by the shapes alone.
    """
    lr, li = (np.asarray(p, dtype=float) for p in coeff)
    if not factors:
        return lr.sum(), li.sum()
    for fr, fi in factors[:-1]:
        lr, li = lr[..., None, :], li[..., None, :]
        lr, li = lr * fr - li * fi, lr * fi + li * fr
    fr, fi = factors[-1]

    def dot(a, b):
        return np.einsum("...m,qm->...q", a, b, optimize=False)

    return dot(lr, fr) - dot(li, fi), dot(lr, fi) + dot(li, fr)

def response_sum(coeff, ends, wavelength: float) -> np.ndarray:
    """Sum over rays m of coeff_m a_1(u_1m) (x) a_2(u_2m) (x) ..., complex.

    ``coeff`` is the (re, im) pair of the (M,) ray amplitudes; ``ends``
    lists one (geometry, unit) per array end, ``unit`` holding the (M, 3)
    ray directions there. Returns shape (size_1, size_2, ...). On the
    uniform grid each response factors as a(u) = a_h(u) (x) a_v(u), one
    factor per array axis (:func:`array_axes`). Axes of one element
    contribute the factor 1 and are left out, so a single-antenna end
    costs nothing and gives the very bits of a sum without that end. The
    C library is called once for the whole sum (:func:`power_factors`).
    """
    axes = [axis for geometry, unit in ends for axis in array_axes(geometry, unit, wavelength)]
    re, im = rank_one_sum(coeff, power_factors(axes))
    return as_complex(re, im).reshape([geometry.size for geometry, _ in ends])

def as_complex(re, im) -> np.ndarray:
    """Complex array from real and imaginary parts, bit for bit."""
    out = np.empty(np.shape(re), dtype=complex)
    out.real = re
    out.imag = im
    return out

def steering_matrix(
    geometry: ArrayGeometry, azimuth, elevation, wavelength: float
) -> np.ndarray:
    """Unit-magnitude array responses, one column per direction.

    Phase of element p toward direction u is (2 pi / lambda) <offset_p, u>;
    returns shape (size, M) for M directions (or (size,) for scalars).
    Built as the Kronecker product of the two axes' responses (see
    :func:`power_factors`).
    """
    az = np.atleast_1d(np.asarray(azimuth, dtype=float))
    el = np.atleast_1d(np.asarray(elevation, dtype=float))
    if az.shape != el.shape:
        raise ValueError(f"azimuth/elevation shapes differ: {az.shape} vs {el.shape}")
    m = az.size
    re, im = np.ones((1, m)), np.zeros((1, m))
    for fr, fi in power_factors(array_axes(geometry, direction_unit(az.ravel(), el.ravel()), wavelength)):
        re, im = re[:, None, :], im[:, None, :]
        re, im = (re * fr - im * fi).reshape(-1, m), (re * fi + im * fr).reshape(-1, m)
    a = as_complex(re, im)
    if np.isscalar(azimuth) or np.asarray(azimuth).ndim == 0:
        return a[:, 0]
    return a

def steering_vector(
    geometry: ArrayGeometry, angles: DirectionAngles, wavelength: float
) -> np.ndarray:
    """Array response toward one direction, shape (size,)."""
    return steering_matrix(geometry, angles.azimuth, angles.elevation, wavelength)
