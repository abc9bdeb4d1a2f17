"""Scene geometry: points, wall-mounted surface orientations, link angles.

Conventions used everywhere in the package:

* right-handed x/y/z coordinates in meters, z up;
* elevation is the polar angle measured from the +z axis, in [0, pi];
* azimuth is measured from the +x axis in the xy-plane, in (-pi, pi];
* the boresight angle of a direction relative to a mounted surface is the
  angle to the surface normal, in [0, pi]; targets with boresight > pi/2 are
  behind the surface. Its cosine is the unit direction's
  :meth:`SurfaceOrientation.normal_component`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import elementary as ef

__all__ = [
    "Plane",
    "Point3",
    "SurfaceOrientation",
    "DirectionAngles",
    "distance",
    "distance_2d",
    "angles_from",
    "direction_unit",
    "vector_norm",
]


class Plane(Enum):
    """Mounting plane of a wall surface."""

    XZ = "xz"  # side wall, broadside along y
    YZ = "yz"  # end wall, broadside along x

    @property
    def axes(self) -> tuple[int, int]:
        """World indices (horizontal, normal) of the plane's in-plane
        horizontal axis and of its normal; the in-plane vertical axis is z."""
        return (0, 1) if self is Plane.XZ else (1, 0)


@dataclass(frozen=True)
class Point3:
    """A position in meters."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        for name in ("x", "y", "z"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"Point3.{name} must be finite, got {v!r}")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)


@dataclass(frozen=True)
class SurfaceOrientation:
    """Which wall a surface is mounted on, and which way it faces.

    ``facing=+1`` keeps the default broadside (+y for an xz wall, +x for a
    yz wall); ``facing=-1`` flips it for scenes where the served volume lies
    on the other side of the mounting plane.
    """

    plane: Plane
    facing: int = 1

    def __post_init__(self) -> None:
        if self.facing not in (1, -1):
            raise ValueError(f"SurfaceOrientation.facing must be +1 or -1, got {self.facing!r}")

    @property
    def normal(self) -> np.ndarray:
        n = np.zeros(3)
        n[self.plane.axes[1]] = 1.0
        return self.facing * n

    def normal_component(self, vectors) -> np.ndarray:
        """Component of each (..., 3) vector along the normal.

        The normal is a coordinate axis, so this is one signed coordinate:
        exact, with no dot product whose rounding could depend on the CPU.
        """
        v = np.asarray(vectors, dtype=float)[..., self.plane.axes[1]]
        return v if self.facing == 1 else -v


@dataclass(frozen=True)
class DirectionAngles:
    """Azimuth and elevation of one link direction."""

    azimuth: float
    elevation: float


def distance(a: Point3, b: Point3) -> float:
    """Euclidean distance in meters."""
    return math.dist((a.x, a.y, a.z), (b.x, b.y, b.z))

def distance_2d(a: Point3, b: Point3) -> float:
    """Ground (xy-plane) distance in meters, used by visibility models."""
    return math.hypot(b.x - a.x, b.y - a.y)

def vector_norm(v: np.ndarray, axis: int = -1, keepdims: bool = False) -> np.ndarray:
    """Euclidean norms of the float vectors along ``axis`` of ``v``.

    ``sqrt(add.reduce(v * v, axis))``: the very expression
    ``np.linalg.norm(v, axis=axis)`` evaluates for a real array, without
    its argument handling, so the bits are the same.
    """
    return np.sqrt(np.add.reduce(v * v, axis=axis, keepdims=keepdims))

def direction_unit(azimuth, elevation) -> np.ndarray:
    """Unit vector(s) for (azimuth, elevation); broadcasts over arrays."""
    az, el = np.asarray(azimuth, dtype=float), np.asarray(elevation, dtype=float)
    if az.shape != el.shape:
        az, el = np.broadcast_arrays(az, el)
    c, s = ef.cis(np.stack([az, el]))
    return np.stack([s[1] * c[0], s[1] * s[0], c[1]], axis=-1)

def angles_from(origin: Point3, target: Point3) -> DirectionAngles:
    """Azimuth/elevation of ``target`` as seen from ``origin``, each one
    C-library call (``atan2``, ``acos``) on the difference vector.

    Raises ValueError when the points coincide (the direction is undefined).
    """
    d = target.as_array() - origin.as_array()
    r = vector_norm(d)
    if r == 0.0:
        raise ValueError("direction undefined: target coincides with origin")
    az = float(ef.arctan2(d[1], d[0]))
    el = float(ef.arccos(np.clip(d[2] / r, -1.0, 1.0)))
    return DirectionAngles(math.pi if az == -math.pi else az, el)  # azimuth in (-pi, pi]
