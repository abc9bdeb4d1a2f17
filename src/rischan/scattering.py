"""Cluster/sub-ray scatterer generation for the clustered channel models.

One realization of a link draws a Poisson number of clusters, a uniform
number of sub-rays per cluster, scatterer positions (cluster centers uniform
over the environment volume, sub-rays uniform in a ball around their
center), complex unit-variance sub-ray fading, and per-path attenuation from
the two-leg travel distance. Placement is rejection-sampled so every
scatterer is inside the environment bounds, in front of each fixed-mounted
endpoint surface, and at least ``min_leg_m`` from both endpoints.

Draw order per call is fixed (cluster count, sub-ray counts, centers,
sub-ray offsets, fading, shadowing), so equal seeds give equal sets; the
number of uniform draws consumed varies only with rejection retries, which
are themselves deterministic for a given scene and seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from . import elementary as ef
from .arrays import as_complex
from .errors import GenerationError
from .geometry import Point3
from .propagation import path_loss

if TYPE_CHECKING:  # pragma: no cover
    from .scene import Scene

__all__ = [
    "Link",
    "ScatteringParams",
    "AngleSet",
    "ClusterSet",
    "generate_clusters",
    "share_clusters",
    "excess_phase",
]


class Link(Enum):
    """The three hops of an RIS-assisted link."""

    TX_RIS = "txris"
    RIS_RX = "risrx"
    TX_RX = "txrx"


# Largest ``retry_cap``. At tens of microseconds per resampling round, a hop
# that cannot be placed fails within a second at this cap, not hours later.
MAX_RETRY_CAP = 10_000


@dataclass(frozen=True)
class ScatteringParams:
    """Knobs of the cluster generator.

    ``cluster_density`` of None defers to the environment default. Sub-ray
    counts are drawn uniformly on [min_subrays, max_subrays]. Placement gives
    up after ``retry_cap`` resampling rounds, at most ``MAX_RETRY_CAP``.
    """

    cluster_density: float | None = None
    min_subrays: int = 1
    max_subrays: int = 30
    spread_m: float = 1.5
    min_leg_m: float = 1.0
    retry_cap: int = 1000
    at_least_one: bool = True

    def __post_init__(self) -> None:
        if not (1 <= self.min_subrays <= self.max_subrays):
            raise ValueError(
                f"need 1 <= min_subrays <= max_subrays, got {self.min_subrays}..{self.max_subrays}"
            )
        if self.spread_m < 0 or self.min_leg_m < 0:
            raise ValueError("spread_m and min_leg_m must be >= 0")
        if not 1 <= self.retry_cap <= MAX_RETRY_CAP:
            raise ValueError(f"retry_cap must be in [1, {MAX_RETRY_CAP}], got {self.retry_cap!r}")
        if self.cluster_density is not None and not self.cluster_density >= 0:
            raise ValueError(f"cluster_density must be >= 0, got {self.cluster_density!r}")


@dataclass(frozen=True)
class AngleSet:
    """Per-sub-ray directions seen from one fixed endpoint.

    ``unit`` holds the (M, 3) unit vectors from the endpoint to the
    scatterers, ``cos_boresight`` their components along the endpoint's
    surface normal. The generators use these; the angles (conventions of
    :mod:`rischan.geometry`) are derived from them on first use.
    """

    unit: np.ndarray
    cos_boresight: np.ndarray

    @cached_property
    def azimuth(self) -> np.ndarray:
        az = ef.arctan2(self.unit[:, 1], self.unit[:, 0])
        return np.where(az == -math.pi, math.pi, az)  # keep azimuth in (-pi, pi]

    @cached_property
    def elevation(self) -> np.ndarray:
        return ef.arccos(np.clip(self.unit[:, 2], -1.0, 1.0))

    @cached_property
    def boresight(self) -> np.ndarray:
        return ef.arccos(np.clip(self.cos_boresight, -1.0, 1.0))


@dataclass(frozen=True, eq=False)
class ClusterSet:
    """One realization of the scatterers of one link.

    ``angles_a``/``angles_b`` are present only for endpoints with a fixed
    mounting plane (transmitter, RIS); a mobile receiver has none and its
    arrival directions are drawn elsewhere.
    """

    link: Link
    counts: np.ndarray  # (C,) sub-rays per cluster
    centers: np.ndarray  # (C, 3)
    positions: np.ndarray  # (M, 3) all sub-ray scatterers
    fading: np.ndarray  # (M,) complex, unit variance
    dist_a: np.ndarray  # (M,) endpoint A -> scatterer, meters
    dist_b: np.ndarray  # (M,) scatterer -> endpoint B, meters
    attenuation: np.ndarray  # (M,) linear power attenuation of each path
    angles_a: AngleSet | None
    angles_b: AngleSet | None
    extra_phase: np.ndarray | None = None  # (M,) radians, re-aimed final leg

    @property
    def n_clusters(self) -> int:
        return int(self.counts.size)

    @property
    def n_subrays(self) -> int:
        return int(self.positions.shape[0])

    @property
    def normalization(self) -> float:
        """Amplitude factor making the expected clustered power sum to one
        per unit path gain: 1/sqrt(total sub-ray count)."""
        m = self.n_subrays
        return 1.0 / math.sqrt(m) if m else 0.0


def _endpoints(scene: "Scene", link: Link):
    """(pos_a, surface_a, pos_b, surface_b); surface None for the mobile Rx."""
    if link is Link.TX_RIS:
        return (
            scene.tx.as_array(), scene.tx_geometry.orientation,
            scene.ris.as_array(), scene.ris_geometry.orientation,
        )
    if link is Link.RIS_RX:
        return (
            scene.ris.as_array(), scene.ris_geometry.orientation,
            scene.rx.as_array(), None,
        )
    return (
        scene.tx.as_array(), scene.tx_geometry.orientation,
        scene.rx.as_array(), None,
    )

def _ball(rng: np.random.Generator, n: int, radius: float) -> np.ndarray:
    """n points uniform in a ball of the given radius."""
    v = rng.standard_normal((n, 3))
    norm = np.linalg.norm(v, axis=1, keepdims=True)
    norm[norm == 0.0] = 1.0
    r = radius * ef.cbrt(rng.random((n, 1)))
    return v / norm * r

def _admissible(pts, bounds, anchors) -> np.ndarray:
    """Mask of points inside bounds, in front of surfaces, legs long enough."""
    ok = np.ones(pts.shape[0], dtype=bool)
    for axis, (lo, hi) in enumerate(bounds):
        ok &= (pts[:, axis] >= lo) & (pts[:, axis] <= hi)
    for pos, surface, min_leg in anchors:
        d = pts - pos
        if surface is not None:
            ok &= surface.normal_component(d) > 0.0
        ok &= np.linalg.norm(d, axis=1) >= min_leg
    return ok

def _place(rng, n, draw, ok, retry_cap, what):
    pts = draw(n, np.arange(n))
    bad = ~ok(pts)
    rounds = 0
    while bad.any():
        rounds += 1
        if rounds > retry_cap:
            raise GenerationError(
                f"placing {what}: {int(bad.sum())}/{n} points still inadmissible "
                f"after {retry_cap} resampling rounds; the scene geometry leaves "
                "(almost) no volume inside bounds, in front of the mounted "
                "surfaces, and >= min_leg_m from the endpoints"
            )
        idx = np.flatnonzero(bad)
        fresh = draw(idx.size, idx)
        pts[idx] = fresh
        bad[idx] = ~ok(fresh)
    return pts

def generate_clusters(
    scene: "Scene", link: Link, rng: np.random.Generator, params: ScatteringParams | None = None
) -> ClusterSet:
    """Draw one scatterer realization for ``link`` from ``rng``."""
    p = params if params is not None else scene.scattering
    env = scene.environment
    density = p.cluster_density if p.cluster_density is not None else env.cluster_density
    pos_a, surf_a, pos_b, surf_b = _endpoints(scene, link)
    anchors = [(pos_a, surf_a, p.min_leg_m), (pos_b, surf_b, p.min_leg_m)]
    bounds = env.bounds
    lo = np.array([b[0] for b in bounds])
    span = np.array([b[1] - b[0] for b in bounds])

    n_clusters = int(rng.poisson(density))
    if p.at_least_one:
        n_clusters = max(1, n_clusters)
    if n_clusters == 0:
        empty3 = np.zeros((0, 3))
        empty = np.zeros(0)
        return ClusterSet(
            link=link,
            counts=np.zeros(0, dtype=int),
            centers=empty3,
            positions=empty3,
            fading=np.zeros(0, dtype=complex),
            dist_a=empty,
            dist_b=empty,
            attenuation=empty,
            angles_a=AngleSet(empty3, empty) if surf_a is not None else None,
            angles_b=AngleSet(empty3, empty) if surf_b is not None else None,
        )

    counts = rng.integers(p.min_subrays, p.max_subrays + 1, size=n_clusters)

    def draw_centers(n, _idx):
        return lo + span * rng.random((n, 3))

    ok = lambda pts: _admissible(pts, bounds, anchors)
    centers = _place(rng, n_clusters, draw_centers, ok, p.retry_cap, f"{link.value} cluster centers")

    anchor_of_point = np.repeat(centers, counts, axis=0)

    def draw_subrays(n, idx):
        return anchor_of_point[idx] + _ball(rng, n, p.spread_m)

    positions = _place(
        rng, int(counts.sum()), draw_subrays, ok, p.retry_cap, f"{link.value} sub-ray scatterers"
    )

    m = positions.shape[0]
    fading_re = rng.standard_normal(m) / math.sqrt(2.0)  # drawn before the imaginary part
    fading = as_complex(fading_re, rng.standard_normal(m) / math.sqrt(2.0))
    dist_a = np.linalg.norm(positions - pos_a, axis=1)
    dist_b = np.linalg.norm(positions - pos_b, axis=1)
    shadow = rng.standard_normal(m) if scene.shadow_clustered else None
    att = path_loss(scene.frequency_hz, dist_a + dist_b, env.path_loss, los=False, shadow=shadow)

    def angset(pos, surf, dist):
        if surf is None:
            return None
        unit = (positions - pos) / dist[:, None]
        return AngleSet(unit, surf.normal_component(unit))

    return ClusterSet(
        link=link,
        counts=counts,
        centers=centers,
        positions=positions,
        fading=fading,
        dist_a=dist_a,
        dist_b=dist_b,
        attenuation=np.asarray(att.linear, dtype=float),
        angles_a=angset(pos_a, surf_a, dist_a),
        angles_b=angset(pos_b, surf_b, dist_b),
    )

def excess_phase(positions, ris: Point3, rx: Point3, wavelength: float) -> np.ndarray:
    """Phase of re-aiming a scatterer's final leg from the RIS to the Rx.

    For each scatterer the travel difference ``|s - rx| - |s - ris|`` is
    reduced modulo one wavelength and expressed in radians, in [0, 2 pi).
    """
    pts = np.atleast_2d(np.asarray(positions, dtype=float))
    d_rx = np.linalg.norm(pts - rx.as_array(), axis=1)
    d_ris = np.linalg.norm(pts - ris.as_array(), axis=1)
    phase = 2.0 * math.pi * np.mod((d_rx - d_ris) / wavelength, 1.0)
    return phase if np.asarray(positions).ndim > 1 else float(phase[0])

def share_clusters(
    scene: "Scene", tx_ris: ClusterSet, rng: np.random.Generator | None = None
) -> ClusterSet:
    """Re-view the Tx-RIS scatterers from the receiver for the direct link.

    Indoor scenes model the direct Tx-Rx channel through the same physical
    scatterers: positions, per-cluster counts, and complex fading are the
    very same arrays (aliased, bitwise identical), while the final leg is
    re-aimed at the Rx, which changes travel distances, attenuation, and
    adds the per-path :func:`excess_phase`. ``rng`` supplies the shadowing
    draws of the re-aimed paths when the scene enables clustered shadowing.
    """
    if not scene.environment.indoor:
        raise ValueError("cluster sharing models an indoor layout; outdoor scenes draw an independent set")
    if tx_ris.link is not Link.TX_RIS:
        raise ValueError(f"expected a Tx-RIS cluster set, got {tx_ris.link}")
    rx = scene.rx.as_array()
    dist_b = np.linalg.norm(tx_ris.positions - rx, axis=1)
    m = tx_ris.n_subrays
    if scene.shadow_clustered:
        if rng is None:
            raise ValueError("rng required: scene draws shadowing on the re-aimed paths")
        shadow = rng.standard_normal(m)
    else:
        shadow = None
    att = path_loss(
        scene.frequency_hz,
        tx_ris.dist_a + dist_b,
        scene.environment.path_loss,
        los=False,
        shadow=shadow,
    )
    extra = excess_phase(tx_ris.positions, scene.ris, scene.rx, scene.wavelength)
    return ClusterSet(
        link=Link.TX_RX,
        counts=tx_ris.counts,
        centers=tx_ris.centers,
        positions=tx_ris.positions,
        fading=tx_ris.fading,
        dist_a=tx_ris.dist_a,
        dist_b=dist_b,
        attenuation=np.asarray(att.linear, dtype=float),
        angles_a=tx_ris.angles_a,
        angles_b=None,
        extra_phase=np.atleast_1d(np.asarray(extra, dtype=float)),
    )
