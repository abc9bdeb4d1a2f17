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
from dataclasses import dataclass, replace
from enum import Enum
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from . import elementary as ef
from .arrays import as_complex
from .errors import GenerationError
from .geometry import vector_norm

if TYPE_CHECKING:  # pragma: no cover
    from .scene import Scene

__all__ = [
    "Link",
    "ScatteringParams",
    "ClusterSet",
    "ClusterDraw",
    "draw_clusters",
    "share_draw",
    "derive_sets",
    "generate_clusters",
    "share_clusters",
]


class Link(Enum):
    """The three hops of an RIS-assisted link."""

    TX_RIS = "txris"
    RIS_RX = "risrx"
    TX_RX = "txrx"


# Largest ``retry_cap``. At tens of microseconds per resampling round, a hop
# that cannot be placed fails within a second at this cap, not hours later.
MAX_RETRY_CAP = 10_000

# Most rays of one hop in either band: a sub-6 hop's n_clusters x n_rays
# (33 times its default 300), a clustered hop's cluster_density x
# max_subrays (its mean cluster count times its most sub-rays per cluster).
# A draw holds a few arrays of this many elements per hop.
MAX_RAYS_PER_HOP = 10_000


@dataclass(frozen=True)
class ScatteringParams:
    """Knobs of the cluster generator.

    The mean cluster count is the environment's ``cluster_density``. Sub-ray
    counts are drawn uniformly on [min_subrays, max_subrays]. Placement gives
    up after ``retry_cap`` resampling rounds, at most ``MAX_RETRY_CAP``.
    """

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


@dataclass(frozen=True, eq=False)
class ClusterSet:
    """One realization of the scatterers of one link.

    ``unit_a``/``unit_b`` hold the (M, 3) unit vectors from endpoint A/B to
    the scatterers, present only for endpoints with a fixed mounting plane
    (transmitter, RIS); a mobile receiver has none and its arrival
    directions are drawn elsewhere.
    """

    link: Link
    counts: np.ndarray  # (C,) sub-rays per cluster
    centers: np.ndarray  # (C, 3)
    positions: np.ndarray  # (M, 3) all sub-ray scatterers
    fading: np.ndarray  # (M,) complex, unit variance
    dist_a: np.ndarray  # (M,) endpoint A -> scatterer, meters
    dist_b: np.ndarray  # (M,) scatterer -> endpoint B, meters
    attenuation: np.ndarray  # (M,) linear power attenuation of each path
    unit_a: np.ndarray | None  # (M, 3)
    unit_b: np.ndarray | None  # (M, 3)
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


class _Placement(NamedTuple):
    """What a scene fixes about one link's scatterers."""

    anchors: np.ndarray  # (2, 3): the positions of endpoints A and B
    surfaces: tuple  # their mounting orientations, None for the mobile Rx
    lo: np.ndarray  # (3,) lower corner of the placement volume
    hi: np.ndarray  # (3,) upper corner
    span: np.ndarray  # (3,) hi - lo
    density: float  # mean cluster count


def _placement(scene: "Scene", link: Link) -> _Placement:
    env = scene.environment
    ends = scene.link(link)
    anchors = np.stack([point.as_array() for point in ends.points])
    lo = np.array([b[0] for b in env.bounds])
    hi = np.array([b[1] for b in env.bounds])
    return _Placement(anchors, ends.mounts, lo, hi, hi - lo, env.cluster_density)

def _ball(rng: np.random.Generator, n: int, radius: float) -> np.ndarray:
    """n points uniform in a ball of the given radius."""
    v = rng.standard_normal((n, 3))
    norm = vector_norm(v, axis=1, keepdims=True)
    norm[norm == 0.0] = 1.0
    r = radius * ef.cbrt(rng.random((n, 1)))
    return v / norm * r

def _admissible(pts, lo, hi, anchors, surfaces, min_leg: float) -> np.ndarray:
    """Mask of the (M, 3) points inside the box [lo, hi], in front of the
    mounted surfaces and at least ``min_leg`` from every anchor.

    ``anchors`` is a (K, 3) array of endpoint positions and ``surfaces``
    their K mounting orientations, None for an endpoint mounted on none.
    With d = point - anchor, a point is in front when the signed coordinate
    of d along the normal is positive, and far enough when
    ``|d| >= min_leg``, ``|d|`` being the :func:`vector_norm`. (Comparing
    ``|d|^2`` with ``min_leg^2`` instead can flip points on the boundary.)
    """
    ok = np.logical_and.reduce((pts >= lo) & (pts <= hi), axis=1)
    d = pts[:, None, :] - anchors
    for k, surface in enumerate(surfaces):
        if surface is not None:
            ok &= surface.normal_component(d[:, k]) > 0.0
    ok &= np.logical_and.reduce(vector_norm(d, axis=2) >= min_leg, axis=1)
    return ok

def _place(n, draw, ok, retry_cap, what):
    """n points from ``draw(count, rows)``, the rows that ``ok`` rejects
    drawn again (in ascending order) until all pass."""
    pts = draw(n, slice(None))
    idx = (~ok(pts)).nonzero()[0]
    rounds = 0
    while idx.size:
        rounds += 1
        if rounds > retry_cap:
            raise GenerationError(
                f"placing {what}: {idx.size}/{n} points still inadmissible "
                f"after {retry_cap} resampling rounds; the scene geometry leaves "
                "(almost) no volume inside bounds, in front of the mounted "
                "surfaces, and >= min_leg_m from the endpoints"
            )
        fresh = draw(idx.size, idx)
        pts[idx] = fresh
        idx = idx[~ok(fresh)]
    return pts

class ClusterDraw(NamedTuple):
    """The variates of one cluster set, as :func:`draw_clusters` reads them
    from the set's stream: accepted placement, fading and shadowing normals,
    before any quantity derived from them (:func:`derive_sets`).

    A set with ``reaimed`` set is a Tx-side set re-viewed from the Rx
    (:func:`share_clusters`): its placement and fading are the Tx-side
    set's, its shadowing normals its own.
    """

    link: Link
    counts: np.ndarray  # (C,) sub-rays per cluster
    centers: np.ndarray  # (C, 3)
    positions: np.ndarray  # (M, 3)
    fading: np.ndarray  # (M,) complex, unit variance
    shadow: np.ndarray | None  # (M,) shadowing normals, or None unshadowed
    reaimed: bool = False

    @property
    def n_subrays(self) -> int:
        return int(self.positions.shape[0])


def draw_clusters(scene: "Scene", link: Link, rng: np.random.Generator) -> ClusterDraw:
    """Stage 1 of :func:`generate_clusters`: every draw of one set from
    ``rng``, the rejection sampling included (it decides how many), with
    the scene's :class:`ScatteringParams`."""
    p = scene.scattering
    c = scene.constant(("placement", link), _placement, scene, link)

    n_clusters = int(rng.poisson(c.density))
    if p.at_least_one:
        n_clusters = max(1, n_clusters)
    counts = rng.integers(p.min_subrays, p.max_subrays + 1, size=n_clusters)

    def draw_centers(n, _idx):
        return c.lo + c.span * rng.random((n, 3))

    ok = lambda pts: _admissible(pts, c.lo, c.hi, c.anchors, c.surfaces, p.min_leg_m)
    centers = _place(n_clusters, draw_centers, ok, p.retry_cap, f"{link.value} cluster centers")

    anchor_of_point = np.repeat(centers, counts, axis=0)

    def draw_subrays(n, idx):
        return anchor_of_point[idx] + _ball(rng, n, p.spread_m)

    positions = _place(
        int(counts.sum()), draw_subrays, ok, p.retry_cap, f"{link.value} sub-ray scatterers"
    )

    m = positions.shape[0]
    fading_re = rng.standard_normal(m) / math.sqrt(2.0)  # drawn before the imaginary part
    fading = as_complex(fading_re, rng.standard_normal(m) / math.sqrt(2.0))
    shadow = rng.standard_normal(m) if scene.shadow_clustered else None
    return ClusterDraw(link, counts, centers, positions, fading, shadow)

def share_draw(scene: "Scene", tx_ris, rng: np.random.Generator | None = None) -> ClusterDraw:
    """Stage 1 of :func:`share_clusters`: the Tx-side set ``tx_ris`` (a
    :class:`ClusterDraw` or :class:`ClusterSet`) re-viewed from the Rx, with
    the shadowing normals of the re-aimed paths drawn from ``rng`` when the
    scene enables clustered shadowing."""
    if not scene.environment.indoor:
        raise ValueError("cluster sharing models an indoor layout; outdoor scenes draw an independent set")
    if tx_ris.link is not Link.TX_RIS:
        raise ValueError(f"expected a Tx-RIS cluster set, got {tx_ris.link}")
    shadow = None
    if scene.shadow_clustered:
        if rng is None:
            raise ValueError("rng required: scene draws shadowing on the re-aimed paths")
        shadow = rng.standard_normal(tx_ris.n_subrays)
    return ClusterDraw(
        Link.TX_RX, tx_ris.counts, tx_ris.centers, tx_ris.positions, tx_ris.fading, shadow, True
    )

def _legs(scene: "Scene", link: Link):
    """The anchors of a set's legs as a (3, 3) array, ends A and B of its
    link and then the surface (the end a re-aimed set's final leg
    replaces), with the mounts of A and B."""
    ends = scene.link(link)
    return np.stack([p.as_array() for p in (*ends.points, scene.ris)]), ends.mounts

def derive_sets(items) -> list[ClusterSet]:
    """Stage 2 of cluster generation for any number of sets: the
    :class:`ClusterSet` of each ``(scene, ClusterDraw)`` pair of ``items``.

    Reads no stream. The scenes of ``items`` share one model
    (:data:`rischan.scene.MODEL_FIELDS`; ValueError names the first field
    that differs), so the close-in law, the wavelength and the clustered
    shadowing switch are the first scene's. The sets' rays are
    concatenated and the derived quantities are one pass over all of them:
    the leg vectors and their :func:`vector_norm` distances, the two-leg
    close-in attenuation (one ``log10``, one ``pow10``), the unit
    directions, and the excess phases of re-aimed sets. Each element is
    computed as a one-set derivation computes it, so the bits do not depend
    on which other sets share the pass.
    """
    if not items:
        return []
    model = items[0][0]
    model.check_model(scene for scene, _ in items)
    sizes = [d.n_subrays for _, d in items]
    legs = [scene.constant(("legs", d.link), _legs, scene, d.link) for scene, d in items]
    anchors = np.repeat(np.array([anchors for anchors, _ in legs]), sizes, axis=0)
    rel = np.concatenate([d.positions for _, d in items])[:, None, :] - anchors
    dist = vector_norm(rel, axis=2)  # (M, 3): to A, to B, to the surface
    unit = rel[:, :2] / dist[:, :2, None]
    shadow = np.concatenate([d.shadow for _, d in items]) if model.shadow_clustered else None
    att = model.close_in(False).sample(dist[:, 0] + dist[:, 1], shadow).linear
    extra = None
    if any(d.reaimed for _, d in items):
        # re-aiming the final leg from the surface to B (the Rx): the travel
        # difference |s - rx| - |s - ris| modulo one wavelength, in radians
        extra = 2.0 * math.pi * np.mod((dist[:, 1] - dist[:, 2]) / model.wavelength, 1.0)

    out, start = [], 0
    for (_, d), (_, (mount_a, mount_b)), m in zip(items, legs, sizes):
        stop = start + m
        out.append(ClusterSet(
            link=d.link, counts=d.counts, centers=d.centers, positions=d.positions, fading=d.fading,
            dist_a=dist[start:stop, 0], dist_b=dist[start:stop, 1], attenuation=att[start:stop],
            unit_a=None if mount_a is None else unit[start:stop, 0],
            unit_b=None if mount_b is None else unit[start:stop, 1],
            extra_phase=extra[start:stop] if d.reaimed else None,
        ))
        start = stop
    return out

def generate_clusters(scene: "Scene", link: Link, rng: np.random.Generator) -> ClusterSet:
    """Draw one scatterer realization for ``link`` from ``rng``: the
    :func:`draw_clusters` stage, then :func:`derive_sets` on that one set."""
    return derive_sets([(scene, draw_clusters(scene, link, rng))])[0]

def share_clusters(
    scene: "Scene", tx_ris: ClusterSet, rng: np.random.Generator | None = None
) -> ClusterSet:
    """Re-view the Tx-RIS scatterers from the receiver for the direct link.

    Indoor scenes model the direct Tx-Rx channel through the same physical
    scatterers: positions, per-cluster counts, complex fading and the Tx
    legs are the very same arrays (aliased, bitwise identical), while the
    final leg is re-aimed at the Rx, which changes travel distances,
    attenuation, and adds a per-path excess phase. ``rng``
    supplies the shadowing draws of the re-aimed paths when the scene
    enables clustered shadowing (:func:`share_draw`, then
    :func:`derive_sets` on that one set).
    """
    shared = derive_sets([(scene, share_draw(scene, tx_ris, rng))])[0]
    return replace(shared, dist_a=tx_ris.dist_a, unit_a=tx_ris.unit_a)
