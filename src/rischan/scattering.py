"""Cluster/sub-ray scatterer generation for the clustered channel models.

One realization of a link draws a Poisson number of clusters, a uniform
number of sub-rays per cluster, scatterer positions (cluster centers uniform
over the environment volume, sub-rays uniform in a ball around their
center), complex unit-variance sub-ray fading, and per-path attenuation from
the two-leg travel distance. Placement is rejection-sampled so every
scatterer is inside the environment bounds, in front of each fixed-mounted
endpoint surface, and at least ``min_leg_m`` from both endpoints.

Each set reads its own stream in a fixed order (cluster count, sub-ray
counts, centers, sub-ray offsets, fading, shadowing), so equal seeds give
equal sets; the number of uniform draws consumed varies only with
rejection retries, which are themselves deterministic for a given scene
and seed. :func:`draw_clusters_many` draws a table of sets, one stream
each, and places them in lockstep: a rejection round runs its arithmetic
once over the points of every set still redrawing, elementwise, so a set
has the same bits in any table (:func:`draw_clusters` is the one-set
case).
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
    "draw_clusters_many",
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

# Sub-rays a lockstep group of :func:`draw_clusters_many` places at once (at
# least one row of sets). It bounds the placement temporaries of a group and
# the rows drawn before a failure stops the draw, not the memory of a whole
# table, whose records all live until it returns: a run chunk fits in one
# group or a few at the same peak, and an indoor realize(range(2000)) call
# peaks at 16 MB traced with it and 21 MB without. No output bit depends on
# it.
_GROUP_RAYS = MAX_RAYS_PER_HOP


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
    """What a scene fixes about one link's scatterers: where they may lie
    and where their legs end. Placement keeps the scatterers away from ends
    A and B; the surface is the end that a re-aimed set's final leg
    replaces (:func:`derive_sets`)."""

    anchors: np.ndarray  # (3, 3): ends A and B of the link, then the surface
    surfaces: tuple  # the mounting orientations of A and B, None for the mobile Rx
    lo: np.ndarray  # (3,) lower corner of the placement volume
    hi: np.ndarray  # (3,) upper corner
    span: np.ndarray  # (3,) hi - lo
    density: float  # mean cluster count


def _placement(scene: "Scene", link: Link) -> _Placement:
    env = scene.environment
    ends = scene.link(link)
    anchors = np.stack([point.as_array() for point in (*ends.points, scene.ris)])
    lo = np.array([b[0] for b in env.bounds])
    hi = np.array([b[1] for b in env.bounds])
    return _Placement(anchors, ends.mounts, lo, hi, hi - lo, env.cluster_density)

def _ball(parts, radius: float) -> np.ndarray:
    """Points uniform in a ball of the given radius: for each ``(rng, n)``
    of ``parts``, n normal triples and then n uniforms from ``rng``, and
    one pass of arithmetic over the points of all of them."""
    v = np.concatenate([rng.standard_normal((n, 3)) for rng, n in parts])
    u = np.concatenate([rng.random((n, 1)) for rng, n in parts])
    norm = vector_norm(v, axis=1, keepdims=True)
    norm[norm == 0.0] = 1.0
    r = radius * ef.cbrt(u)
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

def _place_many(parts, draw, ok, retry_cap: int):
    """The points of the sets ``parts``, one ``(rng, n)`` each, concatenated,
    and per set how many of its points are still rejected after
    ``retry_cap`` resampling rounds (0 for a placed set).

    ``draw(parts, rows)`` makes the points of rows ``rows`` of the table,
    n of them from each ``(rng, n)`` of ``parts``; the rows that ``ok``
    rejects are drawn again, each set's in ascending order, until all pass.
    A round draws from every set that still has rejected rows and runs the
    arithmetic of ``draw`` and ``ok`` once over all of their points."""
    owner = np.repeat(np.arange(len(parts)), [n for _, n in parts])
    pts = draw(parts, slice(None))
    idx = (~ok(pts)).nonzero()[0]
    for _ in range(retry_cap):
        if not idx.size:
            break
        redo = np.bincount(owner[idx], minlength=len(parts))
        fresh = draw([(rng, k) for (rng, _), k in zip(parts, redo) if k], idx)
        pts[idx] = fresh
        idx = idx[~ok(fresh)]
    return pts, np.bincount(owner[idx], minlength=len(parts))

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


def _place_column(scene: "Scene", link: Link, rngs, counts):
    """Place the sets of one column in lockstep, set s drawn from
    ``rngs[s]`` with the sub-ray counts ``counts[s]``: the centers and the
    positions of all of them, concatenated, and the first set that fails
    as ``(s, message)``, or None. No set after a set whose centers fail
    has its sub-rays placed."""
    p = scene.scattering
    c = scene.constant(("placement", link), _placement, scene, link)

    def ok(pts):
        return _admissible(pts, c.lo, c.hi, c.anchors[:2], c.surfaces, p.min_leg_m)

    def draw_centers(parts, _rows):
        return c.lo + c.span * np.concatenate([rng.random((n, 3)) for rng, n in parts])

    def draw_subrays(parts, rows):
        return anchor_of_point[rows] + _ball(parts, p.spread_m)

    sizes, m = [k.size for k in counts], [int(k.sum()) for k in counts]
    centers, left = _place_many(list(zip(rngs, sizes)), draw_centers, ok, p.retry_cap)
    failure, positions = None, np.zeros((0, 3))
    if left.any():
        s = int(left.nonzero()[0][0])
        failure, rngs = (s, "cluster centers", left[s], sizes[s]), rngs[:s]
    if rngs:
        # the sub-rays of the sets before the first failing one only
        anchor_of_point = np.repeat(centers, np.concatenate(counts), axis=0)[: sum(m[: len(rngs)])]
        positions, lost = _place_many(list(zip(rngs, m)), draw_subrays, ok, p.retry_cap)
        if lost.any():
            s = int(lost.nonzero()[0][0])
            failure = (s, "sub-ray scatterers", lost[s], m[s])
    if failure is not None:
        s, what, still, n = failure
        failure = s, (
            f"placing {link.value} {what}: {still}/{n} points still inadmissible "
            f"after {p.retry_cap} resampling rounds; the scene geometry leaves "
            "(almost) no volume inside bounds, in front of the mounted "
            "surfaces, and >= min_leg_m from the endpoints"
        )
    return centers, positions, failure

def _draw_group(columns, rows, counts) -> list[tuple[ClusterDraw, ...]]:
    """The sets of one group of rows of :func:`draw_clusters_many`, each
    column placed in lockstep; raises the first failure in row, then
    column order, before any fading is drawn."""
    placed, failures = [], []
    for j, (scene, link) in enumerate(columns):
        rngs, ks = [row[j] for row in rows], [row[j] for row in counts]
        centers, positions, failure = _place_column(scene, link, rngs, ks)
        placed.append((rngs, ks, centers, positions))
        if failure is not None:
            failures.append((failure[0], j, failure[1]))
    if failures:
        raise GenerationError(min(failures)[2])
    table = []
    for (scene, link), (rngs, ks, centers, positions) in zip(columns, placed):
        m = [int(k.sum()) for k in ks]
        cuts = np.cumsum(m)[:-1]  # where the sub-rays of each set after the first start
        # per set, the real parts, then the imaginary parts, then the shadowing
        re = np.concatenate([rng.standard_normal(n) for rng, n in zip(rngs, m)]) / math.sqrt(2.0)
        im = np.concatenate([rng.standard_normal(n) for rng, n in zip(rngs, m)]) / math.sqrt(2.0)
        fading = np.split(as_complex(re, im), cuts)
        shadow = [None] * len(rngs)
        if scene.shadow_clustered:
            shadow = np.split(np.concatenate([rng.standard_normal(n) for rng, n in zip(rngs, m)]), cuts)
        centers = np.split(centers, np.cumsum([k.size for k in ks])[:-1])
        table.append([
            ClusterDraw(link, *variates) for variates in zip(ks, centers, np.split(positions, cuts), fading, shadow)
        ])
    return [tuple(sets[r] for sets in table) for r in range(len(rows))]

def draw_clusters_many(columns, rows) -> list[tuple[ClusterDraw, ...]]:
    """Stage 1 of a table of cluster sets: per row of ``rows``, the tuple
    of its sets, entry j drawn from stream ``row[j]`` for ``columns[j]``,
    a ``(scene, link)`` pair, with that scene's :class:`ScatteringParams`.

    Each set reads its own stream in one fixed order: the Poisson cluster
    count, the sub-ray counts, the center block, a block for each redraw
    of its rejected centers (in ascending order), then per sub-ray round
    the ball normals and radii, then the fading (real parts before
    imaginary ones) and, when the scene enables clustered shadowing, the
    shadowing normals. A stream may feed one set only. So every set has
    the bits it has alone (:func:`draw_clusters`), whatever else is in
    the table, and leaves its stream where its draw alone would.

    The sub-ray counts are drawn first; the rows are then placed in groups
    of consecutive rows holding at most :data:`_GROUP_RAYS` sub-rays (at
    least one row). Within a group, the sets of a column are placed in
    lockstep: a rejection round draws from every set that still has
    rejected points and runs the arithmetic once over all their points
    (the affine map of the centers, the ball's norm, cube root and scale,
    and the admissibility mask), elementwise or as fixed 3-term row sums,
    so that no bit depends on the group. A set still rejected after
    ``retry_cap`` rounds raises :class:`GenerationError`; of several, the
    first in row, then column order (centers before sub-rays within a
    set), with the message a loop over the rows would raise, and no later
    group is drawn.
    """
    streams = [rng for row in rows for rng in row]
    if len(set(map(id, streams))) != len(streams):
        raise ValueError("a stream may feed one cluster set only")
    knobs = [(scene.scattering, scene.constant(("placement", link), _placement, scene, link).density)
             for scene, link in columns]
    counts = []
    for row in rows:
        counts.append([])
        for (p, density), rng in zip(knobs, row):
            n_clusters = int(rng.poisson(density))
            if p.at_least_one:
                n_clusters = max(1, n_clusters)
            counts[-1].append(rng.integers(p.min_subrays, p.max_subrays + 1, size=n_clusters))
    out, start = [], 0
    rays = [sum(int(k.sum()) for k in row) for row in counts]
    while start < len(rows):
        stop, total = start + 1, rays[start]
        while stop < len(rows) and total + rays[stop] <= _GROUP_RAYS:
            total, stop = total + rays[stop], stop + 1
        out += _draw_group(columns, rows[start:stop], counts[start:stop])
        start = stop
    return out

def draw_clusters(scene: "Scene", link: Link, rng: np.random.Generator) -> ClusterDraw:
    """Stage 1 of :func:`generate_clusters`: every draw of one set from
    ``rng``, the rejection sampling included (it decides how many), with
    the scene's :class:`ScatteringParams`; the one-set case of
    :func:`draw_clusters_many`."""
    return draw_clusters_many([(scene, link)], [(rng,)])[0][0]

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
    placed = [scene.constant(("placement", d.link), _placement, scene, d.link) for scene, d in items]
    anchors = np.repeat(np.array([c.anchors for c in placed]), sizes, axis=0)
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
    for (_, d), c, m in zip(items, placed, sizes):
        mount_a, mount_b = c.surfaces
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
