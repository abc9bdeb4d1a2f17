"""Clustered mmWave channel generation for RIS-assisted links.

Model summary. Each hop is a sum of a clustered component and (when visible)
a line-of-sight ray:

* Tx -> surface ``h``/``H``: sub-rays arrive at the surface from the shared
  scatterers with complex fading, element-pattern gain at the arrival
  boresight, and two-leg close-in attenuation; the LOS ray carries a
  distance-dependent visibility indicator, a uniform phase, and the
  element gain toward the Tx. Everything is phased by the surface array
  response; the clustered sum is scaled by 1/sqrt(total sub-ray count).
* Surface -> Rx ``g``/``G``: indoors this hop is modeled as pure LOS
  (placement guarantees visibility); outdoors it gets its own cluster set
  plus a Bernoulli LOS ray.
* Tx -> Rx ``d``/``D``: no surface is involved, so no element pattern and no
  surface steering. Indoors the hop re-views the Tx-side scatterers (same
  fading, re-aimed final leg with an excess phase); outdoors it draws an
  independent set.

A realization is one :class:`ChannelRealization`: an (H_k, G_k) pair per
surface plus D, a single surface being the one-panel case. One draw loop
over a ``(scene, streams)`` pair per panel serves :func:`gen_mimo`,
:func:`realize` and :func:`rischan.multiris.realize_multi`, and
:func:`compose` forms ``C = D + sum_k G_k diag(exp(j phi_k)) H_k``.

Multi-antenna terminals turn each ray's rank-one contribution into an outer
product of the two ends' array responses (plain transpose, no conjugation).
Departure angles at the wall-mounted Tx are geometric; arrival angles at the
mobile Rx are drawn uniformly (azimuth on (-pi, pi], elevation on [0, pi])
from a dedicated stream, so single-antenna outputs are unaffected by the
existence of the multi-antenna code path.

Determinism contract. Every routine draws from generators handed to it, in
a documented fixed order. Each line-of-sight block consumes exactly one
uniform (visibility), one uniform (phase), and, if the scene enables LOS
shadowing, one normal draw, whether or not the ray ends up visible; forced
"on"/"off" modes consume the same draws. :class:`RealizationStreams` names
one substream per purpose, derived when the draw first reads it, so
realizations can be generated independently, in any order, with
bitwise-stable results. The arithmetic from the draws
to the matrices follows the README's determinism contract (no BLAS; the
elementary functions of :mod:`rischan.elementary`), so those bits do not
depend on the CPU either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import elementary as ef
from .arrays import ArrayGeometry, axis_factors, element_gain_cos, response_sum
# unused here, but bench/tracer.py wraps these names of this module
from .arrays import element_gain, steering_matrix, steering_vector  # noqa: F401
from .geometry import direction_unit
from .propagation import PathLossSample
from .scattering import ClusterSet, Link, generate_clusters, share_clusters
from .scene import Scene
from .streams import NamedStreams, substream

__all__ = [
    "RealizationStreams",
    "ChannelRealization",
    "gen_h",
    "gen_g",
    "gen_hsiso",
    "gen_mimo",
    "realize",
    "compose",
    "compose_end_to_end",
]

_SINGLE = ArrayGeometry(1)


class RealizationStreams(NamedStreams):
    """The named substreams consumed by one channel realization, each
    derived the first time the draw reads it.

    ``panel`` tags the surface-specific streams so multi-surface scenes get
    independent draws per surface while the direct link stays common to all
    of them (one physical Tx-Rx path, whatever the surface count).
    """

    PANEL_PATHS = {
        "clusters_h": ("clusters", "txris"),
        "clusters_g": ("clusters", "risrx"),
        "h": ("link", "h"),
        "g": ("link", "g"),
        "rxang_g": ("rxang", "g"),
    }
    COMMON_PATHS = {
        "clusters_d": ("clusters", "txrx"),
        "d": ("link", "d"),
        "rxang_d": ("rxang", "d"),
    }

    def _derive(self, master_seed: int, *path) -> np.random.Generator:
        return substream(master_seed, *path)  # this module's binding, read per call


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """One draw of a scene's channel matrices: an (H_k, G_k) hop pair per
    surface plus the common direct link. A single-surface scene is the
    one-panel case; ``H``, ``G`` and ``los`` view its (first) panel."""

    hops: tuple[tuple[np.ndarray, np.ndarray], ...]  # (H_k (N_k, Nt), G_k (Nr, N_k))
    D: np.ndarray  # (Nr, Nt) direct Tx -> Rx
    los_panels: tuple[dict[Link, bool], ...]  # TX_RIS and RIS_RX visibility per panel
    los_direct: bool
    index: int = 0

    @property
    def n_panels(self) -> int:
        return len(self.hops)

    @property
    def H(self) -> np.ndarray:
        return self.hops[0][0]

    @property
    def G(self) -> np.ndarray:
        return self.hops[0][1]

    @property
    def los(self) -> dict[Link, bool]:
        return {**self.los_panels[0], Link.TX_RX: self.los_direct}

    @property
    def outage_links(self) -> frozenset[Link]:
        """Hops of the first panel and the direct link whose matrix came out
        identically zero (no LOS, no rays)."""
        mats = ((Link.TX_RIS, self.H), (Link.RIS_RX, self.G), (Link.TX_RX, self.D))
        return frozenset(link for link, mat in mats if not np.any(mat))


class _LosConstants(NamedTuple):
    """What a scene fixes about one link's LOS ray besides its ends and rule
    (:meth:`Scene.link`)."""

    loss_db: float  # close-in loss without shadowing
    loss: float  # the same as a linear power factor
    directions: tuple  # per end: (unit (1, 3), cos boresight (1,)) toward the other end, or None


def _los_constants(scene: Scene, link: Link) -> _LosConstants:
    """Per-scene LOS loss and directions of ``link`` (kept by :func:`_los`)."""
    ends = scene.link(link)
    a, b = (point.as_array() for point in ends.points)
    loss = scene.close_in(True).sample(ends.distance)
    units = ((b - a)[None, :] / ends.distance, (a - b)[None, :] / ends.distance)
    directions = tuple(
        None if mount is None else (unit, mount.normal_component(unit))
        for mount, unit in zip(ends.mounts, units)
    )
    return _LosConstants(loss.loss_db, loss.linear, directions)

def _los(scene: Scene, link: Link) -> _LosConstants:
    return scene.constant(("los", link), _los_constants, scene, link)

def _los_block(scene: Scene, link: Link, los: _LosConstants, rng):
    """Visibility, phase, and loss of one LOS ray; fixed draw count.

    Returns (on, phase, loss_linear).
    """
    u = rng.uniform()
    phase = rng.uniform(0.0, 2.0 * math.pi)
    shadow = rng.standard_normal() if scene.shadow_los else None
    on = scene.link(link).visible(u)
    if shadow is None:
        return on, phase, los.loss
    loss_db = los.loss_db + scene.environment.path_loss.sigma_los_db * shadow
    return on, phase, PathLossSample(loss_db).linear

def _uniform_angles(rng, m: int) -> tuple[np.ndarray, np.ndarray]:
    """m arrival directions at the mobile Rx: az U(-pi, pi], el U[0, pi]."""
    az = rng.uniform(-math.pi, math.pi, size=m)
    el = rng.uniform(0.0, math.pi, size=m)
    return az, el

def _rx_directions(rxang, m: int, on: bool) -> np.ndarray:
    """Mobile-Rx unit directions of the m sub-rays, then of the LOS ray when
    it is visible (the LOS pair of angles is drawn either way)."""
    az, el = _uniform_angles(rxang, m)
    az_los, el_los = _uniform_angles(rxang, 1)
    if on:
        az, el = np.concatenate([az, az_los]), np.concatenate([el, el_los])
    return direction_unit(az, el)

def _ray_directions(clusters, side: str, los_direction, on: bool):
    """(unit (M, 3), cos boresight (M,)) of the sub-rays at one fixed end,
    then of the LOS ray when it is visible."""
    angles = getattr(clusters, side) if clusters is not None else None
    parts = [] if angles is None else [(angles.unit, angles.cos_boresight)]
    if on:
        parts.append(los_direction)
    if not parts:
        return np.zeros((0, 3)), np.zeros(0)
    return tuple(np.concatenate(x) for x in zip(*parts))

def _ray_amplitudes(clusters, gain, on: bool, phase: float, loss: float):
    """(re, im) amplitude of every ray of a hop: the sub-rays, scaled by
    1/sqrt(sub-ray count), then the LOS ray when it is visible.

    ``gain`` holds the element-pattern gains at the surface of the sub-rays
    and then of the LOS ray, or is None for a hop that sees no element
    pattern. Sub-rays re-aimed at the Rx carry their excess phase.
    """
    m = clusters.n_subrays if clusters is not None else 0
    power = clusters.attenuation if m else np.zeros(0)
    if on:
        power = np.concatenate((power, (loss,)))
    if gain is not None:
        power = power * gain
    amp = np.sqrt(power)
    re = np.zeros(amp.size)
    im = np.zeros(amp.size)
    if m:
        fr, fi = clusters.fading.real, clusters.fading.imag
        if clusters.extra_phase is not None:
            c, s = ef.cis(clusters.extra_phase)
            fr, fi = fr * c - fi * s, fr * s + fi * c
        scale = clusters.normalization * amp[:m]
        re[:m], im[:m] = fr * scale, fi * scale
    if on:
        re[m], im[m] = amp[m] * math.cos(phase), amp[m] * math.sin(phase)
    return re, im

def _rays(scene: Scene, link: Link, los: _LosConstants, clusters, rxang, on: bool, arrays: bool):
    """(ends, shape, gain) of a hop's rays, the sub-rays of ``clusters`` and
    then the LOS ray when it is visible: the (geometry, unit directions)
    of each array end, the hop matrix shape, and the element-pattern gain
    of each ray at the surface (None where there is no surface or
    pattern)."""
    m = clusters.n_subrays if clusters is not None else 0
    link_ends = scene.link(link)
    ends, shape, gain = [], [], None
    for k, side in ((1, "angles_b"), (0, "angles_a")):
        name, geometry = link_ends.names[k], link_ends.arrays[k]
        if not arrays and name != "ris":
            geometry = _SINGLE
        shape.append(geometry.size)
        if name == "ris":
            unit, cos_bore = _ray_directions(clusters, side, los.directions[k], on)
            if scene.element_pattern is not None:
                gain = element_gain_cos(scene.element_pattern, cos_bore)
        elif geometry.size == 1:
            continue
        elif name == "rx":
            unit = _rx_directions(rxang, m, on)
        else:
            unit = _ray_directions(clusters, side, los.directions[k], on)[0]
        ends.append((geometry, unit))
    return ends, shape, gain

def _los_rays(scene: Scene, link: Link, arrays: bool):
    """:func:`_rays` of a visible LOS ray alone, then the axis factors of
    its ends: constants of the scene when no end is the mobile Rx's array."""
    ends, shape, gain = _rays(scene, link, _los(scene, link), None, None, True, arrays)
    return ends, shape, gain, axis_factors(ends, scene.wavelength)

def _hop(
    scene: Scene, link: Link, clusters, rng, rxang=None, arrays: bool = True
) -> tuple[np.ndarray, bool]:
    """One hop as a (B array) x (A array) matrix, for path (A, B) of ``link``.

    Every hop is a sum over rays (the sub-rays of ``clusters``, then the
    LOS ray when visible) of the ray amplitude times the outer product of
    the two ends' array responses. ``rxang`` is the stream of the mobile
    Rx's arrival angles, drawn only for a multi-antenna Rx and None
    otherwise. With ``arrays=False`` both terminals count as single
    antennas: the vector/scalar channels of :func:`gen_h`, :func:`gen_g`
    and :func:`gen_hsiso`. A single-antenna end contributes the factor 1,
    so those are exactly the (N, 1), (1, N) and (1, 1) matrices of the same
    scene with single-antenna terminals.
    """
    los = _los(scene, link)
    on, phase, loss = _los_block(scene, link, los, rng)
    if clusters is None and on and rxang is None:  # one ray, both ends fixed
        key = ("los rays", link, arrays)
        ends, shape, gain, factors = scene.constant(key, _los_rays, scene, link, arrays)
    else:
        ends, shape, gain = _rays(scene, link, los, clusters, rxang, on, arrays)
        factors = None
    coeff = _ray_amplitudes(clusters, gain, on, phase, loss)
    return response_sum(coeff, ends, scene.wavelength, factors).reshape(shape), on

def gen_h(scene: Scene, clusters: ClusterSet | None, rng) -> np.ndarray:
    """Tx -> surface channel vector, shape (N,).

    ``clusters`` is a Tx-surface :class:`ClusterSet` or None for a pure-LOS
    draw. Consumes the LOS block draws from ``rng`` (see module docstring).
    """
    if clusters is not None and clusters.link is not Link.TX_RIS:
        raise ValueError(f"expected a {Link.TX_RIS} cluster set, got {clusters.link}")
    return _hop(scene, Link.TX_RIS, clusters, rng, arrays=False)[0][:, 0]

def gen_g(scene: Scene, clusters: ClusterSet | None, rng) -> np.ndarray:
    """Surface -> Rx channel vector, shape (N,).

    Indoors this hop is pure LOS and ``clusters`` must be None; outdoors
    pass a surface-Rx :class:`ClusterSet` (or None for a pure-LOS draw).
    """
    if clusters is not None:
        if scene.environment.indoor:
            raise ValueError("indoor surface->Rx hop is pure LOS; pass clusters=None")
        if clusters.link is not Link.RIS_RX:
            raise ValueError(f"expected a {Link.RIS_RX} cluster set, got {clusters.link}")
    return _hop(scene, Link.RIS_RX, clusters, rng, arrays=False)[0][0, :]

def gen_hsiso(scene: Scene, clusters: ClusterSet | None, rng) -> complex:
    """Direct Tx -> Rx scalar channel (no surface involvement).

    ``clusters`` is a direct-link set: the re-viewed Tx-side set indoors
    (see :func:`rischan.scattering.share_clusters`), an independent one
    outdoors, or None for a pure-LOS draw. No element pattern is applied.
    """
    if clusters is not None and clusters.link is not Link.TX_RX:
        raise ValueError(f"expected a {Link.TX_RX} cluster set, got {clusters.link}")
    return complex(_hop(scene, Link.TX_RX, clusters, rng, arrays=False)[0][0, 0])

def _draw_panels(panels, clustered: bool, index: int) -> ChannelRealization:
    """One realization from a ``(scene, streams)`` pair per surface.

    Each panel draws its H and G hops from its own scene and streams; the
    direct link is drawn once, from the first panel's scene and streams,
    re-viewing that panel's Tx-side clusters when its scene shares them.
    A stream is read (and so derived) only when its draws are consumed:
    the Rx angle streams for a multi-antenna Rx, the surface -> Rx cluster
    stream outdoors, the direct cluster stream for a draw it feeds.
    """
    hops, los_panels, tx_sets = [], [], []
    for scene, streams in panels:
        cl_h = generate_clusters(scene, Link.TX_RIS, streams.clusters_h) if clustered else None
        h_mat, los_h = _hop(scene, Link.TX_RIS, cl_h, streams.h)
        cl_g = None
        if clustered and not scene.environment.indoor:
            cl_g = generate_clusters(scene, Link.RIS_RX, streams.clusters_g)
        rxang = streams.rxang_g if scene.nr > 1 else None
        g_mat, los_g = _hop(scene, Link.RIS_RX, cl_g, streams.g, rxang)
        tx_sets.append(cl_h)
        hops.append((h_mat, g_mat))
        los_panels.append({Link.TX_RIS: los_h, Link.RIS_RX: los_g})

    scene, streams = panels[0]
    cl_d = None
    if clustered:
        if not scene.shares_direct_clusters:
            cl_d = generate_clusters(scene, Link.TX_RX, streams.clusters_d)
        else:  # re-viewing draws only the shadowing of the re-aimed paths
            rng = streams.clusters_d if scene.shadow_clustered else None
            cl_d = share_clusters(scene, tx_sets[0], rng)
    rxang = streams.rxang_d if scene.nr > 1 else None
    d_mat, los_d = _hop(scene, Link.TX_RX, cl_d, streams.d, rxang)
    return ChannelRealization(tuple(hops), d_mat, tuple(los_panels), los_d, index)

def gen_mimo(
    scene: Scene, streams: RealizationStreams, clustered: bool = True, index: int = 0
) -> ChannelRealization:
    """One full channel realization (H, G, D) from named substreams.

    With ``clustered=False`` all cluster generation is skipped and every hop
    is its LOS component alone (useful for geometry-only studies). When the
    terminals are single-antenna, each matrix is produced by the exact
    vector/scalar code path, so e.g. ``H[:, 0]`` equals :func:`gen_h` run on
    the same streams.
    """
    return _draw_panels([(scene, streams)], clustered, index)

def realize(
    scene: Scene, master_seed: int, index: int = 0, panel: int = 0, clustered: bool = True
) -> ChannelRealization:
    """Generate realization ``index`` of a scene from a master seed."""
    streams = RealizationStreams.derive(master_seed, index, panel)
    return gen_mimo(scene, streams, clustered=clustered, index=index)

def compose(realization: ChannelRealization, phase_list: Sequence) -> np.ndarray:
    """Effective Rx x Tx channel ``D + sum_k G_k diag(exp(j phi_k)) H_k``.

    ``phase_list[k]`` is a radian vector (or a phase-config object) for
    panel k, or None to leave that panel out of the sum (surface absent or
    switched off); with every entry None only the direct link remains.
    """
    if len(phase_list) != realization.n_panels:
        raise ValueError(
            f"phase_list has {len(phase_list)} entries for {realization.n_panels} panels"
        )
    total = realization.D.copy()
    for k, ((h_mat, g_mat), phases) in enumerate(zip(realization.hops, phase_list)):
        if phases is None:
            continue
        phi = np.asarray(getattr(phases, "phases", phases), dtype=float)
        n = h_mat.shape[0]
        if phi.shape != (n,):
            raise ValueError(f"panel {k}: phases shape {phi.shape} does not match ({n},)")
        if g_mat.shape[1] != n:
            raise ValueError(f"panel {k}: G has {g_mat.shape[1]} columns but H has {n} rows")
        if total.shape != (g_mat.shape[0], h_mat.shape[1]):
            raise ValueError(
                f"D shape {total.shape} does not match (Nr, Nt)=({g_mat.shape[0]}, {h_mat.shape[1]})"
            )
        total = total + (g_mat * np.exp(1j * phi)[None, :]) @ h_mat
    return total

def compose_end_to_end(realization: ChannelRealization, phases) -> np.ndarray:
    """Effective channel through a single surface: ``compose(realization,
    [phases])``; ``phases=None`` leaves the direct link alone."""
    return compose(realization, [phases])
