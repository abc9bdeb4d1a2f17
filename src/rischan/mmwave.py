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
surface plus D, a single surface being the one-panel case. It is made in
two stages. :func:`draw` reads every variate from the realization's
streams into a :class:`RealizationDraw`; :func:`assemble` derives the
matrices from any number of such records without reading a stream, in
one pass per derived quantity over the rays of all their hops. A pass
applies one model: the scenes of its records may differ in geometry, not
in environment, carrier, element pattern or shadowing switches
(:data:`rischan.scene.MODEL_FIELDS`), as the panel views of one scene do.
:func:`realize` (also bound as :func:`rischan.multiris.realize_multi`) is
``assemble([draw(...)])[0]`` for any panel count; given a range of
indices, it draws them in order and assembles them in passes bounded by
:data:`_PASS_RAYS` rays. :func:`compose` forms
``C = D + sum_k G_k diag(exp(j phi_k)) H_k``.

Multi-antenna terminals turn each ray's rank-one contribution into an outer
product of the two ends' array responses (plain transpose, no conjugation).
Departure angles at the wall-mounted Tx are geometric; arrival angles at the
mobile Rx are drawn uniformly (azimuth on [-pi, pi), elevation on [0, pi))
from a dedicated stream, so single-antenna outputs are unaffected by the
existence of the multi-antenna code path.

Determinism contract. Every stage-1 routine draws from generators handed
to it, in a documented fixed order. Each line-of-sight block consumes exactly one
uniform (visibility), one uniform (phase), and, if the scene enables LOS
shadowing, one normal draw, whether or not the ray ends up visible; forced
"on"/"off" modes consume the same draws. Each purpose has a substream of
its own, derived where :func:`draw` reads it: keyed by surface and
realization for the surface hops, by realization alone for the direct link
(one physical Tx-Rx path, whatever the surface count). The README's
determinism contract lists the paths. So realizations can be generated
independently, in any order, with bitwise-stable results. The arithmetic from the draws to the matrices
follows the README's determinism contract (no BLAS; the elementary
functions of :mod:`rischan.elementary`; elementwise passes, whose bits do
not depend on what else is in the pass; sums over rays per hop), so those
bits depend neither on the CPU nor on how draws of one model are batched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import elementary as ef
from .arrays import array_axes, as_complex, element_gain_cos, power_factors, rank_one_sum
# unused here, but bench/tracer.py wraps these names of this module
from .arrays import element_gain, steering_matrix, steering_vector  # noqa: F401
from .geometry import direction_unit
from .scattering import ClusterDraw, Link, derive_sets, draw_clusters, share_draw
# unused here, but bench/tracer.py wraps these names of this module
from .scattering import generate_clusters, share_clusters  # noqa: F401
from .scene import Scene
from .streams import substream

# Rays a stage-2 pass of a batched :func:`realize` gathers before it is
# assembled: it bounds the memory of a pass; no output bit depends on it.
_PASS_RAYS = 1024

__all__ = [
    "ChannelRealization",
    "HopDraw",
    "RealizationDraw",
    "draw",
    "assemble",
    "hop_matrices",
    "realize",
    "compose",
    "compose_end_to_end",
]


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


class HopDraw(NamedTuple):
    """The variates of one hop, as :func:`draw` reads them: the LOS block,
    the cluster set, and the arrival angles at a multi-antenna Rx."""

    scene: Scene  # the panel's view
    link: Link
    u: float  # visibility uniform of the LOS ray
    phase: float  # its phase
    shadow: float | None  # its shadowing normal, when the scene draws one
    clusters: ClusterDraw | None
    rx_angles: tuple | None  # az, el of the sub-rays, then az, el of the LOS ray; None without an Rx array


class RealizationDraw(NamedTuple):
    """Stage 1 of one realization: every variate it reads from its streams,
    for the hops H_k, G_k of each panel and then D. :func:`assemble` turns
    it into a :class:`ChannelRealization`."""

    hops: tuple[HopDraw, ...]
    index: int


class _LosConstants(NamedTuple):
    """What a scene fixes about one link's LOS ray besides its ends and rule
    (:meth:`Scene.link`)."""

    loss: float  # close-in loss without shadowing, as a linear power factor
    units: tuple  # per end: the (1, 3) unit vector toward the other end


def _los_constants(scene: Scene, link: Link) -> _LosConstants:
    """Per-scene LOS loss and directions of ``link`` (kept in the scene's memo)."""
    ends = scene.link(link)
    a, b = (point.as_array() for point in ends.points)
    loss = scene.close_in(True).sample(ends.distance).linear
    units = ((b - a)[None, :] / ends.distance, (a - b)[None, :] / ends.distance)
    return _LosConstants(loss, units)

def _uniform_angles(rng, m: int) -> tuple[np.ndarray, np.ndarray]:
    """m arrival directions at the mobile Rx: az U[-pi, pi), el U[0, pi)."""
    az = rng.uniform(-math.pi, math.pi, size=m)
    el = rng.uniform(0.0, math.pi, size=m)
    return az, el

def _link_draw(scene: Scene, link: Link, rng, clusters, rxang=None) -> HopDraw:
    """A hop's LOS block from ``rng``, a fixed draw count whatever the ray's
    state (visibility, phase, and the shadowing normal when the scene
    enables it), and from ``rxang`` the Rx arrival angles of its sub-rays
    and of its LOS ray (that pair is drawn either way)."""
    u = rng.uniform()
    phase = rng.uniform(0.0, 2.0 * math.pi)
    shadow = rng.standard_normal() if scene.shadow_los else None
    angles = None
    if rxang is not None:
        m = clusters.n_subrays if clusters is not None else 0
        angles = (*_uniform_angles(rxang, m), *_uniform_angles(rxang, 1))
    return HopDraw(scene, link, u, phase, shadow, clusters, angles)

def draw(scene: Scene, master_seed: int, index: int = 0, clustered: bool = True) -> RealizationDraw:
    """Stage 1 of realization ``index``: read every stream it consumes.

    Each panel draws its H and G hops from its own view and streams; the
    direct link is drawn once, from the first panel's, re-viewing that
    panel's Tx-side clusters when its view shares them. A stream is read
    (and so derived) only when its draws are consumed: the Rx angle
    streams for a multi-antenna Rx, the surface -> Rx cluster stream
    outdoors, the direct cluster stream for a draw it feeds.
    """
    hops, views = [], scene.panel_scenes
    for k, view in enumerate(views):
        cl_h = cl_g = rxang = None
        if clustered:
            cl_h = draw_clusters(view, Link.TX_RIS, substream(master_seed, "clusters", "txris", k, index))
            if not view.environment.indoor:
                cl_g = draw_clusters(view, Link.RIS_RX, substream(master_seed, "clusters", "risrx", k, index))
        if view.nr > 1:
            rxang = substream(master_seed, "rxang", "g", k, index)
        hops += [
            _link_draw(view, Link.TX_RIS, substream(master_seed, "link", "h", k, index), cl_h),
            _link_draw(view, Link.RIS_RX, substream(master_seed, "link", "g", k, index), cl_g, rxang),
        ]

    view = views[0]
    cl_d = rxang = None
    if clustered:
        if not view.shares_direct_clusters:
            cl_d = draw_clusters(view, Link.TX_RX, substream(master_seed, "clusters", "txrx", index))
        else:  # re-viewing draws only the shadowing of the re-aimed paths
            rng = substream(master_seed, "clusters", "txrx", index) if view.shadow_clustered else None
            cl_d = share_draw(view, hops[0].clusters, rng)
    if view.nr > 1:
        rxang = substream(master_seed, "rxang", "d", index)
    hops.append(_link_draw(view, Link.TX_RX, substream(master_seed, "link", "d", index), cl_d, rxang))
    return RealizationDraw(tuple(hops), index)

def assemble(draws: Sequence[RealizationDraw]) -> list[ChannelRealization]:
    """Stage 2: the realization of each of ``draws``, reading no stream
    (:func:`hop_matrices` over the hops of all of them)."""
    mats, out = iter(hop_matrices([hop for d in draws for hop in d.hops])), []
    for d in draws:
        pairs = [(next(mats), next(mats)) for _ in range(len(d.hops) // 2)]
        d_mat, los_d = next(mats)
        out.append(ChannelRealization(
            tuple((h, g) for (h, _), (g, _) in pairs), d_mat,
            tuple({Link.TX_RIS: los_h, Link.RIS_RX: los_g} for (_, los_h), (_, los_g) in pairs),
            los_d, d.index,
        ))
    return out

def hop_matrices(hops: Sequence[HopDraw]) -> list[tuple[np.ndarray, bool]]:
    """The matrix and LOS state of each of ``hops``, reading no stream.

    A hop is a (B array) x (A array) matrix for the path (A, B) of its
    link: the sum over its rays (the sub-rays of its cluster set, then the
    LOS ray when visible) of the ray amplitude times the outer product of
    the two ends' array responses, a single-antenna end contributing the
    factor 1. The element gain of a ray at the surface takes the cosine of
    its boresight angle here, as the component of its direction at the
    surface along the surface normal. The rays of all ``hops`` form one
    table, and each derived quantity is one pass over it: the cluster sets
    (:func:`derive_sets`), the element-pattern gains at the surface, the
    Rx arrival directions, the ray amplitudes, and the axis factors of
    every array axis (:func:`power_factors`). Only the sum over a hop's rays
    (:func:`rank_one_sum`) runs per hop, on that hop's operands alone, so
    a hop comes out with the same bits in any batch of one model.

    The scenes of ``hops`` share one model (:data:`rischan.scene.MODEL_FIELDS`;
    ValueError names the first field that differs), so the element pattern
    and the wavelength are the first scene's. A shadowed LOS ray takes its
    loss from the close-in law of its scene (:meth:`Scene.close_in`).
    """
    if not hops:
        return []
    model = hops[0].scene
    model.check_model(h.scene for h in hops)
    pattern, wavelength = model.element_pattern, model.wavelength
    sets = iter(derive_sets([(h.scene, h.clusters) for h in hops if h.clusters is not None]))
    # the ray table, piece by piece: a hop's sub-rays, then its LOS ray
    power, fr, fi, norm, size = [], [], [], [], []
    extra, extra_rows = [], []  # excess phases
    cos, gain_rows = [], []  # element-pattern gains at the surface
    az, el = [], []  # Rx arrival angles, in Rx-table order
    plans, row, rx_row = [], 0, 0
    for hop in hops:
        scene, link = hop.scene, hop.link
        ends, los = scene.link(link), scene.constant(("los", link), _los_constants, scene, link)
        on = ends.visible(hop.u)
        cl = next(sets) if hop.clusters is not None else None
        m = cl.n_subrays if cl is not None else 0
        n = m + on
        if m:
            power.append(cl.attenuation)
            fr.append(cl.fading.real)
            fi.append(cl.fading.imag)
            norm.append(cl.normalization)
            size.append(m)
            if cl.extra_phase is not None:
                extra.append(cl.extra_phase)
                extra_rows.append(np.arange(row, row + m))
        if on:
            if hop.shadow is None:
                power.append((los.loss,))
            else:
                power.append((scene.close_in(True).sample(ends.distance, hop.shadow).linear,))
            fr.append((math.cos(hop.phase),))
            fi.append((math.sin(hop.phase),))
            norm.append(1.0)
            size.append(1)

        units = []  # per array end of more than one element, B then A: its (n, 3) ray directions
        for k in (1, 0):
            name, geometry = ends.names[k], ends.arrays[k]
            if name == "rx":
                if geometry.size > 1:
                    a_m, e_m, a_los, e_los = hop.rx_angles
                    az += [a_m, a_los] if on else [a_m]
                    el += [e_m, e_los] if on else [e_m]
                    units.append((geometry, slice(rx_row, rx_row + n)))
                    rx_row += n
                continue
            gain = name == "ris" and pattern is not None and n > 0
            if not (gain or geometry.size > 1):
                continue
            parts = ([cl.unit_b if k else cl.unit_a] if m else []) + ([los.units[k]] if on else [])
            unit = parts[0] if len(parts) == 1 else _cat(parts, (0, 3))
            if gain:
                cos.append(ends.mounts[k].normal_component(unit))
                gain_rows.append(np.arange(row, row + n))
            if geometry.size > 1:
                units.append((geometry, unit))
        plans.append((on, row, row + n, units, (ends.arrays[1].size, ends.arrays[0].size)))
        row += n

    # ray amplitudes: sqrt(power x gain), the fading (rotated by any excess
    # phase) or the LOS phase, and 1/sqrt(sub-ray count) on the sub-rays
    power = _cat(power)
    if cos:
        power[np.concatenate(gain_rows)] *= element_gain_cos(pattern, np.concatenate(cos))
    amp = np.sqrt(power)
    fr, fi = _cat(fr), _cat(fi)
    if extra:
        c, s = ef.cis(np.concatenate(extra))
        rows = np.concatenate(extra_rows)
        a, b = fr[rows], fi[rows]
        fr[rows], fi[rows] = a * c - b * s, a * s + b * c
    scale = np.repeat(norm, size) * amp
    re, im = fr * scale, fi * scale

    rx_unit = direction_unit(np.concatenate(az), np.concatenate(el)) if az else None
    axes, counts = [], []
    for _, _, _, units, _ in plans:
        hop_axes = [
            axis
            for geometry, unit in units  # the Rx's as a slice of rx_unit
            for axis in array_axes(geometry, rx_unit[unit] if isinstance(unit, slice) else unit, wavelength)
        ]
        axes += hop_axes
        counts.append(len(hop_axes))
    factors = power_factors(axes)

    mats, start = [], 0
    for (on, first, stop, _, shape), count in zip(plans, counts):
        h_re, h_im = rank_one_sum((re[first:stop], im[first:stop]), factors[start:start + count])
        mats.append((as_complex(h_re, h_im).reshape(shape), on))
        start += count
    return mats

def _cat(parts, shape=(0,)) -> np.ndarray:
    """The concatenation of ``parts``, or an empty array of ``shape``."""
    return np.concatenate(parts) if parts else np.zeros(shape)

def realize(
    scene: Scene, master_seed: int, index: int | range = 0, clustered: bool = True
) -> ChannelRealization | list[ChannelRealization]:
    """Generate realization ``index`` of a scene with one or more surfaces:
    ``assemble([draw(...)])[0]``; for a ``range`` of indices, the list of
    their realizations.

    A range is drawn index by index, in order, and the records are
    assembled in passes of at least :data:`_PASS_RAYS` rays (a record holds
    the sub-rays of its cluster sets plus one LOS ray per hop), the last
    pass taking the rest; every realization has the bits it has alone.
    Panel k consumes the panel-k streams; the direct link consumes the
    panel-independent streams, so its draw is the same whatever subset of
    panels exists. With ``clustered=False`` all cluster generation is
    skipped and every hop is its LOS component alone (useful for
    geometry-only studies).
    """
    if not isinstance(index, range):
        return assemble([draw(scene, master_seed, index, clustered)])[0]
    out, batch, rays = [], [], 0
    for i in index:
        batch.append(draw(scene, master_seed, i, clustered))
        rays += sum(1 + (h.clusters.n_subrays if h.clusters is not None else 0) for h in batch[-1].hops)
        if rays >= _PASS_RAYS:
            out += assemble(batch)
            batch, rays = [], 0
    return out + assemble(batch)

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
