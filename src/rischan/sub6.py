"""Sub-6 GHz channel models: clustered far-field hops, deterministic
near-field surface response.

Far-field hops are sums over a fixed cluster/ray grid: cluster powers come
from the exponential delay-proportional procedure (delays drawn as
``-r_tau * DS * ln U``, powers proportional to
``exp(-tau (r_tau - 1) / (r_tau DS)) * 10^(-Z/10)``, normalized to one),
each ray carries the per-link close-in loss, the element pattern gain at
its arrival boresight, an i.i.d. uniform phase, and the surface array
response. Ray directions scatter around the geometric link direction:
cluster means are Gaussian around it, rays Gaussian around their cluster
mean (spreads configurable in degrees).

When the receiver sits closer than the Fraunhofer distance the surface ->
Rx hop stops being a far-field array response; each element then captures
the fraction of isotropically radiated power that its physical aperture
subtends (exact rectangle integral, polarization included) with the phase
of its element-center travel distance reduced modulo one wavelength.

Draw order per hop: visibility uniform, optional loss shadowing normal,
cluster azimuth/elevation means, ray azimuth/elevation offsets, ray phases.
The direct hop has no angles, only phases. Power profiles consume their own
generator: delay uniforms then per-cluster shadowing normals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from . import elementary as ef
from .arrays import ArrayGeometry, as_complex, element_gain_cos, response_sum
# unused here, but bench/tracer.py wraps these names of this module
from .arrays import element_gain, steering_matrix  # noqa: F401
from .geometry import (
    DirectionAngles, Plane, Point3, angles_from, direction_unit, vector_norm,
)
from .mmwave import ChannelRealization
from .scattering import Link
from .scene import Scene
from .streams import NamedStreams, substream

__all__ = [
    "Sub6Params",
    "Sub6Streams",
    "ClusterPowerProfile",
    "powers_from_delays",
    "gen_cluster_powers",
    "gen_g_near",
    "select_g_mode",
    "realize_sub6",
    "element_edge",
    "nearfield_element_capture",
    "fraunhofer_distance",
]


@dataclass(frozen=True)
class Sub6Params:
    """Cluster grid and spread settings of the sub-6 GHz generator."""

    n_clusters: int = 15
    n_rays: int = 20
    delay_scaling: float = 3.0  # r_tau, unitless
    delay_spread_s: float = 66e-9
    shadow_cluster_db: float = 3.0  # per-cluster power shadowing
    cluster_az_spread_deg: float = 30.0
    cluster_el_spread_deg: float = 10.0
    ray_az_spread_deg: float = 5.0
    ray_el_spread_deg: float = 3.0

    def __post_init__(self) -> None:
        if self.n_clusters < 1 or self.n_rays < 1:
            raise ValueError("n_clusters and n_rays must be >= 1")
        if self.delay_scaling <= 1.0:
            raise ValueError(f"delay_scaling must be > 1, got {self.delay_scaling!r}")
        if self.delay_spread_s <= 0.0:
            raise ValueError(f"delay_spread_s must be > 0, got {self.delay_spread_s!r}")


@dataclass(frozen=True, eq=False)
class ClusterPowerProfile:
    """Normalized cluster powers with their excess delays (ascending)."""

    delays_s: np.ndarray  # (C,), first is 0
    powers: np.ndarray  # (C,), nonnegative, sums to 1

    @property
    def n_clusters(self) -> int:
        return int(self.powers.size)


def powers_from_delays(
    delays_s, delay_scaling: float, delay_spread_s: float, shadow_db=0.0
) -> np.ndarray:
    """Normalized cluster powers for given excess delays.

    Pure function behind :func:`gen_cluster_powers`: exponential decay in
    delay with optional per-cluster dB shadowing, normalized to sum to one.
    Equal delays and zero shadowing give exactly equal powers.
    """
    tau = np.asarray(delays_s, dtype=float)
    if np.any(tau < 0):
        raise ValueError("delays must be >= 0")
    raw = ef.exp(-tau * (delay_scaling - 1.0) / (delay_scaling * delay_spread_s))
    raw = raw * ef.pow10(-np.asarray(shadow_db, dtype=float) / 10.0)
    total = raw.sum()
    if total == 0.0:
        raise ValueError("all cluster powers collapsed to zero")
    return raw / total

def gen_cluster_powers(rng: np.random.Generator, params: Sub6Params | None = None) -> ClusterPowerProfile:
    """Draw one delay/power profile (delay uniforms, then shadow normals)."""
    p = params or Sub6Params()
    u = rng.random(p.n_clusters)
    u[u == 0.0] = np.nextafter(0.0, 1.0)  # ln(0) guard; measure-zero event
    delays = -p.delay_scaling * p.delay_spread_s * ef.log(u)
    delays = np.sort(delays)
    delays -= delays[0]
    shadows = p.shadow_cluster_db * rng.standard_normal(p.n_clusters)
    powers = powers_from_delays(delays, p.delay_scaling, p.delay_spread_s, shadows)
    return ClusterPowerProfile(delays_s=delays, powers=powers)


def _wrap_azimuth(a: np.ndarray) -> np.ndarray:
    w = np.mod(a + math.pi, 2.0 * math.pi) - math.pi
    return np.where(w == -math.pi, math.pi, w)

def _base_angles(scene: Scene, link: Link) -> DirectionAngles:
    """Direction of a surface hop's far end seen from the surface."""
    ends = scene.link(link)
    k = ends.names.index("ris")
    return angles_from(ends.points[k], ends.mounts[k], ends.points[1 - k])

def _sub6_hop(scene: Scene, link: Link, profile: ClusterPowerProfile, rng, params: Sub6Params):
    """One far-field hop: the (N,) surface vector of a surface hop, or the
    complex scalar of the direct Tx -> Rx hop; returns (value, los_state)."""
    ends = scene.link(link)
    u = rng.uniform()
    shadow = rng.standard_normal() if scene.shadow_los else None
    on = ends.visible(u)
    loss = scene.close_in(on).sample(ends.distance, shadow).linear
    c, s = profile.n_clusters, params.n_rays
    m = c * s
    ray_power = np.repeat(profile.powers, s) / s

    if link is Link.TX_RX:  # no surface, no angles
        phases = rng.uniform(0.0, 2.0 * math.pi, size=m)
        amp = np.sqrt(ray_power * loss)
        c, s = ef.cis(phases)
        return complex(np.sum(amp * c), np.sum(amp * s)), on

    base = scene.constant(("sub6 base", link), _base_angles, scene, link)
    geometry = scene.ris_geometry
    d2r = math.pi / 180.0
    caz = base.azimuth + d2r * params.cluster_az_spread_deg * rng.standard_normal(c)
    cel = base.elevation + d2r * params.cluster_el_spread_deg * rng.standard_normal(c)
    az = np.repeat(caz, s) + d2r * params.ray_az_spread_deg * rng.standard_normal(m)
    el = np.repeat(cel, s) + d2r * params.ray_el_spread_deg * rng.standard_normal(m)
    az = _wrap_azimuth(az)
    el = np.clip(el, 0.0, math.pi)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=m)

    unit = direction_unit(az, el)
    gain = 1.0
    if scene.element_pattern is not None:
        gain = element_gain_cos(scene.element_pattern, geometry.orientation.normal_component(unit))
    amp = np.sqrt(ray_power * gain * loss)
    c, s = ef.cis(phases)
    return response_sum((amp * c, amp * s), [(geometry, unit)], scene.wavelength), on


def _inplane_axes(plane: Plane) -> tuple[int, int, int]:
    """(horizontal axis, vertical axis, normal axis) world indices."""
    if plane is Plane.XZ:
        return 0, 2, 1
    return 1, 2, 0

def element_edge(geometry: ArrayGeometry, wavelength: float, edge_m: float | None = None) -> float:
    """Side of each element's square aperture: ``edge_m``, or the element
    spacing when None. Raises ValueError unless 0 < edge <= spacing (larger
    apertures would overlap)."""
    s = geometry.spacing_m(wavelength)
    edge = s if edge_m is None else float(edge_m)
    if not edge > 0.0:
        raise ValueError(f"edge_m must be > 0, got {edge!r}")
    if edge > s + 1e-12:
        raise ValueError(f"edge_m={edge!r} exceeds the element spacing {s!r}; apertures overlap")
    return edge

def nearfield_element_capture(
    geometry: ArrayGeometry,
    wavelength: float,
    center: Point3,
    rx: Point3,
    edge_m: float | None = None,
) -> np.ndarray:
    """Fraction of isotropically radiated power captured per element.

    Each element is a square aperture of side ``edge_m`` (defaults to the
    element spacing) centered on its grid point; the panel is centered on
    ``center``. For a receiver at perpendicular distance y and in-plane
    offsets (x, z) to an element corner, the exact captured fraction is the
    corner sum of

        (x z / y^2) / (3 (z^2/y^2 + 1) sqrt(x^2/y^2 + z^2/y^2 + 1)) / (4 pi)
        + (2/3) atan((x z / y^2) / sqrt(x^2/y^2 + z^2/y^2 + 1)) / (4 pi)

    over the four corner combinations; each corner term tends to
    x z / y^2 at large y, so the sum approaches the aperture solid-angle
    fraction edge^2 / (4 pi y^2). A receiver on or behind the mounting
    plane captures nothing (zeros).
    """
    edge = element_edge(geometry, wavelength, edge_m)
    centers = geometry.element_centers(wavelength, center.as_array())
    ih, iv, nax = _inplane_axes(geometry.orientation.plane)
    rxa = rx.as_array()
    perp = float((rxa[nax] - centers[0, nax]) * geometry.orientation.normal[nax])
    if perp <= 0.0:
        return np.zeros(geometry.size)
    dx = rxa[ih] - centers[:, ih]
    dz = rxa[iv] - centers[:, iv]

    def corner(x, z):
        y2 = perp * perp
        root = np.sqrt(x * x / y2 + z * z / y2 + 1.0)
        t1 = (x * z / y2) / (3.0 * (z * z / y2 + 1.0) * root)
        t2 = ef.arctan((x * z / y2) / root)
        return t1 + 2.0 * t2 / 3.0

    half = edge / 2.0
    total = (
        corner(half + dx, half + dz)
        + corner(half + dx, half - dz)
        + corner(half - dx, half + dz)
        + corner(half - dx, half - dz)
    )
    return total / (4.0 * math.pi)

def fraunhofer_distance(
    geometry: ArrayGeometry, wavelength: float, edge_m: float | None = None
) -> float:
    """Far-field boundary 2 D^2 / lambda of the panel (D its diagonal)."""
    s = geometry.spacing_m(wavelength)
    edge = element_edge(geometry, wavelength, edge_m)
    ext_h = (geometry.n_h - 1) * s + edge
    ext_v = (geometry.n_v - 1) * s + edge
    diag = math.hypot(ext_h, ext_v)
    return 2.0 * diag * diag / wavelength

def gen_g_near(scene: Scene, edge_m: float | None = None) -> np.ndarray:
    """Deterministic near-field surface -> Rx response, shape (N,).

    Amplitude is the square root of each element's captured power fraction;
    phase is the element-center travel distance reduced modulo one
    wavelength (as a negative phase, later arrivals lag).
    """
    capture = nearfield_element_capture(
        scene.ris_geometry, scene.wavelength, scene.ris, scene.rx, edge_m
    )
    centers = scene.ris_geometry.element_centers(scene.wavelength, scene.ris.as_array())
    dist = vector_norm(centers - scene.rx.as_array(), axis=1)
    gamma = 2.0 * math.pi * np.mod(dist / scene.wavelength, 1.0)
    amp = np.sqrt(capture)
    c, s = ef.cis(-gamma)
    return as_complex(amp * c, amp * s)

def select_g_mode(scene: Scene, mode: str, edge_m: float | None) -> str:
    """The surface -> Rx form, "near" or "far", that ``mode`` selects for
    ``scene``: "auto" picks the near-field response whenever the receiver is
    closer than the panel's Fraunhofer distance."""
    if mode not in ("auto", "near", "far"):
        raise ValueError(f"g_mode={mode!r}: expected auto, near, or far")
    if mode == "auto":
        r_f = fraunhofer_distance(scene.ris_geometry, scene.wavelength, edge_m)
        mode = "near" if scene.link(Link.RIS_RX).distance < r_f else "far"
    return mode


class Sub6Streams(NamedStreams):
    """Named substreams of one sub-6 GHz realization (one per purpose), each
    derived the first time the draw reads it."""

    PANEL_PATHS = {
        "powers_h": ("sub6", "powers", "h"),
        "powers_g": ("sub6", "powers", "g"),
        "h": ("sub6", "link", "h"),
        "g": ("sub6", "link", "g"),
    }
    COMMON_PATHS = {"powers_d": ("sub6", "powers", "d"), "d": ("sub6", "link", "d")}

    def _derive(self, master_seed: int, *path) -> np.random.Generator:
        return substream(master_seed, *path)  # this module's binding, read per call


def realize_sub6(
    scene: Scene,
    master_seed: int,
    index: int = 0,
    params: Sub6Params | None = None,
    g_mode: str = "auto",
    edge_m: float | None = None,
) -> ChannelRealization:
    """One seeded sub-6 GHz realization packed as single-antenna matrices.

    Single-antenna terminals only (the band's model is vector/scalar); each
    hop draws its own power profile and fading from named substreams. In
    near-field mode the surface -> Rx hop is deterministic, a constant of
    the scene computed once per scene object, and its streams are left
    untouched (never derived).
    """
    if scene.nt != 1 or scene.nr != 1:
        raise ValueError("sub-6 GHz generation covers single-antenna terminals (Nt = Nr = 1)")
    if scene.extra_panels:
        raise ValueError("sub-6 GHz generation covers one surface; the scene has extra_panels")
    mode = select_g_mode(scene, g_mode, edge_m)
    p = params or Sub6Params()
    streams = Sub6Streams.derive(master_seed, index)

    prof_h = gen_cluster_powers(streams.powers_h, p)
    h, los_h = _sub6_hop(scene, Link.TX_RIS, prof_h, streams.h, p)

    if mode == "near":
        g = scene.constant(("near g", edge_m), gen_g_near, scene, edge_m).copy()
        los_g = True
    else:
        prof_g = gen_cluster_powers(streams.powers_g, p)
        g, los_g = _sub6_hop(scene, Link.RIS_RX, prof_g, streams.g, p)

    prof_d = gen_cluster_powers(streams.powers_d, p)
    d, los_d = _sub6_hop(scene, Link.TX_RX, prof_d, streams.d, p)

    return ChannelRealization(
        hops=((h[:, None], g[None, :]),),
        D=np.array([[d]], dtype=complex),
        los_panels=({Link.TX_RIS: los_h, Link.RIS_RX: los_g},),
        los_direct=los_d,
        index=index,
    )
