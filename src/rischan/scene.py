"""Scene description: who stands where, facing how, with one or more surfaces.

A scene pins down everything deterministic about a simulation: environment,
carrier, terminal and surface positions, array layouts, element pattern, and
the per-hop line-of-sight policy. Randomness enters only through the
generators passed to the channel routines. A scene with several surfaces is
a :class:`Scene` with ``extra_panels``; the channel routines see it as one
single-surface view per surface (:attr:`Scene.panel_scenes`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

from .arrays import ArrayGeometry, ElementPattern
from .errors import ConfigError
from .geometry import Point3, SurfaceOrientation, distance, distance_2d
from .propagation import (
    SPEED_OF_LIGHT, CloseIn, Environment, check_frequency, close_in, los_probability,
)
from .scattering import MAX_RAYS_PER_HOP, Link, ScatteringParams

__all__ = ["LOS_MODES", "MODEL_FIELDS", "LinkRecord", "RisPanel", "Scene"]

# per-hop visibility policy: distance-dependent Bernoulli, forced on, forced off
LOS_MODES = ("auto", "on", "off")

# The fields of a scene that make its model: what a stage-2 pass applies to
# every ray it derives. Scenes that share them differ only in geometry.
MODEL_FIELDS = ("environment", "frequency_hz", "element_pattern", "shadow_clustered", "shadow_los")

# The ends (A, B) of each link. A hop matrix has B's array along its rows and
# A's along its columns; a cluster set's ``unit_a``/``unit_b`` are the
# sub-ray directions seen from A/B.
_ENDS = {Link.TX_RIS: ("tx", "ris"), Link.RIS_RX: ("ris", "rx"), Link.TX_RX: ("tx", "rx")}


class LinkRecord(NamedTuple):
    """What a scene fixes about one link: its ends (A, B) and its LOS rule."""

    names: tuple[str, str]  # "tx", "ris" or "rx"
    points: tuple[Point3, Point3]
    arrays: tuple[ArrayGeometry, ArrayGeometry]
    mounts: tuple[SurfaceOrientation | None, SurfaceOrientation | None]  # None: the mobile Rx
    distance: float  # between the ends, meters
    mode: str  # the visibility policy, one of LOS_MODES
    p: float  # visibility probability of the "auto" mode

    def visible(self, u: float) -> bool:
        """The LOS state that the visibility uniform ``u`` gives."""
        return self.mode == "on" or (self.mode == "auto" and u < self.p)


@dataclass(frozen=True)
class RisPanel:
    """One reflecting surface: where it is and how it is built."""

    position: Point3
    geometry: ArrayGeometry


@dataclass(frozen=True)
class Scene:
    """One Tx / RIS / Rx layout plus all model switches.

    The surface the RIS is mounted on is ``ris_geometry.orientation``; the
    transmitter's mounting (fixing its departure angles) is
    ``tx_geometry.orientation``, broadside +x by default. The receiver is
    mobile and has no fixed orientation. ``element_pattern=None`` makes the
    surface elements isotropic with unit gain. ``extra_panels`` are the
    surfaces after the first (``ris``/``ris_geometry``); surface-to-surface
    re-reflections are not modeled.
    """

    environment: Environment
    frequency_hz: float
    tx: Point3
    ris: Point3
    rx: Point3
    ris_geometry: ArrayGeometry
    tx_geometry: ArrayGeometry = ArrayGeometry(1)
    rx_geometry: ArrayGeometry = ArrayGeometry(1)
    element_pattern: ElementPattern | None = field(default_factory=ElementPattern)
    scattering: ScatteringParams = field(default_factory=ScatteringParams)
    share_direct_clusters: bool | None = None  # None: share on indoor scenes
    los_tx_ris: str = "auto"
    los_ris_rx: str = "auto"
    los_tx_rx: str = "auto"
    shadow_clustered: bool = True
    shadow_los: bool = False
    extra_panels: tuple[RisPanel, ...] = ()

    def __post_init__(self) -> None:
        if self.extra_panels:
            if self.share_direct_clusters:
                raise ConfigError(
                    "share_direct_clusters: not applicable with several surfaces; "
                    "the direct link always uses an independent cluster set there"
                )
            self.panel_scenes  # each view runs the checks below for its surface
            return
        check_frequency(self.frequency_hz)
        rays = self.environment.cluster_density * self.scattering.max_subrays
        if rays > MAX_RAYS_PER_HOP:
            raise ConfigError(
                f"cluster_density x scattering.max_subrays = {rays:g} rays per hop, "
                f"over the limit of {MAX_RAYS_PER_HOP}"
            )
        for name, mode in (
            ("los_tx_ris", self.los_tx_ris),
            ("los_ris_rx", self.los_ris_rx),
            ("los_tx_rx", self.los_tx_rx),
        ):
            if mode not in LOS_MODES:
                raise ConfigError(f"{name}={mode!r}: expected one of {LOS_MODES}")
        for link in Link:
            ends = self.link(link)
            if ends.distance == 0.0:
                a, b = ends.names
                raise ConfigError(f"positions {a} and {b} coincide at {ends.points[0]}")
        if self.share_direct_clusters and not self.environment.indoor:
            raise ConfigError(
                "share_direct_clusters=True: sharing models an indoor layout; "
                "outdoor scenes use an independent direct-link cluster set"
            )

    @cached_property
    def memo(self) -> dict:
        """Constants derived from this scene alone (the record of each link,
        say), computed on first use and kept with the scene object."""
        return {}

    def constant(self, key, fn, *args):
        """``fn(*args)``, computed on the first call for ``key`` and kept in
        :attr:`memo`; ``key`` names what the value depends on besides the
        scene."""
        try:
            return self.memo[key]
        except KeyError:
            value = self.memo[key] = fn(*args)
            return value

    def close_in(self, los: bool) -> CloseIn:
        """The close-in law of this carrier and environment for one link
        state (see :func:`rischan.propagation.close_in`)."""
        params = self.environment.path_loss
        return self.constant(("close-in", los), close_in, self.frequency_hz, params, los)

    def check_model(self, scenes) -> None:
        """Raise ValueError naming the first of :data:`MODEL_FIELDS` in which
        one of ``scenes`` differs from this scene. The same scene object is
        not compared, so a one-scene batch pays nothing."""
        for other in scenes:
            if other is not self:
                for name in MODEL_FIELDS:
                    mine, theirs = getattr(self, name), getattr(other, name)
                    if mine != theirs:
                        raise ValueError(f"scenes of one stage-2 pass differ in {name}: {mine!r} and {theirs!r}")

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.frequency_hz

    @property
    def n(self) -> int:
        """Number of elements of the first surface."""
        return self.ris_geometry.size

    @property
    def nt(self) -> int:
        return self.tx_geometry.size

    @property
    def nr(self) -> int:
        return self.rx_geometry.size

    @cached_property
    def panel_scenes(self) -> tuple["Scene", ...]:
        """One single-surface view per surface, the same objects on every
        call (so per-scene constants are kept). A one-surface scene is its
        own view. With several surfaces each view draws an independent
        direct-link cluster set: re-viewing a shared set is anchored to one
        surface."""
        if not self.extra_panels:
            return (self,)
        panels = (RisPanel(self.ris, self.ris_geometry), *self.extra_panels)
        return tuple(
            replace(
                self, ris=p.position, ris_geometry=p.geometry,
                extra_panels=(), share_direct_clusters=False,
            )
            for p in panels
        )

    @property
    def shares_direct_clusters(self) -> bool:
        """Effective sharing switch: the environment's layout by default, and
        False with extra panels (each view draws its own direct set)."""
        if self.extra_panels:
            return False
        if self.share_direct_clusters is None:
            return self.environment.indoor
        return self.share_direct_clusters

    def los_mode(self, link: Link) -> str:
        return {
            Link.TX_RIS: self.los_tx_ris,
            Link.RIS_RX: self.los_ris_rx,
            Link.TX_RX: self.los_tx_rx,
        }[link]

    def link(self, link: Link) -> LinkRecord:
        """The ends and LOS rule of ``link``, the same record on every call."""
        return self.constant(("link", link), self._link_record, link)

    def _link_record(self, link: Link) -> LinkRecord:
        names = _ENDS[link]
        a, b = points = tuple(getattr(self, n) for n in names)
        arrays = tuple(getattr(self, f"{n}_geometry") for n in names)
        mounts = tuple(None if n == "rx" else g.orientation for n, g in zip(names, arrays))
        if link is Link.RIS_RX and self.environment.indoor:
            p = 1.0  # placement guarantees the surface sees the Rx indoors
        else:
            p = los_probability(distance_2d(a, b), self.environment.kind)
        return LinkRecord(names, points, arrays, mounts, distance(a, b), self.los_mode(link), p)

    def with_rx(self, rx: Point3) -> "Scene":
        """Same scene, receiver moved (used by coverage sweeps)."""
        return replace(self, rx=rx)

    def describe(self) -> str:
        """One-line human summary for logs."""
        g = self.ris_geometry
        return (
            f"{self.environment.kind.value} @ {self.frequency_hz / 1e9:g} GHz, "
            f"N={self.n} ({g.n_h}x{g.n_v} on {g.orientation.plane.value}, facing {g.orientation.facing:+d}), "
            f"Nt={self.nt}, Nr={self.nr}, tx={self.tx}, ris={self.ris}, rx={self.rx}"
            + (f" (+{len(self.extra_panels)} surface(s))" if self.extra_panels else "")
        )
