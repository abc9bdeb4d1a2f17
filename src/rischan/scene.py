"""Scene description for a single-surface link: who stands where, facing how.

A scene pins down everything deterministic about a simulation: environment,
carrier, terminal and surface positions, array layouts, element pattern, and
the per-hop line-of-sight policy. Randomness enters only through the
generators passed to the channel routines.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

from .arrays import ArrayGeometry, ElementPattern
from .errors import ConfigError
from .geometry import Plane, Point3, SurfaceOrientation, distance, distance_2d
from .propagation import (
    SPEED_OF_LIGHT, CloseIn, Environment, check_frequency, close_in, los_probability,
)
from .scattering import Link, ScatteringParams

__all__ = ["LOS_MODES", "LinkRecord", "Scene"]

# per-hop visibility policy: distance-dependent Bernoulli, forced on, forced off
LOS_MODES = ("auto", "on", "off")

# The ends (A, B) of each link. A hop matrix has B's array along its rows and
# A's along its columns; a cluster set's ``angles_a``/``angles_b`` are the
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
class Scene:
    """One Tx / RIS / Rx layout plus all model switches.

    The surface the RIS is mounted on is ``ris_geometry.orientation``; the
    transmitter's mounting (fixing its departure angles) is
    ``tx_geometry.orientation``, broadside +x by default. The receiver is
    mobile and has no fixed orientation. ``element_pattern=None`` makes the
    surface elements isotropic with unit gain.
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

    def __post_init__(self) -> None:
        check_frequency(self.frequency_hz)
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

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.frequency_hz

    @property
    def n(self) -> int:
        """Number of surface elements."""
        return self.ris_geometry.size

    @property
    def nt(self) -> int:
        return self.tx_geometry.size

    @property
    def nr(self) -> int:
        return self.rx_geometry.size

    @property
    def panel_scenes(self) -> tuple["Scene", ...]:
        """The per-surface views: this scene is its own one panel."""
        return (self,)

    @property
    def shares_direct_clusters(self) -> bool:
        """Effective sharing switch (defaults to the environment's layout)."""
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
        side = "xz" if g.orientation.plane is Plane.XZ else "yz"
        return (
            f"{self.environment.kind.value} @ {self.frequency_hz / 1e9:g} GHz, "
            f"N={self.n} ({g.n_h}x{g.n_v} on {side}, facing {g.orientation.facing:+d}), "
            f"Nt={self.nt}, Nr={self.nr}, tx={self.tx}, ris={self.ris}, rx={self.rx}"
        )
