"""Scenes with several reflecting surfaces, single-bounce composition.

Each surface contributes one reflected term; the effective channel is the
sum of the per-surface cascades plus the common direct link:

    C = sum_k G_k Phi_k H_k + D

A plain :class:`~rischan.scene.Scene` is the one-panel case: both scene
types list their surfaces in ``panel_scenes``, and their draws share one
record (``MultiRisRealization`` is :class:`~rischan.mmwave.ChannelRealization`).
Surface-to-surface re-reflections are not modeled. Every surface draws its
own independent cluster realizations (tagged by panel index), while the
direct link is drawn once from panel-independent streams, so adding or
removing a surface never changes D or the other surfaces' draws. The direct
link always uses an independent cluster set here: re-viewing a shared set
is anchored to one specific surface and is only meaningful in the
single-surface indoor scene.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from functools import cached_property

from .arrays import ArrayGeometry, ElementPattern
from .errors import ConfigError
from .geometry import Point3
from .mmwave import ChannelRealization, RealizationStreams, _draw_panels
from .mmwave import compose as compose_multi
from .propagation import Environment
from .scattering import ScatteringParams
# unused here, but bench/tracer.py wraps this name of this module
from .scattering import generate_clusters  # noqa: F401
from .scene import Scene

__all__ = ["RisPanel", "MultiRisScene", "MultiRisRealization", "realize_multi", "compose_multi"]


@dataclass(frozen=True)
class RisPanel:
    """One reflecting surface: where it is and how it is built."""

    position: Point3
    geometry: ArrayGeometry


@dataclass(frozen=True)
class MultiRisScene:
    """A Tx/Rx pair served by one or more reflecting surfaces."""

    environment: Environment
    frequency_hz: float
    tx: Point3
    rx: Point3
    panels: tuple[RisPanel, ...]
    tx_geometry: ArrayGeometry = ArrayGeometry(1)
    rx_geometry: ArrayGeometry = ArrayGeometry(1)
    element_pattern: ElementPattern | None = field(default_factory=ElementPattern)
    scattering: ScatteringParams = field(default_factory=ScatteringParams)
    los_tx_ris: str = "auto"
    los_ris_rx: str = "auto"
    los_tx_rx: str = "auto"
    shadow_clustered: bool = True
    shadow_los: bool = False

    def __post_init__(self) -> None:
        if not self.panels:
            raise ConfigError("panels: need at least one reflecting surface")
        self.panel_scenes  # full per-panel validation

    @property
    def n_panels(self) -> int:
        return len(self.panels)

    @cached_property
    def panel_scenes(self) -> tuple[Scene, ...]:
        """Single-surface view of each panel (independent direct clusters);
        the same objects on every call, so per-scene constants are kept."""
        common = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "panels"}
        return tuple(
            Scene(ris=p.position, ris_geometry=p.geometry, share_direct_clusters=False, **common)
            for p in self.panels
        )

    def scene_for(self, k: int) -> Scene:
        return self.panel_scenes[k]

    def with_rx(self, rx: Point3) -> "MultiRisScene":
        return replace(self, rx=rx)


MultiRisRealization = ChannelRealization


def realize_multi(
    mscene: MultiRisScene | Scene, master_seed: int, index: int = 0, clustered: bool = True
) -> ChannelRealization:
    """Generate realization ``index`` of a scene with one or more surfaces.

    Panel k consumes the panel-k streams; the direct link consumes the
    panel-independent streams, so its draw is the same whatever subset of
    panels exists. A plain :class:`Scene` gives the draw of
    :func:`rischan.mmwave.realize`.
    """
    panels = [
        (scene, RealizationStreams.derive(master_seed, index, panel=k))
        for k, scene in enumerate(mscene.panel_scenes)
    ]
    return _draw_panels(panels, clustered, index)
