"""Several reflecting surfaces, single-bounce composition.

Each surface contributes one reflected term; the effective channel is the
sum of the per-surface cascades plus the common direct link:

    C = sum_k G_k Phi_k H_k + D

A scene with several surfaces is a :class:`~rischan.scene.Scene` whose
``extra_panels`` hold the surfaces after the first; a one-surface scene is
the one-panel case, and every draw fills one record,
:class:`~rischan.mmwave.ChannelRealization`. Surface-to-surface
re-reflections are not modeled. Every surface draws its own independent
cluster realizations (tagged by panel index), while the direct link is drawn
once from panel-independent streams, so adding or removing a surface never
changes D or the other surfaces' draws.
"""

from __future__ import annotations

from .mmwave import ChannelRealization, RealizationStreams, _draw_panels
from .mmwave import compose as compose_multi
# unused here, but bench/tracer.py wraps this name of this module
from .scattering import generate_clusters  # noqa: F401
from .scene import RisPanel, Scene

__all__ = ["RisPanel", "realize_multi", "compose_multi"]


def realize_multi(
    scene: Scene, master_seed: int, index: int = 0, clustered: bool = True
) -> ChannelRealization:
    """Generate realization ``index`` of a scene with one or more surfaces.

    Panel k consumes the panel-k streams; the direct link consumes the
    panel-independent streams, so its draw is the same whatever subset of
    panels exists. A one-surface scene gives the draw of
    :func:`rischan.mmwave.realize`.
    """
    panels = [
        (view, RealizationStreams.derive(master_seed, index, panel=k))
        for k, view in enumerate(scene.panel_scenes)
    ]
    return _draw_panels(panels, clustered, index)
