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

This module holds no code of its own: :func:`realize_multi` and
:func:`compose_multi` are other names for :func:`rischan.mmwave.realize` and
:func:`rischan.mmwave.compose`, which serve any panel count.
"""

from __future__ import annotations

from .mmwave import compose as compose_multi
from .mmwave import realize as realize_multi
# unused here, but bench/tracer.py wraps this name of this module
from .scattering import generate_clusters  # noqa: F401
from .scene import RisPanel

__all__ = ["RisPanel", "realize_multi", "compose_multi"]
