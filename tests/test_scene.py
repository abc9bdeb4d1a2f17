"""The per-link record of a scene: ends, distance and LOS rule."""

import dataclasses
import math
from dataclasses import replace

import numpy as np
import pytest

from rischan import mmwave, sub6
from rischan.arrays import ArrayGeometry
from rischan.errors import ConfigError
from rischan.geometry import Plane, Point3, SurfaceOrientation, distance, distance_2d
from rischan.propagation import los_probability
from rischan.scattering import Link
from rischan.scene import RX_FREE_KEYS, RisPanel

from conftest import make_indoor_scene, make_outdoor_scene

ENDS = {Link.TX_RIS: ("tx", "ris"), Link.RIS_RX: ("ris", "rx"), Link.TX_RX: ("tx", "rx")}
MODE_FIELD = {Link.TX_RIS: "los_tx_ris", Link.RIS_RX: "los_ris_rx", Link.TX_RX: "los_tx_rx"}


@pytest.mark.parametrize("make", [make_indoor_scene, make_outdoor_scene], ids=["indoor", "umi"])
@pytest.mark.parametrize("link", list(Link), ids=lambda link: link.value)
def test_link_record(make, link):
    scene = make(tx_geometry=ArrayGeometry(2), rx_geometry=ArrayGeometry(3))
    ends = scene.link(link)
    names = ENDS[link]
    assert ends.names == names
    assert ends.points == tuple(getattr(scene, n) for n in names)
    assert all(a is getattr(scene, f"{n}_geometry") for a, n in zip(ends.arrays, names))
    mounts = {"tx": scene.tx_geometry.orientation, "ris": scene.ris_geometry.orientation, "rx": None}
    assert ends.mounts == tuple(mounts[n] for n in names)

    a, b = ends.points
    assert ends.distance == distance(a, b) == distance(b, a)
    if link is Link.RIS_RX and scene.environment.indoor:
        assert ends.p == 1.0
    else:
        assert distance_2d(a, b) == distance_2d(b, a)
        assert ends.p == los_probability(distance_2d(a, b), scene.environment.kind)
    assert ends.mode == "auto"
    assert not ends.visible(ends.p)
    assert ends.visible(math.nextafter(ends.p, 0.0))

    for mode, want in (("on", True), ("off", False)):
        forced = replace(scene, **{MODE_FIELD[link]: mode}).link(link)
        assert forced.mode == mode
        assert [forced.visible(u) for u in (0.0, forced.p, 1.0)] == [want] * 3
    assert scene.link(link) is ends


def _fill(scene):
    """Compute every constant that a draw of either band keeps in ``scene``."""
    mmwave.realize(scene, 5, range(3))
    sub6.realize_sub6(scene, 5, range(2), g_mode="far")
    scene.close_in(False), scene.close_in(True)


def _bits(value):
    """``value`` with every float and array replaced by its bytes, so that
    two values compare equal only bit for bit."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, tuple):
        return type(value).__name__, tuple(_bits(v) for v in value)
    if dataclasses.is_dataclass(value):
        return _bits(tuple(getattr(value, f.name) for f in dataclasses.fields(value)))
    return value


@pytest.mark.parametrize("make", [make_indoor_scene, make_outdoor_scene], ids=["indoor", "umi"])
def test_with_rx_keeps_what_does_not_depend_on_the_receiver(make):
    """A moved scene keeps the values of RX_FREE_KEYS, and each is, bit for
    bit, the value a scene built fresh at the new receiver computes; every
    other constant is computed anew."""
    base = make()
    _fill(base)
    assert set(base.rx_free) == RX_FREE_KEYS
    rx = Point3(base.rx.x - 3.0, base.rx.y - 2.0, 1.2)
    moved = base.with_rx(rx)
    assert moved.rx == rx and moved.memo == {}
    assert {key: _bits(moved.rx_free[key]) for key in RX_FREE_KEYS} == {
        key: _bits(base.rx_free[key]) for key in RX_FREE_KEYS
    }
    fresh = replace(base, rx=rx)
    _fill(fresh)
    for key in RX_FREE_KEYS:
        assert _bits(moved.rx_free[key]) == _bits(fresh.rx_free[key]), key
    _fill(moved)
    assert {key: _bits(value) for key, value in moved.memo.items()} == {
        key: _bits(value) for key, value in fresh.memo.items()
    }


def test_with_rx_carries_no_other_constant():
    base = make_indoor_scene()
    _fill(base)
    sub6.select_g_mode(base, "auto", None)
    base.constant(("a constant of this scene",), lambda: 1.0)
    others = set(base.memo)
    assert others and not others & RX_FREE_KEYS
    assert {("link", Link.RIS_RX), ("link", Link.TX_RX), ("g mode", None)} <= others
    moved = base.with_rx(Point3(30.0, 40.0, 1.5))
    assert moved.memo == {}
    moved.constant(("a constant of the moved scene",), lambda: 2.0)
    assert ("a constant of the moved scene",) not in base.memo


def _two_panels(**overrides):
    second = RisPanel(Point3(0.0, 40.0, 2.0), ArrayGeometry(4, 4, orientation=SurfaceOrientation(Plane.YZ)))
    return make_indoor_scene(extra_panels=(second,), **overrides)


@pytest.mark.parametrize("make, on", [
    (make_indoor_scene, "tx"), (make_indoor_scene, "ris"),
    (_two_panels, "tx"), (_two_panels, "ris"), (_two_panels, "second surface"),
])
def test_with_rx_on_a_terminal_raises_as_the_constructor(make, on):
    """A receiver on the Tx or on any surface raises the constructor's
    ConfigError, whichever panel view it hits; elsewhere every view moves."""
    scene = make()
    point = scene.extra_panels[0].position if on == "second surface" else getattr(scene, on)
    with pytest.raises(ConfigError, match="coincide") as fresh:
        replace(scene, rx=point)
    with pytest.raises(ConfigError, match="coincide") as moved:
        scene.with_rx(point)
    assert str(moved.value) == str(fresh.value)
    rx = Point3(point.x + 0.5, point.y - 0.5, point.z)
    assert [view.rx for view in scene.with_rx(rx).panel_scenes] == [rx] * len(scene.panel_scenes)
