"""The per-link record of a scene: ends, distance and LOS rule."""

import math
from dataclasses import replace

import pytest

from rischan.arrays import ArrayGeometry
from rischan.geometry import distance, distance_2d
from rischan.propagation import los_probability
from rischan.scattering import Link

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
