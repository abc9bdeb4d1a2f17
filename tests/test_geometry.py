import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rischan.arrays import ElementPattern, element_gain_cos
from rischan.geometry import (
    DirectionAngles,
    Plane,
    Point3,
    SurfaceOrientation,
    angles_from,
    angles_from_many,
    direction_unit,
    distance,
    distance_2d,
)

finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


class TestPoint3:
    def test_roundtrip(self):
        p = Point3(1.5, -2.0, 0.25)
        assert Point3(*p.as_array()) == p

    def test_as_array_dtype(self):
        assert Point3(1, 2, 3).as_array().dtype == np.float64

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Point3(0.0, bad, 0.0)


def test_distance_oracle():
    a = Point3(1.0, 2.0, 3.0)
    b = Point3(4.0, 6.0, 3.0)
    assert distance(a, b) == pytest.approx(5.0)
    assert distance_2d(a, b) == pytest.approx(5.0)
    # ground distance ignores the height difference
    c = Point3(4.0, 6.0, 30.0)
    assert distance_2d(a, c) == pytest.approx(5.0)
    assert distance(a, c) > distance_2d(a, c)


def test_surface_normals():
    assert np.array_equal(SurfaceOrientation(Plane.XZ).normal, [0.0, 1.0, 0.0])
    assert np.array_equal(SurfaceOrientation(Plane.YZ).normal, [1.0, 0.0, 0.0])
    assert np.array_equal(SurfaceOrientation(Plane.XZ, facing=-1).normal, [0.0, -1.0, 0.0])
    with pytest.raises(ValueError, match="facing"):
        SurfaceOrientation(Plane.XZ, facing=0)


def test_direction_unit_axes():
    np.testing.assert_allclose(direction_unit(0.0, math.pi / 2), [1.0, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(
        direction_unit(math.pi / 2, math.pi / 2), [0.0, 1.0, 0.0], atol=1e-15
    )
    np.testing.assert_allclose(direction_unit(0.3, 0.0), [0.0, 0.0, 1.0], atol=1e-15)


@given(az=st.floats(-math.pi, math.pi), el=st.floats(0.0, math.pi))
def test_direction_unit_norm(az, el):
    assert np.linalg.norm(direction_unit(az, el)) == pytest.approx(1.0, abs=1e-12)


class TestAnglesFrom:
    def test_broadside_xz(self):
        # target straight along the +y normal of an xz wall
        ang = angles_from(Point3(0, 0, 0), Point3(0, 5, 0))
        assert ang.azimuth == pytest.approx(math.pi / 2)
        assert ang.elevation == pytest.approx(math.pi / 2)

    def test_behind_flipped_surface(self):
        # straight behind a flipped xz wall: a negative normal component, no gain
        cos = SurfaceOrientation(Plane.XZ, facing=-1).normal_component(Point3(0, 5, 0).as_array())
        assert cos == -5.0
        assert element_gain_cos(ElementPattern(), cos) == 0.0

    def test_in_plane_counts_as_front(self):
        cos = SurfaceOrientation(Plane.XZ).normal_component(Point3(3, 0, 1).as_array())
        assert cos == 0.0  # the pattern's edge, still in front
        assert element_gain_cos(ElementPattern(0.0), cos) == ElementPattern(0.0).boresight_gain

    def test_azimuth_half_open(self):
        # straight along -x maps to +pi, never -pi
        ang = angles_from(Point3(0, 0, 0), Point3(-2, 0, 0))
        assert ang.azimuth == math.pi

    def test_elevation_up_down(self):
        up = angles_from(Point3(0, 0, 0), Point3(0, 0, 4))
        assert up.elevation == pytest.approx(0.0)
        down = angles_from(Point3(0, 0, 0), Point3(0, 0, -4))
        assert down.elevation == pytest.approx(math.pi)

    def test_coincident_raises(self):
        with pytest.raises(ValueError, match="coincides"):
            angles_from(Point3(1, 1, 1), Point3(1, 1, 1))

    @given(
        ox=finite, oy=finite, oz=finite,
        tx=finite, ty=finite, tz=finite,
    )
    def test_many_matches_scalar(self, ox, oy, oz, tx, ty, tz):
        origin = np.array([ox, oy, oz])
        target = np.array([tx, ty, tz])
        # squared subnormals underflow; skip anything the norm cannot resolve
        if np.linalg.norm(target - origin) == 0.0:
            return
        az, el = angles_from_many(origin, target[None, :])
        scalar = angles_from(Point3(*origin), Point3(*target))
        assert scalar.azimuth == az[0]
        assert scalar.elevation == el[0]
        assert -math.pi < az[0] <= math.pi
        assert 0.0 <= el[0] <= math.pi


def test_angles_from_many_block(rng):
    origin = np.array([10.0, 20.0, 1.0])
    targets = origin + rng.normal(size=(50, 3))
    az, el = angles_from_many(origin, targets)
    assert az.shape == el.shape == (50,)
    d = targets - origin
    np.testing.assert_allclose(el, np.arccos(d[:, 2] / np.linalg.norm(d, axis=1)), atol=1e-12)
    np.testing.assert_allclose(az, np.arctan2(d[:, 1], d[:, 0]), atol=1e-12)


def test_direction_angles_is_plain_data():
    d = DirectionAngles(0.1, 0.2)
    assert (d.azimuth, d.elevation) == (0.1, 0.2)
