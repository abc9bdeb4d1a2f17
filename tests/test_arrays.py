import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from rischan import arrays
from rischan.arrays import (
    ArrayGeometry,
    ElementPattern,
    array_axes,
    element_gain,
    element_gain_cos,
    power_factors,
    response_sum,
    steering_matrix,
    steering_vector,
)
from rischan.geometry import DirectionAngles, Plane, SurfaceOrientation, direction_unit

LAM = 0.0107  # ~28 GHz


class TestArrayGeometry:
    def test_size_and_spacing(self):
        g = ArrayGeometry(4, 2, spacing_wavelengths=0.5)
        assert g.size == 8
        assert g.spacing_m(LAM) == pytest.approx(LAM / 2)

    def test_flat_index_order(self):
        # flat index is ih * n_v + iv: a vertical column is contiguous
        g = ArrayGeometry(3, 2, orientation=SurfaceOrientation(Plane.XZ))
        off = g.element_offsets(1.0)
        s = 0.5
        assert np.array_equal(off[0], [0.0, 0.0, 0.0])
        assert np.array_equal(off[1], [0.0, 0.0, s])      # iv advances first
        assert np.array_equal(off[2], [s, 0.0, 0.0])      # then ih
        assert np.array_equal(off[5], [2 * s, 0.0, s])

    def test_yz_wall_uses_y_axis(self):
        g = ArrayGeometry(2, 1, orientation=SurfaceOrientation(Plane.YZ))
        off = g.element_offsets(1.0)
        assert off[1][1] == 0.5 and off[1][0] == 0.0

    def test_centers_are_centered(self):
        g = ArrayGeometry(5, 3, orientation=SurfaceOrientation(Plane.XZ))
        center = np.array([10.0, 2.0, 5.0])
        pts = g.element_centers(LAM, center)
        np.testing.assert_allclose(pts.mean(axis=0), center, atol=1e-12)
        assert pts.shape == (15, 3)
        assert np.all(pts[:, 1] == 2.0)  # xz panel: all points share the y of the center

    @pytest.mark.parametrize("nh,nv", [(0, 1), (1, 0), (-2, 3)])
    def test_bad_grid(self, nh, nv):
        with pytest.raises(ValueError, match="grid"):
            ArrayGeometry(nh, nv)

    def test_bad_spacing(self):
        with pytest.raises(ValueError, match="spacing"):
            ArrayGeometry(2, 2, spacing_wavelengths=0.0)


class TestElementPattern:
    def test_boresight_gain(self):
        assert ElementPattern(0.285).boresight_gain == pytest.approx(2.0 * (2 * 0.285 + 1))
        assert ElementPattern(0.0).boresight_gain == 2.0

    def test_negative_q_rejected(self):
        with pytest.raises(ValueError):
            ElementPattern(-0.1)

    def test_gain_values(self):
        p = ElementPattern(1.0)
        assert element_gain(p, 0.0) == pytest.approx(6.0)
        assert element_gain(p, math.pi / 3) == pytest.approx(6.0 * 0.25)
        # the hemisphere edge is still "front": cos(pi/2) in floats is ~6e-17
        assert element_gain(p, math.pi / 2) == pytest.approx(0.0, abs=1e-30)
        assert element_gain(p, 2.0) == 0.0  # behind is exactly zero

    def test_q_zero_is_flat_over_hemisphere(self):
        p = ElementPattern(0.0)
        psi = np.linspace(0.0, math.pi / 2, 10)
        np.testing.assert_allclose(element_gain(p, psi), 2.0)
        assert element_gain(p, math.pi / 2 + 1e-9) == 0.0

    def test_array_input_no_nan(self):
        g = element_gain(ElementPattern(0.285), np.array([0.0, 1.0, math.pi / 2, 3.0]))
        assert g.shape == (4,)
        assert np.all(np.isfinite(g))

    @pytest.mark.parametrize("q", [0.0, 0.285, 2.0])
    def test_hemisphere_energy_is_4pi(self, q):
        # solid-angle integral: int G(psi) sin(psi) dpsi dphi over the front
        p = ElementPattern(q)
        val, err = quad(lambda t: element_gain(p, t) * math.sin(t), 0.0, math.pi / 2)
        assert 2.0 * math.pi * val == pytest.approx(4.0 * math.pi, rel=1e-9)
        assert err < 1e-8


class TestSteering:
    def test_unit_modulus(self, rng):
        g = ArrayGeometry(4, 4, orientation=SurfaceOrientation(Plane.XZ))
        az = rng.uniform(-math.pi, math.pi, 6)
        el = rng.uniform(0.0, math.pi, 6)
        a = steering_matrix(g, az, el, LAM)
        assert a.shape == (16, 6)
        np.testing.assert_allclose(np.abs(a), 1.0, atol=1e-12)

    def test_reference_element_has_zero_phase(self, rng):
        g = ArrayGeometry(3, 3, orientation=SurfaceOrientation(Plane.YZ))
        a = steering_matrix(g, rng.uniform(-3, 3, 4), rng.uniform(0, 3, 4), LAM)
        np.testing.assert_allclose(a[0], 1.0 + 0.0j, atol=1e-12)

    def test_half_wavelength_broadside_pair(self):
        # two elements lambda/2 apart along y; direction along +y gives a pi shift
        g = ArrayGeometry(2, 1, orientation=SurfaceOrientation(Plane.YZ))
        a = steering_matrix(g, math.pi / 2, math.pi / 2, LAM)
        assert a[1] == pytest.approx(-1.0 + 0.0j, abs=1e-12)
        # direction along +x (normal to the spacing axis): no phase shift
        b = steering_matrix(g, 0.0, math.pi / 2, LAM)
        assert b[1] == pytest.approx(1.0 + 0.0j, abs=1e-12)

    def test_scalar_returns_vector(self):
        g = ArrayGeometry(4, 1)
        a = steering_matrix(g, 0.3, 1.0, LAM)
        assert a.shape == (4,)

    def test_phase_oracle_any_direction(self):
        g = ArrayGeometry(3, 2, orientation=SurfaceOrientation(Plane.XZ))
        az, el = 0.7, 1.1
        u = np.array([math.sin(el) * math.cos(az), math.sin(el) * math.sin(az), math.cos(el)])
        a = steering_matrix(g, az, el, LAM)
        expected = np.exp(1j * 2 * math.pi / LAM * g.element_offsets(LAM) @ u)
        np.testing.assert_allclose(a, expected, atol=1e-12)

    def test_steering_vector_wraps_angles(self):
        g = ArrayGeometry(2, 2)
        ang = DirectionAngles(0.4, 1.2)
        np.testing.assert_array_equal(
            steering_vector(g, ang, LAM), steering_matrix(g, 0.4, 1.2, LAM)
        )

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shapes differ"):
            steering_matrix(ArrayGeometry(2), np.zeros(3), np.zeros(2), LAM)

    @given(spacing=st.floats(0.1, 2.0), az=st.floats(-3.1, 3.1), el=st.floats(0.0, 3.1))
    def test_modulus_property(self, spacing, az, el):
        g = ArrayGeometry(3, 1, spacing_wavelengths=spacing)
        a = steering_matrix(g, az, el, LAM)
        assert np.allclose(np.abs(a), 1.0)


class TestResponseSum:
    """The hop kernel against the textbook sum over rays of c_m times the
    outer product of full steering vectors (``exp`` of the element phases)."""

    @staticmethod
    def direct(geometry, az, el):
        u = direction_unit(az, el)
        return np.exp(1j * 2 * math.pi / LAM * geometry.element_offsets(LAM) @ u.T)

    def test_one_end(self, rng):
        g = ArrayGeometry(16, 16, orientation=SurfaceOrientation(Plane.XZ, facing=-1))
        az, el = rng.uniform(-math.pi, math.pi, 30), rng.uniform(0.0, math.pi, 30)
        c = rng.standard_normal(30) + 1j * rng.standard_normal(30)
        got = response_sum((c.real, c.imag), [(g, direction_unit(az, el))], LAM)
        np.testing.assert_allclose(got, self.direct(g, az, el) @ c, rtol=0, atol=1e-12 * np.abs(c).sum())

    def test_two_ends_and_single_antenna(self, rng):
        rx = ArrayGeometry(4, 1)
        sur = ArrayGeometry(8, 4, orientation=SurfaceOrientation(Plane.YZ))
        one = ArrayGeometry(1)
        m = 12
        ang = [(rng.uniform(-math.pi, math.pi, m), rng.uniform(0.0, math.pi, m)) for _ in range(3)]
        c = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        ends = [(rx, direction_unit(*ang[0])), (sur, direction_unit(*ang[1]))]
        got = response_sum((c.real, c.imag), ends, LAM)
        expected = (self.direct(rx, *ang[0]) * c) @ self.direct(sur, *ang[1]).T
        assert got.shape == (4, 32)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12 * np.abs(c).sum())
        # a single-antenna end is the factor 1: same bits as leaving it out
        alone = response_sum((c.real, c.imag), ends[1:], LAM)
        with_one = response_sum((c.real, c.imag), [(one, direction_unit(*ang[2])), ends[1]], LAM)
        assert with_one.shape == (1, 32)
        np.testing.assert_array_equal(with_one[0], alone)

    def test_no_rays_is_zero(self):
        g = ArrayGeometry(4, 4)
        got = response_sum((np.zeros(0), np.zeros(0)), [(g, np.zeros((0, 3)))], LAM)
        np.testing.assert_array_equal(got, np.zeros(16))


def test_element_gain_cos_matches_angle_form():
    p = ElementPattern(0.285)
    psi = np.array([0.0, 0.4, 1.2, math.pi / 2, 2.0, math.pi])
    np.testing.assert_allclose(element_gain_cos(p, np.cos(psi)), element_gain(p, psi), rtol=1e-12, atol=1e-30)
    assert element_gain_cos(p, -0.1) == 0.0


@pytest.mark.parametrize("block", [1, 7, 600, 1024])
def test_ladder_blocks_do_not_enter_the_bits(monkeypatch, block):
    """The axis factors of 3700 columns (two arrays of different spacing,
    so two phase steps) have the same bits in ladder blocks of any size as
    in one block of all columns."""
    rng = np.random.default_rng(27)
    unit = direction_unit(rng.uniform(-math.pi, math.pi, 1500), rng.uniform(0.0, math.pi, 1500))
    axes = array_axes(ArrayGeometry(16, 8), unit, 0.0857)
    axes += array_axes(ArrayGeometry(5, 3, spacing_wavelengths=0.7), unit[:350], 0.0857)
    monkeypatch.setattr(arrays, "_LADDER_COLUMNS", 10**6)
    whole = power_factors(axes)
    monkeypatch.setattr(arrays, "_LADDER_COLUMNS", block)
    blocked = power_factors(axes)
    assert sum(fr.shape[1] for fr, _ in whole) == 3700
    for (wr, wi), (br, bi) in zip(whole, blocked, strict=True):
        assert wr.shape == br.shape
        assert wr.tobytes() == br.tobytes() and wi.tobytes() == bi.tobytes()
