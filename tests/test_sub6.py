"""Sub-6 GHz generator: power profiles, hop draw-order oracles, near field."""

import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rischan import elementary as ef, sub6
from rischan.arrays import ArrayGeometry, as_complex, element_gain_cos, response_sum
from rischan.engine import coverage_run, load_config
from rischan.geometry import (
    Plane,
    Point3,
    SurfaceOrientation,
    angles_from,
    direction_unit,
    distance,
    distance_2d,
)
from rischan.propagation import los_probability, path_loss
from rischan.scattering import Link
from rischan.streams import substream
from rischan.sub6 import (
    G_MODES,
    MAX_RAYS_PER_HOP,
    ClusterPowerProfile,
    Sub6Params,
    fraunhofer_distance,
    gen_cluster_powers,
    gen_g_near,
    nearfield_element_capture,
    powers_from_delays,
    realize_sub6,
)

from conftest import count_substreams, make_indoor_scene


def make_sub6_scene(**overrides):
    """Indoor scene retuned to 3.5 GHz; the 4x4 surface keeps the default
    receiver (3 m away) outside its Fraunhofer distance."""
    defaults = dict(frequency_hz=3.5e9)
    defaults.update(overrides)
    return make_indoor_scene(**defaults)


def make_near_scene(**overrides):
    """16x16 surface at 3.5 GHz with the receiver 3 m away, well inside the
    Fraunhofer distance (about 22 m)."""
    defaults = dict(
        frequency_hz=3.5e9,
        ris_geometry=ArrayGeometry(16, 16, orientation=SurfaceOrientation(Plane.XZ, facing=-1)),
        rx=Point3(40.0, 47.0, 2.0),
    )
    defaults.update(overrides)
    return make_indoor_scene(**defaults)


class TestSub6Params:
    def test_defaults(self):
        p = Sub6Params()
        assert p.n_clusters == 15 and p.n_rays == 20
        assert p.delay_scaling == 3.0 and p.delay_spread_s == 66e-9

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_clusters=0),
            dict(n_rays=0),
            dict(delay_scaling=1.0),
            dict(delay_scaling=0.5),
            dict(delay_spread_s=0.0),
            dict(delay_spread_s=-1e-9),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            Sub6Params(**kwargs)

    @pytest.mark.parametrize("kwargs", [dict(n_rays=10**9), dict(n_rays=2**70), dict(n_clusters=10**7, n_rays=10**7)])
    def test_ray_budget(self, kwargs):
        with pytest.raises(ValueError, match=f"rays per hop, over the limit of {MAX_RAYS_PER_HOP}"):
            Sub6Params(**kwargs)
        assert Sub6Params(n_clusters=100, n_rays=MAX_RAYS_PER_HOP // 100).n_rays == 100


class TestClusterPowers:
    def test_formula_oracle(self):
        delays = np.array([0.0, 50e-9, 200e-9])
        r_tau, ds = 3.0, 66e-9
        got = powers_from_delays(delays, r_tau, ds)
        raw = np.exp(-delays * (r_tau - 1.0) / (r_tau * ds))
        np.testing.assert_allclose(got, raw / raw.sum(), rtol=1e-15)

    def test_shadow_enters_in_db(self):
        delays = np.zeros(2)
        got = powers_from_delays(delays, 3.0, 66e-9, shadow_db=np.array([0.0, 10.0]))
        # second cluster is attenuated by exactly a factor 10
        assert got[0] / got[1] == pytest.approx(10.0, rel=1e-12)

    def test_equal_delays_equal_powers(self):
        got = powers_from_delays(np.full(5, 30e-9), 2.5, 40e-9)
        np.testing.assert_array_equal(got, np.full(5, 0.2))

    def test_longer_delay_weaker(self):
        got = powers_from_delays(np.array([0.0, 100e-9, 400e-9]), 3.0, 66e-9)
        assert got[0] > got[1] > got[2]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            powers_from_delays(np.array([0.0, -1e-9]), 3.0, 66e-9)

    def test_collapse_rejected(self):
        # delays so long the exponential underflows to zero everywhere
        with pytest.raises(ValueError, match="collapsed"):
            powers_from_delays(np.full(3, 1.0), 3.0, 66e-9)

    @given(
        delays=st.lists(st.floats(0.0, 1e-6), min_size=1, max_size=12),
        r_tau=st.floats(1.01, 10.0),
        ds=st.floats(1e-9, 1e-6),
    )
    # every exponential of these excess delays underflows unless the
    # profile starts at 0, as a drawn profile does
    @example(delays=[9.575168454995573e-07], r_tau=5.0, ds=1e-09)
    @settings(max_examples=60)
    def test_normalized_simplex(self, delays, r_tau, ds):
        # excess delays of a profile, measured from its first cluster
        got = powers_from_delays(np.array([0.0] + delays), r_tau, ds)
        assert np.all(got >= 0.0)
        assert got.sum() == pytest.approx(1.0, rel=1e-9)

    def test_gen_draw_order_oracle(self):
        p = Sub6Params(n_clusters=6)
        prof = gen_cluster_powers(np.random.default_rng(5), p)
        twin = np.random.default_rng(5)
        u = twin.random(p.n_clusters)
        delays = np.sort(-p.delay_scaling * p.delay_spread_s * ef.log(u))
        delays -= delays[0]
        shadows = p.shadow_cluster_db * twin.standard_normal(p.n_clusters)
        np.testing.assert_array_equal(prof.delays_s, delays)
        np.testing.assert_array_equal(
            prof.powers, powers_from_delays(delays, p.delay_scaling, p.delay_spread_s, shadows)
        )

    def test_gen_profile_shape(self):
        prof = gen_cluster_powers(np.random.default_rng(0))
        assert prof.n_clusters == 15
        assert prof.delays_s[0] == 0.0
        assert np.all(np.diff(prof.delays_s) >= 0.0)
        assert prof.powers.sum() == pytest.approx(1.0, rel=1e-9)


def _wrap_azimuth(a):
    w = np.mod(a + math.pi, 2.0 * math.pi) - math.pi
    return np.where(w == -math.pi, math.pi, w)


def _far_hop(scene, link, prof, rng, params=None):
    """The value of one far-field hop drawn from ``rng``: its stage-1 draw,
    then its stage-2 value with the cluster powers of ``prof`` (whose
    cluster count it takes)."""
    p = replace(params or Sub6Params(), n_clusters=prof.n_clusters)
    return sub6._hop_values(scene, [sub6._draw_hop(scene, link, rng, p)], prof.powers[None, :], p)[0][0]


def _fixed_profile(c=4):
    delays = np.linspace(0.0, 300e-9, c)
    return ClusterPowerProfile(delays_s=delays, powers=powers_from_delays(delays, 3.0, 66e-9))


class TestFarFieldHops:
    def test_h_shape_and_determinism(self):
        scene = make_sub6_scene()
        prof = _fixed_profile()
        h1 = _far_hop(scene, Link.TX_RIS, prof, np.random.default_rng(7))
        h2 = _far_hop(scene, Link.TX_RIS, prof, np.random.default_rng(7))
        assert h1.shape == (16,)
        np.testing.assert_array_equal(h1, h2)
        h3 = _far_hop(scene, Link.TX_RIS, prof, np.random.default_rng(8))
        assert not np.array_equal(h1, h3)

    def test_h_full_draw_oracle(self):
        """Byte-for-byte replay of the documented hop draw order."""
        scene = make_sub6_scene(los_tx_ris="on")
        p = Sub6Params(n_clusters=3, n_rays=5)
        prof = _fixed_profile(3)
        got = _far_hop(scene, Link.TX_RIS, prof, np.random.default_rng(42), p)

        twin = np.random.default_rng(42)
        twin.uniform()  # visibility draw, outcome forced by the "on" mode
        loss = path_loss(
            scene.frequency_hz,
            distance(scene.ris, scene.tx),
            scene.environment.path_loss,
            los=True,
        ).linear
        c, s = prof.n_clusters, p.n_rays
        m = c * s
        ray_power = np.repeat(prof.powers, s) / s
        geom = scene.ris_geometry
        base = angles_from(scene.ris, scene.tx)
        d2r = math.pi / 180.0
        caz = base.azimuth + d2r * p.cluster_az_spread_deg * twin.standard_normal(c)
        cel = base.elevation + d2r * p.cluster_el_spread_deg * twin.standard_normal(c)
        az = np.repeat(caz, s) + d2r * p.ray_az_spread_deg * twin.standard_normal(m)
        el = np.repeat(cel, s) + d2r * p.ray_el_spread_deg * twin.standard_normal(m)
        az = _wrap_azimuth(az)
        el = np.clip(el, 0.0, math.pi)
        phases = twin.uniform(0.0, 2.0 * math.pi, size=m)
        unit = direction_unit(az, el)
        gain = element_gain_cos(scene.element_pattern, geom.orientation.normal_component(unit))
        amp = np.sqrt(ray_power * gain * loss)
        c, s = ef.cis(phases)
        expected = response_sum((amp * c, amp * s), [(geom, unit)], scene.wavelength)
        np.testing.assert_array_equal(got, expected)

    def test_direct_scalar_oracle(self):
        scene = make_sub6_scene()
        p = Sub6Params(n_clusters=4, n_rays=3)
        prof = _fixed_profile(4)
        got = _far_hop(scene, Link.TX_RX, prof, np.random.default_rng(11), p)
        assert got.shape == () and got.dtype == np.complex128

        twin = np.random.default_rng(11)
        u = twin.uniform()
        on = u < los_probability(distance_2d(scene.tx, scene.rx), scene.environment.kind)
        loss = path_loss(
            scene.frequency_hz,
            distance(scene.tx, scene.rx),
            scene.environment.path_loss,
            los=on,
        ).linear
        ray_power = np.repeat(prof.powers, p.n_rays) / p.n_rays
        phases = twin.uniform(0.0, 2.0 * math.pi, size=ray_power.size)
        amp = np.sqrt(ray_power * loss)
        c, s = ef.cis(phases)
        expected = complex(np.sum(amp * c), np.sum(amp * s))
        assert got == expected

    def test_shadow_los_adds_one_draw(self):
        """With loss shadowing on, each hop consumes one extra normal."""
        base = make_sub6_scene()
        shadowed = make_sub6_scene(shadow_los=True)
        prof = _fixed_profile()
        r1, r2 = np.random.default_rng(3), np.random.default_rng(3)
        _far_hop(base, Link.TX_RX, prof, r1)
        _far_hop(shadowed, Link.TX_RX, prof, r2)
        assert r1.uniform() != r2.uniform()

    def test_hop_mean_power_tracks_loss(self):
        """Ray phases are i.i.d. uniform, so E|value|^2 = loss for the scalar
        hop (powers sum to one)."""
        scene = make_sub6_scene(los_tx_rx="on", shadow_los=False)
        prof = _fixed_profile()
        loss = path_loss(
            scene.frequency_hz,
            distance(scene.tx, scene.rx),
            scene.environment.path_loss,
            los=True,
        ).linear
        vals = [
            _far_hop(scene, Link.TX_RX, prof, np.random.default_rng(1000 + i)) for i in range(4000)
        ]
        mean_pow = np.mean(np.abs(vals) ** 2)
        assert mean_pow == pytest.approx(loss, rel=0.1)

    def test_g_far_shape(self):
        scene = make_sub6_scene()
        g = _far_hop(scene, Link.RIS_RX, _fixed_profile(), np.random.default_rng(2))
        assert g.shape == (16,)
        assert np.all(np.isfinite(g))


class TestNearFieldCapture:
    GEOM = ArrayGeometry(4, 4, orientation=SurfaceOrientation(Plane.XZ, facing=1))
    WAVELENGTH = 0.0857  # ~3.5 GHz

    def test_single_element_far_limit(self):
        geom = ArrayGeometry(1, 1, orientation=SurfaceOrientation(Plane.XZ, facing=1))
        edge = geom.spacing_m(self.WAVELENGTH)
        center = Point3(0.0, 0.0, 0.0)
        for mult in (20.0, 50.0, 200.0):
            y = mult * edge
            got = nearfield_element_capture(geom, self.WAVELENGTH, center, Point3(0.0, y, 0.0))
            assert got.shape == (1,)
            assert got[0] == pytest.approx(edge**2 / (4.0 * math.pi * y**2), rel=0.01)

    def test_aperture_sum_far_limit(self):
        geom = ArrayGeometry(16, 16, orientation=SurfaceOrientation(Plane.XZ, facing=1))
        edge = geom.spacing_m(self.WAVELENGTH)
        y = 10.0 * fraunhofer_distance(geom, self.WAVELENGTH)
        got = nearfield_element_capture(
            geom, self.WAVELENGTH, Point3(0.0, 0.0, 0.0), Point3(0.0, y, 0.0)
        )
        total = geom.size * edge**2 / (4.0 * math.pi * y**2)
        assert got.sum() == pytest.approx(total, rel=0.01)

    def test_behind_and_on_plane_zero(self):
        center = Point3(0.0, 0.0, 0.0)
        behind = nearfield_element_capture(self.GEOM, self.WAVELENGTH, center, Point3(0.0, -2.0, 0.0))
        np.testing.assert_array_equal(behind, np.zeros(16))
        onplane = nearfield_element_capture(self.GEOM, self.WAVELENGTH, center, Point3(3.0, 0.0, 1.0))
        np.testing.assert_array_equal(onplane, np.zeros(16))

    def test_facing_matters(self):
        flipped = ArrayGeometry(4, 4, orientation=SurfaceOrientation(Plane.XZ, facing=-1))
        center = Point3(0.0, 0.0, 0.0)
        front = nearfield_element_capture(flipped, self.WAVELENGTH, center, Point3(0.0, -2.0, 0.0))
        assert np.all(front > 0.0)

    def test_centrosymmetric_on_axis(self):
        # receiver on the panel axis sees a capture map symmetric under
        # flipping both in-plane offsets, i.e. reversing the flat index
        got = nearfield_element_capture(
            self.GEOM, self.WAVELENGTH, Point3(0.0, 0.0, 0.0), Point3(0.0, 1.5, 0.0)
        )
        np.testing.assert_allclose(got, got[::-1], rtol=1e-12)

    def test_monotone_in_distance(self):
        center = Point3(0.0, 0.0, 0.0)
        prev = None
        for y in (0.5, 1.0, 2.0, 4.0, 8.0):
            cur = nearfield_element_capture(
                self.GEOM, self.WAVELENGTH, center, Point3(0.0, y, 0.0)
            ).sum()
            if prev is not None:
                assert cur < prev
            prev = cur

    def test_capture_fraction_bounds(self):
        # captured power fraction stays in (0, 1) even very close
        got = nearfield_element_capture(
            self.GEOM, self.WAVELENGTH, Point3(0.0, 0.0, 0.0), Point3(0.0, 0.01, 0.0)
        )
        assert np.all(got > 0.0)
        assert got.sum() < 1.0

    def test_edge_validation(self):
        center = Point3(0.0, 0.0, 0.0)
        rx = Point3(0.0, 1.0, 0.0)
        with pytest.raises(ValueError, match="edge_m"):
            nearfield_element_capture(self.GEOM, self.WAVELENGTH, center, rx, edge_m=0.0)
        with pytest.raises(ValueError, match="exceeds"):
            nearfield_element_capture(self.GEOM, self.WAVELENGTH, center, rx, edge_m=1.0)

    def test_smaller_edge_captures_less(self):
        center = Point3(0.0, 0.0, 0.0)
        rx = Point3(0.2, 1.0, -0.1)
        full = nearfield_element_capture(self.GEOM, self.WAVELENGTH, center, rx)
        half = nearfield_element_capture(
            self.GEOM, self.WAVELENGTH, center, rx, edge_m=self.GEOM.spacing_m(self.WAVELENGTH) / 2
        )
        assert np.all(half < full)

    @pytest.mark.parametrize("facing", [1, -1])
    def test_yz_wall_is_xz_wall_with_x_and_y_swapped(self, facing):
        """A yz-wall panel captures, bit for bit, what an xz-wall panel
        captures in the scene mirrored across the plane x = y."""
        wavelength = 299792458.0 / 3.5e9
        center, rx = (1.0, 2.0, 1.5), (1.3, 2.0 + 0.8 * facing, 1.2)
        got = {}
        for plane, swap in ((Plane.XZ, False), (Plane.YZ, True)):
            geom = ArrayGeometry(8, 4, orientation=SurfaceOrientation(plane, facing=facing))
            c, r = ((p[1], p[0], p[2]) if swap else p for p in (center, rx))
            got[plane] = nearfield_element_capture(geom, wavelength, Point3(*c), Point3(*r))
        assert np.all(got[Plane.XZ] > 0.0)
        np.testing.assert_array_equal(got[Plane.YZ], got[Plane.XZ])

    def test_fraunhofer_oracle(self):
        s = self.GEOM.spacing_m(self.WAVELENGTH)
        ext = 3 * s + s
        expected = 2.0 * (2.0 * ext**2) / self.WAVELENGTH  # diag^2 = 2 ext^2
        assert fraunhofer_distance(self.GEOM, self.WAVELENGTH) == pytest.approx(expected, rel=1e-12)
        # a smaller element aperture shrinks the panel extent
        assert fraunhofer_distance(self.GEOM, self.WAVELENGTH, edge_m=s / 2) < expected


class TestGenGNear:
    def test_amplitude_and_phase_oracle(self):
        scene = make_near_scene()
        g = gen_g_near(scene)
        capture = nearfield_element_capture(
            scene.ris_geometry, scene.wavelength, scene.ris, scene.rx
        )
        centers = scene.ris_geometry.element_centers(scene.wavelength, scene.ris.as_array())
        dist = np.linalg.norm(centers - scene.rx.as_array(), axis=1)
        gamma = 2.0 * math.pi * np.mod(dist / scene.wavelength, 1.0)
        c, s = ef.cis(-gamma)
        np.testing.assert_array_equal(g, as_complex(np.sqrt(capture) * c, np.sqrt(capture) * s))

    def test_deterministic(self):
        scene = make_near_scene()
        np.testing.assert_array_equal(gen_g_near(scene), gen_g_near(scene))


class TestGenGModeSelection:
    def test_auto_picks_near(self):
        scene = make_near_scene()
        auto = realize_sub6(scene, 0, g_mode="auto")
        np.testing.assert_array_equal(auto.G[0, :], gen_g_near(scene))

    def test_auto_picks_far(self):
        scene = make_sub6_scene()
        assert distance(scene.ris, scene.rx) > fraunhofer_distance(
            scene.ris_geometry, scene.wavelength
        )
        auto = realize_sub6(scene, 0, g_mode="auto")
        far = realize_sub6(scene, 0, g_mode="far")
        np.testing.assert_array_equal(auto.G, far.G)

    def test_near_consumes_no_draws(self):
        """The near form leaves every other hop's draw where it was."""
        scene = make_near_scene()
        near = realize_sub6(scene, 9, g_mode="near")
        far = realize_sub6(scene, 9, g_mode="far")
        np.testing.assert_array_equal(near.H, far.H)
        np.testing.assert_array_equal(near.D, far.D)
        assert not np.array_equal(near.G, far.G)


class TestGModeOncePerScene:
    @staticmethod
    def _count(monkeypatch) -> list:
        calls, original = [], sub6.fraunhofer_distance
        monkeypatch.setattr(sub6, "fraunhofer_distance", lambda *args: calls.append(args) or original(*args))
        return calls

    def test_realizations_share_the_decision(self, monkeypatch):
        calls = self._count(monkeypatch)
        scene = make_near_scene()
        for i in range(3):
            realize_sub6(scene, 4, i)
        assert len(calls) == 1
        realize_sub6(scene, 4, 0, edge_m=0.02)  # another aperture is another decision
        realize_sub6(scene.with_rx(Point3(40.0, 20.0, 1.0)), 4, 0)  # another scene
        assert len(calls) == 3

    def test_coverage_decides_once_per_cell(self, monkeypatch, tmp_path):
        config = load_config({
            "environment": "InH_IndoorOffice", "band": "sub6", "frequency_ghz": 3.5,
            "tx": [0.0, 25.0, 2.0], "ris": [40.0, 50.0, 2.0], "rx": [38.0, 40.0, 1.0],
            "n": 16, "ris_facing": -1, "realizations": 3, "out_dir": str(tmp_path),
            "coverage": {"x": [30.0, 40.0], "y": [30.0, 45.0], "step": 5.0, "z": 1.0},
        })
        calls = self._count(monkeypatch)
        result = coverage_run(config)
        assert result.rates.size == 12 and np.isfinite(result.rates).all()
        assert len(calls) == 12


class TestSub6Streams:
    def test_paths_match_substream(self, monkeypatch):
        """A far draw derives six streams, in the order it reads them; the
        surface hops' paths carry panel 0, the direct hop's none."""
        calls = count_substreams(monkeypatch, sub6)
        realize_sub6(make_near_scene(), 42, index=7, g_mode="far")
        assert calls == [
            ("sub6", "powers", "h", 0, 7), ("sub6", "link", "h", 0, 7),
            ("sub6", "powers", "g", 0, 7), ("sub6", "link", "g", 0, 7),
            ("sub6", "powers", "d", 7), ("sub6", "link", "d", 7),
        ]


class TestRealizeSub6:
    def test_rejects_mimo(self):
        scene = make_sub6_scene(tx_geometry=ArrayGeometry(2))
        with pytest.raises(ValueError, match="single-antenna"):
            realize_sub6(scene, 1)

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError, match="g_mode"):
            realize_sub6(make_sub6_scene(), 1, g_mode="sideways")

    def test_shapes_and_los(self):
        real = realize_sub6(make_sub6_scene(), 3, index=5)
        assert real.H.shape == (16, 1)
        assert real.G.shape == (1, 16)
        assert real.D.shape == (1, 1)
        assert set(real.los) == {Link.TX_RIS, Link.RIS_RX, Link.TX_RX}
        assert real.index == 5

    def test_repeatable_and_index_sensitive(self):
        scene = make_sub6_scene()
        a = realize_sub6(scene, 3, index=0)
        b = realize_sub6(scene, 3, index=0)
        c = realize_sub6(scene, 3, index=1)
        np.testing.assert_array_equal(a.H, b.H)
        np.testing.assert_array_equal(a.G, b.G)
        np.testing.assert_array_equal(a.D, b.D)
        assert not np.array_equal(a.H, c.H)

    def test_far_mode_matches_manual_streams(self):
        scene = make_sub6_scene()
        p = Sub6Params(n_clusters=5, n_rays=4)
        real = realize_sub6(scene, 17, index=2, params=p, g_mode="far")
        for hop, link, got in (("h", Link.TX_RIS, real.H[:, 0]), ("g", Link.RIS_RX, real.G[0, :])):
            prof = gen_cluster_powers(substream(17, "sub6", "powers", hop, 0, 2), p)
            rng = substream(17, "sub6", "link", hop, 0, 2)
            np.testing.assert_array_equal(got, _far_hop(scene, link, prof, rng, p))
        prof_d = gen_cluster_powers(substream(17, "sub6", "powers", "d", 2), p)
        assert real.D[0, 0] == _far_hop(scene, Link.TX_RX, prof_d, substream(17, "sub6", "link", "d", 2), p)

    def test_auto_near_uses_deterministic_g(self):
        scene = make_near_scene()
        real = realize_sub6(scene, 5)
        np.testing.assert_array_equal(real.G[0, :], gen_g_near(scene))
        assert real.los[Link.RIS_RX] is True

    def test_near_derives_four_streams(self, monkeypatch):
        calls = count_substreams(monkeypatch, sub6)
        realize_sub6(make_near_scene(), 21, index=3, g_mode="near")
        assert calls == [
            ("sub6", "powers", "h", 0, 3), ("sub6", "link", "h", 0, 3),
            ("sub6", "powers", "d", 3), ("sub6", "link", "d", 3),
        ]
        realize_sub6(make_near_scene(), 21, index=3, g_mode="far")
        assert len(calls) == 4 + 6

    def test_near_response_is_kept_per_scene_and_copied(self):
        scene = make_near_scene()
        a = realize_sub6(scene, 21, index=0, g_mode="near")
        b = realize_sub6(scene, 21, index=1, g_mode="near")
        np.testing.assert_array_equal(a.G[0, :], gen_g_near(scene))
        assert a.G.tobytes() == b.G.tobytes() and not np.shares_memory(a.G, b.G)

    def test_near_leaves_g_streams_untouched(self):
        """H and D draws are identical whether the g hop is near or far."""
        near = make_near_scene()
        a = realize_sub6(near, 21, g_mode="near")
        b = realize_sub6(near, 21, g_mode="far")
        np.testing.assert_array_equal(a.H, b.H)
        np.testing.assert_array_equal(a.D, b.D)
        assert not np.array_equal(a.G, b.G)


@given(
    wall=st.sampled_from([Plane.XZ, Plane.YZ]),
    facing=st.sampled_from([1, -1]),
    shape=st.sampled_from([(8, 4), (6, 1), (1, 1)]),
    rx_m=st.sampled_from([3.0, 12.0]),  # inside or outside the 8x4 panel's Fraunhofer distance
    g_mode=st.sampled_from(G_MODES),
    shadow_los=st.booleans(),
    pattern=st.booleans(),
    grid=st.sampled_from([(1, 1), (3, 2), (15, 20), (40, 50)]),
    start=st.integers(0, 50),
    count=st.integers(1, 6),
    pass_rays=st.sampled_from([1, 400, 4096]),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=60, deadline=None)
def test_range_is_the_one_index_draws(wall, facing, shape, rx_m, g_mode, shadow_los, pattern, grid,
                                      start, count, pass_rays, seed):
    """A range realizes, bit for bit and with the same LOS states, what one
    call per index realizes, in passes of any size."""
    kw = {} if pattern else {"element_pattern": None}
    scene = make_near_scene(
        ris_geometry=ArrayGeometry(*shape, orientation=SurfaceOrientation(wall, facing)),
        ris=Point3(20.0, 20.0, 2.0), tx=Point3(5.0, 8.0, 2.5), rx=Point3(20.0 - rx_m, 20.0 - 0.5, 1.5),
        shadow_los=shadow_los, **kw,
    )
    p = Sub6Params(n_clusters=grid[0], n_rays=grid[1])
    indices = range(start, start + count)
    with mock.patch.object(sub6, "_PASS_RAYS", pass_rays):
        batch = realize_sub6(scene, seed, indices, p, g_mode)
    alone = [realize_sub6(scene, seed, i, p, g_mode) for i in indices]
    assert [r.index for r in batch] == list(indices)
    for got, want in zip(batch, alone, strict=True):
        for a, b in ((got.H, want.H), (got.G, want.G), (got.D, want.D)):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert got.los == want.los
