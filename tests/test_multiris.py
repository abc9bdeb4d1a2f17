"""Several reflecting surfaces: per-panel draws, common direct link, sums."""

from dataclasses import replace

import numpy as np
import pytest

from rischan.arrays import ArrayGeometry
from rischan.control import RisPhaseConfig, phases_cophase
from rischan.errors import ConfigError
from rischan.geometry import Plane, Point3, SurfaceOrientation
from rischan.mmwave import ChannelRealization, realize
from rischan.multiris import RisPanel, compose_multi, realize_multi
from rischan.propagation import Environment
from rischan.scattering import Link
from rischan.scene import Scene
from rischan.sub6 import realize_sub6

from conftest import make_indoor_scene

XZ_IN = SurfaceOrientation(Plane.XZ, facing=-1)
XZ_OUT = SurfaceOrientation(Plane.XZ, facing=1)


PANELS = (
    RisPanel(Point3(40.0, 50.0, 2.0), ArrayGeometry(4, 4, orientation=XZ_IN)),
    RisPanel(Point3(60.0, 40.0, 2.5), ArrayGeometry(4, 4, orientation=XZ_IN)),
)


def make_multi(n_panels=2, panels=None, **overrides):
    """Indoor scene over the first ``n_panels`` of PANELS (or ``panels``),
    with an unshared direct link whatever the surface count."""
    first, *extra = PANELS[:n_panels] if panels is None else panels
    defaults = dict(
        environment=Environment.indoor_office(),
        frequency_hz=28e9,
        tx=Point3(0.0, 25.0, 2.0),
        rx=Point3(55.0, 35.0, 1.0),
        ris=first.position,
        ris_geometry=first.geometry,
        extra_panels=tuple(extra),
        share_direct_clusters=False,
    )
    defaults.update(overrides)
    return Scene(**defaults)


class TestSceneValidation:
    def test_per_panel_validation_runs(self):
        # a panel on top of the transmitter, first or extra, is caught at construction
        bad = RisPanel(Point3(0.0, 25.0, 2.0), ArrayGeometry(4, 4, orientation=XZ_IN))
        for panels in ((PANELS[0], bad), (bad, PANELS[1])):
            with pytest.raises(ConfigError, match="coincide"):
                make_multi(panels=panels)

    def test_bad_los_mode(self):
        with pytest.raises(ConfigError, match="los_tx_ris"):
            make_multi(los_tx_ris="sometimes")

    def test_sharing_rejected_with_extra_panels(self):
        with pytest.raises(ConfigError, match="share_direct_clusters: not applicable"):
            make_multi(share_direct_clusters=True)
        assert make_multi(1, share_direct_clusters=True).shares_direct_clusters

    def test_panel_count(self):
        assert len(make_multi(1).panel_scenes) == 1
        assert len(make_multi(2).panel_scenes) == 2

    def test_views(self):
        m = make_multi(share_direct_clusters=None)
        # with extra panels the direct link draws its own set, as on each view
        assert m.shares_direct_clusters is False
        views = m.panel_scenes
        assert views is m.panel_scenes
        assert all(a is b for a, b in zip(views, m.panel_scenes))
        for view, panel in zip(views, PANELS):
            assert (view.ris, view.ris_geometry) == (panel.position, panel.geometry)
            assert view.tx == m.tx and view.rx == m.rx and view.extra_panels == ()
            # single-surface views never re-view a shared cluster set
            assert view.shares_direct_clusters is False
            assert view.panel_scenes == (view,)

    def test_single_surface_generators_reject_extra_panels(self):
        # the mmWave draw serves any panel count, under both names
        assert realize is realize_multi
        assert realize(make_multi(), 1).n_panels == 2
        with pytest.raises(ValueError, match="extra_panels"):
            realize_sub6(make_multi(frequency_hz=3.5e9), 1)

    def test_one_surface_is_its_own_view(self, indoor_scene):
        assert indoor_scene.panel_scenes == (indoor_scene,)
        assert indoor_scene.panel_scenes[0] is indoor_scene

    def test_with_rx(self):
        m = make_multi().with_rx(Point3(50.0, 30.0, 1.5))
        assert m.rx == Point3(50.0, 30.0, 1.5)
        assert m.extra_panels == PANELS[1:]
        assert [v.rx for v in m.panel_scenes] == [m.rx] * 2


class TestRealizeMulti:
    def test_shapes(self):
        real = realize_multi(make_multi(), 7)
        assert real.n_panels == 2
        for h_mat, g_mat in real.hops:
            assert h_mat.shape == (16, 1)
            assert g_mat.shape == (1, 16)
        assert real.D.shape == (1, 1)
        assert len(real.los_panels) == 2
        assert set(real.los_panels[0]) == {Link.TX_RIS, Link.RIS_RX}

    def test_repeatable(self):
        a = realize_multi(make_multi(), 7, index=3)
        b = realize_multi(make_multi(), 7, index=3)
        for (ha, ga), (hb, gb) in zip(a.hops, b.hops):
            np.testing.assert_array_equal(ha, hb)
            np.testing.assert_array_equal(ga, gb)
        np.testing.assert_array_equal(a.D, b.D)

    def test_panels_draw_independently(self):
        real = realize_multi(make_multi(), 7)
        assert not np.array_equal(real.hops[0][0], real.hops[1][0])
        assert not np.array_equal(real.hops[0][1], real.hops[1][1])

    def test_adding_a_panel_changes_nothing_existing(self):
        """Panel 0 hops and the direct link are identical whether or not a
        second surface exists."""
        one = realize_multi(make_multi(1), 11, index=2)
        two = realize_multi(make_multi(2), 11, index=2)
        np.testing.assert_array_equal(one.hops[0][0], two.hops[0][0])
        np.testing.assert_array_equal(one.hops[0][1], two.hops[0][1])
        np.testing.assert_array_equal(one.D, two.D)

    @pytest.mark.parametrize(
        "make_scene",
        [
            lambda: make_multi(1),
            lambda: Scene(
                environment=Environment.street_canyon(),
                frequency_hz=28e9,
                tx=Point3(0.0, 40.0, 10.0),
                rx=Point3(60.0, 30.0, 1.5),
                ris=Point3(80.0, 0.0, 12.0),
                ris_geometry=ArrayGeometry(4, 4, orientation=XZ_OUT),
                tx_geometry=ArrayGeometry(2),
                rx_geometry=ArrayGeometry(2),
            ),
            make_indoor_scene,
        ],
        ids=["indoor_panel", "umi_mimo_2x2", "indoor_scene_sharing"],
    )
    def test_panel0_matches_single_surface_scene(self, make_scene):
        """A one-panel scene reproduces the plain single-surface draws: with
        two-antenna terminals and a clustered G outdoors, and for a plain
        indoor Scene whose direct link re-views the Tx-side clusters."""
        m = make_scene()
        mreal = realize_multi(m, 5, index=4)
        sreal = realize(m.panel_scenes[0], 5, index=4)
        np.testing.assert_array_equal(mreal.hops[0][0], sreal.H)
        np.testing.assert_array_equal(mreal.hops[0][1], sreal.G)
        np.testing.assert_array_equal(mreal.D, sreal.D)
        assert mreal.los_direct == sreal.los[Link.TX_RX]

    def test_unclustered(self):
        real = realize_multi(make_multi(), 7, clustered=False)
        for h_mat, _ in real.hops:
            assert np.all(np.isfinite(h_mat))


class TestComposeMulti:
    def fixed_realization(self, rng, n_panels=2, n=4):
        hops = tuple(
            (
                rng.standard_normal((n, 1)) + 1j * rng.standard_normal((n, 1)),
                rng.standard_normal((1, n)) + 1j * rng.standard_normal((1, n)),
            )
            for _ in range(n_panels)
        )
        d_mat = rng.standard_normal((1, 1)) + 1j * rng.standard_normal((1, 1))
        return ChannelRealization(
            hops=hops,
            D=d_mat,
            los_panels=tuple({Link.TX_RIS: True, Link.RIS_RX: True} for _ in range(n_panels)),
            los_direct=True,
        )

    def test_sum_oracle(self, rng):
        real = self.fixed_realization(rng)
        phis = [rng.uniform(0, 6.28, size=4), rng.uniform(0, 6.28, size=4)]
        got = compose_multi(real, phis)
        expected = real.D.copy()
        for (h_mat, g_mat), phi in zip(real.hops, phis):
            expected = expected + (g_mat * np.exp(1j * phi)[None, :]) @ h_mat
        np.testing.assert_allclose(got, expected, rtol=1e-15)

    def test_none_skips_panel(self, rng):
        real = self.fixed_realization(rng)
        phi = rng.uniform(0, 6.28, size=4)
        got = compose_multi(real, [phi, None])
        expected = real.D + (real.hops[0][1] * np.exp(1j * phi)[None, :]) @ real.hops[0][0]
        np.testing.assert_allclose(got, expected, rtol=1e-15)

    def test_all_none_copies_direct(self, rng):
        real = self.fixed_realization(rng)
        got = compose_multi(real, [None, None])
        np.testing.assert_array_equal(got, real.D)
        got[0, 0] = 0.0  # must not write through to the realization
        assert real.D[0, 0] != 0.0

    def test_accepts_phase_config(self, rng):
        real = self.fixed_realization(rng)
        cfg = [
            phases_cophase(real.hops[0][0][:, 0], real.hops[0][1][0, :]),
            RisPhaseConfig(np.zeros(4)),
        ]
        raw = [cfg[0].phases, np.zeros(4)]
        np.testing.assert_array_equal(compose_multi(real, cfg), compose_multi(real, raw))

    def test_length_mismatch(self, rng):
        with pytest.raises(ValueError, match="entries for 2 panels"):
            compose_multi(self.fixed_realization(rng), [np.zeros(4)])

    def test_phase_shape_mismatch(self, rng):
        with pytest.raises(ValueError, match="panel 1"):
            compose_multi(self.fixed_realization(rng), [np.zeros(4), np.zeros(5)])

    def test_incompatible_hops_detected(self, rng):
        real = self.fixed_realization(rng)
        h0, _ = real.hops[0]
        bad = ChannelRealization(
            hops=((h0, rng.standard_normal((1, 3)) + 0j),),
            D=real.D,
            los_panels=(real.los_panels[0],),
            los_direct=True,
        )
        with pytest.raises(ValueError, match="columns"):
            compose_multi(bad, [np.zeros(4)])

    def test_cophased_panels_add_power(self):
        """With the direct link removed, per-panel cophasing makes each
        reflected term a nonnegative real scalar, so panels can only add."""
        drawn = realize_multi(make_multi(), 13, clustered=False)
        real = replace(drawn, D=np.zeros_like(drawn.D))
        cfgs = [phases_cophase(h[:, 0], g[0, :]) for h, g in real.hops]
        both = compose_multi(real, cfgs)
        one = compose_multi(real, [cfgs[0], None])
        assert abs(both[0, 0]) >= abs(one[0, 0]) > 0.0
        assert compose_multi(real, [None, None])[0, 0] == 0.0
