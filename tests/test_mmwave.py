import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rischan import mmwave
from rischan.arrays import ArrayGeometry
from rischan.control import RisPhaseConfig
from rischan.errors import ConfigError
from rischan.geometry import Plane, Point3, SurfaceOrientation, distance, distance_2d
from rischan.mmwave import (
    ChannelRealization,
    RealizationStreams,
    assemble,
    compose,
    compose_end_to_end,
    draw,
    realize,
)
from rischan.multiris import RisPanel, realize_multi
from rischan.propagation import los_probability, path_loss
from rischan.scattering import Link, generate_clusters, share_clusters
from rischan.scene import LOS_MODES
from rischan.streams import substream

from conftest import count_substreams, make_indoor_scene, make_outdoor_scene


class TestSceneValidation:
    def test_bad_los_mode(self):
        with pytest.raises(ConfigError, match="los_tx_ris"):
            make_indoor_scene(los_tx_ris="maybe")

    def test_coincident_positions(self):
        with pytest.raises(ConfigError, match="coincide"):
            make_indoor_scene(rx=Point3(0.0, 25.0, 2.0))  # sits on the Tx

    def test_share_outdoor_rejected(self):
        with pytest.raises(ConfigError, match="indoor"):
            make_outdoor_scene(share_direct_clusters=True)

    def test_frequency_range(self):
        with pytest.raises(ConfigError, match="frequency"):
            make_indoor_scene(frequency_hz=500e9)

    def test_wavelength(self):
        scene = make_indoor_scene()
        assert scene.wavelength == pytest.approx(299_792_458.0 / 28e9)

    def test_share_default_follows_environment(self):
        assert make_indoor_scene().shares_direct_clusters
        assert not make_outdoor_scene().shares_direct_clusters
        assert not make_indoor_scene(share_direct_clusters=False).shares_direct_clusters

    def test_los_mode_lookup(self):
        scene = make_indoor_scene(los_tx_rx="off")
        assert scene.los_mode(Link.TX_RX) == "off"
        assert scene.los_mode(Link.TX_RIS) == "auto"

    def test_with_rx(self):
        scene = make_indoor_scene()
        moved = scene.with_rx(Point3(10.0, 10.0, 1.0))
        assert moved.rx == Point3(10.0, 10.0, 1.0)
        assert moved.tx == scene.tx

    def test_describe_mentions_layout(self):
        text = make_indoor_scene().describe()
        assert "N=16" in text and "28" in text and "xz" in text


class TestRealize:
    def test_shapes_siso(self, indoor_scene):
        real = realize(indoor_scene, master_seed=1)
        assert real.H.shape == (16, 1)
        assert real.G.shape == (1, 16)
        assert real.D.shape == (1, 1)
        assert set(real.los) == {Link.TX_RIS, Link.RIS_RX, Link.TX_RX}

    def test_shapes_mimo(self):
        scene = make_indoor_scene(
            tx_geometry=ArrayGeometry(2, 2), rx_geometry=ArrayGeometry(3, 1)
        )
        real = realize(scene, master_seed=1)
        assert real.H.shape == (16, 4)
        assert real.G.shape == (3, 16)
        assert real.D.shape == (3, 4)

    def test_bitwise_repeatable(self, indoor_scene):
        a = realize(indoor_scene, master_seed=99, index=5)
        b = realize(indoor_scene, master_seed=99, index=5)
        np.testing.assert_array_equal(a.H, b.H)
        np.testing.assert_array_equal(a.G, b.G)
        np.testing.assert_array_equal(a.D, b.D)
        assert a.los == b.los

    def test_index_changes_draw(self, indoor_scene):
        a = realize(indoor_scene, master_seed=99, index=0)
        b = realize(indoor_scene, master_seed=99, index=1)
        assert not np.array_equal(a.H, b.H)

    def test_panel_changes_surface_draws_not_direct(self, indoor_scene):
        # a second, identical panel draws from the panel-1 streams
        twin = RisPanel(indoor_scene.ris, indoor_scene.ris_geometry)
        two = realize(make_indoor_scene(extra_panels=(twin,)), master_seed=99)
        assert not np.array_equal(two.hops[0][0], two.hops[1][0])
        # direct link streams carry no panel tag, but the shared indoor
        # cluster set re-views the (panel-tagged) Tx-side scatterers, so
        # compare with the one-panel scene that draws its own direct set
        one = realize(make_indoor_scene(share_direct_clusters=False), master_seed=99)
        np.testing.assert_array_equal(two.D, one.D)
        np.testing.assert_array_equal(two.hops[0][0], one.H)

    def test_indoor_g_hop_is_pure_los(self, indoor_scene):
        real = realize(indoor_scene, master_seed=3)
        assert real.los[Link.RIS_RX] is True
        # unit-modulus steering times a scalar amplitude: all entries share one magnitude
        mags = np.abs(real.G[0])
        np.testing.assert_allclose(mags, mags[0], rtol=1e-12)

    def test_clustered_false_gives_rank_one_blocks(self):
        scene = make_indoor_scene(
            tx_geometry=ArrayGeometry(4, 1),
            rx_geometry=ArrayGeometry(4, 1),
            los_tx_ris="on",
            los_ris_rx="on",
            los_tx_rx="on",
        )
        real = realize(scene, master_seed=4, clustered=False)
        for mat in (real.H, real.G, real.D):
            s = np.linalg.svd(mat, compute_uv=False)
            assert s[1] <= 1e-12 * s[0]

    def test_forced_off_zeroes_los(self):
        scene = make_indoor_scene(los_tx_ris="off", los_ris_rx="off", los_tx_rx="off")
        real = realize(scene, master_seed=5, clustered=False)
        assert not real.los[Link.TX_RIS]
        assert np.all(real.H == 0) and np.all(real.G == 0) and np.all(real.D == 0)
        assert real.outage_links == {Link.TX_RIS, Link.RIS_RX, Link.TX_RX}


def test_los_block_consumes_fixed_draws():
    """Forcing LOS on or off must not shift the stream position."""
    on = make_indoor_scene(los_tx_ris="on")
    off = make_indoor_scene(los_tx_ris="off")
    rng_on = substream(1, "fixed")
    rng_off = substream(1, "fixed")
    mmwave._link_draw(on, Link.TX_RIS, rng_on, None)
    mmwave._link_draw(off, Link.TX_RIS, rng_off, None)
    assert rng_on.uniform() == rng_off.uniform()


def test_shadow_los_adds_one_draw():
    plain = make_indoor_scene(shadow_los=False)
    shadowed = make_indoor_scene(shadow_los=True)
    r1 = substream(2, "fixed")
    r2 = substream(2, "fixed")
    mmwave._link_draw(plain, Link.TX_RIS, r1, None)
    mmwave._link_draw(shadowed, Link.TX_RIS, r2, None)
    # the shadowed variant consumed one extra normal; streams have diverged
    assert r1.uniform() != r2.uniform()


def test_outdoor_g_has_clusters(outdoor_scene):
    # outdoor surface->Rx hop draws its own scatterers; magnitudes vary per element
    real = realize(outdoor_scene, master_seed=8)
    mags = np.abs(real.G[0])
    assert mags.std() > 0


def test_gen_mimo_from_named_streams(indoor_scene):
    """The variates of a draw come from the seeded named streams: the LOS
    block of H is the first three draws of its ``("link", "h")`` stream."""
    rec = draw(indoor_scene, 7, 0)
    twin = RealizationStreams.derive(7, 0).h
    hop = rec.hops[0]
    assert (hop.u, hop.phase) == (twin.uniform(), twin.uniform(0.0, 2 * math.pi))
    again = realize(indoor_scene, master_seed=7, index=0)
    real = assemble([rec])[0]
    np.testing.assert_array_equal(real.H, again.H)
    np.testing.assert_array_equal(real.G, again.G)
    np.testing.assert_array_equal(real.D, again.D)


class TestLazyStreams:
    """A draw derives the streams it consumes and no others; the draws do not
    depend on which other streams exist."""

    ALL = [*RealizationStreams.PANEL_PATHS, *RealizationStreams.COMMON_PATHS]

    def test_indoor_siso_derives_five(self, monkeypatch, indoor_scene):
        calls = count_substreams(monkeypatch, mmwave)
        real = realize(indoor_scene, 11, index=4)
        assert sorted(calls) == sorted([
            ("clusters", "txris", 0, 4), ("link", "h", 0, 4), ("link", "g", 0, 4),
            ("clusters", "txrx", 4), ("link", "d", 4),
        ])
        forced = RealizationStreams.derive(11, 4)
        for name in self.ALL:
            getattr(forced, name)
        assert len(calls) == 5 + 8
        monkeypatch.setattr(RealizationStreams, "derive", lambda *args, **kw: forced)
        # a fresh scene, so nothing is kept from the draw above
        full = realize(make_indoor_scene(), 11, index=4)
        for a, b in ((real.H, full.H), (real.G, full.G), (real.D, full.D)):
            assert a.tobytes() == b.tobytes()

    def test_unshadowed_sharing_skips_the_direct_cluster_stream(self, monkeypatch):
        calls = count_substreams(monkeypatch, mmwave)
        realize(make_indoor_scene(shadow_clustered=False), 2)
        assert len(calls) == 4 and ("clusters", "txrx", 0) not in calls

    def test_two_panel_mimo_derives_thirteen(self, monkeypatch):
        out = SurfaceOrientation(Plane.XZ, facing=1)
        scene = make_outdoor_scene(
            tx=Point3(0.0, 40.0, 10.0),
            rx=Point3(60.0, 30.0, 1.5),
            ris_geometry=ArrayGeometry(2, 2, orientation=out),
            extra_panels=(RisPanel(Point3(40.0, 0.0, 12.0), ArrayGeometry(2, 2, orientation=out)),),
            tx_geometry=ArrayGeometry(2, 1),
            rx_geometry=ArrayGeometry(2, 1),
        )
        calls = count_substreams(monkeypatch, mmwave)
        realize_multi(scene, 3, 1)
        assert len(calls) == 2 * 5 + 3
        assert ("rxang", "g", 1, 1) in calls and ("rxang", "d", 1) in calls


_EXTRA = {  # surfaces after the first, on the first one's wall
    True: (Point3(20.0, 50.0, 2.0), Point3(60.0, 50.0, 2.5), SurfaceOrientation(Plane.XZ, facing=-1)),
    False: (Point3(40.0, 0.0, 12.0), Point3(60.0, 0.0, 8.0), SurfaceOrientation(Plane.XZ, facing=1)),
}
_SCENES = st.builds(
    lambda indoor, panels, nt, nr, los, shadow: (make_indoor_scene if indoor else make_outdoor_scene)(
        ris_geometry=ArrayGeometry(3, 2, orientation=_EXTRA[indoor][2]),
        extra_panels=tuple(RisPanel(p, ArrayGeometry(2, 2, orientation=_EXTRA[indoor][2]))
                           for p in _EXTRA[indoor][:panels - 1]),
        tx_geometry=ArrayGeometry(nt), rx_geometry=ArrayGeometry(nr),
        los_tx_ris=los[0], los_ris_rx=los[1], los_tx_rx=los[2],
        shadow_clustered=shadow[0], shadow_los=shadow[1],
    ),
    st.booleans(), st.integers(1, 3), st.sampled_from((1, 2, 4)), st.sampled_from((1, 2, 4)),
    st.tuples(*[st.sampled_from(LOS_MODES)] * 3), st.tuples(st.booleans(), st.booleans()),
)


def _leaves(obj):
    if isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _leaves(item)
    else:
        yield obj


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(_SCENES, st.integers(0, 9), st.booleans()), min_size=1, max_size=4))
def test_assembly_is_the_same_in_any_batch(cases):
    """``assemble(records)`` gives every record the bits that assembling it
    alone gives, for any mix of scenes, and reads no stream: no generator is
    left in the records, and deriving one fails."""
    records = [draw(scene, 17, index, clustered) for scene, index, clustered in cases]
    assert not any(isinstance(x, np.random.Generator) for x in _leaves(records))
    original = mmwave.substream
    mmwave.substream = None  # any stream derivation from here on raises
    try:
        together = assemble(records)
        alone = [assemble([r])[0] for r in records]
    finally:
        mmwave.substream = original
    for a, b in zip(together, alone):
        mats_a = [m for hop in a.hops for m in hop] + [a.D]
        mats_b = [m for hop in b.hops for m in hop] + [b.D]
        assert [m.tobytes() for m in mats_a] == [m.tobytes() for m in mats_b]
        assert (a.los_panels, a.los_direct, a.index) == (b.los_panels, b.los_direct, b.index)


class TestCompose:
    def setup_method(self):
        self.real = realize(make_indoor_scene(), master_seed=11)

    def test_none_returns_direct(self):
        out = compose_end_to_end(self.real, None)
        np.testing.assert_array_equal(out, self.real.D)
        before = self.real.D.copy()
        out[0, 0] += 1.0  # must be a copy, not a view of D
        np.testing.assert_array_equal(self.real.D, before)

    def test_zero_phases(self):
        out = compose_end_to_end(self.real, np.zeros(16))
        np.testing.assert_allclose(out, self.real.G @ self.real.H + self.real.D)

    def test_manual_oracle(self, rng):
        phi = rng.uniform(0, 2 * math.pi, 16)
        out = compose_end_to_end(self.real, phi)
        expected = (self.real.G * np.exp(1j * phi)) @ self.real.H + self.real.D
        np.testing.assert_allclose(out, expected)

    def test_one_panel_bitwise(self, rng):
        """rates.csv bytes rest on compose giving exactly this expression."""
        phi = rng.uniform(0, 2 * math.pi, 16)
        expected = (self.real.G * np.exp(1j * phi)) @ self.real.H + self.real.D
        np.testing.assert_array_equal(compose(self.real, [phi]), expected)
        np.testing.assert_array_equal(compose_end_to_end(self.real, phi), expected)

    def test_accepts_config_object(self):
        cfg = RisPhaseConfig(np.linspace(0, 1, 16))
        np.testing.assert_array_equal(
            compose_end_to_end(self.real, cfg), compose_end_to_end(self.real, cfg.phases)
        )

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="phases shape"):
            compose_end_to_end(self.real, np.zeros(5))
        bad = ChannelRealization(
            hops=((self.real.H, self.real.G[:, :8]),),
            D=self.real.D,
            los_panels=self.real.los_panels,
            los_direct=self.real.los_direct,
        )
        with pytest.raises(ValueError, match="columns"):
            compose_end_to_end(bad, np.zeros(16))
        bad_d = ChannelRealization(
            hops=self.real.hops,
            D=np.zeros((2, 2)),
            los_panels=self.real.los_panels,
            los_direct=self.real.los_direct,
        )
        with pytest.raises(ValueError, match="D shape"):
            compose_end_to_end(bad_d, np.zeros(16))


def test_rx_angle_streams_keep_siso_draws_stable():
    """Growing the Rx array must not disturb the surface-side draws."""
    siso = make_outdoor_scene()
    mimo = make_outdoor_scene(rx_geometry=ArrayGeometry(4, 1))
    a = realize(siso, master_seed=31, index=2)
    b = realize(mimo, master_seed=31, index=2)
    np.testing.assert_array_equal(a.H[:, 0], b.H[:, 0])  # H untouched by Nr


def test_direct_scalar_oracle(indoor_scene):
    """Rebuild one direct-link draw by hand: re-aimed clusters plus LOS ray."""
    seed = 41
    streams = RealizationStreams.derive(seed, 0)
    cl_h = generate_clusters(indoor_scene, Link.TX_RIS, streams.clusters_h)
    cl_d = share_clusters(indoor_scene, cl_h, streams.clusters_d)
    d = realize(indoor_scene, master_seed=seed).D[0, 0]

    coeff = cl_d.fading * np.sqrt(cl_d.attenuation) * np.exp(1j * cl_d.extra_phase)
    expected = coeff.sum() / math.sqrt(cl_d.n_subrays)
    twin = RealizationStreams.derive(seed, 0).d  # replay the LOS block draws
    u = twin.uniform()
    phase = twin.uniform(0.0, 2 * math.pi)
    p = los_probability(
        distance_2d(indoor_scene.tx, indoor_scene.rx), indoor_scene.environment.kind
    )
    if u < p:
        loss = path_loss(
            indoor_scene.frequency_hz,
            distance(indoor_scene.tx, indoor_scene.rx),
            indoor_scene.environment.path_loss,
            los=True,
        ).linear
        expected = expected + math.sqrt(loss) * np.exp(1j * phase)
    assert d == pytest.approx(complex(expected), rel=1e-12)


def test_outage_links_empty_when_all_present(indoor_scene):
    real = realize(indoor_scene, master_seed=51)
    assert Link.TX_RIS not in real.outage_links  # clusters guarantee energy
