import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rischan import mmwave, scattering
from rischan.arrays import ArrayGeometry, ElementPattern
from rischan.control import RisPhaseConfig
from rischan.errors import ConfigError, GenerationError
from rischan.geometry import Plane, Point3, SurfaceOrientation, distance, distance_2d
from rischan.mmwave import (
    ChannelRealization,
    assemble,
    compose,
    compose_end_to_end,
    draw,
    realize,
)
from rischan.multiris import RisPanel, realize_multi
from rischan.propagation import Environment, los_probability, path_loss
from rischan.scattering import (
    Link,
    ScatteringParams,
    derive_sets,
    draw_clusters,
    generate_clusters,
    share_clusters,
)
from rischan.scene import LOS_MODES, MODEL_FIELDS
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
        assert not np.any(real.H) and not np.any(real.G) and not np.any(real.D)


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
    twin = substream(7, "link", "h", 0, 0)
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

    # every stream path of panel 0 and realization 4: per surface, then direct
    ALL = [
        ("clusters", "txris", 0, 4), ("clusters", "risrx", 0, 4), ("link", "h", 0, 4),
        ("link", "g", 0, 4), ("rxang", "g", 0, 4),
        ("clusters", "txrx", 4), ("link", "d", 4), ("rxang", "d", 4),
    ]

    def test_indoor_siso_derives_five(self, monkeypatch, indoor_scene):
        calls = count_substreams(monkeypatch, mmwave)
        real = realize(indoor_scene, 11, index=4)
        assert calls == [
            ("clusters", "txris", 0, 4), ("link", "h", 0, 4), ("link", "g", 0, 4),
            ("clusters", "txrx", 4), ("link", "d", 4),
        ]
        # derive every stream first, then let the draw read those generators
        forced = {(11, *path): mmwave.substream(11, *path) for path in self.ALL}
        assert len(calls) == 5 + 8
        monkeypatch.setattr(mmwave, "substream", lambda *key: forced[key])
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
_PATTERNS = (None, ElementPattern(), ElementPattern(1.0))


def _scenes(indoor, shadow, pattern):
    """Scenes of one model (environment, carrier, pattern, shadowing) that
    differ in geometry: panel count, Nt, Nr and LOS modes."""
    return st.builds(
        lambda panels, nt, nr, los: (make_indoor_scene if indoor else make_outdoor_scene)(
            ris_geometry=ArrayGeometry(3, 2, orientation=_EXTRA[indoor][2]),
            extra_panels=tuple(RisPanel(p, ArrayGeometry(2, 2, orientation=_EXTRA[indoor][2]))
                               for p in _EXTRA[indoor][:panels - 1]),
            tx_geometry=ArrayGeometry(nt), rx_geometry=ArrayGeometry(nr),
            los_tx_ris=los[0], los_ris_rx=los[1], los_tx_rx=los[2],
            shadow_clustered=shadow[0], shadow_los=shadow[1], element_pattern=pattern,
        ),
        st.integers(1, 3), st.sampled_from((1, 2, 4)), st.sampled_from((1, 2, 4)),
        st.tuples(*[st.sampled_from(LOS_MODES)] * 3),
    )


_MODELS = st.tuples(st.booleans(), st.tuples(st.booleans(), st.booleans()), st.sampled_from(_PATTERNS))
_BATCHES = _MODELS.flatmap(  # one model per batch
    lambda model: st.lists(st.tuples(_scenes(*model), st.integers(0, 9), st.booleans()), min_size=1, max_size=4)
)


def _leaves(obj):
    if isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _leaves(item)
    else:
        yield obj


def _mats(real):
    return [m.tobytes() for hop in real.hops for m in hop] + [real.D.tobytes()]


@settings(max_examples=40, deadline=None)
@given(_BATCHES)
def test_assembly_is_the_same_in_any_batch(cases):
    """``assemble(records)`` gives every record the bits that assembling it
    alone gives, for any mix of scenes of one model, and reads no stream: no
    generator is left in the records, and deriving one fails."""
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
        assert _mats(a) == _mats(b)
        assert (a.los_panels, a.los_direct, a.index) == (b.los_panels, b.los_direct, b.index)


_PASS_SIZES = (1, 300, 2**62)  # one record a pass, a few, the whole range
_GROUP_SIZES = (1, 2**62)  # stage-1 lockstep groups of one row, and of the whole range


@pytest.mark.parametrize("pass_rays", _PASS_SIZES, ids=["one_record", "few", "unbounded"])
@settings(max_examples=15, deadline=None)
@given(_MODELS.flatmap(lambda model: _scenes(*model)), st.integers(0, 9), st.integers(0, 5), st.booleans())
def test_realize_range_is_the_serial_loop(pass_rays, scene, start, count, clustered):
    """``realize`` over a range gives, index by index, the bits and LOS
    flags of one realization at a time, whatever the size of its stage-2
    passes and of its stage-1 lockstep groups."""
    serial = [realize(scene, 17, i, clustered) for i in range(start, start + count)]
    for group_rays in _GROUP_SIZES:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mmwave, "_PASS_RAYS", pass_rays)
            patch.setattr(scattering, "_GROUP_RAYS", group_rays)
            batched = realize(scene, 17, range(start, start + count), clustered)
        assert len(batched) == count
        for a, b in zip(batched, serial):
            assert _mats(a) == _mats(b)
            assert (a.los_panels, a.los_direct, a.index) == (b.los_panels, b.los_direct, b.index)


_LINK_ORDER = ("txris", "risrx", "txrx")  # an outdoor panel's cluster sets, in draw order


@pytest.mark.parametrize("group_rays", (1, 300, 2**62), ids=["one_record", "few", "unbounded"])
def test_batched_failure_is_the_serial_one(monkeypatch, group_rays):
    """A placement failure inside a batched ``realize`` is the serial loop's:
    the lowest failing index raises, with the message it raises alone,
    also where a higher index of the range fails in an earlier link, and
    no stage-1 lockstep group after the one holding it is drawn."""
    scene = make_outdoor_scene(scattering=ScatteringParams(retry_cap=2))
    monkeypatch.setattr(scattering, "_GROUP_RAYS", group_rays)
    alone = {}  # index -> the message of its failure, drawn alone
    for i in range(40):
        try:
            realize(scene, 3, i)
        except GenerationError as exc:
            alone[i] = str(exc)
    link = {i: _LINK_ORDER.index(message.split()[1]) for i, message in alone.items()}
    groups, original = [], scattering._draw_group

    def spy(columns, rows, counts):
        groups.append(len(rows))
        return original(columns, rows, counts)

    monkeypatch.setattr(scattering, "_draw_group", spy)
    crossed = False
    for start in (0, 12, 18):  # each range draws records before its failure
        first = min(i for i in alone if i >= start)
        assert first > start
        crossed |= any(link[i] < link[first] for i in alone if i > first)
        groups.clear()
        with pytest.raises(GenerationError) as batched:
            realize(scene, 3, range(start, 40))
        assert str(batched.value) == alone[first]
        end = start + sum(groups)  # the rows drawn are start .. end - 1
        assert end - groups[-1] <= first < end
    assert crossed


_OTHER_MODEL = {  # per model field, a value the default indoor scene does not have
    "environment": Environment.indoor_office(cluster_density=2.5),
    "frequency_hz": 30e9,
    "element_pattern": ElementPattern(1.0),
    "shadow_clustered": False,
    "shadow_los": True,
}


@pytest.mark.parametrize("field", MODEL_FIELDS)
def test_a_batch_of_two_models_is_refused(field):
    """Stage 2 applies one model to its whole pass: a batch whose scenes
    differ in a model field raises, naming it, through ``assemble`` and
    through ``derive_sets``."""
    scenes = (make_indoor_scene(), make_indoor_scene(**{field: _OTHER_MODEL[field]}))
    with pytest.raises(ValueError, match=f"differ in {field}"):
        assemble([draw(scene, 17, index) for index, scene in enumerate(scenes)])
    items = [(scene, draw_clusters(scene, Link.TX_RIS, substream(17, "c", i))) for i, scene in enumerate(scenes)]
    with pytest.raises(ValueError, match=f"differ in {field}"):
        derive_sets(items)


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
    cl_h = generate_clusters(indoor_scene, Link.TX_RIS, substream(seed, "clusters", "txris", 0, 0))
    cl_d = share_clusters(indoor_scene, cl_h, substream(seed, "clusters", "txrx", 0))
    d = realize(indoor_scene, master_seed=seed).D[0, 0]

    coeff = cl_d.fading * np.sqrt(cl_d.attenuation) * np.exp(1j * cl_d.extra_phase)
    expected = coeff.sum() / math.sqrt(cl_d.n_subrays)
    twin = substream(seed, "link", "d", 0)  # replay the LOS block draws
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
    assert np.any(real.H)  # clusters guarantee energy
