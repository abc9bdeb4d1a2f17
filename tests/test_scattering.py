import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rischan import scattering
from rischan.errors import GenerationError
from rischan.geometry import Point3
from rischan.propagation import Environment, path_loss
from rischan.scattering import (
    ClusterSet,
    Link,
    ScatteringParams,
    _admissible,
    _placement,
    generate_clusters,
    share_clusters,
)
from rischan.streams import substream

from conftest import make_indoor_scene, make_outdoor_scene


def test_params_validation():
    with pytest.raises(ValueError):
        ScatteringParams(min_subrays=0)
    with pytest.raises(ValueError):
        ScatteringParams(min_subrays=5, max_subrays=2)
    with pytest.raises(ValueError):
        ScatteringParams(spread_m=-1.0)
    with pytest.raises(ValueError):
        ScatteringParams(retry_cap=0)


def test_deterministic(indoor_scene):
    a = generate_clusters(indoor_scene, Link.TX_RIS, substream(1, "c"))
    b = generate_clusters(indoor_scene, Link.TX_RIS, substream(1, "c"))
    np.testing.assert_array_equal(a.positions, b.positions)
    np.testing.assert_array_equal(a.fading, b.fading)
    np.testing.assert_array_equal(a.attenuation, b.attenuation)


def test_at_least_one_cluster(indoor_scene):
    sparse = Environment.indoor_office(cluster_density=1e-9)
    scene = make_indoor_scene(environment=sparse)
    cs = generate_clusters(scene, Link.TX_RIS, substream(2, "c"))
    assert cs.n_clusters >= 1
    off = make_indoor_scene(environment=sparse, scattering=ScatteringParams(at_least_one=False))
    empty = generate_clusters(off, Link.TX_RIS, substream(2, "c"))
    assert empty.n_clusters == 0
    assert empty.n_subrays == 0
    assert empty.normalization == 0.0
    assert empty.counts.shape == (0,) and empty.counts.dtype.kind == "i"
    for arr in (empty.centers, empty.positions):
        assert arr.shape == (0, 3) and arr.dtype == np.float64
    assert empty.fading.shape == (0,) and empty.fading.dtype == np.complex128
    for arr in (empty.dist_a, empty.dist_b, empty.attenuation):
        assert arr.shape == (0,) and arr.dtype == np.float64
    for unit in (empty.unit_a, empty.unit_b):  # both ends are mounted
        assert unit.shape == (0, 3) and unit.dtype == np.float64
    direct = generate_clusters(off, Link.TX_RX, substream(2, "c"))
    assert direct.unit_a.shape == (0, 3) and direct.unit_b is None


def test_counts_and_bounds(indoor_scene):
    p = indoor_scene.scattering
    for i in range(10):
        cs = generate_clusters(indoor_scene, Link.TX_RIS, substream(3, "c", i))
        assert np.all(cs.counts >= p.min_subrays)
        assert np.all(cs.counts <= p.max_subrays)
        assert cs.counts.sum() == cs.n_subrays
        for axis, (lo, hi) in enumerate(indoor_scene.environment.bounds):
            assert np.all(cs.positions[:, axis] >= lo)
            assert np.all(cs.positions[:, axis] <= hi)
            assert np.all(cs.centers[:, axis] >= lo)
            assert np.all(cs.centers[:, axis] <= hi)


def test_legs_and_half_space(indoor_scene):
    cs = generate_clusters(indoor_scene, Link.TX_RIS, substream(4, "c"))
    tx = indoor_scene.tx.as_array()
    ris = indoor_scene.ris.as_array()
    assert np.all(cs.dist_a >= indoor_scene.scattering.min_leg_m)
    assert np.all(cs.dist_b >= indoor_scene.scattering.min_leg_m)
    np.testing.assert_allclose(cs.dist_a, np.linalg.norm(cs.positions - tx, axis=1))
    np.testing.assert_allclose(cs.dist_b, np.linalg.norm(cs.positions - ris, axis=1))
    # every scatterer must be on the broadside side of both mounted surfaces
    assert np.all((cs.positions - tx) @ indoor_scene.tx_geometry.orientation.normal > 0)
    assert np.all((cs.positions - ris) @ indoor_scene.ris_geometry.orientation.normal > 0)


def test_rx_endpoint_has_no_angles(indoor_scene):
    cs = generate_clusters(indoor_scene, Link.RIS_RX, substream(5, "c"))
    assert cs.unit_a is not None  # the surface end
    assert cs.unit_b is None      # the mobile receiver
    direct = generate_clusters(indoor_scene, Link.TX_RX, substream(5, "d"))
    assert direct.unit_a is not None and direct.unit_b is None


def test_angles_match_positions(indoor_scene):
    cs = generate_clusters(indoor_scene, Link.TX_RIS, substream(6, "c"))
    for unit, end in ((cs.unit_a, indoor_scene.tx), (cs.unit_b, indoor_scene.ris)):
        d = cs.positions - end.as_array()
        np.testing.assert_allclose(unit, d / np.linalg.norm(d, axis=1)[:, None], atol=1e-12)
    orientation = indoor_scene.ris_geometry.orientation
    cosb = orientation.normal_component(cs.unit_b)
    np.testing.assert_allclose(cosb, cs.unit_b @ orientation.normal, atol=1e-12)
    assert np.all(cosb > 0.0)  # in front, by construction


def test_attenuation_is_two_leg_nlos_loss():
    scene = make_indoor_scene(shadow_clustered=False)
    cs = generate_clusters(scene, Link.TX_RIS, substream(7, "c"))
    expected = path_loss(
        scene.frequency_hz, cs.dist_a + cs.dist_b, scene.environment.path_loss, los=False
    ).linear
    np.testing.assert_allclose(cs.attenuation, expected, rtol=1e-12)


def test_normalization(indoor_scene):
    cs = generate_clusters(indoor_scene, Link.TX_RIS, substream(8, "c"))
    assert cs.normalization == pytest.approx(1.0 / math.sqrt(cs.n_subrays))


def test_fading_moments():
    scene = make_indoor_scene()
    mags = []
    for i in range(200):
        cs = generate_clusters(scene, Link.TX_RIS, substream(9, "c", i))
        mags.append(np.abs(cs.fading) ** 2)
    power = np.concatenate(mags)
    assert power.mean() == pytest.approx(1.0, abs=0.05)  # unit-variance complex fading


def _within_3_sigma(values, mean: float, var: float) -> bool:
    return abs(np.mean(values) - mean) <= 3.0 * math.sqrt(var / len(values))


@pytest.mark.parametrize("make_scene", [make_indoor_scene, make_outdoor_scene], ids=["indoor", "umi"])
def test_count_statistics(monkeypatch, make_scene):
    """Over 3000 sets the cluster count is Poisson(density) with 0 lifted to
    1, and the sub-ray count per cluster is uniform on [min_subrays,
    max_subrays], each within 3 sigma. Sets redraw rejected points (most
    of them indoors, about a fifth in the street canyon), so a placement
    that biased either count would show here."""
    scene = make_scene()
    redraws = [0]
    admissible = scattering._admissible

    def counted(*args):
        mask = admissible(*args)
        redraws[0] += int(not mask.all())
        return mask

    monkeypatch.setattr(scattering, "_admissible", counted)
    p = scene.scattering
    lam = scene.environment.cluster_density
    assert p.at_least_one
    n_sets, redrawn, clusters, subrays = 3000, 0, [], []
    for i in range(n_sets):
        redraws[0] = 0
        cs = generate_clusters(scene, Link.TX_RIS, substream(13, "stats", i))
        redrawn += redraws[0] > 0
        assert cs.centers.shape[0] == cs.counts.size and cs.positions.shape[0] == cs.n_subrays
        clusters.append(cs.n_clusters)
        subrays.extend(cs.counts)
    assert redrawn > (n_sets // 2 if scene.environment.indoor else 0)

    # max(1, N) for N ~ Poisson(lam): P(1) = e^-lam (1 + lam)
    clusters = np.array(clusters)
    p0 = math.exp(-lam)
    mean = lam + p0
    assert _within_3_sigma(clusters, mean, lam + lam * lam + p0 - mean * mean)
    p1 = p0 * (1.0 + lam)
    assert _within_3_sigma(clusters == 1, p1, p1 * (1.0 - p1))

    support = np.arange(p.min_subrays, p.max_subrays + 1)
    mean, var = support.mean(), support.var()
    subrays = np.array(subrays)
    assert subrays.min() == p.min_subrays and subrays.max() == p.max_subrays
    assert _within_3_sigma(subrays, mean, var)
    # the spread too: (x - mean)^2 has mean var and variance E(x - mean)^4 - var^2
    dev2 = (subrays - mean) ** 2
    assert _within_3_sigma(dev2, var, np.mean((support - mean) ** 4) - var * var)


def test_impossible_geometry_raises():
    # a half-meter box cannot hold a scatterer a meter away from both ends
    env = Environment.indoor_office(bounds=((0.0, 0.5), (0.0, 0.5), (0.0, 0.5)))
    scene = make_indoor_scene(
        environment=env,
        tx=Point3(0.1, 0.1, 0.1),
        ris=Point3(0.4, 0.45, 0.4),
        rx=Point3(0.3, 0.2, 0.2),
    )
    with pytest.raises(GenerationError, match="inadmissible"):
        generate_clusters(scene, Link.TX_RX, substream(10, "c"))


class TestShareClusters:
    def test_aliases_and_recomputes(self):
        scene = make_indoor_scene()
        tx_ris = generate_clusters(scene, Link.TX_RIS, substream(11, "c"))
        shared = share_clusters(scene, tx_ris, substream(11, "s"))
        assert shared.link is Link.TX_RX
        assert shared.positions is tx_ris.positions  # bitwise the same objects
        assert shared.fading is tx_ris.fading
        assert shared.counts is tx_ris.counts
        assert shared.dist_a is tx_ris.dist_a
        rx = scene.rx.as_array()
        np.testing.assert_allclose(
            shared.dist_b, np.linalg.norm(tx_ris.positions - rx, axis=1)
        )
        assert not np.array_equal(shared.attenuation, tx_ris.attenuation)

    def test_excess_phase_attached(self):
        scene = make_indoor_scene()
        tx_ris = generate_clusters(scene, Link.TX_RIS, substream(12, "c"))
        shared = share_clusters(scene, tx_ris, substream(12, "s"))
        assert shared.extra_phase is not None
        assert shared.extra_phase.shape == (tx_ris.n_subrays,)
        assert np.all(shared.extra_phase >= 0.0)
        assert np.all(shared.extra_phase < 2 * math.pi)
        # |s - rx| - |s - ris| modulo one wavelength, in radians
        d_rx = np.linalg.norm(tx_ris.positions - scene.rx.as_array(), axis=1)
        d_ris = np.linalg.norm(tx_ris.positions - scene.ris.as_array(), axis=1)
        expected = 2 * math.pi * np.mod((d_rx - d_ris) / scene.wavelength, 1.0)
        np.testing.assert_allclose(shared.extra_phase, expected)

    def test_outdoor_rejected(self):
        outdoor = make_outdoor_scene()
        cs = generate_clusters(outdoor, Link.TX_RIS, substream(13, "c"))
        with pytest.raises(ValueError, match="indoor"):
            share_clusters(outdoor, cs, substream(13, "s"))

    def test_wrong_link_rejected(self):
        scene = make_indoor_scene()
        direct = generate_clusters(scene, Link.TX_RX, substream(14, "c"))
        with pytest.raises(ValueError, match="Tx-RIS"):
            share_clusters(scene, direct, substream(14, "s"))

    def test_rng_required_for_shadowing(self):
        scene = make_indoor_scene()  # shadow_clustered defaults to True
        cs = generate_clusters(scene, Link.TX_RIS, substream(15, "c"))
        with pytest.raises(ValueError, match="rng"):
            share_clusters(scene, cs)
        quiet = make_indoor_scene(shadow_clustered=False)
        cs2 = generate_clusters(quiet, Link.TX_RIS, substream(15, "c"))
        share_clusters(quiet, cs2)  # fine without an rng


def test_cluster_set_is_frozen(indoor_scene):
    cs = generate_clusters(indoor_scene, Link.TX_RIS, substream(16, "c"))
    with pytest.raises(AttributeError):
        cs.link = Link.TX_RX
    assert isinstance(cs, ClusterSet)


def _reference_admissible(pts, bounds, anchors):
    """The per-axis formulation of the placement test: bounds one axis at a
    time, ``normal_component`` and ``np.linalg.norm`` per anchor."""
    ok = np.ones(pts.shape[0], dtype=bool)
    for axis, (lo, hi) in enumerate(bounds):
        ok &= (pts[:, axis] >= lo) & (pts[:, axis] <= hi)
    for pos, surface, min_leg in anchors:
        d = pts - pos
        if surface is not None:
            ok &= surface.normal_component(d) > 0.0
        ok &= np.linalg.norm(d, axis=1) >= min_leg
    return ok


# Coordinates of the indoor scene's bounds and endpoints, NaN, signed zeros
_EDGES = [0.0, -0.0, 75.0, 50.0, 3.5, 25.0, 40.0, 38.0, 48.0, 2.0, 1.0, math.nan]
_COORD = st.one_of(st.floats(-5.0, 80.0), st.sampled_from(_EDGES))
_SPHERE = np.random.default_rng(0).standard_normal((200, 3))
_SPHERE /= np.linalg.norm(_SPHERE, axis=1, keepdims=True)


@settings(max_examples=150, deadline=None)
@given(
    pts=st.lists(st.tuples(_COORD, _COORD, _COORD), min_size=1, max_size=12),
    min_leg=st.sampled_from([0.0, 1.0, 2.0, 2.5]),
    which=st.sampled_from([Link.TX_RIS, Link.RIS_RX, Link.TX_RX]),
)
def test_admissible_matches_reference(pts, min_leg, which):
    scene = make_indoor_scene(scattering=ScatteringParams(min_leg_m=min_leg))
    c = _placement(scene, which)
    ends = scene.link(which)
    (pos_a, pos_b), (surf_a, surf_b) = (p.as_array() for p in ends.points), ends.mounts
    # points exactly min_leg from each endpoint along every axis, and points
    # on the sphere of that radius, where |d| rounds either side of min_leg
    directions = (*np.eye(3), *-np.eye(3), *_SPHERE)
    on_leg = [pos + min_leg * u for pos in (pos_a, pos_b) for u in directions]
    block = np.vstack([np.array(pts, dtype=float).reshape(-1, 3), *on_leg])
    anchors = [(pos_a, surf_a, min_leg), (pos_b, surf_b, min_leg)]
    got = _admissible(block, c.lo, c.hi, c.anchors[:2], c.surfaces, min_leg)
    want = _reference_admissible(block, scene.environment.bounds, anchors)
    np.testing.assert_array_equal(got, want)
