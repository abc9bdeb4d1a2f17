"""End-to-end acceptance checks.

Each test exercises one advertised property of the simulator at a stated
tolerance and prints one PASS/FAIL line with the measured numbers (visible
with ``pytest -s``; the per-test PASSED/FAILED line of ``pytest -v`` carries
the same verdict). The multi-surface improvement targets are trend
references and downgrade to a warning instead of failing, as flagged below.
"""

import json
import math
import os
import platform
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

import rischan
from rischan.arrays import ArrayGeometry, ElementPattern, element_gain
from rischan.control import achievable_rate, phases_cophase
from rischan.engine import load_config, run
from rischan.geometry import Plane, Point3, SurfaceOrientation
from rischan import mmwave
from rischan.mmwave import compose_end_to_end, realize
from rischan.multiris import RisPanel, compose_multi, realize_multi
from rischan.propagation import (
    SPEED_OF_LIGHT,
    Environment,
    EnvironmentKind,
    los_probability,
    path_loss,
)
from rischan.scattering import Link, derive_sets, draw_clusters_many
from rischan.scene import Scene
from rischan.streams import substream
from rischan.sub6 import fraunhofer_distance, nearfield_element_capture

import platform_probe
from conftest import make_indoor_scene, make_outdoor_scene

XZ_IN = SurfaceOrientation(Plane.XZ, facing=-1)


def report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")


def test_rate_gain_per_n_doubling():
    """Doubling the element count adds 2.0 +/- 0.2 bit/s/Hz at high SNR
    (SISO, LOS-dominated hops, no direct link, cophased surface)."""
    means = []
    for n_h, n_v in ((8, 8), (16, 8), (16, 16)):
        scene = make_indoor_scene(
            ris_geometry=ArrayGeometry(n_h, n_v, orientation=XZ_IN),
            los_tx_ris="on",
            los_ris_rx="on",
            los_tx_rx="off",
        )
        total = 0.0
        for i in range(1000):
            real = realize(scene, 404, i, clustered=False)
            cfg = phases_cophase(real.H[:, 0], real.G[0, :])
            composed = compose_end_to_end(real, cfg)
            total += achievable_rate(composed, tx_power_dbm=60.0).rate_bits_hz
        means.append(total / 1000.0)
    diffs = [means[1] - means[0], means[2] - means[1]]
    ok = all(1.8 <= d <= 2.2 for d in diffs)
    report(
        "rate gain per N doubling",
        ok,
        f"64->128: {diffs[0]:.3f}, 128->256: {diffs[1]:.3f} bit/s/Hz (target 2.0 +/- 0.2)",
    )
    assert ok


def test_fading_normalization(monkeypatch):
    """With unit attenuations and unit element gains and no visibility ray,
    the clustered hop has mean power N: E[||h||^2]/N within 2% over 1e5
    realizations."""
    scene = make_indoor_scene(element_pattern=None, los_tx_ris="off", shadow_clustered=False)

    def unit_attenuation(items):  # between set derivation and hop assembly
        return [replace(cs, attenuation=np.ones_like(cs.attenuation)) for cs in derive_sets(items)]

    monkeypatch.setattr(mmwave, "derive_sets", unit_attenuation)
    reals, chunk = 100_000, 2_000
    total = 0.0
    for start in range(0, reals, chunk):
        indices = range(start, start + chunk)
        sets = draw_clusters_many([(scene, Link.TX_RIS)], [(substream(505, "norm", "cl", i),) for i in indices])
        hops = [
            mmwave._link_draw(scene, Link.TX_RIS, substream(505, "norm", "h", i), cl)
            for i, (cl,) in zip(indices, sets)
        ]
        for h, _ in mmwave.hop_matrices(hops):
            total += float(np.sum(np.abs(h) ** 2))
    ratio = total / reals / scene.n
    ok = 0.98 <= ratio <= 1.02
    report("fading normalization", ok, f"E[||h||^2]/N = {ratio:.4f} over 1e5 draws (target 1 +/- 0.02)")
    assert ok


def _log_slope(xs, ys) -> float:
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


def test_far_field_beamforming_law():
    """Cophased LOS-only composed power with the direct link off follows the
    far-field law of Tang et al. (IEEE TWC 2021): N^2 d1^-n d2^-n, here with
    the free-space exponent n = 2 set through a ``params`` table. Log-log
    slopes over N, over d1 (Tx moved along a fixed direction from the
    surface) and over d2 (Rx likewise) within 1e-6."""
    base = {
        "environment": "InH_IndoorOffice", "frequency_ghz": 28.0,
        "tx": [0.0, 25.0, 2.0], "rx": [38.0, 48.0, 1.0], "ris": [40.0, 50.0, 2.0],
        "n": 64, "ris_facing": -1, "clustered": False,
        "los": {"tx_ris": "on", "ris_rx": "on", "tx_rx": "off"},
        "params": {"InH_IndoorOffice": {"exponent_los": 2.0}},
    }

    def power(**over):
        scene = load_config(dict(base, **over)).scene
        real = realize(scene, 9, 0, clustered=False)
        cfg = phases_cophase(real.H[:, 0], real.G[0, :])
        return float(np.abs(compose_end_to_end(real, cfg)[0, 0]) ** 2)

    ris = np.array(base["ris"])
    sizes = (16, 64, 256)
    n_slope = _log_slope(sizes, [power(n=n) for n in sizes])
    scales = (0.5, 1.0, 2.0, 4.0)
    slopes = []
    for end in ("tx", "rx"):
        offset = np.array(base[end]) - ris
        dists = [s * float(np.linalg.norm(offset)) for s in scales]
        slopes.append(_log_slope(dists, [power(**{end: list(ris + s * offset)}) for s in scales]))
    ok = abs(n_slope - 2.0) <= 1e-6 and all(abs(x + 2.0) <= 1e-6 for x in slopes)
    report(
        "far-field beamforming law",
        ok,
        f"slopes: N {n_slope:.9f} (target 2), d1 {slopes[0]:.9f}, d2 {slopes[1]:.9f} (target -2)",
    )
    assert ok


def test_near_field_capture_bound():
    """Summed over a square panel at 3.5 GHz and y = 0.5 m, the exact
    per-element capture (Bjornson & Sanguinetti, IEEE OJ-COMS 2020) rises
    monotonically with the panel size and stays below the infinite-surface
    limit 1/3, departing further from N times the one-element far-field
    value as the panel grows."""
    wavelength = SPEED_OF_LIGHT / 3.5e9
    front = SurfaceOrientation(Plane.XZ, facing=1)
    center, rx = Point3(0.0, 0.0, 0.0), Point3(0.0, 0.5, 0.0)
    edge = ArrayGeometry(1, 1, orientation=front).spacing_m(wavelength)
    far_one = edge**2 / (4.0 * math.pi * 0.5**2)
    sums, ratios = [], []
    for side in (16, 64, 256, 512):
        panel = ArrayGeometry(side, side, orientation=front)
        sums.append(float(nearfield_element_capture(panel, wavelength, center, rx).sum()))
        ratios.append(sums[-1] / (panel.size * far_one))
    ok = (
        all(a < b for a, b in zip(sums, sums[1:]))
        and sums[-1] < 1.0 / 3.0
        and all(a > b for a, b in zip(ratios, ratios[1:]))
    )
    report(
        "near-field capture bound",
        ok,
        "sums " + ", ".join(f"{x:.4f}" for x in sums)
        + " (monotone, < 1/3); over N x far-field: " + ", ".join(f"{x:.3g}" for x in ratios),
    )
    assert ok


def test_near_far_consistency():
    """The exact aperture-capture integral meets its far-field limit: a
    single element within 1% of edge^2/(4 pi y^2) from 20 edge lengths out,
    and the full panel sum within 1% of N times that beyond 10x the
    Fraunhofer distance."""
    wavelength = SPEED_OF_LIGHT / 3.5e9
    front = SurfaceOrientation(Plane.XZ, facing=1)
    single = ArrayGeometry(1, 1, orientation=front)
    edge = single.spacing_m(wavelength)
    center = Point3(0.0, 0.0, 0.0)

    errs = []
    for mult in (20.0, 40.0, 100.0):
        y = mult * edge
        got = nearfield_element_capture(single, wavelength, center, Point3(0.0, y, 0.0))[0]
        errs.append(abs(got / (edge**2 / (4.0 * math.pi * y**2)) - 1.0))
    element_ok = all(e <= 0.01 for e in errs)

    panel = ArrayGeometry(16, 16, orientation=front)
    y = 10.0 * fraunhofer_distance(panel, wavelength)
    total = nearfield_element_capture(panel, wavelength, center, Point3(0.0, y, 0.0)).sum()
    limit = panel.size * edge**2 / (4.0 * math.pi * y**2)
    panel_err = abs(total / limit - 1.0)
    ok = element_ok and panel_err <= 0.01
    report(
        "near/far-field consistency",
        ok,
        f"element rel err {max(errs):.2e} (y >= 20 edge), panel sum rel err "
        f"{panel_err:.2e} at 10x Fraunhofer (target <= 1e-2)",
    )
    assert ok


def test_pattern_energy():
    """The front-hemisphere integral of the element pattern is 4 pi to 0.1%
    for the flat, surface-standard, and sharply directive exponents."""
    worst = 0.0
    for q in (0.0, 0.285, 2.0):
        pattern = ElementPattern(q)
        val, _ = integrate.quad(
            lambda psi: element_gain(pattern, psi) * math.sin(psi),
            0.0,
            math.pi / 2,
            epsabs=1e-12,
            epsrel=1e-12,
        )
        worst = max(worst, abs(2.0 * math.pi * val / (4.0 * math.pi) - 1.0))
    ok = worst <= 1e-3
    report("element pattern energy", ok, f"max |energy/4pi - 1| = {worst:.2e} (target <= 1e-3)")
    assert ok


def test_pathloss_anchor_and_monotonicity():
    """The close-in model hits the free-space 1 m intercept to 0.01 dB at 28
    and 73 GHz and is strictly increasing out to 500 m in every state."""
    params = Environment.indoor_office().path_loss
    worst = 0.0
    for f_hz in (28e9, 73e9):
        target = 20.0 * math.log10(4.0 * math.pi * f_hz / SPEED_OF_LIGHT)
        for los in (True, False):
            got = path_loss(f_hz, 1.0, params, los=los).loss_db
            worst = max(worst, abs(got - target))
    anchors_ok = worst <= 0.01

    d = np.linspace(1.0, 500.0, 4000)
    mono_ok = True
    for env in (Environment.indoor_office(), Environment.street_canyon()):
        for los in (True, False):
            loss = path_loss(28e9, d, env.path_loss, los=los).loss_db
            mono_ok = mono_ok and bool(np.all(np.diff(loss) > 0.0))
    ok = anchors_ok and mono_ok
    report(
        "path-loss anchor and monotonicity",
        ok,
        f"worst anchor error {worst:.2e} dB (target <= 0.01), strictly increasing: {mono_ok}",
    )
    assert ok


def test_cophasing_optimality():
    """Cophasing attains the magnitude-sum bound: no random configuration
    among 1e4 beats it, on any of 100 random element chains."""
    rng = np.random.default_rng(606)
    n = 16
    violations = 0
    for _ in range(100):
        h = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2.0)
        g = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2.0)
        chain = g * h
        best = np.abs(chain).sum()
        cfg = phases_cophase(h, g)
        achieved = np.abs(np.sum(chain * np.exp(1j * cfg.phases)))
        assert achieved == pytest.approx(best, rel=1e-12)
        rand = np.abs(np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, (10_000, n))) @ chain)
        violations += int(np.sum(rand > best + 1e-9))
    ok = violations == 0
    report("cophasing optimality", ok, f"{violations} violations over 100 x 1e4 configs (target 0)")
    assert ok


def test_los_statistics():
    """Fraction of visible draws of a Tx -> Rx link in "auto" mode
    (``LinkRecord.visible``) matches the distance fit within 3 binomial
    sigmas at 10 ground distances per environment, 1e4 draws each (exact
    where the probability is degenerate)."""
    cases = {
        EnvironmentKind.INDOOR_OFFICE: [0.5, 1.0, 1.2, 2.0, 3.0, 5.0, 6.5, 10.0, 20.0, 50.0],
        EnvironmentKind.STREET_CANYON: [1.0, 5.0, 10.0, 18.0, 25.0, 36.0, 60.0, 100.0, 200.0, 400.0],
    }
    make_scene = {
        EnvironmentKind.INDOOR_OFFICE: make_indoor_scene,
        EnvironmentKind.STREET_CANYON: make_outdoor_scene,
    }
    n = 10_000
    worst_sigma = 0.0
    ok = True
    for kind, distances in cases.items():
        for d in distances:
            p = los_probability(d, kind)
            # the heights differ: visibility follows the ground distance
            link = make_scene[kind](tx=Point3(0.0, 0.0, 2.0), rx=Point3(d, 0.0, 1.0)).link(Link.TX_RX)
            rng = substream(707, "los", kind.value, f"{d:.3f}")
            k = sum(link.visible(rng.uniform()) for _ in range(n))
            if p in (0.0, 1.0):
                ok = ok and k == int(n * p)
                continue
            sigma = math.sqrt(n * p * (1.0 - p))
            pull = abs(k - n * p) / sigma
            worst_sigma = max(worst_sigma, pull)
            ok = ok and pull <= 3.0
    report(
        "LOS statistics",
        ok,
        f"worst deviation {worst_sigma:.2f} sigma over 20 (distance, environment) pairs (target <= 3)",
    )
    assert ok


def _setup_two_surfaces(rx: Point3, los_tx_ris: str = "auto") -> Scene:
    return Scene(
        environment=Environment.indoor_office(),
        frequency_hz=28e9,
        tx=Point3(0.0, 25.0, 2.0),
        rx=rx,
        ris=Point3(40.0, 50.0, 2.0),
        ris_geometry=ArrayGeometry(16, 16, orientation=XZ_IN),
        extra_panels=(RisPanel(Point3(60.0, 40.0, 2.5), ArrayGeometry(16, 16, orientation=XZ_IN)),),
        los_tx_ris=los_tx_ris,
        los_tx_rx="off",  # blocked direct link
    )


def _multi_mean_rates(mscene, seed, reals, zero_direct):
    """Mean rate with both panels, panel 0 only, and no panels."""
    totals = [0.0, 0.0, 0.0]
    for i in range(reals):
        real = realize_multi(mscene, seed, i)
        if zero_direct:
            real = replace(real, D=np.zeros_like(real.D))
        cfgs = [phases_cophase(h[:, 0], g[0, :]) for h, g in real.hops]
        for j, phase_list in enumerate(([cfgs[0], cfgs[1]], [cfgs[0], None], [None, None])):
            composed = compose_multi(real, phase_list)
            totals[j] += achievable_rate(composed).rate_bits_hz
    return [t / reals for t in totals]


def test_multi_surface_ordering():
    """With the direct ray blocked, mean rate orders two surfaces > one >
    none. The recorded average improvements (26.91% one-surface, 45.72%
    two-surface) are geometry-sensitive reference targets: checked to +/- 15
    percentage points but only warned about, never failed."""
    two, one, none = _multi_mean_rates(_setup_two_surfaces(Point3(55.0, 35.0, 1.0)), 808, 1000, True)
    ok = two > one > none
    report(
        "multi-surface ordering",
        ok,
        f"mean rates two={two:.3f} > one={one:.3f} > none={none:.3f} bit/s/Hz",
    )
    assert ok

    # Reference-point sweep: three receivers on the Tx side of the room, the
    # rest near the surfaces. Surfaces are installed with a clear view of the
    # fixed Tx (los_tx_ris on); the direct ray stays blocked, scattering kept.
    rx_points = [(15, 30), (12, 20), (30, 38), (38, 46), (45, 47), (58, 37), (62, 38)]
    imp_one, imp_two = [], []
    for x, y in rx_points:
        two, one, none = _multi_mean_rates(
            _setup_two_surfaces(Point3(float(x), float(y), 1.0), los_tx_ris="on"), 809, 150, False
        )
        imp_one.append(100.0 * (one - none) / none)
        imp_two.append(100.0 * (two - none) / none)
    got_one, got_two = float(np.mean(imp_one)), float(np.mean(imp_two))
    targets_ok = abs(got_one - 26.91) <= 15.0 and abs(got_two - 45.72) <= 15.0
    detail = (
        f"average improvement one-surface {got_one:.1f}% (reference 26.91), "
        f"two-surface {got_two:.1f}% (reference 45.72), tolerance +/- 15 points"
    )
    report("multi-surface improvement targets", targets_ok, detail + " [warning only]")
    if not targets_ok:
        warnings.warn(
            "multi-surface improvement outside the reference band: " + detail,
            stacklevel=1,
        )


GOLDEN_CONFIG = {
    "environment": "InH_IndoorOffice",
    "frequency_ghz": 28.0,
    "seed": 20240811,
    "realizations": 50,
    "tx": [0.0, 25.0, 2.0],
    "rx": [38.0, 48.0, 1.0],
    "ris": [40.0, 50.0, 2.0],
    "n": 16,
    "ris_facing": -1,
    "control": {"strategy": "cophase"},
}

# SHA-256 of the tensor files the pinned configuration writes. These pin the
# file format and the draw path together; they change only if the generator
# contract changes, and any such change must be deliberate.
GOLDEN_DIGESTS = {
    "H": "c2481c260e5c5692ff6ba095456e5cf8ce713efa0f6b465df9542ab68a990f26",
    "G": "766f22c7520e240562be71ac8a3e4222099a8838af974ec2f37966e00d9569c4",
    "D": "6889690de565d4baa236c83752655f74fc7ce608bc9392189694e0f8149738b1",
}


def test_determinism_and_parallelism(tmp_path):
    """Identical bytes for the same configuration and seed whatever the
    worker count, and tensor digests equal to the pinned golden values."""
    results = []
    for workers in (1, 4):
        cfg = dict(GOLDEN_CONFIG, workers=workers, out_dir=str(tmp_path / f"w{workers}"))
        results.append(run(load_config(cfg)))
    r1, r4 = results
    names = ("H", "G", "D", "rates")
    worker_ok = all(r1.digests[n] == r4.digests[n] for n in names)
    mismatched = [n for n in GOLDEN_DIGESTS if r1.digests[n] != GOLDEN_DIGESTS[n]]
    ok = worker_ok and not mismatched
    report(
        "determinism and parallelism",
        ok,
        f"1 vs 4 workers identical: {worker_ok}, golden tensor digests match: {not mismatched}",
    )
    assert worker_ok
    assert not mismatched, (
        "golden digests differ for "
        + ", ".join(f"{n} (got {r1.digests[n]}, expected {GOLDEN_DIGESTS[n]})" for n in mismatched)
        + f"; platform: {platform_probe.describe()}"
    )


# A two-panel 4x4 MIMO street-canyon run and a sub-6 GHz run whose receiver is
# inside the Fraunhofer distance of its 16x16 panel (near-field G).
MIMO_TWO_PANEL_CONFIG = {
    "environment": "UMi_StreetCanyon",
    "frequency_ghz": 28.0,
    "seed": 7,
    "realizations": 10,
    "tx": [0.0, 40.0, 10.0],
    "rx": [60.0, 30.0, 1.5],
    "ris": [[80.0, 0.0, 12.0], [40.0, 0.0, 12.0]],
    "n": 16,
    "nt": 4,
    "nr": 4,
    "control": {"strategy": "pinv_surrogate"},
}
SUB6_NEAR_FIELD_CONFIG = {
    "band": "sub6",
    "environment": "InH_IndoorOffice",
    "frequency_ghz": 3.5,
    "seed": 11,
    "realizations": 5,
    "tx": [0.0, 25.0, 2.0],
    "rx": [40.0, 47.0, 2.0],
    "ris": [40.0, 50.0, 2.0],
    "n": 256,
    "ris_facing": -1,
    "control": {"strategy": "cophase"},
}
# SHA-256 of the tensor files of the two configurations above, pinned like
# ``GOLDEN_DIGESTS``: the multi-panel MIMO draw path and the sub-6 near-field
# path are as bound to their bytes as the single-surface SISO one.
MIMO_TWO_PANEL_DIGESTS = {
    "H0": "8202bd481ed4ffa7fc9372c066ff04add6364be720fde4f9d0c5c9f14af3903c",
    "G0": "fc0df5a81caadc1699e6bca38460e1bd6d4c86622068f383764edc95b054bf32",
    "H1": "5079657fa318907d5823c2a1807f5d229e8ec0055b85c1af3ad84a0475f40424",
    "G1": "bb472320d8b22a540bd02cbc7451ca0196eae263c194471c118ff37b875c2e26",
    "D": "dd1a8d494b019f43111fdfadafd12b21e5f6b9e8fc4687e9ca8c4726a4d5b83b",
}
SUB6_NEAR_FIELD_DIGESTS = {
    "H": "371d09d8662b9e8bfba958da2a01becda45870929a9bb5c7f098869cd66826d1",
    "G": "488d337fe6b5ce0e906aebf245f95992cbb9abfd3586fcf232cdba686e0b5c48",
    "D": "e92593502ffc6607b64217d2224ba2d301b64c2ca59075519d3167b3d46aa1ab",
}
OPENBLAS_CORES = ("Haswell", "Sandybridge", "Prescott")


def test_pinned_digests_of_mimo_and_near_field_runs():
    """The two-panel 4x4 MIMO and near-field sub-6 runs write their pinned
    tensor digests."""
    got = [platform_probe.tensor_digests(c) for c in (MIMO_TWO_PANEL_CONFIG, SUB6_NEAR_FIELD_CONFIG)]
    ok = got == [MIMO_TWO_PANEL_DIGESTS, SUB6_NEAR_FIELD_DIGESTS]
    report("pinned MIMO and near-field digests", ok, f"match: {ok}; platform: {platform_probe.describe()}")
    assert got[0] == MIMO_TWO_PANEL_DIGESTS
    assert got[1] == SUB6_NEAR_FIELD_DIGESTS


# Three draw paths that the pins above do not reach: LOS shadowing on
# mmWave hops with LOS forced on, the sub-6 far-field G forced on, and a
# surface on a yz wall. Their tensor digests are pinned like the ones above;
# rates are left out, because they still go through LAPACK.
DRAW_PATH_CONFIGS = {
    "los_shadowing": dict(
        GOLDEN_CONFIG, seed=5, realizations=20, shadowing={"los": True},
        los={"tx_ris": "on", "ris_rx": "on", "tx_rx": "on"},
    ),
    "sub6_far": dict(SUB6_NEAR_FIELD_CONFIG, seed=13, sub6={"g_mode": "far"}),
    "yz_wall": dict(
        GOLDEN_CONFIG, seed=17, realizations=20,
        tx=[30.0, 10.0, 2.0], ris=[0.0, 30.0, 2.0], rx=[10.0, 40.0, 1.0], ris_wall="yz", ris_facing=1,
    ),
}
DRAW_PATH_DIGESTS = {
    "los_shadowing": {
        "H": "c5d995582b9a4d9cc213556d377d70c6ce102ad867f16e5bdd02895943c5102a",
        "G": "1a01c8eb383ec9b7a70ba394b5d787f6d42eac64c50f78db75b51b3bc1f562a9",
        "D": "8408c2670a5aef9ce77b5cf805dada80203a3e8f36a3dd1318fcbf2f3e597460",
    },
    "sub6_far": {
        "H": "7b0cbb255f5be4b718f979ea5ef977b613dd9fe1d32090c3b6dd381d8566fd69",
        "G": "05d483c26cd539131d38a28532a505b4c3ca872b9b56478770e61c696aa941e5",
        "D": "24f248ed6cbc6f403c803c6958e60a6263adcbee7c2bf27371af7415f76dc20c",
    },
    "yz_wall": {
        "H": "477b67f334762c03921295b246bb0556cbaca7693b92f92aaace6158c0e517fb",
        "G": "3802c369bd78302a7774823caa98d8cdcaaa709445b5bcf4a779c2554b8c9786",
        "D": "c560b56fa2c4019ec0493b7f0feb58917cc17f2ec7471944b60357db8ad2ab69",
    },
}


@pytest.mark.parametrize("name", sorted(DRAW_PATH_CONFIGS))
def test_pinned_digests_of_draw_paths(name):
    """LOS shadowing, the forced far-field sub-6 G and a yz-wall surface
    write their pinned tensor digests."""
    got = platform_probe.tensor_digests(DRAW_PATH_CONFIGS[name])
    ok = got == DRAW_PATH_DIGESTS[name]
    report(f"pinned {name} digests", ok, f"match: {ok}; platform: {platform_probe.describe()}")
    assert got == DRAW_PATH_DIGESTS[name]


@pytest.mark.skipif(
    not (
        platform.machine().lower() in ("x86_64", "amd64")
        and sys.platform.startswith("linux")
        and platform_probe.openblas_dynamic_arch()
    ),
    reason="needs Linux x86-64 with numpy linked to a DYNAMIC_ARCH OpenBLAS",
)
def test_digests_across_blas_kernels_and_simd_levels():
    """The tensor bytes depend on the seed and the configuration only: the
    golden, two-panel MIMO and near-field sub-6 runs write the same digests
    under three OpenBLAS kernel sets times three numpy SIMD dispatch levels
    (all targets, all but the lowest disabled, all disabled), and each run
    writes its pinned digests."""
    configs = [GOLDEN_CONFIG, MIMO_TWO_PANEL_CONFIG, SUB6_NEAR_FIELD_CONFIG]
    targets = platform_probe.simd_dispatch_targets()
    levels = ("", " ".join(targets[1:]), " ".join(targets))
    src = str(Path(rischan.__file__).resolve().parent.parent)
    reports = {}
    for core in OPENBLAS_CORES:
        for level in levels:
            env = dict(
                os.environ,
                OPENBLAS_CORETYPE=core,
                NPY_DISABLE_CPU_FEATURES=level,
                OPENBLAS_NUM_THREADS="1",
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
            )
            out = subprocess.run(
                [sys.executable, platform_probe.__file__, json.dumps(configs)],
                env=env, capture_output=True, text=True, timeout=600, check=True,
            )
            reports[core, level] = json.loads(out.stdout.splitlines()[-1])
    cores = {r["core"] for r in reports.values()}
    simd = {tuple(r["simd"]) for r in reports.values()}
    first = next(iter(reports.values()))["digests"]
    differing = [key for key, r in reports.items() if r["digests"] != first]
    pinned = [GOLDEN_DIGESTS, MIMO_TWO_PANEL_DIGESTS, SUB6_NEAR_FIELD_DIGESTS]
    ok = len(cores) >= 2 and len(simd) >= 2 and not differing and first == pinned
    report(
        "digests across BLAS kernels and SIMD levels",
        ok,
        f"{len(reports)} runs, {len(cores)} OpenBLAS cores {sorted(cores, key=str)}, "
        f"{len(simd)} SIMD levels, differing: {differing}",
    )
    assert len(cores) >= 2, f"OPENBLAS_CORETYPE took no effect: cores {cores}"
    assert len(simd) >= 2, f"NPY_DISABLE_CPU_FEATURES took no effect: {simd}"
    assert not differing, {key: reports[key] for key in differing[:2]} | {"reference": first}
    assert first[0] == GOLDEN_DIGESTS
    assert first[1] == MIMO_TWO_PANEL_DIGESTS
    assert first[2] == SUB6_NEAR_FIELD_DIGESTS


def test_mimo_reduction_and_los_rank():
    """Every pure-visibility block is rank one on 100 MIMO instances."""
    mimo = make_indoor_scene(
        tx_geometry=ArrayGeometry(4, 1),
        rx_geometry=ArrayGeometry(4, 1),
        los_tx_ris="on",
        los_ris_rx="on",
        los_tx_rx="on",
    )
    worst = 0.0
    for i in range(100):
        real = realize(mimo, 911, i, clustered=False)
        for mat in (real.H, real.G, real.D):
            s = np.linalg.svd(mat, compute_uv=False)
            worst = max(worst, s[1] / s[0])
    rank_ok = worst <= 1e-10
    report(
        "MIMO consistency",
        rank_ok,
        f"max s2/s1 of visibility blocks {worst:.1e} over 100 draws (target <= 1e-10)",
    )
    assert rank_ok
