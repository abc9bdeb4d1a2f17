"""Phase control strategies, quantization, and rate evaluation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rischan.control import (
    RisPhaseConfig,
    achievable_rate,
    phases_cophase,
    phases_dominant,
    quantize_phases,
    random_phases,
)
from rischan.streams import substream

TWO_PI = 2.0 * math.pi


class TestPhaseConfig:
    def test_wraps_into_range(self):
        cfg = RisPhaseConfig(np.array([-0.1, TWO_PI + 0.25, 7 * math.pi]))
        assert np.all(cfg.phases >= 0.0)
        assert np.all(cfg.phases < TWO_PI)
        assert cfg.phases[0] == pytest.approx(TWO_PI - 0.1)
        assert cfg.phases[1] == pytest.approx(0.25)
        assert cfg.phases[2] == pytest.approx(math.pi)

    def test_len(self):
        assert len(RisPhaseConfig(np.zeros(12))) == 12

    def test_rejects_matrix(self):
        with pytest.raises(ValueError, match="1-d"):
            RisPhaseConfig(np.zeros((4, 4)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            RisPhaseConfig(np.array([0.0, np.nan]))

    def test_grid_claim_checked(self):
        step = TWO_PI / 4
        RisPhaseConfig(np.array([0.0, step, 2 * step]), quant_bits=2)  # on grid, fine
        with pytest.raises(ValueError, match="grid"):
            RisPhaseConfig(np.array([0.3]), quant_bits=2)

    @pytest.mark.parametrize("bits", [0, 17, -1])
    def test_quant_bits_range(self, bits):
        with pytest.raises(ValueError, match="quant_bits"):
            RisPhaseConfig(np.zeros(2), quant_bits=bits)


class TestCophase:
    def test_every_term_real_nonnegative(self, rng):
        n = 24
        h = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        cfg = phases_cophase(h, g)
        terms = g * np.exp(1j * cfg.phases) * h
        np.testing.assert_allclose(terms.imag, 0.0, atol=1e-12)
        assert np.all(terms.real > 0.0)

    def test_achieves_magnitude_sum(self, rng):
        h = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        g = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        cfg = phases_cophase(h, g)
        total = np.sum(g * np.exp(1j * cfg.phases) * h)
        assert abs(total) == pytest.approx(np.sum(np.abs(h) * np.abs(g)), rel=1e-12)

    def test_phase_oracle(self):
        h = np.array([1.0 * np.exp(0.4j)])
        g = np.array([2.0 * np.exp(1.1j)])
        cfg = phases_cophase(h, g)
        assert cfg.phases[0] == pytest.approx(TWO_PI - 1.5)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="lengths differ"):
            phases_cophase(np.zeros(3), np.zeros(4))

    def test_zero_cascade_gets_zero_phase(self):
        cfg = phases_cophase(np.array([0.0 + 0.0j, 1.0j]), np.array([0.0 + 0.0j, 1.0]))
        assert cfg.phases[0] == 0.0

    def test_accepts_matrix_shaped_vectors(self, rng):
        h = rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1))
        g = rng.standard_normal((1, 4)) + 1j * rng.standard_normal((1, 4))
        np.testing.assert_array_equal(
            phases_cophase(h, g).phases, phases_cophase(h.ravel(), g.ravel()).phases
        )


class TestDominant:
    def test_siso_reduces_to_cophase(self, rng):
        h = rng.standard_normal((6, 1)) + 1j * rng.standard_normal((6, 1))
        g = rng.standard_normal((1, 6)) + 1j * rng.standard_normal((1, 6))
        np.testing.assert_array_equal(
            phases_dominant(h, g).phases, phases_cophase(h[:, 0], g[0, :]).phases
        )

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError, match="2-d"):
            phases_dominant(np.zeros(4), np.zeros((1, 4)))

    def test_rejects_incompatible(self):
        with pytest.raises(ValueError, match="incompatible"):
            phases_dominant(np.zeros((4, 2)), np.zeros((2, 5)))

    def test_zero_hop_falls_back_with_note(self):
        cfg = phases_dominant(np.zeros((4, 2), dtype=complex), np.ones((2, 4), dtype=complex))
        assert "fallback" in cfg.note
        assert len(cfg) == 4

    def test_beats_random_on_mimo(self, rng):
        """Cophasing the dominant chain should outscore random phases on the
        dominant-mode energy essentially always; check 20 fixed draws."""
        n = 32
        wins = 0
        for _ in range(20):
            h = (rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))) / math.sqrt(2)
            g = (rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))) / math.sqrt(2)
            cfg = phases_dominant(h, g)
            rnd = random_phases(n, rng)
            dom = np.linalg.norm(g @ np.diag(np.exp(1j * cfg.phases)) @ h, 2)
            base = np.linalg.norm(g @ np.diag(np.exp(1j * rnd.phases)) @ h, 2)
            wins += dom > base
        assert wins == 20


class TestRandomPhases:
    def test_range_and_shape(self):
        cfg = random_phases(1000, np.random.default_rng(0))
        assert len(cfg) == 1000
        assert np.all(cfg.phases >= 0.0) and np.all(cfg.phases < TWO_PI)
        # spread over the full circle, not clumped
        assert cfg.phases.max() > 5.0 and cfg.phases.min() < 1.0

    def test_deterministic_from_stream(self):
        a = random_phases(16, substream(5, "phases", 0, 3))
        b = random_phases(16, substream(5, "phases", 0, 3))
        np.testing.assert_array_equal(a.phases, b.phases)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match=">= 1"):
            random_phases(0, np.random.default_rng(0))


class TestQuantize:
    def test_snaps_to_grid_oracle(self):
        cfg = RisPhaseConfig(np.array([0.1, 1.0, 3.2, 6.0]))
        got = quantize_phases(cfg, 2)
        step = TWO_PI / 4
        expected = np.mod(np.floor(cfg.phases / step + 0.5), 4) * step
        np.testing.assert_array_equal(got.phases, expected)
        assert got.quant_bits == 2

    def test_tie_rounds_up(self):
        step = TWO_PI / 4
        got = quantize_phases(RisPhaseConfig(np.array([step / 2])), 2)
        assert got.phases[0] == pytest.approx(step)

    def test_wraparound_to_zero(self):
        # a phase just below 2 pi is nearest to level 0
        got = quantize_phases(RisPhaseConfig(np.array([TWO_PI - 1e-3])), 1)
        assert got.phases[0] == 0.0

    def test_idempotent(self):
        cfg = quantize_phases(RisPhaseConfig(np.array([0.3, 2.2, 5.9])), 3)
        again = quantize_phases(cfg, 3)
        np.testing.assert_array_equal(cfg.phases, again.phases)

    def test_note_preserved(self):
        cfg = RisPhaseConfig(np.array([0.4]), note="fallback: whatever")
        assert quantize_phases(cfg, 4).note == cfg.note

    @pytest.mark.parametrize("bits", [0, 17])
    def test_bits_range(self, bits):
        with pytest.raises(ValueError, match="bits"):
            quantize_phases(RisPhaseConfig(np.zeros(2)), bits)

    @given(
        phases=st.lists(st.floats(0.0, TWO_PI, exclude_max=True), min_size=1, max_size=20),
        bits=st.integers(1, 8),
    )
    @settings(max_examples=80)
    def test_error_within_half_step(self, phases, bits):
        cfg = quantize_phases(RisPhaseConfig(np.array(phases)), bits)
        step = TWO_PI / (1 << bits)
        err = np.abs(cfg.phases - np.array(phases))
        err = np.minimum(err, TWO_PI - err)  # circular distance
        assert np.all(err <= step / 2 + 1e-12)


class TestAchievableRate:
    def test_scalar_oracle(self):
        c = 3e-4 + 4e-4j
        got = achievable_rate(np.array([[c]]), tx_power_dbm=30.0, noise_dbm=-90.0)
        rho = 10.0 ** ((30.0 + 90.0) / 10.0)
        assert got.rate_bits_hz == pytest.approx(math.log2(1.0 + rho * abs(c) ** 2), rel=1e-12)
        assert got.snr_linear == pytest.approx(rho)

    def test_matrix_oracle(self, rng):
        c_mat = (rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))) * 1e-4
        got = achievable_rate(c_mat, tx_power_dbm=20.0, noise_dbm=-100.0)
        rho = 10.0 ** (120.0 / 10.0)
        s = np.linalg.svd(c_mat, compute_uv=False)
        expected = np.sum(np.log2(1.0 + rho / 2.0 * s**2))
        assert got.rate_bits_hz == pytest.approx(expected, rel=1e-12)

    def test_accepts_1d_as_row(self, rng):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        assert achievable_rate(v).rate_bits_hz == achievable_rate(v[None, :]).rate_bits_hz

    def test_rejects_3d(self):
        with pytest.raises(ValueError, match="2-d"):
            achievable_rate(np.zeros((2, 2, 2)))

    def test_zero_channel_zero_rate(self):
        assert achievable_rate(np.zeros((2, 2))).rate_bits_hz == 0.0

    def test_monotone_in_power(self):
        c = np.array([[1e-5 + 2e-5j]])
        r1 = achievable_rate(c, tx_power_dbm=10.0).rate_bits_hz
        r2 = achievable_rate(c, tx_power_dbm=20.0).rate_bits_hz
        assert r2 > r1
