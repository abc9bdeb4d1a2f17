"""Surface phase control and achievable-rate evaluation.

Phase configurations are unit-modulus per element, represented by their
radian phases wrapped to [0, 2 pi). Strategies:

* ``phases_cophase``: single-antenna optimum, aligning each element's
  cascaded phase so all N contributions add coherently.
* ``phases_dominant``: multi-antenna surrogate that cophases the dominant
  singular-mode chain of the two hop matrices (the direction a
  pseudo-inverse-style matched design would excite); reduces exactly to
  ``phases_cophase`` for 1x1 terminals.
* ``random_phases``: uniform phases, the usual uncontrolled baseline.

``quantize_phases`` snaps a configuration to the 2^bits uniform grid of a
finite-resolution surface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "RisPhaseConfig",
    "RateResult",
    "phases_cophase",
    "phases_dominant",
    "random_phases",
    "quantize_phases",
    "snr_ratio",
    "achievable_rate",
]

_TWO_PI = 2.0 * math.pi


def _snap(phases: np.ndarray, bits: int) -> np.ndarray:
    """Each phase at the nearest of 2^bits uniform levels, ties rounding up."""
    levels = 1 << bits
    step = _TWO_PI / levels
    return np.mod(np.floor(phases / step + 0.5), levels) * step


@dataclass(frozen=True, eq=False)
class RisPhaseConfig:
    """Per-element reflection phases in radians, wrapped to [0, 2 pi).

    ``quant_bits`` marks a configuration that lives on the uniform
    2^bits phase grid; ``note`` records non-default control decisions
    (e.g. a rank-deficiency fallback).
    """

    phases: np.ndarray
    quant_bits: int | None = None
    note: str = ""

    def __post_init__(self) -> None:
        phi = np.mod(np.asarray(self.phases, dtype=float), _TWO_PI)
        if phi.ndim != 1:
            raise ValueError(f"phases must be a 1-d vector, got shape {phi.shape}")
        if not np.all(np.isfinite(phi)):
            raise ValueError("phases must be finite")
        object.__setattr__(self, "phases", phi)
        if self.quant_bits is not None:
            if not (1 <= int(self.quant_bits) <= 16):
                raise ValueError(f"quant_bits must be in 1..16, got {self.quant_bits!r}")
            if not np.allclose(phi, _snap(phi, int(self.quant_bits)), atol=1e-9):
                raise ValueError(
                    f"phases are off the 2^{self.quant_bits}-level grid they claim to be on"
                )

    def __len__(self) -> int:
        return int(self.phases.size)


@dataclass(frozen=True)
class RateResult:
    """Achievable rate of one composed channel."""

    rate_bits_hz: float
    snr_linear: float  # transmit power over noise power, linear


def phases_cophase(h: np.ndarray, g: np.ndarray) -> RisPhaseConfig:
    """Single-antenna optimal phases: cancel each element's cascade phase.

    Element n reflects with phase -(arg h_n + arg g_n), so every term of
    sum_n g_n e^{j phi_n} h_n is real nonnegative and the magnitudes add.
    Elements with a zero cascade get phase 0 (their value is irrelevant).
    """
    h = np.asarray(h).reshape(-1)
    g = np.asarray(g).reshape(-1)
    if h.shape != g.shape:
        raise ValueError(f"h and g lengths differ: {h.shape} vs {g.shape}")
    return RisPhaseConfig(-(np.angle(h) + np.angle(g)))

def phases_dominant(h_mat: np.ndarray, g_mat: np.ndarray) -> RisPhaseConfig:
    """Multi-antenna surrogate: cophase the dominant singular-mode chain.

    Takes the Tx-side matrix (N x Nt) and Rx-side matrix (Nr x N), extracts
    the strongest left mode of the former and right mode of the latter, and
    cophases their element-wise chain. With single-antenna terminals this is
    exactly :func:`phases_cophase`. Identically zero hops fall back to
    cophasing the element-wise column/row aggregates and flag it in
    ``note``.
    """
    h_mat = np.asarray(h_mat)
    g_mat = np.asarray(g_mat)
    if h_mat.ndim != 2 or g_mat.ndim != 2:
        raise ValueError("expected 2-d hop matrices (N x Nt) and (Nr x N)")
    if g_mat.shape[1] != h_mat.shape[0]:
        raise ValueError(
            f"incompatible hops: G has {g_mat.shape[1]} columns, H has {h_mat.shape[0]} rows"
        )
    if h_mat.shape[1] == 1 and g_mat.shape[0] == 1:
        return phases_cophase(h_mat[:, 0], g_mat[0, :])
    u_h, s_h, _ = np.linalg.svd(h_mat)
    _, s_g, v_g = np.linalg.svd(g_mat)
    if s_h[0] == 0.0 or s_g[0] == 0.0:
        agg_h = h_mat.sum(axis=1)
        agg_g = g_mat.sum(axis=0)
        return replace(
            phases_cophase(agg_h, agg_g), note="fallback: aggregate cophasing (zero hop matrix)"
        )
    return RisPhaseConfig(-(np.angle(u_h[:, 0]) + np.angle(v_g[0, :])))

def random_phases(n: int, rng: np.random.Generator) -> RisPhaseConfig:
    """Uniform i.i.d. phases on [0, 2 pi), the uncontrolled baseline."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n!r}")
    return RisPhaseConfig(rng.uniform(0.0, _TWO_PI, size=n))

def quantize_phases(config: RisPhaseConfig, bits: int) -> RisPhaseConfig:
    """Snap each phase to the nearest of 2^bits uniform levels.

    Idempotent: re-quantizing an on-grid configuration returns it
    unchanged. Ties round up to the next level (round-half-up in phase).
    """
    if not (1 <= bits <= 16):
        raise ValueError(f"bits must be in 1..16, got {bits!r}")
    return RisPhaseConfig(_snap(config.phases, bits), quant_bits=bits, note=config.note)

def snr_ratio(tx_power_dbm: float, noise_dbm: float) -> float:
    """Transmit-to-noise power ratio rho = 10^((tx - noise) / 10), linear.

    Raises ValueError where rho is not a finite float (the power levels
    are too far apart, or not finite).
    """
    try:
        rho = 10.0 ** ((tx_power_dbm - noise_dbm) / 10.0)
    except OverflowError:
        rho = math.inf
    if not math.isfinite(rho):
        raise ValueError(
            f"tx_power_dbm={tx_power_dbm!r} over noise_dbm={noise_dbm!r} gives a "
            "signal-to-noise ratio beyond the float range"
        )
    return rho

def achievable_rate(
    composed: np.ndarray, tx_power_dbm: float = 30.0, noise_dbm: float = -100.0
) -> RateResult:
    """Spectral efficiency of a composed channel, in bit/s/Hz.

    Power is split evenly over transmit antennas; the rate is the log-det
    capacity of the matrix channel, computed from singular values:
    sum_i log2(1 + (rho / Nt) s_i^2) with rho the transmit-to-noise power
    ratio. A 1x1 matrix reduces to log2(1 + rho |c|^2).
    """
    c_mat = np.atleast_2d(np.asarray(composed, dtype=complex))
    if c_mat.ndim != 2:
        raise ValueError(f"composed channel must be 2-d, got shape {c_mat.shape}")
    rho = snr_ratio(tx_power_dbm, noise_dbm)
    s = np.linalg.svd(c_mat, compute_uv=False)
    rate = float(np.sum(np.log1p(rho / c_mat.shape[1] * s**2)) / math.log(2.0))
    return RateResult(rate_bits_hz=rate, snr_linear=rho)
