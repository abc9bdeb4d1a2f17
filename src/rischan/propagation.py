"""Large-scale propagation: close-in path loss and LOS visibility.

The distance law is the close-in free-space-reference model

    PL(f, d) [dB] = 20 log10(4 pi f / c) + 10 n (1 + b (f - f0)/f0) log10(d) + X

with d in meters (d >= 1), n the state-dependent exponent, b an optional
frequency scaling of the exponent anchored at f0, and X a zero-mean Gaussian
shadowing term (sigma in dB) that callers draw explicitly. Default parameter
sets follow the published mmWave measurement fits for indoor offices and
street canyons; LOS visibility follows the 3GPP TR 38.901 distance-dependent
probabilities for the same environments, evaluated on ground distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import NamedTuple

import numpy as np

from . import elementary as ef
from .errors import ConfigError

__all__ = [
    "SPEED_OF_LIGHT",
    "FREQ_RANGE_HZ",
    "EnvironmentKind",
    "PathLossParams",
    "Environment",
    "PathLossSample",
    "check_frequency",
    "ci_intercept_db",
    "CloseIn",
    "close_in",
    "path_loss",
    "los_probability",
]

SPEED_OF_LIGHT = 299_792_458.0

# the close-in reference distance: the law holds from here on, in meters
CLOSE_IN_REF_M = 1.0
# validity window of the close-in fits (0.5 - 100 GHz)
FREQ_RANGE_HZ = (0.5e9, 100e9)


class EnvironmentKind(Enum):
    INDOOR_OFFICE = "InH_IndoorOffice"
    STREET_CANYON = "UMi_StreetCanyon"


@dataclass(frozen=True)
class PathLossParams:
    """Close-in model parameters for one environment.

    ``exponent_*`` are the distance exponents n, ``sigma_*_db`` the shadowing
    standard deviations, ``b_*`` the frequency scalings of the exponent, and
    ``anchor_hz`` the frequency f0 those scalings are anchored at.
    """

    exponent_los: float
    exponent_nlos: float
    sigma_los_db: float
    sigma_nlos_db: float
    b_los: float = 0.0
    b_nlos: float = 0.0
    anchor_hz: float = 24.2e9

    def __post_init__(self) -> None:
        if not self.anchor_hz > 0:
            raise ValueError(f"anchor_hz must be > 0, got {self.anchor_hz!r}")


# per environment: the close-in fit, the scatterer placement volume ((x, y,
# z) extents in meters) and the mean cluster count
_DEFAULTS = {
    EnvironmentKind.INDOOR_OFFICE: (
        PathLossParams(exponent_los=1.73, exponent_nlos=3.19, sigma_los_db=3.02, sigma_nlos_db=8.29, b_nlos=0.06),
        ((0.0, 75.0), (0.0, 50.0), (0.0, 3.5)),
        1.8,
    ),
    EnvironmentKind.STREET_CANYON: (
        PathLossParams(exponent_los=1.98, exponent_nlos=3.19, sigma_los_db=3.1, sigma_nlos_db=8.2),
        ((0.0, 200.0), (0.0, 200.0), (0.0, 25.0)),
        1.9,
    ),
}


@dataclass(frozen=True)
class Environment:
    """An environment: path-loss fit, scatterer volume, cluster density."""

    kind: EnvironmentKind
    path_loss: PathLossParams
    bounds: tuple[tuple[float, float], tuple[float, float], tuple[float, float]]
    cluster_density: float

    def __post_init__(self) -> None:
        if not all(lo < hi for lo, hi in self.bounds):
            raise ValueError(f"bounds must have min < max on every axis, got {self.bounds!r}")
        if not self.cluster_density >= 0:
            raise ValueError(f"cluster_density must be >= 0, got {self.cluster_density!r}")

    @property
    def indoor(self) -> bool:
        return self.kind is EnvironmentKind.INDOOR_OFFICE

    @classmethod
    def indoor_office(cls, **overrides) -> "Environment":
        return cls._default(EnvironmentKind.INDOOR_OFFICE, **overrides)

    @classmethod
    def street_canyon(cls, **overrides) -> "Environment":
        return cls._default(EnvironmentKind.STREET_CANYON, **overrides)

    @classmethod
    def _default(cls, kind: EnvironmentKind, **overrides) -> "Environment":
        env = cls(kind, *_DEFAULTS[kind])
        return replace(env, **overrides) if overrides else env


@dataclass(frozen=True)
class PathLossSample:
    loss_db: float

    @property
    def linear(self) -> float:
        """Power attenuation factor, 10^(-loss_db/10)."""
        lin = ef.pow10(np.asarray(self.loss_db, dtype=float) / -10.0)  # = -x / 10, bit for bit
        return lin if lin.ndim else float(lin)


def check_frequency(freq_hz: float) -> float:
    lo, hi = FREQ_RANGE_HZ
    if not (lo <= freq_hz <= hi):
        raise ConfigError(
            f"frequency_hz={freq_hz!r} outside the supported range "
            f"[{lo:.1e}, {hi:.1e}] Hz"
        )
    return float(freq_hz)

def ci_intercept_db(freq_hz: float) -> float:
    """Free-space loss at the 1 m close-in reference distance, in dB."""
    check_frequency(freq_hz)
    return 20.0 * math.log10(4.0 * math.pi * freq_hz / SPEED_OF_LIGHT)

class CloseIn(NamedTuple):
    """The terms of the close-in law that one carrier and link state fix."""

    intercept_db: float  # free-space loss at 1 m
    slope_db: float  # 10 n_eff: dB per decade of distance
    sigma_db: float  # shadowing standard deviation

    def sample(self, distance_m, shadow=None) -> PathLossSample:
        """Path loss at ``distance_m``; see :func:`path_loss`."""
        d = np.asarray(distance_m, dtype=float)
        if (d < CLOSE_IN_REF_M).any():
            raise ValueError(
                "distance_m below the 1 m close-in reference; clamp distances "
                "to >= 1 m in the caller if that geometry is intended"
            )
        loss = self.intercept_db + self.slope_db * ef.log10(d)
        if shadow is not None:
            loss = loss + self.sigma_db * np.asarray(shadow, dtype=float)
        if loss.ndim == 0:
            return PathLossSample(float(loss))
        return PathLossSample(loss)

def close_in(freq_hz: float, params: PathLossParams, los: bool) -> CloseIn:
    """The distance-independent terms of :func:`path_loss`."""
    if los:
        n, b, sigma = params.exponent_los, params.b_los, params.sigma_los_db
    else:
        n, b, sigma = params.exponent_nlos, params.b_nlos, params.sigma_nlos_db
    n_eff = n * (1.0 + b * (freq_hz - params.anchor_hz) / params.anchor_hz)
    return CloseIn(ci_intercept_db(freq_hz), 10.0 * n_eff, sigma)

def path_loss(
    freq_hz: float,
    distance_m,
    params: PathLossParams,
    los: bool,
    shadow=None,
) -> PathLossSample:
    """Close-in path loss for one link state.

    ``shadow`` is an optional standard-normal draw (scalar or broadcastable
    array); it is scaled by the state's sigma here so callers own the
    randomness. Distances below the 1 m reference are rejected; clamp in the
    caller if a scene legitimately has sub-meter legs. Callers evaluating
    one carrier and state many times keep its :func:`close_in` terms and
    call their ``sample``, which gives the same bits.
    """
    return close_in(freq_hz, params, los).sample(distance_m, shadow)

def los_probability(d2d_m: float, kind: EnvironmentKind) -> float:
    """LOS probability at ground distance ``d2d_m`` (TR 38.901 fits)."""
    d = float(d2d_m)
    if d < 0.0:
        raise ValueError(f"d2d_m must be >= 0, got {d!r}")
    if kind is EnvironmentKind.INDOOR_OFFICE:
        if d <= 1.2:
            return 1.0
        if d < 6.5:
            return math.exp(-(d - 1.2) / 4.7)
        return 0.32 * math.exp(-(d - 6.5) / 32.6)
    if d <= 18.0:
        return 1.0
    return 18.0 / d + math.exp(-d / 36.0) * (1.0 - 18.0 / d)
