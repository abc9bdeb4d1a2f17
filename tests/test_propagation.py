import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rischan.engine import load_config
from rischan.errors import ConfigError
from rischan.propagation import (
    SPEED_OF_LIGHT,
    Environment,
    EnvironmentKind,
    PathLossParams,
    check_frequency,
    ci_intercept_db,
    los_probability,
    path_loss,
)


def test_speed_of_light_value():
    assert SPEED_OF_LIGHT == 299_792_458.0


class TestIntercept:
    def test_oracle_28ghz(self):
        # 20 log10(4 pi f / c), recomputed here from scratch
        expected = 20.0 * math.log10(4.0 * math.pi * 28e9 / 299_792_458.0)
        assert ci_intercept_db(28e9) == pytest.approx(expected, abs=1e-12)
        assert ci_intercept_db(28e9) == pytest.approx(61.390869, abs=1e-4)

    def test_oracle_73ghz(self):
        assert ci_intercept_db(73e9) == pytest.approx(69.714216, abs=1e-4)

    def test_frequency_range_enforced(self):
        with pytest.raises(ConfigError):
            ci_intercept_db(0.1e9)
        with pytest.raises(ConfigError):
            check_frequency(200e9)
        assert check_frequency(3.5e9) == 3.5e9


class TestPathLoss:
    def test_los_closed_form(self):
        p = Environment.indoor_office().path_loss
        got = path_loss(28e9, 10.0, p, los=True).loss_db
        expected = ci_intercept_db(28e9) + 10.0 * 1.73 * math.log10(10.0)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_nlos_frequency_scaled_exponent(self):
        # indoor NLOS exponent stretches with frequency: n (1 + b (f - f0) / f0)
        p = Environment.indoor_office().path_loss
        f = 73e9
        n_eff = 3.19 * (1.0 + 0.06 * (f - 24.2e9) / 24.2e9)
        expected = ci_intercept_db(f) + 10.0 * n_eff * math.log10(50.0)
        assert path_loss(f, 50.0, p, los=False).loss_db == pytest.approx(expected, abs=1e-12)

    def test_street_canyon_has_no_frequency_scaling(self):
        p = Environment.street_canyon().path_loss
        assert p.b_los == 0.0 and p.b_nlos == 0.0
        expected = ci_intercept_db(28e9) + 10.0 * 1.98 * math.log10(100.0)
        assert path_loss(28e9, 100.0, p, los=True).loss_db == pytest.approx(expected)

    def test_shadow_adds_scaled_sigma(self):
        p = Environment.indoor_office().path_loss
        base = path_loss(28e9, 5.0, p, los=True).loss_db
        shadowed = path_loss(28e9, 5.0, p, los=True, shadow=1.0).loss_db
        assert shadowed - base == pytest.approx(p.sigma_los_db)
        nlos = path_loss(28e9, 5.0, p, los=False, shadow=-2.0).loss_db
        assert nlos == pytest.approx(path_loss(28e9, 5.0, p, los=False).loss_db - 2.0 * p.sigma_nlos_db)

    def test_vectorized_distances(self):
        p = Environment.street_canyon().path_loss
        d = np.array([1.0, 10.0, 100.0])
        out = path_loss(28e9, d, p, los=True).loss_db
        assert out.shape == (3,)
        assert out[0] == pytest.approx(ci_intercept_db(28e9))

    def test_sub_reference_distance_rejected(self):
        p = Environment.indoor_office().path_loss
        with pytest.raises(ValueError, match="1 m"):
            path_loss(28e9, 0.5, p, los=True)
        with pytest.raises(ValueError):
            path_loss(28e9, np.array([2.0, 0.99]), p, los=False)

    def test_linear_conversion(self):
        sample = path_loss(28e9, 1.0, Environment.indoor_office().path_loss, los=True)
        assert sample.linear == pytest.approx(10.0 ** (-sample.loss_db / 10.0))

    @given(st.floats(1.0, 500.0), st.floats(1.0, 500.0))
    def test_monotone_in_distance(self, d1, d2):
        p = Environment.indoor_office().path_loss
        lo, hi = sorted([d1, d2])
        if hi / lo < 1.0 + 1e-12:
            return  # separations below float resolution of the dB sum
        assert path_loss(28e9, lo, p, los=False).loss_db < path_loss(28e9, hi, p, los=False).loss_db


class TestLosProbability:
    def test_indoor_piecewise(self):
        k = EnvironmentKind.INDOOR_OFFICE
        assert los_probability(1.0, k) == 1.0
        assert los_probability(1.2, k) == 1.0
        assert los_probability(5.0, k) == pytest.approx(math.exp(-(5.0 - 1.2) / 4.7))
        assert los_probability(10.0, k) == pytest.approx(0.32 * math.exp(-(10.0 - 6.5) / 32.6))

    def test_street_piecewise(self):
        k = EnvironmentKind.STREET_CANYON
        assert los_probability(18.0, k) == 1.0
        d = 36.0
        expected = 18.0 / d + math.exp(-d / 36.0) * (1.0 - 18.0 / d)
        assert los_probability(d, k) == pytest.approx(expected)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            los_probability(-1.0, EnvironmentKind.INDOOR_OFFICE)

    @given(st.floats(0.0, 1000.0), st.floats(0.0, 1000.0))
    def test_nonincreasing(self, a, b):
        lo, hi = sorted([a, b])
        for k in EnvironmentKind:
            assert los_probability(lo, k) >= los_probability(hi, k) - 1e-12

    def test_bounded(self):
        for k in EnvironmentKind:
            for d in np.linspace(0.0, 500.0, 101):
                p = los_probability(float(d), k)
                assert 0.0 <= p <= 1.0


def run_config(**over):
    cfg = {
        "environment": "InH_IndoorOffice",
        "frequency_ghz": 28.0,
        "tx": [0.0, 25.0, 2.0],
        "rx": [38.0, 48.0, 1.0],
        "ris": [40.0, 50.0, 2.0],
        "n": 16,
        "ris_facing": -1,
    }
    cfg.update(over)
    return cfg


class TestParamTables:
    """The path-loss ``params`` table as ``load_config`` reads it: inline, or
    from the file named by ``default_params_path``."""

    def test_override_round_trip(self):
        cfg = load_config(run_config(params={"InH_IndoorOffice": {"exponent_los": 2.5}}))
        p = cfg.scene.environment.path_loss
        assert p.exponent_los == 2.5
        assert p.exponent_nlos == 3.19  # untouched defaults survive

    def test_unknown_environment(self):
        with pytest.raises(ConfigError, match="unknown environment"):
            load_config(run_config(params={"Orbit": {}}))

    def test_unknown_field(self):
        with pytest.raises(ConfigError, match="unknown fields"):
            load_config(run_config(params={"UMi_StreetCanyon": {"gamma": 1.0}}))

    def test_non_mapping_fields(self):
        with pytest.raises(ConfigError, match="params.UMi_StreetCanyon"):
            load_config(run_config(params={"UMi_StreetCanyon": 3}))

    def test_load_file(self, tmp_path):
        path = tmp_path / "params.json"
        path.write_text(json.dumps({"UMi_StreetCanyon": {"sigma_los_db": 4.0}}))
        umi = run_config(environment="UMi_StreetCanyon")
        cfg = load_config(umi, default_params_path=str(path))
        assert cfg.scene.environment.path_loss.sigma_los_db == 4.0

    def test_load_file_errors(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(run_config(), default_params_path=str(tmp_path / "missing.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError, match="valid JSON"):
            load_config(run_config(), default_params_path=str(bad))
        arr = tmp_path / "arr.json"
        arr.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="JSON object"):
            load_config(run_config(), default_params_path=str(arr))


def test_environment_presets():
    indoor = Environment.indoor_office()
    street = Environment.street_canyon()
    assert indoor.indoor and not street.indoor
    assert indoor.cluster_density == 1.8
    assert street.cluster_density == 1.9
    assert indoor.bounds[0] == (0.0, 75.0)
    custom = Environment.indoor_office(cluster_density=5.0)
    assert custom.cluster_density == 5.0
    assert custom.path_loss == indoor.path_loss


def test_path_loss_params_frozen():
    p = PathLossParams(1.0, 2.0, 3.0, 4.0)
    with pytest.raises(AttributeError):
        p.exponent_los = 9.0
