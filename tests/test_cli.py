"""Command-line front end: subcommands, overrides, exit codes."""

import json
import math

import numpy as np
import pytest

from rischan.cli import PARAMS_ENV, main
from rischan.simio import read_metadata, read_tensor


SUB6 = {"band": "sub6", "frequency_ghz": 3.5}


def inh_params(**fields):
    return {"params": {"InH_IndoorOffice": fields}}


def write_cfg(tmp_path, name="run.json", **over):
    cfg = {
        "environment": "InH_IndoorOffice",
        "frequency_ghz": 28.0,
        "tx": [0.0, 25.0, 2.0],
        "rx": [38.0, 48.0, 1.0],
        "ris": [40.0, 50.0, 2.0],
        "n": 4,
        "ris_facing": -1,
        "realizations": 2,
        "seed": 5,
        "out_dir": str(tmp_path / "out"),
    }
    cfg.update(over)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


class TestSubcommands:
    def test_validate(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        assert main(["validate", "-c", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "configuration ok" in out
        assert "band=mmwave seed=5 realizations=2" in out
        assert "N=4" in out

    def test_validate_multi(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            ris=[[40.0, 50.0, 2.0], [60.0, 40.0, 2.5]],
            rx=[55.0, 35.0, 1.0],
            ris_facing=[-1, -1],
        )
        assert main(["validate", "-c", str(cfg)]) == 0
        assert "+1 surface(s)" in capsys.readouterr().out

    def test_gen_writes_tensors_only(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        assert main(["gen", "-c", str(cfg)]) == 0
        out_dir = tmp_path / "out"
        for name in ("H", "G", "D"):
            assert (out_dir / f"{name}.risch").exists()
        assert not (out_dir / "rates.csv").exists()
        assert (out_dir / "metadata.json").exists()
        assert "wrote" in capsys.readouterr().out

    def test_rate_writes_rates(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        assert main(["rate", "-c", str(cfg)]) == 0
        lines = (tmp_path / "out" / "rates.csv").read_text().splitlines()
        assert lines[0] == "index,rate_bits_hz"
        assert len(lines) == 3
        assert "mean rate:" in capsys.readouterr().out

    def test_coverage(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            coverage={"x": [36.0, 38.0], "y": [46.0, 48.0], "step": 2.0, "z": 1.0},
            control={"strategy": "cophase"},
        )
        assert main(["coverage", "-c", str(cfg)]) == 0
        assert (tmp_path / "out" / "coverage.csv").exists()
        assert "grid 2x2" in capsys.readouterr().out

    def test_coverage_without_section(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        assert main(["coverage", "-c", str(cfg)]) == 2
        assert "coverage" in capsys.readouterr().err

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


class TestExitCodes:
    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["gen", "-c", str(tmp_path / "nope.json")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        assert main(["validate", "-c", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_unknown_key(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, typo=1)
        assert main(["validate", "-c", str(cfg)]) == 2
        assert "unknown keys" in capsys.readouterr().err

    def test_non_finite_number(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, tx_power_dbm=float("nan"))
        assert "NaN" in cfg.read_text()
        assert main(["rate", "-c", str(cfg)]) == 2
        assert "tx_power_dbm" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "over, key",
        [
            ({"scattering": {"spread_m": float("nan")}}, "scattering.spread_m"),
            ({"scattering": {"spread_m": "3"}}, "scattering.spread_m"),
            ({**SUB6, "sub6": {"delay_spread_s": float("nan")}}, "sub6.delay_spread_s"),
            ({**SUB6, "sub6": {"ray_az_spread_deg": float("inf")}}, "sub6.ray_az_spread_deg"),
            (inh_params(exponent_los=float("nan")), "params.InH_IndoorOffice.exponent_los"),
            (inh_params(exponent_los="abc"), "params.InH_IndoorOffice.exponent_los"),
            (inh_params(exponent_los=True), "params.InH_IndoorOffice.exponent_los"),
            (inh_params(anchor_hz=0), "params.InH_IndoorOffice: anchor_hz"),
            ({"bounds": [1, 2, 3]}, "bounds"),
            ({"bounds": [[75.0, 0.0], [0.0, 50.0], [0.0, 3.5]]}, "bounds must have min < max"),
            ({"cluster_density": -1}, "cluster_density"),
            ({"scattering": {"cluster_density": 0.5}}, "scattering: unknown fields ['cluster_density']"),
            ({"pattern_q": -1}, "pattern_q"),
            ({"tx_array": {"spacing_wavelengths": 0}}, "tx_array: spacing_wavelengths"),
            ({"scattering": {"retry_cap": 10**9}}, "scattering: retry_cap"),
            (
                {"coverage": {"x": [0.0, 1e6], "y": [0.0, 1e6], "step": 1e-3, "z": 1.0}},
                "coverage: 1000000002000000001 grid cells, over the limit of 1000000",
            ),
            ({"tx_power_dbm": 1e300}, "tx_power_dbm"),
            ({"noise_dbm": -1e300}, "tx_power_dbm"),
            ({**SUB6, "sub6": {"element_edge_m": 0.0}}, "sub6.element_edge_m"),
            ({**SUB6, "sub6": {"element_edge_m": 1.0}}, "sub6.element_edge_m"),
            ({**SUB6, "sub6": {"n_rays": 10**9}}, "sub6: n_clusters x n_rays = 15000000000 rays per hop"),
            ({**SUB6, "sub6": {"n_rays": 2**70}}, "over the limit of 10000"),
            ({**SUB6, "sub6": {"n_clusters": 10**7, "n_rays": 10**7}}, "over the limit of 10000"),
            ({"cluster_density": 1e12}, "cluster_density x scattering.max_subrays = 3e+13 rays per hop"),
            ({"cluster_density": 1e300}, "over the limit of 10000"),
            (
                {"scattering": {"max_subrays": 10**9}},
                "cluster_density x scattering.max_subrays = 1.8e+09 rays per hop, over the limit of 10000",
            ),
        ],
        ids=[
            "spread_nan", "spread_str", "delay_nan", "ray_az_inf", "exponent_nan",
            "exponent_str", "exponent_bool", "anchor_zero", "bounds_flat", "bounds_reversed",
            "density_negative", "scattering_density_unknown", "pattern_q_negative",
            "tx_spacing_zero", "retry_cap_over", "coverage_grid_over",
            "tx_power_overflow", "noise_overflow", "edge_zero", "edge_over_spacing",
            "sub6_rays_1e9", "sub6_rays_2pow70", "sub6_clusters_rays_1e7",
            "density_1e12", "density_1e300", "max_subrays_1e9",
        ],
    )
    def test_bad_section_field(self, tmp_path, capsys, over, key):
        cfg = write_cfg(tmp_path, **over)
        assert main(["rate", "-c", str(cfg)]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["realizations", "n", "nt", "nr"])
    def test_dimension_over_uint32(self, tmp_path, capsys, key):
        cfg = write_cfg(tmp_path, **{key: 2**32})
        assert main(["validate", "-c", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {key}: must be <= {2**32 - 1}")

    @pytest.mark.parametrize(
        "value", [5, None, True, "x\u0000y", ""], ids=["int", "null", "bool", "nul", "empty"]
    )
    def test_bad_out_dir(self, tmp_path, capsys, value):
        cfg = write_cfg(tmp_path, out_dir=value)
        assert main(["validate", "-c", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("config error: out_dir: ")

    @pytest.mark.parametrize(
        "flag, value, key", [("--out-dir", "", "out_dir"), ("--workers", "65", "workers")]
    )
    def test_bad_override(self, tmp_path, capsys, flag, value, key):
        cfg = write_cfg(tmp_path)
        assert main(["validate", "-c", str(cfg), flag, value]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {key}: ")

    def test_override_on_non_mapping_control(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, control=[["strategy", "off"]])
        assert main(["rate", "-c", str(cfg), "--strategy", "random"]) == 2
        assert "control: expected a mapping" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_runtime_failure(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            # a 2 m box holds no scatterer 5 m from both ends of a link
            bounds=[[0.0, 2.0], [0.0, 2.0], [0.0, 2.0]],
            tx=[0.1, 0.1, 0.1],
            ris=[1.6, 1.95, 1.6],
            rx=[1.2, 0.5, 0.4],
            scattering={"min_leg_m": 5.0},
        )
        assert main(["gen", "-c", str(cfg)]) == 3
        assert "error" in capsys.readouterr().err


class TestCloseInReference:
    """A link the band evaluates with the close-in law must span its 1 m
    reference distance; a shorter one is a config error (exit 2) before
    any work starts, and a coverage cell that makes one comes out NaN."""

    NEAR_RIS = [40.0, 49.5, 2.0]  # 0.5 m in front of the surface

    @pytest.mark.parametrize(
        "over, ends",
        [
            ({"rx": NEAR_RIS}, "ris and rx are 0.5 m apart"),
            ({**SUB6, "rx": [0.5, 25.0, 2.0]}, "tx and rx are 0.5 m apart"),
            ({**SUB6, "rx": NEAR_RIS, "sub6": {"g_mode": "far"}}, "ris and rx are 0.5 m apart"),
        ],
        ids=["mmwave_rx_near_ris", "sub6_rx_near_tx", "sub6_far_rx_near_ris"],
    )
    def test_short_link_rejected(self, tmp_path, capsys, over, ends):
        cfg = write_cfg(tmp_path, **over)
        for command in ("validate", "gen"):
            assert main([command, "-c", str(cfg)]) == 2
            err = capsys.readouterr().err
            assert ends in err and "close-in" in err
        assert not (tmp_path / "out").exists()

    def test_near_field_sub6_unaffected(self, tmp_path):
        # inside the 16x16 panel's Fraunhofer distance the surface -> Rx hop
        # is the near-field response, which no close-in law evaluates
        cfg = write_cfg(tmp_path, **SUB6, n=256, rx=self.NEAR_RIS)
        assert main(["gen", "-c", str(cfg)]) == 0
        assert read_metadata(tmp_path / "out" / "metadata.json")["files"]["G"]

    def test_coverage_cell_too_close_is_nan(self, tmp_path):
        def grid(y_max, name):
            cfg = write_cfg(
                tmp_path, name=f"{name}.json", out_dir=str(tmp_path / name),
                coverage={"x": [38.0, 40.0], "y": [45.5, y_max], "step": 2.0, "z": 2.0},
                control={"strategy": "cophase"},
            )
            assert main(["coverage", "-c", str(cfg)]) == 0
            rows = (tmp_path / name / "coverage.csv").read_text().splitlines()[1:]
            return {tuple(r.split(",")[:2]): float(r.split(",")[2]) for r in rows}

        full, without = grid(49.5, "full"), grid(47.5, "without")
        assert math.isnan(full.pop(("40", "49.5")))
        assert full.pop(("38", "49.5")) > 0.0
        assert full == without


class TestOverrides:
    def test_seed_and_out_dir(self, tmp_path):
        cfg = write_cfg(tmp_path)
        other = tmp_path / "elsewhere"
        assert main(["gen", "-c", str(cfg), "--seed", "11", "--out-dir", str(other)]) == 0
        assert read_metadata(other / "metadata.json")["seed"] == 11

    def test_realizations(self, tmp_path):
        cfg = write_cfg(tmp_path)
        assert main(["gen", "-c", str(cfg), "--realizations", "4"]) == 0
        assert read_tensor(tmp_path / "out" / "H.risch").shape[0] == 4

    def test_strategy_and_quant(self, tmp_path):
        cfg = write_cfg(tmp_path)
        rc = main(["rate", "-c", str(cfg), "--strategy", "random", "--quant-bits", "2"])
        assert rc == 0
        meta = read_metadata(tmp_path / "out" / "metadata.json")
        assert meta["strategy"] == "random" and meta["quant_bits"] == 2

    def test_csv_flag(self, tmp_path):
        cfg = write_cfg(tmp_path)
        assert main(["gen", "-c", str(cfg), "--csv"]) == 0
        assert (tmp_path / "out" / "H.csv").exists()

    def test_band_and_frequency(self, tmp_path):
        cfg = write_cfg(tmp_path)
        rc = main(["rate", "-c", str(cfg), "--band", "sub6", "--frequency-ghz", "3.5"])
        assert rc == 0
        assert read_metadata(tmp_path / "out" / "metadata.json")["band"] == "sub6"

    def test_workers_override_same_bytes(self, tmp_path):
        cfg = write_cfg(tmp_path)
        assert main(["gen", "-c", str(cfg)]) == 0
        h1 = (tmp_path / "out" / "H.risch").read_bytes()
        assert main(["gen", "-c", str(cfg), "--workers", "3"]) == 0
        assert (tmp_path / "out" / "H.risch").read_bytes() == h1


class TestParamsEnv:
    LOS_ON = {"tx_ris": "on", "ris_rx": "on", "tx_rx": "on"}

    def test_env_table_applies(self, tmp_path, monkeypatch, capsys):
        cfg = write_cfg(tmp_path, los=self.LOS_ON, control={"strategy": "cophase"})
        assert main(["rate", "-c", str(cfg)]) == 0
        base = (tmp_path / "out" / "rates.csv").read_text()

        params = tmp_path / "params.json"
        params.write_text(json.dumps({"InH_IndoorOffice": {"exponent_los": 9.9}}))
        monkeypatch.setenv(PARAMS_ENV, str(params))
        assert main(["rate", "-c", str(cfg)]) == 0
        lossy = (tmp_path / "out" / "rates.csv").read_text()

        assert base != lossy
        mean = lambda text: np.mean([float(l.split(",")[1]) for l in text.splitlines()[1:]])
        assert mean(lossy) < mean(base)

    def test_config_params_beat_env(self, tmp_path, monkeypatch):
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"InH_IndoorOffice": {"exponent_los": 9.9}}))
        monkeypatch.setenv(PARAMS_ENV, str(params))
        cfg = write_cfg(
            tmp_path,
            los=self.LOS_ON,
            params={"InH_IndoorOffice": {"exponent_los": 1.73}},
        )
        assert main(["rate", "-c", str(cfg)]) == 0
        meta = read_metadata(tmp_path / "out" / "metadata.json")
        assert meta["mean_rate_bits_hz"] > 1.0  # default exponent, healthy link

    def test_relative_params_path_is_beside_the_config(self, tmp_path, monkeypatch):
        """A relative ``params`` path in a config file names a file in the
        config file's directory, from any working directory; a relative
        ``RISCHAN_PARAMS`` path stays relative to the working directory."""
        cfgs = tmp_path / "cfgs"
        cfgs.mkdir()
        table = {"InH_IndoorOffice": {"exponent_los": 9.9}}
        (cfgs / "p.json").write_text(json.dumps(table))
        inline = write_cfg(cfgs, "inline.json", los=self.LOS_ON, params=table)
        assert main(["rate", "-c", str(inline)]) == 0
        expected = (cfgs / "out" / "rates.csv").read_text()
        by_path = write_cfg(cfgs, los=self.LOS_ON, params="p.json")
        for cwd in (tmp_path, cfgs):
            monkeypatch.chdir(cwd)
            assert main(["rate", "-c", str(by_path.relative_to(cwd))]) == 0
            assert (cfgs / "out" / "rates.csv").read_text() == expected
        plain = write_cfg(cfgs, "plain.json", los=self.LOS_ON)
        monkeypatch.setenv(PARAMS_ENV, "p.json")
        monkeypatch.chdir(tmp_path)
        assert main(["validate", "-c", str(plain)]) == 2
        monkeypatch.chdir(cfgs)
        assert main(["rate", "-c", str(plain)]) == 0
        assert (cfgs / "out" / "rates.csv").read_text() == expected

    def test_env_file_missing(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(PARAMS_ENV, str(tmp_path / "ghost.json"))
        cfg = write_cfg(tmp_path)
        assert main(["validate", "-c", str(cfg)]) == 2
        assert "params file" in capsys.readouterr().err
