"""Configuration loading, run execution, and coverage sweeps."""

import concurrent.futures
import json
import math
import os
import re
import gc
import itertools
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from rischan import engine, mmwave, scattering
from rischan.arrays import ArrayGeometry, ElementPattern
from rischan.engine import CoverageArea, coverage_run, load_config, run
from rischan.errors import ConfigError, GenerationError
from rischan.geometry import Point3
from rischan.control import achievable_rate, random_phases
from rischan.mmwave import compose_end_to_end, realize
from rischan.scene import Scene
from rischan.simio import MAX_DIM, file_digest, read_metadata, read_tensor
from rischan.streams import cell_seed, substream


SUB6 = {"band": "sub6", "frequency_ghz": 3.5}


def base_cfg(**over):
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


def run_cfg(tmp_path, **over):
    over.setdefault("realizations", 3)
    over.setdefault("seed", 7)
    over.setdefault("out_dir", str(tmp_path / "out"))
    return load_config(base_cfg(**over))


class TestLoadConfigDefaults:
    def test_defaults(self):
        cfg = load_config(base_cfg())
        assert cfg.band == "mmwave"
        assert cfg.seed == 1
        assert cfg.realizations == 1000
        assert cfg.strategy == "pinv_surrogate"
        assert cfg.quant_bits is None
        assert cfg.tx_power_dbm == 30.0 and cfg.noise_dbm == -100.0
        assert cfg.workers == 1
        assert cfg.out_dir == Path("out")
        assert cfg.write_channels and cfg.write_rates and not cfg.csv
        assert cfg.clustered is True
        assert cfg.coverage is None

    def test_scene_built(self):
        scene = load_config(base_cfg()).scene
        assert isinstance(scene, Scene)
        assert scene.n == 16 and scene.nt == 1 and scene.nr == 1
        assert scene.frequency_hz == 28e9
        assert scene.ris_geometry.orientation.facing == -1
        assert isinstance(scene.element_pattern, ElementPattern)
        # what the config leaves out comes from the model types' own defaults
        fields = Scene.__dataclass_fields__
        for name in ("los_tx_ris", "los_ris_rx", "los_tx_rx", "shadow_clustered", "shadow_los"):
            assert getattr(scene, name) == fields[name].default, name
        assert scene.element_pattern.q == ElementPattern().q
        spacing = ArrayGeometry(1).spacing_wavelengths
        for geometry in (scene.ris_geometry, scene.tx_geometry, scene.rx_geometry):
            assert geometry.spacing_wavelengths == spacing

    def test_from_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(base_cfg(seed=9)))
        assert load_config(path).seed == 9
        assert load_config(str(path)).seed == 9

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="config file"):
            load_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)

    def test_file_not_utf8(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_bytes(b'{"seed": "\xff"}')
        with pytest.raises(ConfigError, match="config file"):
            load_config(path)
        with pytest.raises(ConfigError, match="params file"):
            load_config(base_cfg(), default_params_path=str(path))

    def test_top_level_must_be_object(self):
        with pytest.raises(ConfigError, match="JSON object"):
            load_config([1, 2])

    def test_sha256_canonical(self, tmp_path):
        a = load_config(base_cfg())
        b = load_config(base_cfg())
        c = load_config(base_cfg(seed=2))
        assert a.config_sha256 == b.config_sha256
        assert a.config_sha256 != c.config_sha256
        # a table given by path enters the hash as its content, not its path
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"InH_IndoorOffice": {}}))
        before = load_config(base_cfg(params=str(path)))
        table = {"InH_IndoorOffice": {"exponent_nlos": 4.0}}
        path.write_text(json.dumps(table))
        after = load_config(base_cfg(params=str(path)))
        assert before.scene.environment.path_loss.exponent_nlos == 3.19
        assert after.scene.environment.path_loss.exponent_nlos == 4.0
        assert before.config_sha256 != after.config_sha256
        assert load_config(base_cfg(params=table)).config_sha256 == after.config_sha256
        default = load_config(base_cfg(), default_params_path=str(path))
        assert default.config_sha256 != a.config_sha256
        assert default.config_sha256 == after.config_sha256


class TestLoadConfigValidation:
    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown keys.*typo"):
            load_config(base_cfg(typo=1))

    def test_empty_out_dir(self):
        with pytest.raises(ConfigError, match="out_dir: expected a non-empty path"):
            load_config(base_cfg(out_dir=""))
        assert load_config(base_cfg(out_dir=".")).out_dir == Path(".")

    def test_workers_capped(self):
        # validity is checked without starting a run at either value
        assert load_config(base_cfg(workers=64)).workers == 64
        with pytest.raises(ConfigError, match="workers: must be <= 64, got 65"):
            load_config(base_cfg(workers=65))

    @pytest.mark.parametrize("key", ["environment", "frequency_ghz", "tx", "rx", "ris"])
    def test_required(self, key):
        cfg = base_cfg()
        del cfg[key]
        with pytest.raises(ConfigError, match=key):
            load_config(cfg)

    def test_bad_environment(self):
        with pytest.raises(ConfigError, match="environment"):
            load_config(base_cfg(environment="Mars_Crater"))

    def test_bad_band(self):
        with pytest.raises(ConfigError, match="band"):
            load_config(base_cfg(band="thz"))

    def test_bad_point(self):
        with pytest.raises(ConfigError, match="tx"):
            load_config(base_cfg(tx=[1.0, 2.0]))
        with pytest.raises(ConfigError, match=r"tx\[2\]"):
            load_config(base_cfg(tx=[1.0, 2.0, "high"]))

    @pytest.mark.parametrize(
        "over, key",
        [
            ({"tx_power_dbm": math.nan}, "tx_power_dbm"),
            ({"spacing_wavelengths": math.inf}, "spacing_wavelengths"),
            (
                {"coverage": {"x": [36.0, 40.0], "y": [46.0, 48.0], "step": math.nan, "z": 1.0}},
                "coverage.step",
            ),
            ({"rx": [math.nan, 48.0, 1.0]}, r"rx\[0\]"),
            ({"frequency_ghz": 10**400}, "frequency_ghz"),
        ],
        ids=["tx_power_nan", "spacing_inf", "coverage_step_nan", "rx_nan", "frequency_int_overflow"],
    )
    def test_non_finite_number(self, over, key):
        with pytest.raises(ConfigError, match=key + ": expected a finite number"):
            load_config(base_cfg(**over))

    @pytest.mark.parametrize(
        "over, message",
        [
            ({"scattering": {"spread_m": math.nan}}, "scattering.spread_m: expected a finite"),
            ({"scattering": {"spread_m": "3"}}, "scattering.spread_m: expected a number"),
            ({"scattering": {"max_subrays": 5.0}}, "scattering.max_subrays: expected an integer"),
            ({**SUB6, "sub6": {"delay_spread_s": math.nan}}, "sub6.delay_spread_s: expected a finite"),
            ({**SUB6, "sub6": {"ray_az_spread_deg": math.inf}}, "sub6.ray_az_spread_deg: expected a finite"),
            ({**SUB6, "sub6": {"n_rays": "20"}}, "sub6.n_rays: expected an integer"),
            ({"params": [1]}, "params: expected a mapping"),
            ({"los": None}, "los: expected a mapping"),
            ({"tx_array": {"facing": True}}, "tx_array.facing: expected 1 or -1"),
            ({"ris_facing": True}, "ris_facing: expected 1 or -1"),
            ({"scattering": {"retry_cap": 10_001}}, r"retry_cap must be in \[1, 10000\]"),
            ({"scattering": {"at_least_one": 1}}, "scattering.at_least_one: expected true/false"),
            ({"ris": []}, r"ris: expected \[x, y, z\] or a list of positions"),
            ({"n": None}, "ris_shape: give n or an explicit shape"),
        ],
        ids=[
            "spread_nan", "spread_str", "subrays_float", "delay_nan", "ray_az_inf", "rays_str",
            "params_list", "los_null", "tx_facing_bool", "ris_facing_bool", "retry_cap_over",
            "at_least_one_int", "ris_empty", "no_n_no_shape",
        ],
    )
    def test_section_field_types(self, over, message):
        with pytest.raises(ConfigError, match=message):
            load_config(base_cfg(**over))

    def test_snr_and_element_edge_limits(self):
        """rho = 10^((tx - noise)/10) must be a finite float (the rate raised
        OverflowError at run time), and the sub-6 aperture edge must lie in
        (0, spacing], 0.0428 m at 3.5 GHz."""
        for tx, noise in [(1e300, -100.0), (30.0, -1e300), (1e308, -1e308), (3100.0, 0.0)]:
            with pytest.raises(ConfigError, match="tx_power_dbm: .*beyond the float range"):
                load_config(base_cfg(tx_power_dbm=tx, noise_dbm=noise))
        load_config(base_cfg(tx_power_dbm=3000.0, noise_dbm=0.0))  # 10^300 is fine
        for edge in (0.0, -0.01, 0.05):
            with pytest.raises(ConfigError, match="sub6.element_edge_m: edge_m"):
                load_config(base_cfg(**SUB6, sub6={"element_edge_m": edge}))
        assert load_config(base_cfg(**SUB6, sub6={"element_edge_m": 0.04})).sub6_edge_m == 0.04

    @pytest.mark.parametrize(
        "over, key",
        [
            ({"realizations": MAX_DIM + 1}, "realizations"),
            ({"n": 2**32}, "n"),
            ({"ris": [[40.0, 50.0, 2.0], [30.0, 50.0, 2.0]], "n": [16, 2**32]}, "n[1]"),
            ({"n": None, "ris_shape": [2**16, 2**16]}, "ris_shape"),
            ({"nt": MAX_DIM + 1}, "nt"),
            ({"nr": 2**40}, "nr"),
            ({"tx_array": {"n": 2**32}}, "tx_array.n"),
            ({"rx_array": {"shape": [2**20, 2**12]}}, "rx_array.shape"),
        ],
    )
    def test_dimension_limit(self, over, key):
        """Every tensor dimension must fit the uint32 of a RISCH1 header."""
        with pytest.raises(ConfigError, match=rf"^{re.escape(key)}: .*{MAX_DIM}"):
            load_config(base_cfg(**over))

    def test_dimension_limit_is_inclusive(self):
        assert load_config(base_cfg(realizations=MAX_DIM)).realizations == MAX_DIM
        assert load_config(base_cfg(nt=MAX_DIM)).scene.nt == MAX_DIM

    def test_null_terminal_array_is_default(self):
        scene = load_config(base_cfg(tx_array=None, scattering={"retry_cap": 10_000})).scene
        assert scene.nt == 1 and scene.scattering.retry_cap == 10_000

    def test_n_not_square(self):
        with pytest.raises(ConfigError, match="perfect square"):
            load_config(base_cfg(n=12))

    def test_explicit_shape(self):
        scene = load_config(base_cfg(n=12, ris_shape=[6, 2])).scene
        assert (scene.ris_geometry.n_h, scene.ris_geometry.n_v) == (6, 2)

    def test_shape_conflicts_n(self):
        with pytest.raises(ConfigError, match="ris_shape"):
            load_config(base_cfg(n=16, ris_shape=[5, 2]))

    def test_nt_and_tx_array_conflict(self):
        with pytest.raises(ConfigError, match="not both"):
            load_config(base_cfg(nt=2, tx_array={"n": 4}))

    def test_nt_shorthand(self):
        cfg = load_config(base_cfg(nt=3, nr=2))
        assert cfg.scene.nt == 3 and cfg.scene.nr == 2

    def test_terminal_array_mapping(self):
        cfg = load_config(base_cfg(rx_array={"shape": [2, 2], "wall": "xz", "facing": -1}))
        geom = cfg.scene.rx_geometry
        assert geom.size == 4 and geom.orientation.facing == -1

    def test_terminal_array_unknown_field(self):
        with pytest.raises(ConfigError, match="tx_array"):
            load_config(base_cfg(tx_array={"rows": 2}))

    def test_los_validation(self):
        with pytest.raises(ConfigError, match="los"):
            load_config(base_cfg(los={"tx_moon": "on"}))
        with pytest.raises(ConfigError, match="los.tx_ris"):
            load_config(base_cfg(los={"tx_ris": "sometimes"}))
        scene = load_config(base_cfg(los={"tx_rx": "off"})).scene
        assert scene.los_tx_rx == "off"

    def test_shadowing_validation(self):
        with pytest.raises(ConfigError, match="shadowing"):
            load_config(base_cfg(shadowing={"heavy": True}))
        scene = load_config(base_cfg(shadowing={"clustered": False, "los": True})).scene
        assert scene.shadow_clustered is False and scene.shadow_los is True

    def test_control_validation(self):
        with pytest.raises(ConfigError, match="control.strategy"):
            load_config(base_cfg(control={"strategy": "telepathy"}))
        with pytest.raises(ConfigError, match="quant_bits"):
            load_config(base_cfg(control={"quant_bits": 0}))
        cfg = load_config(base_cfg(control={"strategy": "random", "quant_bits": 3}))
        assert cfg.strategy == "random" and cfg.quant_bits == 3

    def test_scattering_passthrough(self):
        cfg = load_config(base_cfg(scattering={"max_subrays": 5, "min_leg_m": 2.0}))
        assert cfg.scene.scattering.max_subrays == 5
        with pytest.raises(ConfigError, match="scattering"):
            load_config(base_cfg(scattering={"max_subrays": 0}))
        with pytest.raises(ConfigError, match="scattering"):
            load_config(base_cfg(scattering={"blobs": 1}))

    def test_bounds_override(self):
        cfg = load_config(base_cfg(bounds=[[0, 10], [0, 12], [0, 3]]))
        assert cfg.scene.environment.bounds == ((0.0, 10.0), (0.0, 12.0), (0.0, 3.0))
        with pytest.raises(ConfigError, match="bounds"):
            load_config(base_cfg(bounds=[[0, 10], [0, 12]]))

    def test_cluster_density_override(self):
        cfg = load_config(base_cfg(cluster_density=0.5))
        assert cfg.scene.environment.cluster_density == 0.5

    def test_pattern_q(self):
        assert load_config(base_cfg(pattern_q=None)).scene.element_pattern is None
        assert load_config(base_cfg(pattern_q=2.0)).scene.element_pattern.q == 2.0

    def test_spacing_validation(self):
        with pytest.raises(ConfigError, match="spacing"):
            load_config(base_cfg(spacing_wavelengths=0.0))

    def test_seed_and_realizations(self):
        with pytest.raises(ConfigError, match="seed"):
            load_config(base_cfg(seed=-1))
        with pytest.raises(ConfigError, match="realizations"):
            load_config(base_cfg(realizations=0))
        with pytest.raises(ConfigError, match="seed"):
            load_config(base_cfg(seed=1.5))

    def test_cophase_needs_siso(self):
        with pytest.raises(ConfigError, match="cophase"):
            load_config(base_cfg(nt=2, control={"strategy": "cophase"}))

    def test_sub6_needs_siso(self):
        with pytest.raises(ConfigError, match="sub6"):
            load_config(base_cfg(band="sub6", frequency_ghz=3.5, nr=2))

    def test_sub6_section(self):
        cfg = load_config(
            base_cfg(band="sub6", frequency_ghz=3.5, sub6={"n_clusters": 5, "g_mode": "far"})
        )
        assert cfg.sub6_params.n_clusters == 5 and cfg.sub6_g_mode == "far"
        with pytest.raises(ConfigError, match="sub6"):
            load_config(base_cfg(sub6={"delay_scaling": 0.5}))
        with pytest.raises(ConfigError, match="sub6"):
            load_config(base_cfg(sub6={"rays": 3}))


class TestLoadConfigMulti:
    def multi_cfg(self, **over):
        cfg = base_cfg(
            ris=[[40.0, 50.0, 2.0], [60.0, 40.0, 2.5]],
            rx=[55.0, 35.0, 1.0],
            ris_facing=[-1, -1],
        )
        cfg.update(over)
        return cfg

    def test_two_panels(self):
        scene = load_config(self.multi_cfg()).scene
        assert isinstance(scene, Scene)
        assert len(scene.panel_scenes) == 2
        assert scene.ris == scene.panel_scenes[0].ris
        assert scene.extra_panels[0].position == scene.panel_scenes[1].ris
        assert all(view.n == 16 for view in scene.panel_scenes)

    def test_per_panel_n(self):
        scene = load_config(self.multi_cfg(n=[16, 64])).scene
        assert [view.n for view in scene.panel_scenes] == [16, 64]
        with pytest.raises(ConfigError, match="n:"):
            load_config(self.multi_cfg(n=[16, 64, 4]))

    def test_per_panel_wall_facing_lengths(self):
        with pytest.raises(ConfigError, match="ris_wall"):
            load_config(self.multi_cfg(ris_wall=["xz"]))
        with pytest.raises(ConfigError, match="ris_facing"):
            load_config(self.multi_cfg(ris_facing=[-1]))

    def test_per_panel_shape_and_entry_keys(self):
        scene = load_config(self.multi_cfg(ris_shape=[[4, 4], [8, 2]])).scene
        shapes = [(v.ris_geometry.n_h, v.ris_geometry.n_v) for v in scene.panel_scenes]
        assert shapes == [(4, 4), (8, 2)]
        with pytest.raises(ConfigError, match=r"n\[1\]"):
            load_config(self.multi_cfg(n=[16, 0]))
        with pytest.raises(ConfigError, match=r"ris_wall\[0\]"):
            load_config(self.multi_cfg(ris_wall=["floor", "xz"]))

    def test_multi_rejects_sub6(self):
        with pytest.raises(ConfigError, match="mmwave"):
            load_config(self.multi_cfg(band="sub6", frequency_ghz=3.5))

    def test_multi_rejects_share(self):
        with pytest.raises(ConfigError, match="share_direct_clusters"):
            load_config(self.multi_cfg(share_direct_clusters=True))


class TestParamsTable:
    TABLE = {"InH_IndoorOffice": {"exponent_los": 2.5}}

    def test_inline_params(self):
        cfg = load_config(base_cfg(params=self.TABLE))
        assert cfg.scene.environment.path_loss.exponent_los == 2.5

    def test_default_path_applies(self, tmp_path):
        path = tmp_path / "params.json"
        path.write_text(json.dumps(self.TABLE))
        cfg = load_config(base_cfg(), default_params_path=str(path))
        assert cfg.scene.environment.path_loss.exponent_los == 2.5

    def test_inline_beats_default_path(self, tmp_path):
        path = tmp_path / "params.json"
        path.write_text(json.dumps({"InH_IndoorOffice": {"exponent_los": 9.9}}))
        cfg = load_config(base_cfg(params=self.TABLE), default_params_path=str(path))
        assert cfg.scene.environment.path_loss.exponent_los == 2.5

    def test_relative_path_in_a_mapping_is_from_the_working_directory(self, tmp_path, monkeypatch):
        (tmp_path / "p.json").write_text(json.dumps(self.TABLE))
        monkeypatch.chdir(tmp_path)
        cfg = load_config(base_cfg(params="p.json"))
        assert cfg.scene.environment.path_loss.exponent_los == 2.5

    def test_other_environment_ignored(self):
        cfg = load_config(base_cfg(params={"UMi_StreetCanyon": {"exponent_los": 2.5}}))
        assert cfg.scene.environment.path_loss.exponent_los == 1.73

    def test_unknown_environment(self):
        with pytest.raises(ConfigError, match="params"):
            load_config(base_cfg(params={"Mars_Crater": {}}))


class TestCoverageConfig:
    def cov_cfg(self, **cov):
        section = {"x": [36.0, 40.0], "y": [46.0, 48.0], "step": 2.0, "z": 1.0}
        section.update(cov)
        return base_cfg(coverage=section)

    def test_parsed(self):
        area = load_config(self.cov_cfg()).coverage
        assert area.x_range == (36.0, 40.0)
        np.testing.assert_allclose(area.xs, [36.0, 38.0, 40.0])
        np.testing.assert_allclose(area.ys, [46.0, 48.0])

    def test_validation(self):
        with pytest.raises(ConfigError, match="coverage.step"):
            load_config(self.cov_cfg(step=0.0))
        with pytest.raises(ConfigError, match="coverage.x"):
            load_config(self.cov_cfg(x=[1.0]))
        with pytest.raises(ConfigError, match="min <= max"):
            load_config(self.cov_cfg(x=[40.0, 36.0]))
        with pytest.raises(ConfigError, match="coverage"):
            load_config(self.cov_cfg(radius=3))
        cfg = self.cov_cfg()
        del cfg["coverage"]["step"]
        with pytest.raises(ConfigError, match="step"):
            load_config(cfg)

    def test_grid_cell_limit(self):
        # 1000 x 1000 points is exactly the limit; no axis is allocated here
        assert load_config(self.cov_cfg(x=[0.0, 999.0], y=[0.0, 999.0], step=1.0)).coverage
        with pytest.raises(ConfigError, match="1001000 grid cells, over the limit of 1000000"):
            load_config(self.cov_cfg(x=[0.0, 1000.0], y=[0.0, 999.0], step=1.0))
        with pytest.raises(ConfigError, match="inf grid cells"):
            load_config(self.cov_cfg(x=[-1e308, 1e308], y=[0.0, 1.0], step=1.0))

    def test_axis_endpoint_inclusive(self):
        area = CoverageArea((0.0, 1.0), (0.0, 0.0), 0.1, 1.5)
        assert area.xs.size == 11
        assert area.xs[-1] == pytest.approx(1.0)
        assert area.ys.size == 1


class TestRun:
    def test_outputs(self, tmp_path):
        cfg = run_cfg(tmp_path)
        result = run(cfg)
        out = cfg.out_dir
        for name, dims in (("H", (3, 16, 1)), ("G", (3, 1, 16)), ("D", (3, 1, 1))):
            path = out / f"{name}.risch"
            assert result.files[name] == path
            assert read_tensor(path).shape == dims
            assert result.digests[name] == file_digest(path)
        assert (out / "rates.csv").exists()
        meta = read_metadata(out / "metadata.json")
        assert meta["format"] == "RISCH1"
        assert meta["seed"] == 7 and meta["realizations"] == 3
        assert meta["files"]["H"]["dims"] == [3, 16, 1]
        assert meta["files"]["H"]["sha256"] == result.digests["H"]
        assert meta["mean_rate_bits_hz"] == pytest.approx(result.rates.mean())
        assert np.all(result.rates > 0.0) and result.rates.shape == (3,)

    def test_rates_csv_content(self, tmp_path):
        cfg = run_cfg(tmp_path)
        result = run(cfg)
        lines = (cfg.out_dir / "rates.csv").read_text().splitlines()
        assert lines[0] == "index,rate_bits_hz"
        assert len(lines) == 4
        for i, line in enumerate(lines[1:]):
            idx, rate = line.split(",")
            assert int(idx) == i
            assert float(rate) == pytest.approx(result.rates[i], rel=1e-10)

    def test_rerun_byte_identical(self, tmp_path):
        r1 = run(run_cfg(tmp_path))
        r2 = run(run_cfg(tmp_path))
        assert r1.digests == r2.digests
        assert r1.metadata == r2.metadata

    def test_worker_count_invisible(self, tmp_path):
        r1 = run(run_cfg(tmp_path, realizations=6, workers=1))
        r2 = run(run_cfg(tmp_path, realizations=6, workers=4))
        assert r1.digests == r2.digests

    def test_csv_mirrors(self, tmp_path):
        result = run(run_cfg(tmp_path, csv=True))
        assert "H_csv" in result.files and result.files["H_csv"].exists()

    def test_sidecar_lists_every_file(self, tmp_path):
        """The sidecar holds the digest of every file a run writes, the CSV
        mirrors included, and each re-hashes to it."""
        cfg = run_cfg(tmp_path, csv=True)
        result = run(cfg)
        files = read_metadata(cfg.out_dir / "metadata.json")["files"]
        assert {key: entry["sha256"] for key, entry in files.items()} == result.digests
        assert sorted(files) == ["D", "D_csv", "G", "G_csv", "H", "H_csv", "rates"]
        for entry in files.values():
            assert file_digest(cfg.out_dir / entry["file"]) == entry["sha256"]
        assert files["H_csv"] == {"file": "H.csv", "sha256": result.digests["H_csv"]}

    def test_write_flags(self, tmp_path):
        cfg = run_cfg(tmp_path, write_channels=False)
        result = run(cfg)
        assert "H" not in result.files
        assert not (cfg.out_dir / "H.risch").exists()
        assert (cfg.out_dir / "rates.csv").exists()
        cfg2 = run_cfg(tmp_path, write_rates=False, out_dir=str(tmp_path / "out2"))
        run(cfg2)
        assert not (cfg2.out_dir / "rates.csv").exists()

    @pytest.mark.parametrize("strategy", ["cophase", "pinv_surrogate", "random", "off"])
    def test_strategies_run(self, tmp_path, strategy):
        result = run(run_cfg(tmp_path, control={"strategy": strategy}, write_channels=False))
        assert np.all(np.isfinite(result.rates))

    def test_random_phases_follow_the_realization_index(self, tmp_path):
        """Under the ``random`` strategy, realization i is rated with the
        phases of its own stream ``("phases", panel, i)``."""
        cfg = run_cfg(tmp_path, realizations=4, control={"strategy": "random"})
        expected = []
        for i in range(cfg.realizations):
            real = realize(cfg.scene, cfg.seed, i)
            phases = random_phases(real.H.shape[0], substream(cfg.seed, "phases", 0, i))
            composed = compose_end_to_end(real, phases)
            expected.append(achievable_rate(composed, cfg.tx_power_dbm, cfg.noise_dbm).rate_bits_hz)
        np.testing.assert_array_equal(run(cfg).rates, expected)

    def test_cophase_beats_off(self, tmp_path):
        on = run(run_cfg(tmp_path, control={"strategy": "cophase"}, write_channels=False))
        off = run(run_cfg(tmp_path, control={"strategy": "off"}, write_channels=False))
        assert on.rates.mean() > off.rates.mean()

    def test_quantizer_changes_rates(self, tmp_path):
        fine = run(run_cfg(tmp_path, control={"strategy": "cophase"}, write_channels=False))
        coarse = run(
            run_cfg(
                tmp_path, control={"strategy": "cophase", "quant_bits": 1}, write_channels=False
            )
        )
        assert not np.array_equal(fine.rates, coarse.rates)
        assert coarse.rates.mean() < fine.rates.mean()

    def test_sub6_band(self, tmp_path):
        result = run(run_cfg(tmp_path, band="sub6", frequency_ghz=3.5))
        assert np.all(result.rates > 0.0)
        assert read_tensor(run_cfg(tmp_path).out_dir / "H.risch").shape == (3, 16, 1)

    def test_multi_outputs(self, tmp_path):
        cfg = run_cfg(
            tmp_path,
            ris=[[40.0, 50.0, 2.0], [60.0, 40.0, 2.5]],
            rx=[55.0, 35.0, 1.0],
            ris_facing=[-1, -1],
        )
        result = run(cfg)
        for name in ("H0", "G0", "H1", "G1", "D"):
            assert result.files[name].exists()
        assert read_tensor(cfg.out_dir / "H1.risch").shape == (3, 16, 1)

    def test_generation_failure_propagates(self, tmp_path):
        cfg = run_cfg(
            tmp_path,
            # a 2 m box holds no scatterer 5 m from both ends of a link
            bounds=[[0.0, 2.0], [0.0, 2.0], [0.0, 2.0]],
            tx=[0.1, 0.1, 0.1],
            ris=[1.6, 1.95, 1.6],
            rx=[1.2, 0.5, 0.4],
            scattering={"min_leg_m": 5.0},
        )
        with pytest.raises(GenerationError, match="inadmissible"):
            run(cfg)


def draw_bytes(cfg) -> int:
    """Channel tensor payload of one realization of ``cfg``."""
    return 16 * sum(rows * cols for rows, cols in engine._tensor_dims(cfg).values())


def dir_bytes(path: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


TWO_PANEL_MIMO = dict(
    environment="UMi_StreetCanyon",
    tx=[0.0, 40.0, 10.0],
    rx=[60.0, 30.0, 1.5],
    ris=[[80.0, 0.0, 12.0], [40.0, 0.0, 12.0]],
    ris_facing=1,
    nt=4,
    nr=4,
)


class TestStreamingRun:
    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize(
        "over", [{"csv": True, "control": {"strategy": "cophase"}}, TWO_PANEL_MIMO],
        ids=["siso_csv", "mimo_two_panel"],
    )
    def test_chunk_size_invisible(self, tmp_path, monkeypatch, over, workers):
        """Chunks of 1 draw, 7 draws and the whole run, each assembled in
        stage-2 passes of 1 ray (one record a pass), 300 rays (a few) and
        without bound, and placed in stage-1 lockstep groups of 1 ray (one
        realization a group) and without bound, write identical files."""
        cfg = run_cfg(tmp_path, realizations=17, workers=workers, **over)
        outputs = []
        for draws, rays, group in itertools.product((1, 7, None), (1, 300, 2**62), (1, 2**62)):
            chunk = 2**62 if draws is None else draws * draw_bytes(cfg)
            monkeypatch.setattr(engine, "_CHUNK_BYTES", chunk)
            monkeypatch.setattr(mmwave, "_PASS_RAYS", rays)
            monkeypatch.setattr(scattering, "_GROUP_RAYS", group)
            result = run(cfg)
            outputs.append(dir_bytes(cfg.out_dir))
        assert all(out == outputs[0] for out in outputs[1:])
        assert not any(name.endswith(".part") for name in outputs[0])
        for name, entry in result.metadata["files"].items():
            if "dims" in entry:
                assert list(read_tensor(result.files[name]).shape) == entry["dims"]

    def test_memory_flat_in_realizations(self, tmp_path, monkeypatch):
        """From 40 to 400 draws, the traced peak of the chunk loop grows by
        no more than the rate vector (8 B a draw) and a fixed slack.

        The generator's own working set varies from draw to draw, so its
        peak over 400 draws exceeds that over 40; a realization source that
        returns fresh copies of one realization isolates what run() itself
        holds. CPython keeps freed tuples in free lists of up to 2000 per
        size, and a tuple built from a generator (resized from its first
        guess) joins another size's list, so such lists can grow chunk by
        chunk up to that cap; a full collection before each chunk empties
        them, so the peak does not depend on how a record's tuples are built.
        The interpreter's method cache likewise keeps some of the strings
        that opening a text file makes (up to a few kB, at random), until
        the cache is cleared, which is also done before each chunk. The
        peak is read when the first output file is hashed: that ends the
        chunk loop, and leaves out the digest's own read buffer (256 KiB,
        the same at any realization count)."""
        cfg = run_cfg(tmp_path, n=256, control={"strategy": "cophase"})
        real = engine._realizations(cfg, cfg.scene, cfg.seed, range(1))[0]

        def fresh_copies(config, scene, seed_val, indices):
            gc.collect()
            sys._clear_type_cache()
            return [
                replace(real, hops=tuple((h.copy(), g.copy()) for h, g in real.hops), D=real.D.copy(), index=i)
                for i in indices
            ]

        def loop_peak(count):
            peak = []

            def digest(path):
                if not peak:
                    peak.append(tracemalloc.get_traced_memory()[1])
                return file_digest(path)

            with monkeypatch.context() as patch:
                patch.setattr(engine, "file_digest", digest)
                tracemalloc.start()
                try:
                    run(replace(cfg, realizations=count))
                finally:
                    tracemalloc.stop()
            return peak[0]

        monkeypatch.setattr(engine, "_realizations", fresh_copies)
        monkeypatch.setattr(engine, "_CHUNK_BYTES", 3 * draw_bytes(cfg))
        run(cfg)
        small, large = loop_peak(40), loop_peak(400)
        slack = 1024  # bytes: what else may differ between the two runs
        assert large - small <= 8 * (400 - 40) + slack, (small, large)

    @pytest.mark.parametrize("entry", ["run", "coverage_run"])
    def test_failed_run_leaves_nothing_complete(self, tmp_path, monkeypatch, entry):
        """A draw that fails after the first chunk is appended (run: in the
        third chunk of two draws; coverage: in the second grid column)
        leaves no ``.part`` file, and over the outputs of a completed run it
        changes no byte."""
        cov = {"x": [36.0, 40.0], "y": [46.0, 48.0], "step": 2.0, "z": 1.0}
        cfg = run_cfg(tmp_path, realizations=9, csv=True, coverage=cov)
        monkeypatch.setattr(engine, "_CHUNK_BYTES", 2 * draw_bytes(cfg))
        original, seen = engine._realizations, []

        def failing(config, scene, seed_val, indices):
            bad_seed, bad_index = (config.seed, 5) if entry == "run" else (cell_seed(config.seed, 1, 0), 0)
            if seed_val == bad_seed and bad_index in indices:
                seen.append(sorted(p.name for p in config.out_dir.iterdir()))
                raise GenerationError("injected failure")
            return original(config, scene, seed_val, indices)

        monkeypatch.setattr(engine, "_realizations", failing)
        with pytest.raises(GenerationError, match="injected"):
            getattr(engine, entry)(cfg)
        assert list(cfg.out_dir.iterdir()) == []
        part = "rates.csv.part" if entry == "run" else "coverage.csv.part"
        assert part in seen[0]  # an earlier chunk was appended
        monkeypatch.setattr(engine, "_realizations", original)
        getattr(engine, entry)(cfg)
        before = dir_bytes(cfg.out_dir)
        monkeypatch.setattr(engine, "_realizations", failing)
        with pytest.raises(GenerationError, match="injected"):
            getattr(engine, entry)(replace(cfg, seed=8))
        assert dir_bytes(cfg.out_dir) == before
        assert len(seen) == 2


@pytest.mark.parametrize("entry", ["run", "coverage_run"])
@pytest.mark.parametrize("stage", ["file_digest", "write_metadata"])
def test_failure_leaves_no_part_file(tmp_path, monkeypatch, entry, stage):
    """A failure while the outputs are hashed, or while the sidecar is
    written (here after its first byte), removes the ``.part`` files in both
    entry points; over the outputs of a completed run it changes no byte."""
    cov = {"x": [36.0, 38.0], "y": [46.0, 46.0], "step": 2.0, "z": 1.0}
    cfg = run_cfg(tmp_path, n=4, realizations=2, coverage=cov, csv=True)

    def failing(path, *args):
        Path(path).write_text("{")
        raise OSError("injected failure")

    monkeypatch.setattr(engine, stage, failing)
    with pytest.raises(OSError, match="injected"):
        getattr(engine, entry)(cfg)
    names = [p.name for p in cfg.out_dir.iterdir()]
    assert not any(name.endswith(".part") for name in names)
    assert "metadata.json" not in names
    if stage == "file_digest":
        assert names == []
    monkeypatch.undo()
    getattr(engine, entry)(cfg)
    before = dir_bytes(cfg.out_dir)
    monkeypatch.setattr(engine, stage, failing)
    with pytest.raises(OSError, match="injected"):
        getattr(engine, entry)(replace(cfg, seed=8))
    assert dir_bytes(cfg.out_dir) == before


def test_failed_rename_leaves_no_sidecar_and_no_part_file(tmp_path, monkeypatch):
    """Publishing removes each old output just before its new file takes
    its name; a rename that fails after that removal leaves no
    ``metadata.json`` and no ``.part`` file, the outputs renamed before it
    new and the ones after it old."""
    cfg = run_cfg(tmp_path, n=4, realizations=2)
    run(cfg)
    before = dir_bytes(cfg.out_dir)
    renamed, original = [], os.replace

    def failing(src, dst):
        assert not Path(dst).exists()  # the old output is already gone
        if Path(dst).name == "G.risch":
            raise OSError("injected failure")
        renamed.append(Path(dst).name)
        original(src, dst)

    monkeypatch.setattr(engine.os, "replace", failing)
    with pytest.raises(OSError, match="injected"):
        run(replace(cfg, seed=8))
    after = dir_bytes(cfg.out_dir)
    assert renamed == ["H.risch"]
    assert sorted(after) == ["D.risch", "H.risch", "rates.csv"]
    assert after["H.risch"] != before["H.risch"]
    assert after["D.risch"] == before["D.risch"] and after["rates.csv"] == before["rates.csv"]


def test_import_stays_light():
    """``import rischan`` leaves out what only a draw or a threaded run needs,
    which keeps the set-up time of a run short."""
    code = (
        "import sys, rischan; "
        "print([m for m in ('numpy.random', 'concurrent.futures') if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(Path(engine.__file__).parents[1])},
    )
    assert out.stdout.strip() == "[]"


class TestCoverageRun:
    def cov_cfg(self, tmp_path, **over):
        over.setdefault(
            "coverage", {"x": [36.0, 40.0], "y": [46.0, 48.0], "step": 2.0, "z": 1.0}
        )
        over.setdefault("n", 4)
        over.setdefault("realizations", 2)
        over.setdefault("control", {"strategy": "cophase"})
        return run_cfg(tmp_path, **over)

    def test_grid_and_files(self, tmp_path):
        cfg = self.cov_cfg(tmp_path)
        result = coverage_run(cfg)
        assert result.rates.shape == (3, 2)
        assert np.all(np.isfinite(result.rates))
        assert np.all(result.rates > 0.0)
        lines = (cfg.out_dir / "coverage.csv").read_text().splitlines()
        assert lines[0] == "x,y,mean_rate_bits_hz"
        assert len(lines) == 1 + 6
        x, y, rate = lines[1].split(",")
        assert (float(x), float(y)) == (36.0, 46.0)
        assert float(rate) == pytest.approx(result.rates[0, 0], rel=1e-10)
        meta = read_metadata(cfg.out_dir / "metadata.json")
        assert meta["grid"] == {"nx": 3, "ny": 2, "z": 1.0, "step": 2.0}
        assert meta["files"]["coverage"]["sha256"] == result.digests["coverage"]

    def test_worker_invariance(self, tmp_path):
        r1 = coverage_run(self.cov_cfg(tmp_path, workers=1))
        r2 = coverage_run(self.cov_cfg(tmp_path, workers=3))
        assert r1.digests == r2.digests

    def test_one_cell_columns_start_no_pool(self, tmp_path, monkeypatch):
        """A 14x1 grid (one cell a column, so one cell a chunk) at two
        workers writes the bytes of one worker and constructs no pool."""
        cov = {"x": [27.0, 40.0], "y": [46.0, 46.0], "step": 1.0, "z": 1.0}
        serial = coverage_run(self.cov_cfg(tmp_path, coverage=cov, out_dir=str(tmp_path / "w1")))

        def no_pool(*args, **kwargs):
            raise AssertionError("a one-cell chunk started a thread pool")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        pooled = coverage_run(self.cov_cfg(tmp_path, coverage=cov, workers=2, out_dir=str(tmp_path / "w2")))
        assert pooled.rates.shape == (14, 1)
        assert pooled.digests == serial.digests

    def test_rerun_identical(self, tmp_path):
        r1 = coverage_run(self.cov_cfg(tmp_path))
        r2 = coverage_run(self.cov_cfg(tmp_path))
        assert r1.digests == r2.digests

    def test_publish_never_pairs_new_csv_with_old_sidecar(self, tmp_path, monkeypatch):
        """A sidecar that cannot be written leaves the old csv and sidecar
        byte for byte, and no ``.part`` file."""
        cfg = self.cov_cfg(tmp_path)
        coverage_run(cfg)
        before = dir_bytes(cfg.out_dir)

        def failing(path, metadata):
            Path(path).write_text("{")
            raise OSError("injected failure")

        monkeypatch.setattr(engine, "write_metadata", failing)
        with pytest.raises(OSError, match="injected"):
            coverage_run(replace(cfg, seed=8))
        assert dir_bytes(cfg.out_dir) == before
        monkeypatch.undo()
        result = coverage_run(cfg)
        assert sorted(p.name for p in cfg.out_dir.iterdir()) == ["coverage.csv", "metadata.json"]
        assert file_digest(cfg.out_dir / "coverage.csv") == result.digests["coverage"]

    def test_terminal_cell_is_nan(self, tmp_path):
        cfg = self.cov_cfg(
            tmp_path, coverage={"x": [0.0, 0.0], "y": [25.0, 25.0], "step": 1.0, "z": 2.0}
        )
        result = coverage_run(cfg)
        assert result.rates.shape == (1, 1)
        assert math.isnan(result.rates[0, 0])
        assert "nan" in (cfg.out_dir / "coverage.csv").read_text()

    @pytest.mark.parametrize("workers", [1, 3])
    def test_rows_recomputed_cell_by_cell(self, tmp_path, monkeypatch, workers):
        """``coverage.csv`` holds, string for string, the rows recomputed one
        cell at a time from ``cell_seed``, one public draw per index and
        ``_one_realization``, the cell on the Tx a NaN, and the result's grid
        holds the same means."""
        cov = {"x": [-2.0, 2.0], "y": [23.0, 27.0], "step": 2.0, "z": 2.0}
        cfg = self.cov_cfg(tmp_path, coverage=cov, workers=workers, realizations=3)
        result = coverage_run(cfg)
        with monkeypatch.context() as patch:  # a cell's draws in chunks of 2, one record a pass
            patch.setattr(engine, "_CHUNK_BYTES", 2 * draw_bytes(cfg))
            patch.setattr(mmwave, "_PASS_RAYS", 1)
            chunked = coverage_run(replace(cfg, out_dir=tmp_path / "chunked"))
        assert chunked.digests == result.digests
        area, means = cfg.coverage, []
        rows = ["x,y,mean_rate_bits_hz"]
        for ix, x in enumerate(area.xs):
            for iy, y in enumerate(area.ys):
                mean = math.nan
                if (x, y, area.z) != (0.0, 25.0, 2.0):  # not on the Tx
                    scene = cfg.scene.with_rx(Point3(float(x), float(y), area.z))
                    seed_val = cell_seed(cfg.seed, ix, iy)
                    total = 0.0
                    for i in range(cfg.realizations):
                        real = realize(scene, seed_val, i, clustered=cfg.clustered)
                        total += engine._one_realization(cfg, real, seed_val)[1]
                    mean = total / cfg.realizations
                means.append(mean)
                rows.append(f"{x:.12g},{y:.12g},{mean:.12g}")
        assert (cfg.out_dir / "coverage.csv").read_text().splitlines() == rows
        assert sum("nan" in row for row in rows) == 1
        np.testing.assert_array_equal(result.rates, np.reshape(means, (3, 3)))

    def test_requires_section(self, tmp_path):
        with pytest.raises(ConfigError, match="coverage"):
            coverage_run(run_cfg(tmp_path))
