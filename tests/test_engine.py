"""Configuration loading, run execution, and coverage sweeps."""

import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from rischan import engine
from rischan.arrays import ElementPattern
from rischan.engine import CoverageArea, coverage_run, load_config, run
from rischan.errors import ConfigError, GenerationError
from rischan.scene import Scene
from rischan.simio import MAX_DIM, file_digest, read_metadata, read_tensor


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

    def test_sha256_canonical(self):
        a = load_config(base_cfg())
        b = load_config(base_cfg())
        c = load_config(base_cfg(seed=2))
        assert a.config_sha256 == b.config_sha256
        assert a.config_sha256 != c.config_sha256


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
        ],
        ids=["tx_power_nan", "spacing_inf", "coverage_step_nan", "rx_nan"],
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
        ],
        ids=[
            "spread_nan", "spread_str", "subrays_float", "delay_nan", "ray_az_inf", "rays_str",
            "params_list", "los_null", "tx_facing_bool", "ris_facing_bool", "retry_cap_over",
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
        cfg = run_cfg(tmp_path, realizations=17, workers=workers, **over)
        outputs = []
        for draws in (1, 7, None):
            chunk = 2**62 if draws is None else draws * draw_bytes(cfg)
            monkeypatch.setattr(engine, "_CHUNK_BYTES", chunk)
            result = run(cfg)
            outputs.append(dir_bytes(cfg.out_dir))
        assert outputs[0] == outputs[1] == outputs[2]
        assert not any(name.endswith(".part") for name in outputs[0])
        for name, entry in result.metadata["files"].items():
            if "dims" in entry:
                assert list(read_tensor(result.files[name]).shape) == entry["dims"]

    def test_memory_flat_in_realizations(self, tmp_path, monkeypatch):
        # The generator's own working set varies from draw to draw, so its
        # peak over 400 draws exceeds that over 40; a stub that returns fresh
        # copies of one realization isolates what run() itself holds.
        cfg = run_cfg(tmp_path, n=256, control={"strategy": "cophase"})
        real, rate = engine._one_realization(cfg, cfg.scene, cfg.seed, 0)

        def fresh_copy(config, scene, seed_val, index):
            hops = ((real.H.copy(), real.G.copy()),)
            return replace(real, hops=hops, D=real.D.copy()), rate

        monkeypatch.setattr(engine, "_one_realization", fresh_copy)
        monkeypatch.setattr(engine, "_CHUNK_BYTES", 3 * draw_bytes(cfg))
        run(cfg)
        peaks = []
        for count in (40, 400):
            tracemalloc.start()
            try:
                run(replace(cfg, realizations=count))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0], peaks

    def test_failed_run_leaves_nothing_complete(self, tmp_path, monkeypatch):
        cfg = run_cfg(tmp_path, realizations=9, csv=True)
        monkeypatch.setattr(engine, "_CHUNK_BYTES", 2 * draw_bytes(cfg))
        original = engine._one_realization

        def failing(config, scene, seed_val, index):
            if index == 5:
                raise GenerationError("injected failure")
            return original(config, scene, seed_val, index)

        monkeypatch.setattr(engine, "_one_realization", failing)
        with pytest.raises(GenerationError, match="injected"):
            run(cfg)
        assert list(cfg.out_dir.iterdir()) == []
        # over the outputs of a completed run, a failed one changes no byte
        monkeypatch.setattr(engine, "_one_realization", original)
        run(cfg)
        before = dir_bytes(cfg.out_dir)
        monkeypatch.setattr(engine, "_one_realization", failing)
        with pytest.raises(GenerationError, match="injected"):
            run(replace(cfg, seed=8))
        assert dir_bytes(cfg.out_dir) == before


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
        grid, result = coverage_run(cfg)
        assert grid.mean_rate.shape == (3, 2)
        assert np.all(np.isfinite(grid.mean_rate))
        assert np.all(grid.mean_rate > 0.0)
        lines = (cfg.out_dir / "coverage.csv").read_text().splitlines()
        assert lines[0] == "x,y,mean_rate_bits_hz"
        assert len(lines) == 1 + 6
        x, y, rate = lines[1].split(",")
        assert (float(x), float(y)) == (36.0, 46.0)
        assert float(rate) == pytest.approx(grid.mean_rate[0, 0], rel=1e-10)
        meta = read_metadata(cfg.out_dir / "metadata.json")
        assert meta["grid"] == {"nx": 3, "ny": 2, "z": 1.0, "step": 2.0}
        assert meta["files"]["coverage"]["sha256"] == result.digests["coverage"]

    def test_worker_invariance(self, tmp_path):
        _, r1 = coverage_run(self.cov_cfg(tmp_path, workers=1))
        _, r2 = coverage_run(self.cov_cfg(tmp_path, workers=3))
        assert r1.digests == r2.digests

    def test_rerun_identical(self, tmp_path):
        _, r1 = coverage_run(self.cov_cfg(tmp_path))
        _, r2 = coverage_run(self.cov_cfg(tmp_path))
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
        _, result = coverage_run(cfg)
        assert sorted(p.name for p in cfg.out_dir.iterdir()) == ["coverage.csv", "metadata.json"]
        assert file_digest(cfg.out_dir / "coverage.csv") == result.digests["coverage"]

    def test_terminal_cell_is_nan(self, tmp_path):
        cfg = self.cov_cfg(
            tmp_path, coverage={"x": [0.0, 0.0], "y": [25.0, 25.0], "step": 1.0, "z": 2.0}
        )
        grid, _ = coverage_run(cfg)
        assert grid.mean_rate.shape == (1, 1)
        assert math.isnan(grid.mean_rate[0, 0])
        assert "nan" in (cfg.out_dir / "coverage.csv").read_text()

    def test_requires_section(self, tmp_path):
        with pytest.raises(ConfigError, match="coverage"):
            coverage_run(run_cfg(tmp_path))
