"""Run orchestration: configuration loading, Monte Carlo loops, outputs.

A run is described by a JSON-style mapping (see README for the schema),
validated into a :class:`RunConfig`. ``run`` generates the requested number
of channel realizations, applies the configured surface control strategy,
evaluates rates, and writes channel tensors, a rates table, and a metadata
sidecar. ``coverage_run`` sweeps the receiver over a grid and records the
per-cell mean rate.

Everything is reproducible from (config, seed): realizations and grid cells
consume hash-derived substreams, so results do not depend on worker count
or evaluation order, and rerunning a configuration rewrites byte-identical
files.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ._version import __version__
from .arrays import ArrayGeometry, ElementPattern
from .control import (
    achievable_rate,
    phases_cophase,
    phases_dominant,
    quantize_phases,
    random_phases,
)
from .errors import ConfigError
from .geometry import Plane, Point3, SurfaceOrientation
from .mmwave import ChannelRealization, compose_end_to_end, realize
from .multiris import MultiRisRealization, MultiRisScene, RisPanel, compose_multi, realize_multi
from .propagation import Environment, EnvironmentKind, load_params_file, params_from_mapping
from .scattering import ScatteringParams
from .scene import LOS_MODES, Scene
from .simio import file_digest, write_metadata, write_tensor, write_tensor_csv
from .streams import cell_seed, substream
from .sub6 import Sub6Params, realize_sub6

__all__ = [
    "BANDS",
    "STRATEGIES",
    "CoverageArea",
    "CoverageGrid",
    "RunConfig",
    "RunResult",
    "load_config",
    "run",
    "coverage_run",
]

BANDS = ("mmwave", "sub6")
STRATEGIES = ("cophase", "pinv_surrogate", "random", "off")

# Channel tensor payload, in bytes, that ``run`` draws and writes per chunk.
# It bounds what a run holds at once; the output bytes do not depend on it.
_CHUNK_BYTES = 1 << 20

_KNOWN_KEYS = {
    "band", "environment", "frequency_ghz", "seed", "realizations",
    "tx", "rx", "ris", "n", "ris_wall", "ris_facing", "ris_shape",
    "nt", "nr", "tx_array", "rx_array", "spacing_wavelengths", "pattern_q",
    "clustered", "share_direct_clusters", "los", "shadowing", "control",
    "tx_power_dbm", "noise_dbm", "workers", "out_dir",
    "write_channels", "write_rates", "csv", "params", "scattering",
    "sub6", "coverage", "bounds", "cluster_density",
}


@dataclass(frozen=True)
class CoverageArea:
    """Receiver sweep grid: inclusive x/y ranges at a fixed height."""

    x_range: tuple[float, float]
    y_range: tuple[float, float]
    step: float
    z: float

    def axis(self, lo: float, hi: float) -> np.ndarray:
        count = int(math.floor((hi - lo) / self.step + 1e-9)) + 1
        return lo + self.step * np.arange(count)

    @property
    def xs(self) -> np.ndarray:
        return self.axis(*self.x_range)

    @property
    def ys(self) -> np.ndarray:
        return self.axis(*self.y_range)


@dataclass(frozen=True, eq=False)
class CoverageGrid:
    """Mean achievable rate over a receiver grid."""

    xs: np.ndarray
    ys: np.ndarray
    z: float
    mean_rate: np.ndarray  # (len(xs), len(ys)), bit/s/Hz; NaN where unreachable


@dataclass(frozen=True)
class RunConfig:
    """A fully validated run description."""

    raw: dict
    band: str
    scene: Scene | MultiRisScene
    seed: int
    realizations: int
    clustered: bool
    strategy: str
    quant_bits: int | None
    tx_power_dbm: float
    noise_dbm: float
    workers: int
    out_dir: Path
    write_channels: bool
    write_rates: bool
    csv: bool
    sub6_params: Sub6Params
    sub6_g_mode: str
    sub6_edge_m: float | None
    coverage: CoverageArea | None

    @property
    def multi(self) -> bool:
        return isinstance(self.scene, MultiRisScene)

    @property
    def config_sha256(self) -> str:
        canon = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()


@dataclass
class RunResult:
    out_dir: Path
    files: dict[str, Path]
    digests: dict[str, str]
    rates: np.ndarray | None
    metadata: dict


def _req(data: dict, key: str):
    if key not in data:
        raise ConfigError(f"{key}: required field is missing")
    return data[key]

def _number(value, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{key}: expected a finite number, got {value!r}")
    return number

def _integer(value, key: str, lo: int | None = None, hi: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key}: expected an integer, got {value!r}")
    if lo is not None and value < lo:
        raise ConfigError(f"{key}: must be >= {lo}, got {value}")
    if hi is not None and value > hi:
        raise ConfigError(f"{key}: must be <= {hi}, got {value}")
    return int(value)

def _boolean(value, key: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{key}: expected true/false, got {value!r}")
    return value

def _choice(value, key: str, choices) -> str:
    if value not in choices:
        raise ConfigError(f"{key}: expected one of {list(choices)}, got {value!r}")
    return value

def _point(value, key: str) -> Point3:
    if not (isinstance(value, (list, tuple)) and len(value) == 3):
        raise ConfigError(f"{key}: expected [x, y, z], got {value!r}")
    return Point3(*(_number(v, f"{key}[{i}]") for i, v in enumerate(value)))

def _wall(value, key: str) -> Plane:
    _choice(value, key, ("xz", "yz"))
    return Plane.XZ if value == "xz" else Plane.YZ

def _facing(value, key: str) -> int:
    if value not in (1, -1):
        raise ConfigError(f"{key}: expected 1 or -1, got {value!r}")
    return int(value)

def _shape_for(n: int | None, shape, key: str) -> tuple[int, int]:
    if shape is not None:
        if not (isinstance(shape, (list, tuple)) and len(shape) == 2):
            raise ConfigError(f"{key}: expected [n_h, n_v], got {shape!r}")
        n_h = _integer(shape[0], f"{key}[0]", lo=1)
        n_v = _integer(shape[1], f"{key}[1]", lo=1)
        if n is not None and n_h * n_v != n:
            raise ConfigError(f"{key}: {n_h}x{n_v} has {n_h * n_v} elements but n={n}")
        return n_h, n_v
    if n is None:
        raise ConfigError(f"{key}: give n or an explicit shape")
    root = math.isqrt(n)
    if root * root != n:
        raise ConfigError(
            f"n={n} is not a perfect square; give an explicit shape [n_h, n_v] "
            f"(e.g. [{n}, 1] for a linear layout)"
        )
    return root, root

def _terminal_array(data, key: str, default_wall: Plane, spacing: float) -> ArrayGeometry:
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"{key}: expected a mapping, got {data!r}")
    unknown = set(data) - {"shape", "n", "wall", "facing", "spacing_wavelengths"}
    if unknown:
        raise ConfigError(f"{key}: unknown fields {sorted(unknown)}")
    n = _integer(data["n"], f"{key}.n", lo=1) if "n" in data else None
    n_h, n_v = _shape_for(n, data.get("shape"), f"{key}.shape") if (n or data.get("shape")) else (1, 1)
    wall = _wall(data["wall"], f"{key}.wall") if "wall" in data else default_wall
    facing = _facing(data["facing"], f"{key}.facing") if "facing" in data else 1
    sp = _number(data.get("spacing_wavelengths", spacing), f"{key}.spacing_wavelengths")
    return ArrayGeometry(n_h, n_v, sp, SurfaceOrientation(wall, facing))

def load_config(source, default_params_path: str | None = None) -> RunConfig:
    """Validate a run description (mapping, or path to a JSON file).

    ``default_params_path`` supplies a path-loss parameter table used when
    the configuration itself has no ``params`` entry (the CLI wires the
    ``RISCHAN_PARAMS`` environment variable into this).
    """
    if isinstance(source, (str, Path)):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"config file {source!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {source!r} is not valid JSON: {exc}") from exc
    else:
        data = source
    if not isinstance(data, dict):
        raise ConfigError("config: expected a JSON object at the top level")
    unknown = set(data) - _KNOWN_KEYS
    if unknown:
        raise ConfigError(f"config: unknown keys {sorted(unknown)}")

    band = _choice(data.get("band", "mmwave"), "band", BANDS)
    env_name = _choice(
        _req(data, "environment"), "environment", tuple(k.value for k in EnvironmentKind)
    )
    kind = EnvironmentKind(env_name)

    params_src = data.get("params", None)
    if params_src is None and default_params_path:
        params_src = default_params_path
    overrides = {}
    if params_src is not None:
        table = (
            params_from_mapping(params_src)
            if isinstance(params_src, dict)
            else load_params_file(params_src)
        )
        if kind in table:
            overrides["path_loss"] = table[kind]
    if "bounds" in data:
        b = data["bounds"]
        if not (isinstance(b, list) and len(b) == 3 and all(len(ax) == 2 for ax in b)):
            raise ConfigError(f"bounds: expected [[x0,x1],[y0,y1],[z0,z1]], got {b!r}")
        overrides["bounds"] = tuple(
            (_number(ax[0], "bounds"), _number(ax[1], "bounds")) for ax in b
        )
    if "cluster_density" in data:
        overrides["cluster_density"] = _number(data["cluster_density"], "cluster_density")
    env = Environment._default(kind, **overrides)

    freq_hz = _number(_req(data, "frequency_ghz"), "frequency_ghz") * 1e9
    seed = _integer(data.get("seed", 1), "seed", lo=0)
    realizations = _integer(data.get("realizations", 1000), "realizations", lo=1)
    tx = _point(_req(data, "tx"), "tx")
    rx = _point(_req(data, "rx"), "rx")

    ris_val = _req(data, "ris")
    if not isinstance(ris_val, (list, tuple)) or not ris_val:
        raise ConfigError(f"ris: expected [x, y, z] or a list of positions, got {ris_val!r}")
    multi = isinstance(ris_val[0], (list, tuple))
    positions = [_point(p, f"ris[{i}]") for i, p in enumerate(ris_val)] if multi else [_point(ris_val, "ris")]
    n_panels = len(positions)

    n_val = data.get("n")
    if isinstance(n_val, list):
        if len(n_val) != n_panels:
            raise ConfigError(f"n: got {len(n_val)} entries for {n_panels} surfaces")
        n_list = [_integer(v, f"n[{i}]", lo=1) for i, v in enumerate(n_val)]
    elif n_val is None:
        n_list = [None] * n_panels
    else:
        n_list = [_integer(n_val, "n", lo=1)] * n_panels

    wall_val = data.get("ris_wall", "xz")
    walls = wall_val if isinstance(wall_val, list) else [wall_val] * n_panels
    if len(walls) != n_panels:
        raise ConfigError(f"ris_wall: got {len(walls)} entries for {n_panels} surfaces")
    facing_val = data.get("ris_facing", 1)
    facings = facing_val if isinstance(facing_val, list) else [facing_val] * n_panels
    if len(facings) != n_panels:
        raise ConfigError(f"ris_facing: got {len(facings)} entries for {n_panels} surfaces")
    shape_val = data.get("ris_shape")
    if shape_val is not None and isinstance(shape_val, list) and shape_val and isinstance(shape_val[0], list):
        shapes = shape_val
        if len(shapes) != n_panels:
            raise ConfigError(f"ris_shape: got {len(shapes)} entries for {n_panels} surfaces")
    else:
        shapes = [shape_val] * n_panels

    spacing = _number(data.get("spacing_wavelengths", 0.5), "spacing_wavelengths")
    if spacing <= 0:
        raise ConfigError(f"spacing_wavelengths: must be > 0, got {spacing}")

    q_val = data.get("pattern_q", 0.285)
    if q_val is None:
        pattern = None
    else:
        pattern = ElementPattern(_number(q_val, "pattern_q"))

    ris_geoms = []
    for k in range(n_panels):
        n_h, n_v = _shape_for(n_list[k], shapes[k], "ris_shape")
        orient = SurfaceOrientation(_wall(walls[k], "ris_wall"), _facing(facings[k], "ris_facing"))
        ris_geoms.append(ArrayGeometry(n_h, n_v, spacing, orient))

    nt = data.get("nt")
    nr = data.get("nr")
    tx_geom = _terminal_array(data.get("tx_array"), "tx_array", Plane.YZ, spacing)
    rx_geom = _terminal_array(data.get("rx_array"), "rx_array", Plane.YZ, spacing)
    if nt is not None:
        if "tx_array" in data:
            raise ConfigError("nt: give either nt or tx_array, not both")
        tx_geom = ArrayGeometry(_integer(nt, "nt", lo=1), 1, spacing, SurfaceOrientation(Plane.YZ))
    if nr is not None:
        if "rx_array" in data:
            raise ConfigError("nr: give either nr or rx_array, not both")
        rx_geom = ArrayGeometry(_integer(nr, "nr", lo=1), 1, spacing, SurfaceOrientation(Plane.YZ))

    los = data.get("los", {})
    if not isinstance(los, dict):
        raise ConfigError(f"los: expected a mapping, got {los!r}")
    unknown = set(los) - {"tx_ris", "ris_rx", "tx_rx"}
    if unknown:
        raise ConfigError(f"los: unknown fields {sorted(unknown)}")
    los_modes = {
        k: _choice(los.get(k, "auto"), f"los.{k}", LOS_MODES) for k in ("tx_ris", "ris_rx", "tx_rx")
    }

    shadowing = data.get("shadowing", {})
    if not isinstance(shadowing, dict):
        raise ConfigError(f"shadowing: expected a mapping, got {shadowing!r}")
    unknown = set(shadowing) - {"clustered", "los"}
    if unknown:
        raise ConfigError(f"shadowing: unknown fields {sorted(unknown)}")
    shadow_clustered = _boolean(shadowing.get("clustered", True), "shadowing.clustered")
    shadow_los = _boolean(shadowing.get("los", False), "shadowing.los")

    scat = data.get("scattering", {})
    if not isinstance(scat, dict):
        raise ConfigError(f"scattering: expected a mapping, got {scat!r}")
    unknown = set(scat) - set(ScatteringParams.__dataclass_fields__)
    if unknown:
        raise ConfigError(f"scattering: unknown fields {sorted(unknown)}")
    try:
        scattering = ScatteringParams(**scat)
    except ValueError as exc:
        raise ConfigError(f"scattering: {exc}") from exc

    control = data.get("control", {})
    if not isinstance(control, dict):
        raise ConfigError(f"control: expected a mapping, got {control!r}")
    unknown = set(control) - {"strategy", "quant_bits"}
    if unknown:
        raise ConfigError(f"control: unknown fields {sorted(unknown)}")
    strategy = _choice(control.get("strategy", "pinv_surrogate"), "control.strategy", STRATEGIES)
    quant_bits = control.get("quant_bits")
    if quant_bits is not None:
        quant_bits = _integer(quant_bits, "control.quant_bits", lo=1, hi=16)

    sub6_cfg = data.get("sub6", {})
    if not isinstance(sub6_cfg, dict):
        raise ConfigError(f"sub6: expected a mapping, got {sub6_cfg!r}")
    unknown = set(sub6_cfg) - (set(Sub6Params.__dataclass_fields__) | {"g_mode", "element_edge_m"})
    if unknown:
        raise ConfigError(f"sub6: unknown fields {sorted(unknown)}")
    sub6_g_mode = _choice(sub6_cfg.get("g_mode", "auto"), "sub6.g_mode", ("auto", "near", "far"))
    sub6_edge = sub6_cfg.get("element_edge_m")
    if sub6_edge is not None:
        sub6_edge = _number(sub6_edge, "sub6.element_edge_m")
    try:
        sub6_params = Sub6Params(
            **{k: v for k, v in sub6_cfg.items() if k not in ("g_mode", "element_edge_m")}
        )
    except ValueError as exc:
        raise ConfigError(f"sub6: {exc}") from exc

    coverage = None
    if "coverage" in data:
        cov = data["coverage"]
        if not isinstance(cov, dict):
            raise ConfigError(f"coverage: expected a mapping, got {cov!r}")
        unknown = set(cov) - {"x", "y", "step", "z"}
        if unknown:
            raise ConfigError(f"coverage: unknown fields {sorted(unknown)}")
        for axis in ("x", "y"):
            rng = cov.get(axis)
            if not (isinstance(rng, list) and len(rng) == 2):
                raise ConfigError(f"coverage.{axis}: expected [min, max]")
        step = _number(_req(cov, "step"), "coverage.step")
        if step <= 0:
            raise ConfigError(f"coverage.step: must be > 0, got {step}")
        x0, x1 = (_number(v, "coverage.x") for v in cov["x"])
        y0, y1 = (_number(v, "coverage.y") for v in cov["y"])
        if x1 < x0 or y1 < y0:
            raise ConfigError("coverage: ranges must satisfy min <= max")
        coverage = CoverageArea((x0, x1), (y0, y1), step, _number(_req(cov, "z"), "coverage.z"))

    clustered = _boolean(data.get("clustered", True), "clustered")
    share = data.get("share_direct_clusters")
    if share is not None:
        share = _boolean(share, "share_direct_clusters")

    common = dict(
        environment=env,
        frequency_hz=freq_hz,
        tx=tx,
        rx=rx,
        tx_geometry=tx_geom,
        rx_geometry=rx_geom,
        element_pattern=pattern,
        scattering=scattering,
        los_tx_ris=los_modes["tx_ris"],
        los_ris_rx=los_modes["ris_rx"],
        los_tx_rx=los_modes["tx_rx"],
        shadow_clustered=shadow_clustered,
        shadow_los=shadow_los,
    )
    if n_panels > 1:
        if band != "mmwave":
            raise ConfigError("ris: multi-surface runs support the mmwave band only")
        if share:
            raise ConfigError(
                "share_direct_clusters: not applicable with several surfaces; "
                "the direct link always uses an independent cluster set there"
            )
        scene: Scene | MultiRisScene = MultiRisScene(
            panels=tuple(RisPanel(p, g) for p, g in zip(positions, ris_geoms)), **common
        )
    else:
        scene = Scene(
            ris=positions[0], ris_geometry=ris_geoms[0], share_direct_clusters=share, **common
        )

    if band == "sub6" and (tx_geom.size != 1 or rx_geom.size != 1):
        raise ConfigError("band=sub6 covers single-antenna terminals; set nt=nr=1")
    if strategy == "cophase" and (tx_geom.size != 1 or rx_geom.size != 1):
        raise ConfigError(
            "control.strategy=cophase applies to single-antenna terminals; "
            "use pinv_surrogate for matrix channels"
        )

    return RunConfig(
        raw=data,
        band=band,
        scene=scene,
        seed=seed,
        realizations=realizations,
        clustered=clustered,
        strategy=strategy,
        quant_bits=quant_bits,
        tx_power_dbm=_number(data.get("tx_power_dbm", 30.0), "tx_power_dbm"),
        noise_dbm=_number(data.get("noise_dbm", -100.0), "noise_dbm"),
        workers=_integer(data.get("workers", 1), "workers", lo=1),
        out_dir=Path(data.get("out_dir", "out")),
        write_channels=_boolean(data.get("write_channels", True), "write_channels"),
        write_rates=_boolean(data.get("write_rates", True), "write_rates"),
        csv=_boolean(data.get("csv", False), "csv"),
        sub6_params=sub6_params,
        sub6_g_mode=sub6_g_mode,
        sub6_edge_m=sub6_edge,
        coverage=coverage,
    )


def _phase_config(config: RunConfig, h_mat, g_mat, seed_val: int, index: int, panel: int):
    if config.strategy == "off":
        return None
    if config.strategy == "cophase":
        cfg = phases_cophase(h_mat[:, 0], g_mat[0, :])
    elif config.strategy == "pinv_surrogate":
        cfg = phases_dominant(h_mat, g_mat)
    else:
        cfg = random_phases(h_mat.shape[0], substream(seed_val, "phases", panel, index))
    if config.quant_bits is not None:
        cfg = quantize_phases(cfg, config.quant_bits)
    return cfg

def _one_realization(config: RunConfig, scene, seed_val: int, index: int):
    """Generate realization ``index``, control it, rate it."""
    if config.band == "sub6":
        real = realize_sub6(
            scene, seed_val, index, config.sub6_params, config.sub6_g_mode, config.sub6_edge_m
        )
        phases = _phase_config(config, real.H, real.G, seed_val, index, 0)
        composed = compose_end_to_end(real, phases)
    elif isinstance(scene, MultiRisScene):
        real = realize_multi(scene, seed_val, index, clustered=config.clustered)
        phases = [
            _phase_config(config, h_mat, g_mat, seed_val, index, k)
            for k, (h_mat, g_mat) in enumerate(real.hops)
        ]
        composed = compose_multi(real, phases)
    else:
        real = realize(scene, seed_val, index, clustered=config.clustered)
        phases = _phase_config(config, real.H, real.G, seed_val, index, 0)
        composed = compose_end_to_end(real, phases)
    rate = achievable_rate(composed, config.tx_power_dbm, config.noise_dbm)
    return real, rate.rate_bits_hz

def _map_ordered(fn, items, workers: int) -> list:
    if workers <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ThreadPoolExecutor  # imported here: serial runs start faster

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))

def _tensor_dims(config: RunConfig) -> dict[str, tuple[int, int]]:
    """(rows, cols) of each channel tensor ``run`` writes, by tensor name."""
    scene = config.scene
    nt, nr = scene.tx_geometry.size, scene.rx_geometry.size
    surfaces = (
        [(str(k), p.geometry.size) for k, p in enumerate(scene.panels)]
        if config.multi
        else [("", scene.ris_geometry.size)]
    )
    dims = {}
    for suffix, n in surfaces:
        dims[f"H{suffix}"] = (n, nt)
        dims[f"G{suffix}"] = (nr, n)
    dims["D"] = (nr, nt)
    return dims

def _channel_matrices(real) -> dict[str, np.ndarray]:
    """One realization's matrices under the names of ``_tensor_dims``."""
    if isinstance(real, MultiRisRealization):
        mats = {}
        for k, (h_mat, g_mat) in enumerate(real.hops):
            mats[f"H{k}"], mats[f"G{k}"] = h_mat, g_mat
        mats["D"] = real.D
        return mats
    return {"H": real.H, "G": real.G, "D": real.D}

def _run_chunk(config: RunConfig, indices: range, parts: dict[str, Path]) -> list[float]:
    """Draw realizations ``indices`` and append them to the part files."""
    results = _map_ordered(
        lambda i: _one_realization(config, config.scene, config.seed, i), indices, config.workers
    )
    start = indices.start
    if config.write_channels:
        mats = [_channel_matrices(real) for real, _ in results]
        for name in mats[0]:
            chunk = [m[name] for m in mats]
            write_tensor(parts[name], chunk, start, config.realizations)
            if config.csv:
                write_tensor_csv(parts[f"{name}_csv"], chunk, start)
    rates = [rate for _, rate in results]
    if config.write_rates:
        with open(parts["rates"], "w" if start == 0 else "a", encoding="utf-8", newline="\n") as fh:
            if start == 0:
                fh.write("index,rate_bits_hz\n")
            for i, r in enumerate(rates, start):
                fh.write(f"{i},{r:.12g}\n")
    return rates

def run(config: RunConfig) -> RunResult:
    """Execute a realization run and write its outputs.

    Writes (under ``config.out_dir``): one ``.risch`` tensor per channel
    matrix when ``write_channels``, ``rates.csv`` when ``write_rates``, CSV
    mirrors of the tensors when ``csv``, and always ``metadata.json`` with
    dims and SHA-256 digests of every written file.

    Realizations are drawn and appended to the files chunk by chunk, so
    memory does not grow with ``config.realizations``: the run holds one
    chunk and the rates. Files are written under ``.part`` names and renamed
    once complete, ``metadata.json`` last; a run that raises removes its
    ``.part`` files and leaves the directory as it found it.
    """
    out = config.out_dir
    out.mkdir(parents=True, exist_ok=True)
    dims = _tensor_dims(config)
    files: dict[str, Path] = {}
    file_meta: dict[str, dict] = {}
    if config.write_channels:
        for name, shape in dims.items():
            files[name] = out / f"{name}.risch"
            file_meta[name] = {"file": files[name].name, "dims": [config.realizations, *shape]}
            if config.csv:
                files[f"{name}_csv"] = out / f"{name}.csv"
    if config.write_rates:
        files["rates"] = out / "rates.csv"
        file_meta["rates"] = {"file": "rates.csv"}
    parts = {key: path.with_name(path.name + ".part") for key, path in files.items()}

    per_draw = 16 * sum(rows * cols for rows, cols in dims.values())
    step = max(1, _CHUNK_BYTES // per_draw)
    rates = np.empty(config.realizations)
    try:
        for start in range(0, config.realizations, step):
            stop = min(start + step, config.realizations)
            rates[start:stop] = _run_chunk(config, range(start, stop), parts)
        digests = {key: file_digest(part) for key, part in parts.items()}
    except BaseException:
        for part in parts.values():
            part.unlink(missing_ok=True)
        raise
    meta_path = out / "metadata.json"
    meta_path.unlink(missing_ok=True)  # no stale sidecar over a mix of old and new files
    for key, part in parts.items():
        os.replace(part, files[key])
    for key, entry in file_meta.items():
        entry["sha256"] = digests[key]

    metadata = {
        "tool": "rischan",
        "tool_version": __version__,
        "format": "RISCH1",
        "format_version": 1,
        "config_sha256": config.config_sha256,
        "band": config.band,
        "seed": config.seed,
        "realizations": config.realizations,
        "strategy": config.strategy,
        "quant_bits": config.quant_bits,
        "tx_power_dbm": config.tx_power_dbm,
        "noise_dbm": config.noise_dbm,
        "mean_rate_bits_hz": float(rates.mean()) if rates.size else None,
        "files": file_meta,
    }
    meta_part = out / "metadata.json.part"
    write_metadata(meta_part, metadata)
    os.replace(meta_part, meta_path)
    files["metadata"] = meta_path
    return RunResult(out_dir=out, files=files, digests=digests, rates=rates, metadata=metadata)

def coverage_run(config: RunConfig) -> tuple[CoverageGrid, RunResult]:
    """Sweep the receiver over the configured grid; mean rate per cell.

    Each cell gets its own hash-derived seed namespace, so the map is
    independent of cell evaluation order and worker count. Cells whose
    position collides with a terminal come out NaN. Writes
    ``coverage.csv`` (x, y, mean_rate_bits_hz) plus ``metadata.json``.
    """
    if config.coverage is None:
        raise ConfigError("coverage: section is required for a coverage run")
    area = config.coverage
    xs, ys = area.xs, area.ys
    cells = [(ix, iy) for ix in range(xs.size) for iy in range(ys.size)]

    def one_cell(cell):
        ix, iy = cell
        pos = Point3(float(xs[ix]), float(ys[iy]), area.z)
        try:
            scene = config.scene.with_rx(pos)
        except ConfigError:
            return math.nan  # cell sits on a terminal
        seed_val = cell_seed(config.seed, ix, iy)
        total = 0.0
        for i in range(config.realizations):
            total += _one_realization(config, scene, seed_val, i)[1]
        return total / config.realizations

    values = _map_ordered(one_cell, cells, config.workers)
    grid = np.array(values).reshape(xs.size, ys.size)

    out = config.out_dir
    out.mkdir(parents=True, exist_ok=True)
    path = out / "coverage.csv"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("x,y,mean_rate_bits_hz\n")
        for ix in range(xs.size):
            for iy in range(ys.size):
                fh.write(f"{xs[ix]:.12g},{ys[iy]:.12g},{grid[ix, iy]:.12g}\n")
    digest = file_digest(path)
    metadata = {
        "tool": "rischan",
        "tool_version": __version__,
        "config_sha256": config.config_sha256,
        "band": config.band,
        "seed": config.seed,
        "realizations": config.realizations,
        "strategy": config.strategy,
        "grid": {"nx": int(xs.size), "ny": int(ys.size), "z": area.z, "step": area.step},
        "files": {"coverage": {"file": path.name, "sha256": digest}},
    }
    meta_path = out / "metadata.json"
    write_metadata(meta_path, metadata)
    result = RunResult(
        out_dir=out,
        files={"coverage": path, "metadata": meta_path},
        digests={"coverage": digest},
        rates=grid,
        metadata=metadata,
    )
    return CoverageGrid(xs=xs, ys=ys, z=area.z, mean_rate=grid), result
