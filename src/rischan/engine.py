"""Run orchestration: configuration loading, Monte Carlo loops, outputs.

A run is described by a JSON-style mapping (see README for the schema),
validated into a :class:`RunConfig`. ``run`` generates the requested number
of channel realizations, applies the configured surface control strategy,
evaluates rates, and writes channel tensors, a rates table, and a metadata
sidecar. ``coverage_run`` sweeps the receiver over a grid and records the
per-cell mean rate. Both write through one output path: chunks of indices
worked in index order, appended to ``.part`` files, hashed, listed in the
sidecar and published together.

A chunk of draws (a run's, or a coverage cell's) is realized in one
``_realizations`` call, at mmWave one batched ``realize_multi``; then
``_one_realization`` controls, composes and rates each draw in index order.

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
from contextlib import contextmanager
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
    snr_ratio,
)
from .errors import ConfigError
from .geometry import Plane, Point3, SurfaceOrientation
# realize and compose_end_to_end: unused here, but bench/tracer.py wraps these names
from .mmwave import compose_end_to_end, realize  # noqa: F401
from .multiris import compose_multi, realize_multi
from .propagation import CLOSE_IN_REF_M, Environment, EnvironmentKind
from .scattering import Link, ScatteringParams
from .scene import LOS_MODES, RisPanel, Scene
from .simio import MAX_DIM, file_digest, write_csv, write_metadata, write_tensor, write_tensor_csv
from .streams import cell_seed, substream
from .sub6 import G_MODES, Sub6Params, element_edge, realize_sub6, select_g_mode

__all__ = [
    "BANDS",
    "STRATEGIES",
    "CoverageArea",
    "RunConfig",
    "RunResult",
    "load_config",
    "read_config",
    "run",
    "coverage_run",
]

BANDS = ("mmwave", "sub6")
STRATEGIES = ("cophase", "pinv_surrogate", "random", "off")

# Channel tensor payload, in bytes, that ``run`` draws and writes per chunk.
# It bounds what a run holds at once; the output bytes do not depend on it.
_CHUNK_BYTES = 1 << 20

# Largest coverage grid, in cells, that ``load_config`` accepts.
_MAX_GRID_CELLS = 10**6

# Most worker threads ``load_config`` accepts: a fixed number, so a config's
# validity does not depend on the machine it is loaded on.
_MAX_WORKERS = 64

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

    def count(self, lo: float, hi: float) -> float:
        """Points on the inclusive axis [lo, hi]; inf if beyond the float range."""
        steps = (hi - lo) / self.step + 1e-9
        return math.floor(steps) + 1 if steps < math.inf else math.inf

    def axis(self, lo: float, hi: float) -> np.ndarray:
        return lo + self.step * np.arange(self.count(lo, hi))

    @property
    def xs(self) -> np.ndarray:
        return self.axis(*self.x_range)

    @property
    def ys(self) -> np.ndarray:
        return self.axis(*self.y_range)


@dataclass(frozen=True)
class RunConfig:
    """A fully validated run description."""

    raw: dict  # the config as given, with a path-loss table given by path read in
    band: str
    scene: Scene
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
        return len(self.scene.panel_scenes) > 1

    @property
    def config_sha256(self) -> str:
        """SHA-256 of :attr:`raw` as canonical JSON (sorted keys, no spaces)."""
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

def _pair(value, key: str) -> tuple[float, float]:
    if not (isinstance(value, list) and len(value) == 2):
        raise ConfigError(f"{key}: expected [min, max], got {value!r}")
    return _number(value[0], key), _number(value[1], key)

def _wall(value, key: str) -> Plane:
    _choice(value, key, ("xz", "yz"))
    return Plane(value)

def _facing(value, key: str) -> int:
    if isinstance(value, bool) or value not in (1, -1):
        raise ConfigError(f"{key}: expected 1 or -1, got {value!r}")
    return int(value)

def _per_surface(data: dict, key: str, default, count: int, check, nested: bool = False) -> list:
    """Config ``key`` (``default`` when missing) for each of ``count``
    surfaces, through ``check(value, key)``: one value for all, or a list
    with one entry per surface (a list of lists if ``nested``)."""
    value = data.get(key, default)
    if not (isinstance(value, list) and value and (not nested or isinstance(value[0], list))):
        return [check(value, key)] * count
    if len(value) != count:
        raise ConfigError(f"{key}: got {len(value)} entries for {count} surfaces")
    return [check(v, f"{key}[{i}]") for i, v in enumerate(value)]

def _shape_for(n: int | None, shape, key: str) -> tuple[int, int]:
    if shape is not None:
        if not (isinstance(shape, (list, tuple)) and len(shape) == 2):
            raise ConfigError(f"{key}: expected [n_h, n_v], got {shape!r}")
        n_h = _integer(shape[0], f"{key}[0]", lo=1)
        n_v = _integer(shape[1], f"{key}[1]", lo=1)
        if n is not None and n_h * n_v != n:
            raise ConfigError(f"{key}: {n_h}x{n_v} has {n_h * n_v} elements but n={n}")
        if n_h * n_v > MAX_DIM:
            raise ConfigError(f"{key}: {n_h}x{n_v} has {n_h * n_v} elements, over {MAX_DIM}")
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

def _read_json(path, what: str) -> dict:
    """The JSON object in file ``path``; ``what`` names the file in errors."""
    where = f"{what} file {str(path)!r}"
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{where} is not valid JSON: {exc}") from exc
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path, bytes not UTF-8
        raise ConfigError(f"{where}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected a JSON object")
    return data

def read_config(path) -> dict:
    """The run description in JSON file ``path``, a relative ``params`` path
    in it taken from the file's directory."""
    data = _read_json(path, "config")
    if isinstance(data.get("params"), str):
        data["params"] = str(Path(path).parent / data["params"])
    return data

def _section(value, key: str, fields, what: str = "fields") -> dict:
    """Config section ``key``: a mapping with names from ``fields`` only."""
    if not isinstance(value, dict):
        raise ConfigError(f"{key}: expected a mapping, got {value!r}")
    unknown = set(value) - set(fields)
    if unknown:
        raise ConfigError(
            f"{key}: unknown {what} {sorted(unknown)}; expected from {sorted(fields)}"
        )
    return value

def _build(key: str, cls, *args, **kwargs):
    """``cls(*args, **kwargs)``; the ValueError of a violated constraint
    becomes a ConfigError naming config ``key``."""
    try:
        return cls(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc

def _params(base, section, key: str):
    """``base`` with the fields of config section ``key`` replaced, each value
    checked against the type of the field's value in ``base``."""
    values = {}
    for name, value in _section(section, key, base.__dataclass_fields__).items():
        current, field_key = getattr(base, name), f"{key}.{name}"
        if isinstance(current, bool):
            values[name] = _boolean(value, field_key)
        elif isinstance(current, int):
            values[name] = _integer(value, field_key)
        else:
            values[name] = _number(value, field_key)
    return _build(key, replace, base, **values)

def _terminal_array(data: dict, key: str, count_key: str, spacing: float) -> ArrayGeometry:
    """A terminal's array: ``count_key`` antennas in a row on a yz wall, or
    the ``key`` spec (one antenna when both are missing)."""
    if data.get(count_key) is not None:
        if key in data:
            raise ConfigError(f"{count_key}: give either {count_key} or {key}, not both")
        n = _integer(data[count_key], count_key, lo=1, hi=MAX_DIM)
        return ArrayGeometry(n, 1, spacing, SurfaceOrientation(Plane.YZ))
    spec = {} if data.get(key) is None else data[key]
    spec = _section(spec, key, ("shape", "n", "wall", "facing", "spacing_wavelengths"))
    n = _integer(spec["n"], f"{key}.n", lo=1, hi=MAX_DIM) if "n" in spec else None
    shape = spec.get("shape")
    n_h, n_v = _shape_for(n, shape, f"{key}.shape") if (n or shape) else (1, 1)
    wall = _wall(spec["wall"], f"{key}.wall") if "wall" in spec else Plane.YZ
    facing = _facing(spec["facing"], f"{key}.facing") if "facing" in spec else 1
    sp = _number(spec.get("spacing_wavelengths", spacing), f"{key}.spacing_wavelengths")
    return _build(key, ArrayGeometry, n_h, n_v, sp, SurfaceOrientation(wall, facing))

def _path_loss_tables(params: dict) -> dict:
    """The ``params`` table as PathLossParams by environment name, each over
    that environment's defaults."""
    names = [kind.value for kind in EnvironmentKind]
    return {
        name: _params(Environment._default(EnvironmentKind(name)).path_loss, v, f"params.{name}")
        for name, v in _section(params, "params", names, "environments").items()
    }

def load_config(source, default_params_path: str | None = None) -> RunConfig:
    """Validate a run description (mapping, or path to a JSON file).

    A relative ``params`` path in a config file is taken from the config
    file's directory; in a mapping, from the working directory.
    ``default_params_path`` supplies a path-loss parameter table used when
    the configuration itself has no ``params`` entry (the CLI wires the
    ``RISCHAN_PARAMS`` environment variable into this).
    """
    data = read_config(source) if isinstance(source, (str, Path)) else source
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

    params = data.get("params")
    if params is None:
        params = default_params_path or {}
    if isinstance(params, (str, Path)):  # the table enters config_sha256, not its path
        params = _read_json(params, "params")
        data = {**data, "params": params}
    path_loss = _path_loss_tables(params)
    overrides = {"path_loss": path_loss[env_name]} if env_name in path_loss else {}
    if "bounds" in data:
        b = data["bounds"]
        if not (isinstance(b, list) and len(b) == 3):
            raise ConfigError(f"bounds: expected [[x0,x1],[y0,y1],[z0,z1]], got {b!r}")
        overrides["bounds"] = tuple(_pair(ax, f"bounds[{i}]") for i, ax in enumerate(b))
    if "cluster_density" in data:
        overrides["cluster_density"] = _number(data["cluster_density"], "cluster_density")
    env = _build("environment", Environment._default, kind, **overrides)

    freq_hz = _number(_req(data, "frequency_ghz"), "frequency_ghz") * 1e9
    seed = _integer(data.get("seed", 1), "seed", lo=0)
    realizations = _integer(data.get("realizations", 1000), "realizations", lo=1, hi=MAX_DIM)
    tx = _point(_req(data, "tx"), "tx")
    rx = _point(_req(data, "rx"), "rx")

    ris_val = _req(data, "ris")
    if not isinstance(ris_val, (list, tuple)) or not ris_val:
        raise ConfigError(f"ris: expected [x, y, z] or a list of positions, got {ris_val!r}")
    multi = isinstance(ris_val[0], (list, tuple))
    positions = [_point(p, f"ris[{i}]") for i, p in enumerate(ris_val)] if multi else [_point(ris_val, "ris")]
    n_panels = len(positions)

    n_list = _per_surface(
        data, "n", None, n_panels,
        lambda v, k: None if v is None else _integer(v, k, lo=1, hi=MAX_DIM),
    )
    walls = _per_surface(data, "ris_wall", "xz", n_panels, _wall)
    facings = _per_surface(data, "ris_facing", 1, n_panels, _facing)
    shapes = _per_surface(data, "ris_shape", None, n_panels, lambda v, k: v, nested=True)

    spacing = data.get("spacing_wavelengths", ArrayGeometry.spacing_wavelengths)
    spacing = _number(spacing, "spacing_wavelengths")
    q_val = data.get("pattern_q", ElementPattern.q)
    pattern = (
        None if q_val is None else _build("pattern_q", ElementPattern, _number(q_val, "pattern_q"))
    )

    ris_geoms = []
    for k in range(n_panels):
        n_h, n_v = _shape_for(n_list[k], shapes[k], "ris_shape")
        orientation = SurfaceOrientation(walls[k], facings[k])
        ris_geoms.append(_build("ris", ArrayGeometry, n_h, n_v, spacing, orientation))

    tx_geom = _terminal_array(data, "tx_array", "nt", spacing)
    rx_geom = _terminal_array(data, "rx_array", "nr", spacing)

    # only the switches a config gives; the Scene's defaults fill in the rest
    links = ("tx_ris", "ris_rx", "tx_rx")
    los = _section(data.get("los", {}), "los", links)
    switches = {f"los_{k}": _choice(los[k], f"los.{k}", LOS_MODES) for k in links if k in los}
    shadowing = _section(data.get("shadowing", {}), "shadowing", ("clustered", "los"))
    for k in ("clustered", "los"):
        if k in shadowing:
            switches[f"shadow_{k}"] = _boolean(shadowing[k], f"shadowing.{k}")

    scattering = _params(ScatteringParams(), data.get("scattering", {}), "scattering")

    control = _section(data.get("control", {}), "control", ("strategy", "quant_bits"))
    strategy = _choice(control.get("strategy", "pinv_surrogate"), "control.strategy", STRATEGIES)
    quant_bits = control.get("quant_bits")
    if quant_bits is not None:
        quant_bits = _integer(quant_bits, "control.quant_bits", lo=1, hi=16)

    sub6_fields = [*Sub6Params.__dataclass_fields__, "g_mode", "element_edge_m"]
    sub6_cfg = dict(_section(data.get("sub6", {}), "sub6", sub6_fields))
    sub6_g_mode = _choice(sub6_cfg.pop("g_mode", "auto"), "sub6.g_mode", G_MODES)
    sub6_edge = sub6_cfg.pop("element_edge_m", None)
    if sub6_edge is not None:
        sub6_edge = _number(sub6_edge, "sub6.element_edge_m")
    sub6_params = _params(Sub6Params(), sub6_cfg, "sub6")

    coverage = None
    if "coverage" in data:
        cov = _section(data["coverage"], "coverage", ("x", "y", "step", "z"))
        (x0, x1), (y0, y1) = _pair(cov.get("x"), "coverage.x"), _pair(cov.get("y"), "coverage.y")
        step = _number(_req(cov, "step"), "coverage.step")
        if step <= 0:
            raise ConfigError(f"coverage.step: must be > 0, got {step}")
        if x1 < x0 or y1 < y0:
            raise ConfigError("coverage: ranges must satisfy min <= max")
        coverage = CoverageArea((x0, x1), (y0, y1), step, _number(_req(cov, "z"), "coverage.z"))
        cells = coverage.count(x0, x1) * coverage.count(y0, y1)
        if cells > _MAX_GRID_CELLS:
            raise ConfigError(f"coverage: {cells} grid cells, over the limit of {_MAX_GRID_CELLS}")

    clustered = _boolean(data.get("clustered", True), "clustered")
    share = data.get("share_direct_clusters")
    if share is not None:
        share = _boolean(share, "share_direct_clusters")

    if n_panels > 1 and band != "mmwave":
        raise ConfigError("ris: multi-surface runs support the mmwave band only")
    scene = Scene(
        environment=env,
        frequency_hz=freq_hz,
        tx=tx,
        ris=positions[0],
        rx=rx,
        ris_geometry=ris_geoms[0],
        tx_geometry=tx_geom,
        rx_geometry=rx_geom,
        element_pattern=pattern,
        scattering=scattering,
        share_direct_clusters=share,
        extra_panels=tuple(RisPanel(p, g) for p, g in zip(positions[1:], ris_geoms[1:])),
        **switches,
    )

    if band == "sub6" and (tx_geom.size != 1 or rx_geom.size != 1):
        raise ConfigError("band=sub6 covers single-antenna terminals; set nt=nr=1")
    if band == "sub6":
        _build("sub6.element_edge_m", element_edge, ris_geoms[0], scene.wavelength, sub6_edge)
    _check_close_in(band, scene, sub6_g_mode, sub6_edge)
    if strategy == "cophase" and (tx_geom.size != 1 or rx_geom.size != 1):
        raise ConfigError(
            "control.strategy=cophase applies to single-antenna terminals; "
            "use pinv_surrogate for matrix channels"
        )

    tx_power_dbm = _number(data.get("tx_power_dbm", 30.0), "tx_power_dbm")
    noise_dbm = _number(data.get("noise_dbm", -100.0), "noise_dbm")
    _build("tx_power_dbm", snr_ratio, tx_power_dbm, noise_dbm)

    out_dir = data.get("out_dir", "out")
    if not isinstance(out_dir, str) or not out_dir or "\0" in out_dir:
        raise ConfigError(f"out_dir: expected a non-empty path string without NUL, got {out_dir!r}")

    return RunConfig(
        raw=data,
        band=band,
        scene=scene,
        seed=seed,
        realizations=realizations,
        clustered=clustered,
        strategy=strategy,
        quant_bits=quant_bits,
        tx_power_dbm=tx_power_dbm,
        noise_dbm=noise_dbm,
        workers=_integer(data.get("workers", 1), "workers", lo=1, hi=_MAX_WORKERS),
        out_dir=Path(out_dir),
        write_channels=_boolean(data.get("write_channels", True), "write_channels"),
        write_rates=_boolean(data.get("write_rates", True), "write_rates"),
        csv=_boolean(data.get("csv", False), "csv"),
        sub6_params=sub6_params,
        sub6_g_mode=sub6_g_mode,
        sub6_edge_m=sub6_edge,
        coverage=coverage,
    )


def _check_close_in(band: str, scene: Scene, g_mode: str, edge_m: float | None) -> None:
    """Raise ConfigError unless every link that ``band`` evaluates with the
    close-in law spans at least its reference distance: all three links of
    every surface at mmWave; in sub-6 the Tx -> surface and Tx -> Rx links,
    and the surface -> Rx link when the far-field form is selected."""
    links = list(Link)
    if band == "sub6" and select_g_mode(scene, g_mode, edge_m) == "near":
        links.remove(Link.RIS_RX)
    for k, view in enumerate(scene.panel_scenes):
        for link in links:
            ends = view.link(link)
            if ends.distance < CLOSE_IN_REF_M:
                a, b = (f"ris[{k}]" if name == "ris" and scene.extra_panels else name for name in ends.names)
                raise ConfigError(
                    f"{a} and {b} are {ends.distance:.6g} m apart, below the {CLOSE_IN_REF_M:g} m "
                    "reference distance of the close-in path-loss law"
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

def _realizations(config: RunConfig, scene, seed_val: int, indices: range) -> list:
    """The realizations ``indices`` of ``scene``: one batched mmWave call,
    or one sub-6 draw per index."""
    if config.band == "sub6":
        return [
            realize_sub6(scene, seed_val, i, config.sub6_params, config.sub6_g_mode, config.sub6_edge_m)
            for i in indices
        ]
    return realize_multi(scene, seed_val, indices, clustered=config.clustered)

def _one_realization(config: RunConfig, real, seed_val: int):
    """Control realization ``real`` and rate it."""
    phases = [
        _phase_config(config, h_mat, g_mat, seed_val, real.index, k)
        for k, (h_mat, g_mat) in enumerate(real.hops)
    ]
    rate = achievable_rate(compose_multi(real, phases), config.tx_power_dbm, config.noise_dbm)
    return real, rate.rate_bits_hz

def _map_ordered(fn, items, workers: int) -> list:
    if workers <= 1 or len(items) <= 1:  # a single item starts no pool
        return [fn(item) for item in items]
    from concurrent.futures import ThreadPoolExecutor  # imported here: serial runs start faster

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))

def _tensor_dims(config: RunConfig) -> dict[str, tuple[int, int]]:
    """(rows, cols) of each channel tensor ``run`` writes, by tensor name:
    H and G for one surface, H0, G0, H1, ... for several, then D."""
    panels = config.scene.panel_scenes
    nt, nr = panels[0].nt, panels[0].nr
    dims = {}
    for k, p in enumerate(panels):
        suffix = str(k) if len(panels) > 1 else ""
        dims[f"H{suffix}"], dims[f"G{suffix}"] = (p.n, nt), (nr, p.n)
    dims["D"] = (nr, nt)
    return dims

def _chunk_draws(config: RunConfig) -> int:
    """Realizations per chunk: as many as ``_CHUNK_BYTES`` of channel
    tensors hold, at least one."""
    per_draw = 16 * sum(rows * cols for rows, cols in _tensor_dims(config).values())
    return max(1, _CHUNK_BYTES // per_draw)

def _part(path: Path) -> Path:
    """Where ``path`` is written until it is complete."""
    return path.with_name(path.name + ".part")

@contextmanager
def _removed_on_error(parts):
    """Remove the ``.part`` files ``parts`` if the block raises, so a failed
    run leaves no partial file behind."""
    try:
        yield
    except BaseException:
        for part in parts:
            part.unlink(missing_ok=True)
        raise

def _publish(out: Path, files: dict[str, Path], metadata: dict) -> Path:
    """Write ``metadata.json`` under its ``.part`` name, then give the
    complete ``.part`` files of ``files`` their final names and the sidecar
    its name, last. If the sidecar cannot be written, every ``.part`` file
    is removed and the old outputs stay as they were. The old sidecar goes
    before the first rename, so none is left over a mix of old and new
    files, and each old output goes just before its ``.part`` file takes
    its name: a rename onto an existing file would make ext4 write the new
    file's data back first (its ``auto_da_alloc`` heuristic). If a rename
    fails, the ``.part`` files left are removed too; the directory then
    holds no ``metadata.json``. Nothing is fsynced: this guards against a
    failing run, not a crash of the machine, after which a ``metadata.json``
    may stand beside outputs whose data never reached the disk."""
    meta_path = out / "metadata.json"
    with _removed_on_error([_part(meta_path), *map(_part, files.values())]):
        write_metadata(_part(meta_path), metadata)
        meta_path.unlink(missing_ok=True)
        for path in files.values():
            path.unlink(missing_ok=True)
            os.replace(_part(path), path)
        os.replace(_part(meta_path), meta_path)
    return meta_path

def _stream(config: RunConfig, files: dict[str, Path], count: int, step: int, work, append):
    """Write ``files`` under their ``.part`` names, chunk by chunk, and
    return their digests by key; ``config.out_dir`` is created if missing.

    ``work`` takes the indices ``0 .. count - 1`` as ranges of ``step``, in
    index order, and returns a chunk's results, and ``append(parts, start,
    results)`` appends them to the part files. If anything raises, the part
    files are removed."""
    config.out_dir.mkdir(parents=True, exist_ok=True)
    parts = {key: _part(path) for key, path in files.items()}
    with _removed_on_error(parts.values()):
        for start in range(0, count, step):
            chunk = range(start, min(start + step, count))
            append(parts, start, work(chunk))
        return {key: file_digest(part) for key, part in parts.items()}

def _result(config: RunConfig, files, digests, rates, dims, **fields) -> RunResult:
    """Publish ``files`` with a sidecar: the fields of every run, the entry
    point's ``fields``, then every file with its digest, and its ``dims``
    for a tensor."""
    listing = {
        key: {"file": path.name, "sha256": digests[key]}
        | ({"dims": [config.realizations, *dims[key]]} if key in dims else {})
        for key, path in files.items()
    }
    metadata = {
        "tool": "rischan",
        "tool_version": __version__,
        "config_sha256": config.config_sha256,
        "band": config.band,
        "seed": config.seed,
        "realizations": config.realizations,
        "strategy": config.strategy,
        **fields,
        "files": listing,
    }
    files = {**files, "metadata": _publish(config.out_dir, files, metadata)}
    return RunResult(out_dir=config.out_dir, files=files, digests=digests, rates=rates, metadata=metadata)

def run(config: RunConfig) -> RunResult:
    """Execute a realization run and write its outputs.

    Writes (under ``config.out_dir``): one ``.risch`` tensor per channel
    matrix when ``write_channels``, ``rates.csv`` when ``write_rates``, CSV
    mirrors of the tensors when ``csv``, and always ``metadata.json`` with
    dims and SHA-256 digests of every written file.

    Realizations are drawn and appended to the files chunk by chunk, so
    memory does not grow with ``config.realizations``: the run holds one
    chunk and the rates. Files are written under ``.part`` names, the new
    ``metadata.json`` included, and renamed once all are complete, the
    sidecar last. A run that raises before the renames (in generation, a
    digest or the sidecar write) removes its ``.part`` files and leaves every
    old file as it was; ``out_dir`` itself is created if missing. The old
    sidecar is deleted before the first rename, and each old output just
    before its new file takes its name, so if a rename itself fails, the
    directory holds no ``metadata.json`` and no ``.part`` file.
    """
    dims = _tensor_dims(config)
    files: dict[str, Path] = {}
    if config.write_channels:
        for name in dims:
            files[name] = config.out_dir / f"{name}.risch"
            if config.csv:
                files[f"{name}_csv"] = config.out_dir / f"{name}.csv"
    if config.write_rates:
        files["rates"] = config.out_dir / "rates.csv"
    rates = np.empty(config.realizations)

    def work(chunk):
        reals = _realizations(config, config.scene, config.seed, chunk)
        return _map_ordered(lambda real: _one_realization(config, real, config.seed), reals, config.workers)

    def append(parts, start, results):
        if config.write_channels:
            # per draw H, G (H0, G0, H1, ...) then D, the order of dims
            mats = zip(*[[m for hop in real.hops for m in hop] + [real.D] for real, _ in results])
            for name, chunk in zip(dims, mats):
                write_tensor(parts[name], chunk, start, config.realizations)
                if config.csv:
                    write_tensor_csv(parts[f"{name}_csv"], chunk, start)
        chunk_rates = [rate for _, rate in results]
        rates[start:start + len(chunk_rates)] = chunk_rates
        if config.write_rates:
            write_csv(parts["rates"], "index,rate_bits_hz", "{},{:.12g}", enumerate(chunk_rates, start), start)

    digests = _stream(config, files, config.realizations, _chunk_draws(config), work, append)
    return _result(
        config, files, digests, rates, dims,
        format="RISCH1",
        format_version=1,
        quant_bits=config.quant_bits,
        tx_power_dbm=config.tx_power_dbm,
        noise_dbm=config.noise_dbm,
        mean_rate_bits_hz=float(rates.mean()),
    )

def coverage_run(config: RunConfig) -> RunResult:
    """Sweep the receiver over the configured grid; mean rate per cell.

    Each cell gets its own hash-derived seed namespace, so the map is
    independent of cell evaluation order and worker count. Cells whose
    position collides with a terminal, or leaves a link the band evaluates
    with the close-in law shorter than its 1 m reference distance, come out
    NaN. The result's ``rates`` is the (nx, ny) grid over
    ``config.coverage.xs`` and ``.ys``. Writes ``coverage.csv`` (x, y,
    mean_rate_bits_hz) one grid column (the cells of one x) at a time, plus
    ``metadata.json``, through the output path of ``run``.
    """
    if config.coverage is None:
        raise ConfigError("coverage: section is required for a coverage run")
    area = config.coverage
    xs, ys = area.xs, area.ys
    grid, step = np.empty((xs.size, ys.size)), _chunk_draws(config)

    def one_cell(cell):
        ix, iy = divmod(cell, ys.size)
        pos = Point3(float(xs[ix]), float(ys[iy]), area.z)
        try:
            scene = config.scene.with_rx(pos)
            _check_close_in(config.band, scene, config.sub6_g_mode, config.sub6_edge_m)
        except ConfigError:
            return math.nan  # cell sits on a terminal, or closer than the close-in law holds
        seed_val = cell_seed(config.seed, ix, iy)
        indices, total = range(config.realizations), 0.0
        for start in range(0, len(indices), step):
            for real in _realizations(config, scene, seed_val, indices[start:start + step]):
                total += _one_realization(config, real, seed_val)[1]
        return total / config.realizations

    def append(parts, start, values):
        grid.flat[start:start + len(values)] = values
        x = xs[start // ys.size]
        rows = ((x, y, value) for y, value in zip(ys, values))
        write_csv(parts["coverage"], "x,y,mean_rate_bits_hz", "{:.12g},{:.12g},{:.12g}", rows, start)

    files = {"coverage": config.out_dir / "coverage.csv"}
    digests = _stream(
        config, files, grid.size, ys.size, lambda cells: _map_ordered(one_cell, cells, config.workers), append
    )
    grid_meta = {"nx": int(xs.size), "ny": int(ys.size), "z": area.z, "step": area.step}
    return _result(config, files, digests, grid, {}, grid=grid_meta)
