"""Correctness gate run on every benchmark run.

It pins no golden digests: the channel bytes depend on the BLAS kernel
(``OPENBLAS_CORETYPE``), and the gate has to hold on any machine. Instead it
checks that the files a run wrote agree with themselves and with rischan's
public API:

* every file listed in ``metadata.json`` re-hashes to its recorded digest;
* a sample of realization indices, regenerated in isolation with
  ``realize`` / ``realize_multi``, matches the ``read_tensor`` slices byte
  for byte, and their recomputed rates match ``rates.csv`` as written;
* a sample of coverage cells, recomputed from ``cell_seed`` + ``with_rx``
  with ``realize_sub6``, matches ``coverage.csv`` within 1e-9 relative.

Each check returns a list of problems; an empty list means the run passed.
"""

from __future__ import annotations

import hashlib
import random

import numpy as np
from rischan import (
    Point3,
    achievable_rate,
    cell_seed,
    compose_end_to_end,
    compose_multi,
    distance,
    fraunhofer_distance,
    phases_cophase,
    phases_dominant,
    read_metadata,
    read_tensor,
    realize,
    realize_multi,
    realize_sub6,
)

SAMPLE = 8
CELL_RTOL = 1e-9


def _phases(strategy: str, h, g):
    if strategy == "cophase":
        return phases_cophase(h[:, 0], g[0, :])
    if strategy == "pinv_surrogate":
        return phases_dominant(h, g)
    raise ValueError(f"the gate does not model control strategy {strategy!r}")


def _rate(config, composed) -> float:
    return achievable_rate(composed, config.tx_power_dbm, config.noise_dbm).rate_bits_hz


def check_files(out_dir, digests: dict[str, str]) -> list[str]:
    """Re-hash every file in ``metadata.json`` against its recorded digest."""
    meta = read_metadata(out_dir / "metadata.json")
    problems = []
    for name, entry in meta["files"].items():
        actual = hashlib.sha256((out_dir / entry["file"]).read_bytes()).hexdigest()
        if actual != entry["sha256"] or actual != digests.get(name):
            problems.append(f"{entry['file']}: digest {actual[:12]} does not match metadata.json")
    return problems


def check_draws(config) -> list[str]:
    """Regenerate sampled realizations and compare them with the files."""
    out = config.out_dir
    tensors = {
        entry["file"][: -len(".risch")]: read_tensor(out / entry["file"])
        for entry in read_metadata(out / "metadata.json")["files"].values()
        if entry["file"].endswith(".risch")
    }
    rate_rows = (out / "rates.csv").read_text(encoding="utf-8").splitlines()[1:]
    count = config.realizations
    picks = random.Random(config.seed).sample(range(count), min(SAMPLE, count))
    problems = []
    for i in sorted({0, count - 1, *picks}):
        if config.multi:
            real = realize_multi(config.scene, config.seed, i, clustered=config.clustered)
            mats = {"D": real.D}
            for k, (h, g) in enumerate(real.hops):
                mats[f"H{k}"], mats[f"G{k}"] = h, g
            composed = compose_multi(real, [_phases(config.strategy, h, g) for h, g in real.hops])
        else:
            real = realize(config.scene, config.seed, i, clustered=config.clustered)
            mats = {"H": real.H, "G": real.G, "D": real.D}
            composed = compose_end_to_end(real, _phases(config.strategy, real.H, real.G))
        for name, mat in mats.items():
            if np.ascontiguousarray(mat).tobytes() != tensors[name][i].tobytes():
                problems.append(f"realization {i}: {name} differs from {name}.risch")
        if rate_rows[i] != f"{i},{_rate(config, composed):.12g}":
            problems.append(f"realization {i}: rate differs from rates.csv")
    return problems


def check_cells(config) -> list[str]:
    """Recompute sampled coverage cells, near-field and far-field ones."""
    area, scene = config.coverage, config.scene
    rows = (config.out_dir / "coverage.csv").read_text(encoding="utf-8").splitlines()[1:]
    values = np.array([float(row.split(",")[2]) for row in rows]).reshape(area.xs.size, area.ys.size)
    r_f = fraunhofer_distance(scene.ris_geometry, scene.wavelength, config.sub6_edge_m)
    near, far = [], []
    for ix, x in enumerate(area.xs):
        for iy, y in enumerate(area.ys):
            pos = Point3(float(x), float(y), area.z)
            (near if distance(scene.ris, pos) < r_f else far).append((ix, iy, pos))
    rng = random.Random(config.seed)
    picks = rng.sample(near, min(3, len(near))) + rng.sample(far, min(3, len(far)))
    problems = []
    for ix, iy, pos in picks:
        cell_scene = scene.with_rx(pos)
        seed = cell_seed(config.seed, ix, iy)
        total = 0.0
        for i in range(config.realizations):
            real = realize_sub6(
                cell_scene, seed, i, config.sub6_params, config.sub6_g_mode, config.sub6_edge_m
            )
            total += _rate(config, compose_end_to_end(real, _phases(config.strategy, real.H, real.G)))
        expected = total / config.realizations
        if not abs(values[ix, iy] - expected) <= CELL_RTOL * abs(expected):
            problems.append(f"cell ({ix}, {iy}): {float(values[ix, iy])!r} vs recomputed {expected!r}")
    return problems


def check(config, result) -> list[str]:
    """Every check that applies to the run behind ``result``."""
    problems = check_files(config.out_dir, result.digests)
    problems += check_cells(config) if config.coverage is not None else check_draws(config)
    return problems
