"""Layer spans for rischan, recorded from outside the package.

The tracer replaces the bindings through which one rischan module calls
another (for example ``rischan.mmwave.steering_matrix``, the name mmwave
looks up when it steers) with wrappers that record a span: its layer and
operation, start, end, the span that caused it, and the draw it belongs to.
Nothing under ``src/rischan`` changes; ``uninstall`` puts the original
functions back. Spans are kept in memory and reduced after each traced call,
outside the timed region.

Layers are the modules of ``rischan``. A layer's self time is its span's
duration minus the time of the spans it caused. The self times of all spans
add up to the entry span by construction, so the accounting check sums only
the spans some per-layer metric reports (``REPORTED``): time in a call the
tracer does not wrap, or in the entry point's own code (stacking, CSV
writes), is left over and shows as a shortfall.
``geometry``, ``propagation`` and ``scene`` are leaf helpers whose time
falls into their callers' self time.

The draw span is ``engine._one_realization``: the engine's per-draw
function, which ``run`` and ``coverage_run`` both look up at call time.
"""

from __future__ import annotations

import importlib
import itertools
import os
import time
from contextlib import contextmanager

import numpy as np

DRAW = "engine.draw"
POOL = "engine.pool"
ENTRY = "engine.run"

# (module holding the binding, attribute, span name). Each row is a call
# from one module into another; together they cover every cross-module call
# that the three workloads make into a measured layer.
BINDINGS = (
    ("engine", "_one_realization", DRAW),
    ("engine", "_map_ordered", POOL),
    ("engine", "substream", "streams.derive"),
    ("engine", "cell_seed", "streams.cell_seed"),
    ("mmwave", "substream", "streams.derive"),
    ("sub6", "substream", "streams.derive"),
    ("mmwave", "generate_clusters", "scattering.generate"),
    ("mmwave", "share_clusters", "scattering.share"),
    ("multiris", "generate_clusters", "scattering.generate"),
    ("mmwave", "steering_matrix", "arrays.steering"),
    ("mmwave", "steering_vector", "arrays.steering"),
    ("sub6", "steering_matrix", "arrays.steering"),
    ("mmwave", "element_gain", "arrays.pattern"),
    ("sub6", "element_gain", "arrays.pattern"),
    ("engine", "realize", "mmwave.realize"),
    ("engine", "compose_end_to_end", "mmwave.compose"),
    ("engine", "realize_multi", "multiris.realize"),
    ("engine", "compose_multi", "multiris.compose"),
    ("engine", "realize_sub6", "sub6.realize"),
    ("sub6", "gen_g_near", "sub6.nearfield"),
    ("engine", "phases_cophase", "control.phases"),
    ("engine", "phases_dominant", "control.phases"),
    ("engine", "random_phases", "control.phases"),
    ("engine", "quantize_phases", "control.phases"),
    ("engine", "achievable_rate", "control.rate"),
    ("engine", "write_tensor", "simio.write"),
    ("engine", "write_tensor_csv", "simio.write"),
    ("engine", "write_metadata", "simio.write"),
    ("engine", "file_digest", "simio.digest"),
)

# Per-draw self times, as (metric, span names summed); each is reported as a
# median and p99 over the draws that enter those spans.
DRAW_TIMES = (
    ("streams.us_per_draw", ("streams.derive",)),
    ("scattering.us_per_draw", ("scattering.generate", "scattering.share")),
    ("arrays.us_per_draw", ("arrays.steering", "arrays.pattern")),
    ("mmwave.self_us_per_draw", ("mmwave.realize",)),
    ("mmwave.compose_us_per_draw", ("mmwave.compose",)),
    ("multiris.self_us_per_draw", ("multiris.realize",)),
    ("multiris.compose_us_per_draw", ("multiris.compose",)),
    ("sub6.self_us_per_draw", ("sub6.realize",)),
    ("sub6.nearfield_us_per_draw", ("sub6.nearfield",)),
    ("control.phases_us_per_draw", ("control.phases",)),
    ("control.rate_us_per_draw", ("control.rate",)),
    ("engine.self_us_per_draw", (DRAW,)),
)

# Spans whose self time some per-layer metric reports. ENTRY, POOL and
# streams.cell_seed self times are in no metric and are left out.
REPORTED = frozenset(x for _, names in DRAW_TIMES for x in names) | {"simio.write", "simio.digest"}

# Per-draw counts, as (metric, key): a span name counts its spans, a name
# with "#n" sums what those spans counted (sub-rays, exponentials).
DRAW_COUNTS = (
    ("streams.substreams_per_draw", "streams.derive"),
    ("scattering.sets_per_draw", "scattering.generate"),
    ("scattering.subrays_per_draw", "scattering.generate#n"),
    ("arrays.steering_calls_per_draw", "arrays.steering"),
    ("arrays.exps_per_draw", "arrays.steering#n"),
    ("sub6.near_frac", "sub6.nearfield"),
)

# The share of the traced wall time that the reported spans' self times may
# leave unexplained before the traced run fails its check. On a 2-CPU x86-64
# host the shortfall was 1.1 % (indoor), 0.6 % (umi) and 0.3 % (sub6).
ACCOUNTING_TOLERANCE = 0.03


def _tensor_bytes(real) -> int:
    mats = [real.D] + [m for hop in getattr(real, "hops", ()) for m in hop]
    if not hasattr(real, "hops"):
        mats += [real.H, real.G]
    return sum(m.nbytes for m in mats)


class Tracer:
    """Records spans around rischan's cross-module calls while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.generators: list = []
        self.calls: list[dict] = []
        self.draws: dict[str, list[float]] = {}
        self._ids = itertools.count()
        self._stack: list[tuple[int, int]] = []  # (span, draw) of the open spans
        self._saved: list[tuple] = []

    def _counter(self, name: str):
        """What a span of ``name`` counts: (args, result) -> int."""
        if name == "streams.derive":
            def derive(args, gen):
                self.generators.append(gen)
                return 1
            return derive
        if name == "scattering.generate":
            return lambda args, clusters: clusters.n_subrays
        if name == "arrays.steering":
            return lambda args, a: a.size  # elements x directions
        if name == DRAW:
            return lambda args, out: _tensor_bytes(out[0])
        if name == "simio.write":
            return lambda args, _: os.path.getsize(args[0])
        return None

    def _wrap(self, fn, name: str):
        spans, ids, stack, clock = self.spans, self._ids, self._stack, time.perf_counter
        count = self._counter(name)
        is_draw = name == DRAW

        def traced(*args, **kwargs):
            sid = next(ids)
            parent, draw = stack[-1] if stack else (-1, -1)
            if is_draw:
                draw = sid
            stack.append((sid, draw))
            record = [sid, parent, draw, name, 0.0, 0.0, 0]
            record[4] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[5] = clock()
                stack.pop()
                spans.append(record)
            if count is not None:
                record[6] = count(args, result)
            return result

        return traced

    def install(self) -> None:
        for mod_name, attr, name in BINDINGS:
            module = importlib.import_module(f"rischan.{mod_name}")
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def call(self, entry, config):
        """Run ``entry(config)`` as a traced call; returns (result, wall_s)."""
        if config.workers != 1:
            # pool threads would run their draws outside the calling thread's
            # spans, and the accounting below would miss them
            raise ValueError("the tracer accounts for runs with one worker only")
        traced = self._wrap(entry, ENTRY)
        with self.installed():
            t0 = time.perf_counter()
            result = traced(config)
            wall = time.perf_counter() - t0
        self._reduce(wall, entry.__name__ == "run")
        return result, wall

    def _reduce(self, wall: float, holds_tensors: bool) -> None:
        """Fold one call's spans into per-draw and per-call figures."""
        spans = self.spans
        dur = {s[0]: s[5] - s[4] for s in spans}
        children: dict[int, float] = {}
        for sid, parent, *_ in spans:
            if parent >= 0:
                children[parent] = children.get(parent, 0.0) + dur[sid]
        per_draw: dict[int, dict[str, float]] = {}
        counts: dict[int, dict[str, int]] = {}
        layer_s: dict[str, float] = {}
        pool_s = busy = 0.0
        for sid, parent, draw, name, t0, t1, n in spans:
            self_s = dur[sid] - children.get(sid, 0.0)
            layer_s[name] = layer_s.get(name, 0.0) + self_s
            if name == POOL:
                pool_s += dur[sid]
            elif name == DRAW:
                busy += dur[sid]
            if draw >= 0:
                times = per_draw.setdefault(draw, {})
                times[name] = times.get(name, 0.0) + self_s
                c = counts.setdefault(draw, {})
                c[name] = c.get(name, 0) + 1
                c[name + "#n"] = c.get(name + "#n", 0) + n

        for d, times in per_draw.items():
            for metric, names in DRAW_TIMES:
                self.draws.setdefault(metric, []).append(1e6 * sum(times.get(x, 0.0) for x in names))
            for metric, key in DRAW_COUNTS:
                self.draws.setdefault(metric, []).append(counts[d].get(key, 0))
            self.draws.setdefault("arrays.steering_s", []).append(times.get("arrays.steering", 0.0))

        used = sum(
            bool(np.any(g.bit_generator.state["state"]["counter"])) for g in self.generators
        )
        retained = sum(c.get(DRAW + "#n", 0) for c in counts.values()) if holds_tensors else 0
        self.calls.append({
            "accounted_frac": sum(t for x, t in layer_s.items() if x in REPORTED) / wall,
            "engine.worker_util": busy / pool_s if pool_s else 0.0,
            "substreams": len(self.generators),
            "substreams_used": used,
            "simio.bytes_written": sum(s[6] for s in spans if s[3] == "simio.write"),
            "simio.write_s": layer_s.get("simio.write", 0.0),
            "simio.digest_s": layer_s.get("simio.digest", 0.0),
            "engine.retained_mb": retained / 1e6,
        })
        self.spans.clear()
        self.generators.clear()

    def metrics(self, overhead_frac: float) -> dict[str, float]:
        """Per-layer metrics over every traced call so far."""
        out: dict[str, float] = {
            "trace.draws": len(self.draws.get("engine.self_us_per_draw", [])),
            "trace.overhead_frac": overhead_frac,
            "trace.accounted_frac": float(np.median([c["accounted_frac"] for c in self.calls])),
        }
        for metric, _ in DRAW_TIMES:
            # over the draws that enter the layer: sub6's near-field response
            # runs in about a fifth of the draws, and its median over all
            # draws would read 0
            samples = [t for t in self.draws.get(metric, []) if t > 0.0] or [0.0]
            out[metric] = float(np.median(samples))
            out[metric + ".p99"] = float(np.percentile(samples, 99))
        for metric, _ in DRAW_COUNTS:
            out[metric] = float(np.mean(self.draws.get(metric, [0])))
        exps = float(np.sum(self.draws.get("arrays.exps_per_draw", [0])))
        steer = float(np.sum(self.draws.get("arrays.steering_s", [0.0])))
        out["arrays.ns_per_exp"] = 1e9 * steer / exps if exps else 0.0
        derived = sum(c["substreams"] for c in self.calls)
        out["streams.used_frac"] = sum(c["substreams_used"] for c in self.calls) / derived if derived else 0.0
        for key in ("simio.bytes_written", "simio.write_s", "simio.digest_s",
                    "engine.retained_mb", "engine.worker_util"):
            out[key] = float(np.median([c[key] for c in self.calls]))
        return out
