"""The benchmark's contract with the package, on shrunken workloads.

``bench/`` runs each workload through the public API, checks its outputs
with ``bench/gate.py`` and traces it with ``bench/tracer.py``, which binds
functions inside the package by name. A change that breaks any of that
fails here, in the unit suite, rather than only when the benchmark runs.
Nothing under ``bench/`` is modified; ``workload.py`` (the measuring
process) is not imported.
"""

import sys
from dataclasses import replace
from pathlib import Path

import pytest

from rischan import coverage_run, load_config, run

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_passes_gate_and_trace(tmp_path, name):
    spec = workloads.WORKLOADS[name]
    entry = run if spec["entry"] == "run" else coverage_run
    config = load_config(workloads.config_for(name, 1, str(tmp_path)))
    config = replace(config, realizations=1 if config.coverage else 20)

    out = entry(config)
    result = out[1] if isinstance(out, tuple) else out
    assert gate.check(config, result) == []

    trace = tracer.Tracer()
    traced, _ = trace.call(entry, config)
    traced = traced[1] if isinstance(traced, tuple) else traced
    assert traced.digests == result.digests
    draws = result.rates.size * (config.realizations if config.coverage else 1)
    assert trace.metrics(0.0)["trace.draws"] == draws
    call = trace.calls[-1]
    assert call["simio.bytes_written"] > 0
    if entry is run:
        assert call["engine.retained_mb"] > 0 and call["simio.digest_s"] > 0
