"""One benchmark workload, measured in its own process.

Started by ``run.py`` with the BLAS thread count pinned in the environment.
``--t0`` is the ``time.monotonic()`` reading the parent took just before it
started this process, so set-up time covers the interpreter start, the
numpy and rischan imports, ``load_config`` and creating the output
directory, up to the first draw. With ``--probe`` the process stops there.

Otherwise it warms up with one short call, then repeats the workload's full
call until ``--seconds`` have passed and reports the median draws per second
over the calls. With ``--trace 1`` it alternates untraced and traced calls
and reports the per-layer figures of ``tracer.py`` as well. The correctness
gate of ``gate.py`` runs on the last call's files. The result is one JSON
object on the last line of standard output.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import numpy as np  # noqa: E402
import rischan  # noqa: E402
from rischan import coverage_run, load_config, run  # noqa: E402

import workloads  # noqa: E402


def _blas_info() -> dict:
    """BLAS name and version from numpy's build, OpenBLAS core via ctypes."""
    import ctypes
    import re

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info = {"blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_core": None, "blas_threads": None}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", fh.read())))
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("", "scipy_"):
            for suffix in ("", "64_"):
                core = getattr(lib, f"{prefix}openblas_get_corename{suffix}", None)
                threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
                if core is None or threads is None:
                    continue
                core.argtypes, core.restype = [], ctypes.c_char_p
                threads.argtypes, threads.restype = [], ctypes.c_int
                info["blas_core"] = core().decode()
                info["blas_threads"] = threads()
                return info
    return info


def machine() -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "rischan": rischan.__version__,
        **_blas_info(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "pinned_blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


class Workload:
    """The workload's config and its public entry point."""

    def __init__(self, name: str, seed: int, out_dir: Path):
        spec = workloads.WORKLOADS[name]
        self.config = load_config(workloads.config_for(name, seed, str(out_dir)))
        self.config.out_dir.mkdir(parents=True, exist_ok=True)
        self.entry = run if spec["entry"] == "run" else coverage_run
        self.warmup = replace(self.config, realizations=spec["warmup_realizations"],
                              out_dir=out_dir / "warmup")

    @property
    def draws(self) -> int:
        """Draws in one call of the full workload."""
        area = self.config.coverage
        return (area.xs.size * area.ys.size if area else 1) * self.config.realizations

    def result_of(self, out):
        """(RunResult, draws whose rate came out non-finite)."""
        result = out[1] if isinstance(out, tuple) else out
        per_value = self.config.realizations if self.config.coverage else 1
        return result, int(np.count_nonzero(~np.isfinite(result.rates))) * per_value


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args()

    work = Workload(args.workload, args.seed, args.out)
    setup_s = time.monotonic() - args.t0
    if args.probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import gate
    import tracer

    config, draws = work.config, work.draws
    tr = tracer.Tracer()
    rates = {False: [], True: []}
    digests, errors = [], []
    try:
        work.entry(work.warmup)
    except Exception as exc:  # the measured calls fail too, and count it
        errors.append(f"warm-up: {type(exc).__name__}: {exc}")
    attempted = failed = 0
    last = None
    rounds = 0
    start = time.perf_counter()
    while True:
        rounds += 1
        for traced in (False, True) if args.trace else (False,):
            attempted += draws
            try:
                if traced:
                    out, wall = tr.call(work.entry, config)
                else:
                    t0 = time.perf_counter()
                    out = work.entry(config)
                    wall = time.perf_counter() - t0
            except Exception as exc:  # a call that raises fails all of its draws
                failed += draws
                if f"{type(exc).__name__}: {exc}" not in errors:
                    errors.append(f"{type(exc).__name__}: {exc}")
                continue
            last, bad = work.result_of(out)
            failed += bad
            rates[traced].append(draws / wall)
            digests.append(last.digests)
        # a traced run needs two traced calls at least, for a median to mean anything
        if time.perf_counter() - start >= args.seconds and rounds >= 1 + args.trace:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    problems = list(errors)
    if last is None:
        problems.append("no call completed")
    else:
        if any(d != digests[0] for d in digests):
            problems.append("output digests differ between repeats of the call")
        problems += gate.check(config, last)
    per_layer = None
    if args.trace and rates[True] and rates[False]:
        overhead = 1.0 - statistics.median(rates[True]) / statistics.median(rates[False])
        per_layer = tr.metrics(overhead)
        accounted = per_layer["trace.accounted_frac"]
        if abs(accounted - 1.0) > tracer.ACCOUNTING_TOLERANCE:
            problems.append(f"reported layer self times account for {accounted:.3f} of the traced wall time")
    report = {
        "setup_s": setup_s,
        "draws_per_s": statistics.median(rates[False]) if rates[False] else 0.0,
        "calls_draws_per_s": rates[False],
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": attempted if problems else failed,
        "problems": problems,
        "digests": digests[0] if digests else {},
        "machine": machine(),
        "per_layer": per_layer,
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
