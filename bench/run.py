"""rischan benchmark: Monte Carlo draws per second, set-up time and memory.

Run from the repository root:

    python3 bench/run.py                   # every workload, one summary line each
    python3 bench/run.py --workload indoor_siso_n256 --seed 1 --seconds 30 --trace 0

Each workload (``workloads.py``) runs in processes of its own, started here
with the BLAS thread count pinned to ``BLAS_THREADS``: ``SETUP_PROBES``
processes that only set up, then one that measures (``workload.py``).

``--trace 0`` reports the end-to-end metrics: ``draws_per_s`` (median over
the calls of one run, after a warm-up call), ``setup_s`` (median over the
measuring process and the probes) and ``peak_rss_mb``. ``failed_frac`` is
printed with them; in the result line it is ``failed`` / ``attempted``.
``--trace 1`` alternates untraced and traced calls and reports the
per-layer metrics of ``tracer.py`` instead. End-to-end numbers come from
untraced calls only.

Every run passes the correctness gate of ``gate.py`` or fails: the last line
of standard output is then ``"correct": false`` and the exit code is 1.
Digests are compared only between the repeats inside one run, never with an
earlier run, so a change that alters the output bytes on purpose still passes.
Every result is also appended, with the machine it ran on and a hash of the
rischan sources, to ``.bench_out/results.jsonl``, which is a record and no
check. A result taken under another BLAS build or core than the previous
result of its workload there is marked ``"comparable": false``.

The default seed is ``workloads.DEFAULT_SEED``; ``workloads.HELD_OUT_SEED``
is kept for validating a later claim on a seed it was not tuned on.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
OUT = Path(".bench_out")
BLAS_THREADS = "1"
SETUP_PROBES = 6
# Time all processes of one workload may take beyond --seconds (probes,
# warm-up, the last call and the gate), so that a 30 s run ends within 3 minutes.
DEADLINE_MARGIN_S = 140.0
MACHINE_KEYS = ("blas", "blas_version", "blas_core", "nproc", "pinned_blas_threads")
_SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"] + _SPEC["per_layer"]}


def source_hash() -> str:
    """SHA-256 over the rischan sources, naming the code a result measured."""
    h = hashlib.sha256()
    for path in sorted(Path("src/rischan").rglob("*.py")):
        h.update(path.as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def start_process(args: argparse.Namespace, out_dir: Path, probe: bool, timeout: float) -> dict:
    """Run ``workload.py`` once; its last output line is a JSON report."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(out_dir)]
    if probe:
        cmd.append("--probe")
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], stdout=subprocess.PIPE, text=True,
                          env=env, timeout=max(timeout, 1.0))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def measure(args: argparse.Namespace) -> dict:
    """Probes, then the measuring process, for one workload."""
    deadline = time.monotonic() + args.seconds + DEADLINE_MARGIN_S
    out_dir = OUT / args.workload
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            setups.append(start_process(args, out_dir, True, deadline - time.monotonic())["setup_s"])
    report = start_process(args, out_dir, False, deadline - time.monotonic())
    setups.append(report["setup_s"])
    report["setup_s"] = statistics.median(setups)
    return report


def record(args: argparse.Namespace, report: dict, metrics: dict) -> bool:
    """Append the result to the results log; False if not comparable.

    A result is comparable when its BLAS build and core, CPU count and pinned
    BLAS thread count match those of the previous result of the same workload.
    """
    log = OUT / "results.jsonl"
    earlier = [json.loads(line) for line in log.read_text(encoding="utf-8").splitlines()] if log.exists() else []
    previous = [e for e in earlier if e["workload"] == args.workload]
    machine = report["machine"]
    comparable = not previous or all(previous[-1]["machine"].get(k) == machine.get(k) for k in MACHINE_KEYS)
    entry = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
             "trace": args.trace, "source": source_hash(), "machine": machine, "comparable": comparable,
             "attempted": report["attempted"], "failed": report["failed"],
             "problems": report["problems"], "digests": report["digests"], "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    with open(log, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry) + "\n")
    return comparable


def one_workload(args: argparse.Namespace) -> dict:
    """Measure one workload; returns the result object of the last line."""
    try:
        report = measure(args)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    if args.trace:
        values = report["per_layer"] or {}
    else:
        values = {k: report[k] for k in ("draws_per_s", "setup_s", "peak_rss_mb")}
    metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    m = report["machine"]
    print(f"{args.workload}: seed {args.seed}, python {m['python']}, numpy {m['numpy']}, "
          f"{m['blas']} {m['blas_version']} core {m['blas_core']}, nproc {m['nproc']}, "
          f"BLAS threads {m['blas_threads']} (pinned {m['pinned_blas_threads']})", file=sys.stderr)
    if not record(args, report, metrics):
        print(f"{args.workload}: BLAS or machine differs from the previous result in "
              f"{OUT / 'results.jsonl'}; not comparable", file=sys.stderr)
    for problem in report["problems"]:
        print(f"{args.workload}: FAILED CHECK: {problem}", file=sys.stderr)
    return {"correct": not report["problems"], "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=["all", *workloads.WORKLOADS])
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (Path("src") / "rischan" / "__init__.py").is_file():
        print("bench/run.py: run it from the root of a rischan checkout "
              "(src/rischan not found)", file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        args.workload = name
        result = results[name] = one_workload(args)
        failed_frac = result["failed"] / result["attempted"]
        summary = [f"{k} {m['value']:.6g} {m['unit']}" for k, m in result["metrics"].items()]
        print(f"{name} seed={args.seed}: " + ", ".join(summary + [f"failed_frac {failed_frac:.6g}"]),
              file=sys.stdout if len(names) > 1 else sys.stderr)
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
