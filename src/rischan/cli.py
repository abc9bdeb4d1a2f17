"""Command-line front end.

Subcommands:

* ``gen``       generate channel realizations, write tensor files
* ``rate``      generate channels and the per-realization rate table
* ``coverage``  receiver-grid sweep of the mean achievable rate
* ``validate``  check a configuration and print its summary

All take ``-c/--config config.json`` plus a few overriding flags. The
``RISCHAN_PARAMS`` environment variable names a JSON path-loss parameter
table used when the configuration has no ``params`` entry; a relative
``params`` path in the config file is taken from that file's directory,
a relative ``RISCHAN_PARAMS`` from the working directory.

Exit codes: 0 success, 2 configuration problem (bad file, bad field,
unknown key), 3 runtime failure during generation or output writing.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from .engine import BANDS, STRATEGIES, coverage_run, load_config, read_config, run
from .errors import ConfigError

__all__ = ["main"]

PARAMS_ENV = "RISCHAN_PARAMS"


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("-c", "--config", required=True, help="path to the JSON run configuration")
    p.add_argument("--seed", type=int, help="override the master seed")
    p.add_argument("--realizations", type=int, help="override the realization count")
    p.add_argument("--out-dir", help="override the output directory")
    p.add_argument("--workers", type=int, help="override the worker count")
    p.add_argument("--strategy", choices=STRATEGIES, help="override the control strategy")
    p.add_argument("--quant-bits", type=int, help="override the phase quantizer resolution")
    p.add_argument("--frequency-ghz", type=float, help="override the carrier frequency")
    p.add_argument("--band", choices=BANDS, help="override the band")
    p.add_argument("--csv", action="store_true", help="also write CSV mirrors of the tensors")

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rischan",
        description="Deterministic channel simulator for surface-assisted links.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("gen", "generate channel tensors"),
        ("rate", "generate channels and per-realization rates"),
        ("coverage", "sweep the receiver grid and map the mean rate"),
        ("validate", "validate a configuration without running it"),
    ):
        _add_common(sub.add_parser(name, help=help_text))
    return parser

def _load(args: argparse.Namespace):
    data = read_config(args.config)
    for key in ("seed", "realizations", "out_dir", "workers", "frequency_ghz", "band"):
        if getattr(args, key) is not None:
            data[key] = getattr(args, key)
    control = data.get("control", {})
    if isinstance(control, dict) and (args.strategy is not None or args.quant_bits is not None):
        control = dict(control)
        if args.strategy is not None:
            control["strategy"] = args.strategy
        if args.quant_bits is not None:
            control["quant_bits"] = args.quant_bits
        data["control"] = control
    if args.csv:
        data["csv"] = True

    return load_config(data, default_params_path=os.environ.get(PARAMS_ENV))

def _print_result(result) -> None:
    for name in sorted(result.files):
        path = result.files[name]
        digest = result.digests.get(name)
        line = f"wrote {path}"
        if digest:
            line += f"  sha256={digest[:16]}..."
        print(line)
    mean = result.metadata.get("mean_rate_bits_hz")
    if mean is not None:
        print(f"mean rate: {mean:.4f} bit/s/Hz")

def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _load(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "validate":
            print("configuration ok")
            print(f"  band={config.band} seed={config.seed} realizations={config.realizations}")
            print(f"  strategy={config.strategy} quant_bits={config.quant_bits}")
            print(f"  {config.scene.describe()}")
            return 0
        if args.command == "coverage":
            result = coverage_run(config)
            _print_result(result)
            finite = result.rates[~np.isnan(result.rates)]
            if finite.size:
                nx, ny = result.rates.shape
                print(f"grid {nx}x{ny}: rate min={finite.min():.4f} max={finite.max():.4f} bit/s/Hz")
            return 0
        # gen and rate share the run path; gen skips the rate table
        if args.command == "gen":
            config = replace(config, write_channels=True, write_rates=False)
        else:
            config = replace(config, write_rates=True)
        result = run(config)
        _print_result(result)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure: generation, IO, numerics
        print(f"error: {exc}", file=sys.stderr)
        return 3

if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
