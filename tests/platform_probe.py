"""The platform facts that could decide floating-point bits, and a child
process for the cross-platform digest test and the sin/cos check.

As a script it takes a JSON list of run configurations as its argument,
runs each with ``rischan.run`` in a temporary directory, and prints one JSON
object: the ``.risch`` tensor digests of every run, the OpenBLAS core that
was active and the SIMD targets numpy dispatched to. The parent sets
``OPENBLAS_CORETYPE`` and ``NPY_DISABLE_CPU_FEATURES`` for it.
"""

import ctypes
import json
import math
import re
import sys
import tempfile

import numpy as np

try:
    from numpy._core import _multiarray_umath as _umath
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath as _umath


def openblas_dynamic_arch() -> bool:
    """True when numpy is linked to an OpenBLAS built with DYNAMIC_ARCH,
    which picks its kernels at run time (and obeys OPENBLAS_CORETYPE)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without machine-readable config
        return False
    return "openblas" in str(blas.get("name", "")).lower() and "DYNAMIC_ARCH" in str(
        blas.get("openblas configuration", "")
    )


def openblas_core() -> str | None:
    """Name of the OpenBLAS kernel set in use, read from the loaded library."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", fh.read())))
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("", "scipy_"):
            for suffix in ("", "64_"):
                fn = getattr(lib, f"{prefix}openblas_get_corename{suffix}", None)
                if fn is not None:
                    fn.argtypes, fn.restype = [], ctypes.c_char_p
                    return fn().decode()
    return None


def simd_dispatch_targets() -> list[str]:
    """Every SIMD target numpy was built to dispatch to, lowest first."""
    return list(_umath.__cpu_dispatch__)


def simd_enabled() -> list[str]:
    """The dispatch targets this process may use (after
    NPY_DISABLE_CPU_FEATURES and the CPU's own features)."""
    return [t for t in _umath.__cpu_dispatch__ if _umath.__cpu_features__.get(t)]


def describe() -> str:
    """One line naming the platform facts, for failure messages."""
    return (
        f"numpy {np.__version__}, OpenBLAS core {openblas_core()}, "
        f"numpy SIMD targets {simd_enabled() or 'baseline only'}"
    )


def tensor_digests(config: dict) -> dict[str, str]:
    """SHA-256 of every ``.risch`` file a run of ``config`` writes."""
    from rischan.engine import load_config, run

    with tempfile.TemporaryDirectory() as out:
        result = run(load_config(dict(config, out_dir=out)))
        return {
            name: entry["sha256"]
            for name, entry in result.metadata["files"].items()
            if entry["file"].endswith(".risch")
        }


def sincos_mismatches(seed: int, n: int) -> dict:
    """How many elements of a seeded sample ``rischan.elementary.cis``
    (numpy's float64 cos/sin loops, under a numpy it has checked) gives
    other bits for than the C library's ``math.cos``/``math.sin``, with the
    SIMD targets this process may use. The sample spans small, large, tiny
    and huge arguments, and +-0, +-inf, NaN, subnormals and multiples of
    pi/2; on an infinite element, where ``math`` raises, it must give
    NaN."""
    from rischan import elementary as ef

    rng = np.random.default_rng(seed)
    sign = rng.choice([-1.0, 1.0], n)
    special = [
        0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2250738585072009e-308,
        2.2250738585072014e-308, math.pi, -math.pi, math.pi / 2, 3 * math.pi / 2, 1e22, -1e22,
    ]
    x = np.concatenate([
        rng.uniform(-7.0, 7.0, n), rng.uniform(-1e3, 1e3, n), rng.uniform(0.0, 2 * math.pi, n),
        rng.uniform(-1e-3, 1e-3, n), sign * np.exp(rng.uniform(-700.0, 700.0, n)),
        rng.uniform(-1e22, 1e22, n), special,
    ])
    finite = ~np.isinf(x)
    report = {"simd": simd_enabled(), "points": int(x.size)}
    for name, got in zip(("cos", "sin"), ef.cis(x)):
        ref = getattr(math, name)
        want = np.fromiter((ref(v) for v in x[finite].tolist()), dtype=float, count=int(finite.sum()))
        differ = got[finite].view(np.int64) != want.view(np.int64)
        report[name] = int(differ.sum()) + int((~np.isnan(got[~finite])).sum())
    return report


def main() -> None:
    configs = json.loads(sys.argv[1])
    print(json.dumps({
        "digests": [tensor_digests(c) for c in configs],
        "core": openblas_core(),
        "simd": simd_enabled(),
    }))


if __name__ == "__main__":
    main()
