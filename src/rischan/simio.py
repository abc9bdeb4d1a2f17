"""Channel tensor files: a self-describing little-endian binary format.

Layout of a tensor file (all integers little-endian):

    bytes 0..7    magic ``RISCH1\\x00\\x00``
    bytes 8..11   uint32 format version (currently 1)
    bytes 12..15  reserved, zero
    bytes 16..27  three uint32 dims: realizations, rows, cols
    bytes 28..    payload: realizations x rows x cols complex values in
                  row-major order, each as two float64 (re, im)

One file holds one tensor; run metadata travels in a JSON sidecar written
with sorted keys and no timestamps, so reruns of the same configuration are
byte-identical. CSV export mirrors the payload as
``realization,row,col,re,im`` rows in the same order, through
``write_csv``, the one writer of every CSV table a run writes.

The writers stream: a call with ``start=0`` creates the file and writes its
header (for a tensor file, the total realization count comes from ``total``),
and a call with ``start`` equal to the realizations (or rows) already
written appends the next block. A run thus holds one block at a time, and
the bytes do not depend on how the realizations were split into blocks. A
tensor file whose payload stops short of its header's realization count is
incomplete, and ``read_tensor`` refuses it.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import struct
from pathlib import Path

import numpy as np

__all__ = [
    "MAGIC",
    "FORMAT_VERSION",
    "MAX_DIM",
    "write_tensor",
    "read_tensor",
    "write_csv",
    "write_tensor_csv",
    "write_metadata",
    "read_metadata",
    "file_digest",
]

MAGIC = b"RISCH1\x00\x00"
FORMAT_VERSION = 1
MAX_DIM = 2**32 - 1  # largest dimension a header holds (uint32)

_HEADER = struct.Struct("<8sI4s")
_DIMS = struct.Struct("<III")


def write_tensor(path, tensor, start: int = 0, total: int | None = None) -> None:
    """Write realizations ``start, start + 1, ...`` of a (realizations, rows,
    cols) complex tensor; ``tensor`` may be a sequence of (rows, cols) matrices.

    ``start=0`` creates the file with a header naming ``total`` realizations
    (default: as many as ``tensor`` holds). A later ``start`` appends to the
    file, which must hold exactly ``start`` realizations of the same shape.
    """
    arr = np.ascontiguousarray(tensor, dtype="<c16")
    if arr.ndim != 3:
        raise ValueError(f"tensor must be 3-d (realizations, rows, cols), got shape {arr.shape}")
    count = start + arr.shape[0] if total is None else total
    dims = (count, *arr.shape[1:])
    if max(dims) > MAX_DIM:
        raise ValueError(f"tensor dimension too large for the format: {dims}")
    if start == 0:
        with open(path, "wb") as fh:
            fh.write(_HEADER.pack(MAGIC, FORMAT_VERSION, b"\x00" * 4))
            fh.write(_DIMS.pack(*dims))
            fh.write(arr.data)
        return
    with open(path, "r+b") as fh:
        head = fh.read(_HEADER.size + _DIMS.size)
        n, rows, cols = _DIMS.unpack_from(head, _HEADER.size)
        end = fh.seek(0, 2)
        if (rows, cols) != arr.shape[1:] or start + arr.shape[0] > n:
            raise ValueError(
                f"{path}: cannot append {arr.shape} at {start} to a tensor of dims {(n, rows, cols)}"
            )
        if end != len(head) + start * rows * cols * 16:
            raise ValueError(f"{path}: holds {end - len(head)} payload bytes, not {start} realizations")
        fh.write(arr.data)

def read_tensor(path) -> np.ndarray:
    """Read a tensor file back; validates magic, version, and size."""
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size + _DIMS.size:
        raise ValueError(f"{path}: file too short to be a channel tensor")
    magic, version, _ = _HEADER.unpack_from(raw, 0)
    if magic != MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}; not a channel tensor file")
    if version != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported format version {version}")
    dims = _DIMS.unpack_from(raw, _HEADER.size)
    payload = raw[_HEADER.size + _DIMS.size :]
    expected = dims[0] * dims[1] * dims[2] * 16
    if len(payload) != expected:
        raise ValueError(
            f"{path}: payload is {len(payload)} bytes, expected {expected} for dims {dims}"
        )
    return np.frombuffer(payload, dtype="<c16").reshape(dims).astype(np.complex128)

def write_csv(path, header: str, row_format: str, rows, start: int = 0) -> None:
    """CSV rows, each ``row_format.format(*row)`` on its own line.

    ``start=0`` creates the file with its ``header`` line; a later ``start``
    appends to it.
    """
    line = row_format + "\n"
    with open(path, "w" if start == 0 else "a", encoding="utf-8", newline="\n") as fh:
        if start == 0:
            fh.write(header + "\n")
        fh.writelines(line.format(*row) for row in rows)

def write_tensor_csv(path, tensor, start: int = 0) -> None:
    """CSV mirror of a tensor, one value per row, row-major order.

    ``start=0`` creates the file with its header line; a later ``start``
    appends the rows of realizations numbered from ``start``.
    """
    arr = np.asarray(tensor, dtype=np.complex128)
    if arr.ndim != 3:
        raise ValueError(f"tensor must be 3-d, got shape {arr.shape}")
    n, rows, cols = arr.shape
    index = itertools.product(range(start, start + n), range(rows), range(cols))
    values = zip(index, arr.real.ravel().tolist(), arr.imag.ravel().tolist())
    write_csv(
        path, "realization,row,col,re,im", "{},{},{},{:.17g},{:.17g}",
        ((*ix, re, im) for ix, re, im in values), start,
    )

def write_metadata(path, metadata: dict) -> None:
    """Deterministic JSON sidecar: sorted keys, LF newline, no timestamps."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(metadata, fh, sort_keys=True, indent=2)
        fh.write("\n")

def read_metadata(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)

def file_digest(path) -> str:
    """SHA-256 hex digest of a file's bytes."""
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()
