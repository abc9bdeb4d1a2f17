"""Counter-based random substreams.

Every stochastic quantity in the simulator is drawn from its own named
substream, keyed by (master seed, purpose tag, indices). Keys are derived by
hashing, not by splitting a shared state, so any realization or grid cell can
be generated in isolation, in any order, on any number of workers, and the
result is bitwise identical to a serial run.

Derivation: the key of a substream is the first 16 bytes of
``SHA-256("<seed>|<part>|<part>|...")`` interpreted as two little-endian
uint64 words and fed to ``numpy.random.Philox``. Path parts are lowercase
tags and non-negative integers; the textual join makes the mapping stable
across platforms and releases.

A draw calls :func:`substream` at the one place where it reads a stream,
so a stream it never consumes is never derived, and one it does consume is
the same stream however many others were derived before it.
"""

from __future__ import annotations

import hashlib
from functools import cache

import numpy as np

__all__ = ["substream", "cell_seed"]


@cache
def _key_sequence() -> type:
    """The seed-sequence type that hands Philox a key that is already known.

    ``Philox(key=...)`` first builds a ``SeedSequence`` from fresh OS entropy
    and then overwrites the key; given this seed sequence instead, Philox
    asks it for its two key words and starts at counter 0, the very state
    of ``Philox(key=key)``, without touching the OS. Defined on first use,
    so that importing this module does not import ``numpy.random``.
    """
    from numpy.random.bit_generator import ISeedSequence

    class Key(ISeedSequence):
        __slots__ = ("key",)

        def __init__(self, key: np.ndarray):
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 2 or np.dtype(dtype) != np.uint64:
                raise ValueError("a substream key is two uint64 words")
            return self.key

    return Key

def substream(master_seed: int, *path: object) -> np.random.Generator:
    """Independent generator for the substream named by ``path``.

    Same (seed, path) always yields the same draw sequence; distinct paths
    are statistically independent Philox counter streams. Every call returns
    a new generator.
    """
    digest = hashlib.sha256("|".join([str(int(master_seed)), *map(str, path)]).encode("ascii")).digest()
    key = np.frombuffer(digest, dtype="<u8", count=2)  # Philox copies it
    return np.random.Generator(np.random.Philox(_key_sequence()(key)))


def cell_seed(master_seed: int, ix: int, iy: int) -> int:
    """Derived master seed for one grid cell of a coverage sweep.

    Hash-nested so every cell owns a full, independent substream namespace
    and can be simulated in isolation (any order, any worker).
    """
    digest = hashlib.sha256(f"{int(master_seed)}|cell|{int(ix)}|{int(iy)}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "little")
