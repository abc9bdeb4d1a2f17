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

A realization's streams are held by a :class:`NamedStreams` record, which
derives each one the first time the draw reads it: a stream the draw never
consumes costs nothing, and one it does consume is the same stream however
many others were derived before it.
"""

from __future__ import annotations

import hashlib
from functools import cache

import numpy as np

__all__ = ["substream", "substream_key", "cell_seed", "NamedStreams"]


def _digest(master_seed: int, path: tuple) -> bytes:
    text = "|".join([str(int(master_seed)), *map(str, path)])
    return hashlib.sha256(text.encode("ascii")).digest()

def substream_key(master_seed: int, *path: object) -> np.ndarray:
    """Return the 2-word Philox key for a named substream."""
    return np.frombuffer(_digest(master_seed, path), dtype="<u8", count=2).copy()

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
    key = np.frombuffer(_digest(master_seed, path), dtype="<u8", count=2)  # Philox copies it
    return np.random.Generator(np.random.Philox(_key_sequence()(key)))


class NamedStreams:
    """The named substreams of one realization, derived on first use.

    Subclasses map attribute names to the tags of their paths:
    ``PANEL_PATHS`` name per-surface streams, keyed
    ``(master_seed, *tags, panel, index)``, and ``COMMON_PATHS`` streams
    shared by all surfaces, keyed ``(master_seed, *tags, index)``. Reading
    an attribute derives that stream once, through the subclass's
    ``_derive(master_seed, *path)``, and keeps it.
    """

    PANEL_PATHS: dict[str, tuple[str, ...]] = {}
    COMMON_PATHS: dict[str, tuple[str, ...]] = {}

    def __init__(self, master_seed: int, index: int, panel: int = 0):
        self.master_seed, self.index, self.panel = master_seed, index, panel

    @classmethod
    def derive(cls, master_seed: int, index: int, panel: int = 0):
        return cls(master_seed, index, panel)

    def __getattr__(self, name: str) -> np.random.Generator:
        if name in self.PANEL_PATHS:
            path = (*self.PANEL_PATHS[name], self.panel, self.index)
        elif name in self.COMMON_PATHS:
            path = (*self.COMMON_PATHS[name], self.index)
        else:
            raise AttributeError(name)
        gen = self._derive(self.master_seed, *path)
        setattr(self, name, gen)
        return gen


def cell_seed(master_seed: int, ix: int, iy: int) -> int:
    """Derived master seed for one grid cell of a coverage sweep.

    Hash-nested so every cell owns a full, independent substream namespace
    and can be simulated in isolation (any order, any worker).
    """
    digest = hashlib.sha256(f"{int(master_seed)}|cell|{int(ix)}|{int(iy)}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "little")
