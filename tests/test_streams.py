import hashlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rischan.streams import NamedStreams, cell_seed, substream, substream_key


def test_key_matches_hash_oracle():
    # independent re-derivation of the documented key construction
    digest = hashlib.sha256(b"42|clusters|txris|0|7").digest()
    expected = np.frombuffer(digest[:16], dtype="<u8")
    np.testing.assert_array_equal(substream_key(42, "clusters", "txris", 0, 7), expected)


def test_same_path_same_draws():
    a = substream(5, "link", "h", 0, 3).standard_normal(64)
    b = substream(5, "link", "h", 0, 3).standard_normal(64)
    np.testing.assert_array_equal(a, b)


def test_distinct_paths_differ():
    base = substream(5, "link", "h", 0, 3).standard_normal(8)
    for path in [(5, "link", "h", 0, 4), (5, "link", "g", 0, 3), (6, "link", "h", 0, 3)]:
        other = substream(*path).standard_normal(8)
        assert not np.array_equal(base, other)


def test_path_is_not_ambiguous():
    # "ab", "c" and "a", "bc" must key different streams (joined with a separator)
    assert not np.array_equal(substream_key(1, "ab", "c"), substream_key(1, "a", "bc"))


@given(st.integers(0, 2**32), st.integers(0, 1000), st.integers(0, 1000))
def test_cell_seed_matches_oracle(seed, ix, iy):
    digest = hashlib.sha256(f"{seed}|cell|{ix}|{iy}".encode()).digest()
    assert cell_seed(seed, ix, iy) == int.from_bytes(digest[:8], "little")


def test_cell_seeds_distinct():
    seeds = {cell_seed(9, ix, iy) for ix in range(20) for iy in range(20)}
    assert len(seeds) == 400


def test_order_independence():
    """Substreams can be drawn in any order with identical results."""
    forward = [substream(2, "x", i).random(4) for i in range(10)]
    backward = [substream(2, "x", i).random(4) for i in reversed(range(10))]
    for f, b in zip(forward, reversed(backward)):
        np.testing.assert_array_equal(f, b)


def test_generator_is_philox():
    gen = substream(0, "t")
    assert type(gen.bit_generator).__name__ == "Philox"


def test_negative_master_seed_rejected_by_int_cast():
    # negative seeds are representable (the key is just text), but must be stable
    k1 = substream_key(-3, "a")
    k2 = substream_key(-3, "a")
    np.testing.assert_array_equal(k1, k2)


@pytest.mark.parametrize("n", [1, 3])
def test_streams_statistically_disjoint(n):
    # crude independence check: correlation of long draws from sibling streams
    a = substream(11, "corr", n).standard_normal(4096)
    b = substream(11, "corr", n + 10).standard_normal(4096)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.08


def test_substream_reproduces_philox_of_its_key():
    """The generator is the keyed Philox counter stream itself: same draws as
    ``Generator(Philox(key=substream_key(...)))`` for every distribution the
    generators use, over 200 keys."""
    for i in range(200):
        path = ("clusters", "txris", i % 3, i)
        got = substream(i * 7919, *path)
        want = np.random.Generator(np.random.Philox(key=substream_key(i * 7919, *path)))
        np.testing.assert_array_equal(got.standard_normal(5), want.standard_normal(5))
        np.testing.assert_array_equal(got.uniform(-1.0, 2.0, 3), want.uniform(-1.0, 2.0, 3))
        np.testing.assert_array_equal(got.random((2, 3)), want.random((2, 3)))
        np.testing.assert_array_equal(got.integers(1, 31, size=7), want.integers(1, 31, size=7))
        np.testing.assert_array_equal(got.poisson(1.8, size=4), want.poisson(1.8, size=4))
        np.testing.assert_array_equal(got.exponential(size=3), want.exponential(size=3))
        assert got.standard_normal() == want.standard_normal()


def test_substream_calls_are_independent_objects():
    a = substream(3, "link", "g", 0, 9)
    b = substream(3, "link", "g", 0, 9)
    assert a is not b and a.bit_generator is not b.bit_generator
    first = b.random(4)
    a.random(100)  # drawing from one leaves the other where it was
    np.testing.assert_array_equal(substream(3, "link", "g", 0, 9).random(8)[4:], b.random(4))
    np.testing.assert_array_equal(first, substream(3, "link", "g", 0, 9).random(4))


class _Named(NamedStreams):
    PANEL_PATHS = {"x": ("tag", "x")}
    COMMON_PATHS = {"y": ("tag", "y")}

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.derived = []

    def _derive(self, master_seed, *path):
        self.derived.append(path)
        return substream(master_seed, *path)


def test_named_streams_derive_on_first_use_only():
    s = _Named.derive(4, 6, panel=2)
    assert s.derived == []
    x = s.x
    assert s.x is x and s.derived == [("tag", "x", 2, 6)]
    assert s.y.random() == substream(4, "tag", "y", 6).random()
    assert s.derived == [("tag", "x", 2, 6), ("tag", "y", 6)]
    with pytest.raises(AttributeError):
        s.z
