"""Tensor file format: header layout, roundtrips, failure modes."""

import hashlib
import json
import struct

import numpy as np
import pytest

from rischan import simio
from rischan.simio import (
    FORMAT_VERSION,
    MAGIC,
    MAX_DIM,
    file_digest,
    read_metadata,
    read_tensor,
    write_metadata,
    write_tensor,
    write_tensor_csv,
)


@pytest.fixture
def tensor(rng):
    return rng.standard_normal((3, 2, 4)) + 1j * rng.standard_normal((3, 2, 4))


class TestTensorRoundtrip:
    def test_bitwise(self, tmp_path, tensor):
        path = tmp_path / "t.risch"
        write_tensor(path, tensor)
        np.testing.assert_array_equal(read_tensor(path), tensor)

    def test_header_layout(self, tmp_path, tensor):
        path = tmp_path / "t.risch"
        write_tensor(path, tensor)
        raw = path.read_bytes()
        assert raw[0:8] == MAGIC == b"RISCH1\x00\x00"
        assert struct.unpack_from("<I", raw, 8)[0] == FORMAT_VERSION == 1
        assert raw[12:16] == b"\x00" * 4
        assert struct.unpack_from("<III", raw, 16) == (3, 2, 4)
        assert len(raw) == 28 + 3 * 2 * 4 * 16

    def test_payload_is_little_endian_c16(self, tmp_path):
        arr = np.array([[[1.5 - 2.5j]]])
        path = tmp_path / "t.risch"
        write_tensor(path, arr)
        payload = path.read_bytes()[28:]
        re, im = struct.unpack("<dd", payload)
        assert (re, im) == (1.5, -2.5)

    def test_row_major_order(self, tmp_path):
        arr = np.arange(8, dtype=complex).reshape(1, 2, 4)
        path = tmp_path / "t.risch"
        write_tensor(path, arr)
        vals = np.frombuffer(path.read_bytes()[28:], dtype="<c16")
        np.testing.assert_array_equal(vals.real, np.arange(8))

    def test_deterministic_bytes(self, tmp_path, tensor):
        a, b = tmp_path / "a.risch", tmp_path / "b.risch"
        write_tensor(a, tensor)
        write_tensor(b, tensor)
        assert a.read_bytes() == b.read_bytes()

    def test_rejects_non_3d(self, tmp_path):
        with pytest.raises(ValueError, match="3-d"):
            write_tensor(tmp_path / "t.risch", np.zeros((2, 2)))

    def test_dimension_limit(self, tmp_path):
        path = tmp_path / "t.risch"
        write_tensor(path, np.zeros((1, 1, 1)), total=MAX_DIM)
        assert struct.unpack_from("<I", path.read_bytes(), 16) == (MAX_DIM,)
        with pytest.raises(ValueError, match="too large for the format"):
            write_tensor(path, np.zeros((1, 1, 1)), total=MAX_DIM + 1)

    def test_real_input_upcast(self, tmp_path):
        path = tmp_path / "t.risch"
        write_tensor(path, np.ones((1, 2, 2)))
        got = read_tensor(path)
        assert got.dtype == np.complex128
        np.testing.assert_array_equal(got, np.ones((1, 2, 2), dtype=complex))


class TestStreamingWrites:
    def test_blocks_equal_whole(self, tmp_path, tensor):
        whole, blocks = tmp_path / "w.risch", tmp_path / "b.risch"
        write_tensor(whole, tensor)
        write_tensor(blocks, tensor[:1], 0, total=3)
        write_tensor(blocks, list(tensor[1:]), 1)  # a sequence of matrices
        assert blocks.read_bytes() == whole.read_bytes()

    def test_incomplete_file_refused(self, tmp_path, tensor):
        path = tmp_path / "t.risch"
        write_tensor(path, tensor[:2], 0, total=3)
        with pytest.raises(ValueError, match="payload"):
            read_tensor(path)

    def test_append_checks_shape_and_position(self, tmp_path, tensor):
        path = tmp_path / "t.risch"
        write_tensor(path, tensor[:1], 0, total=3)
        with pytest.raises(ValueError, match="cannot append"):
            write_tensor(path, np.zeros((1, 4, 2)), 1)
        with pytest.raises(ValueError, match="cannot append"):
            write_tensor(path, tensor, 1)  # past the header's count
        with pytest.raises(ValueError, match="not 2 realizations"):
            write_tensor(path, tensor[2:], 2)

    def test_csv_blocks_equal_whole(self, tmp_path, tensor):
        whole, blocks = tmp_path / "w.csv", tmp_path / "b.csv"
        write_tensor_csv(whole, tensor)
        write_tensor_csv(blocks, tensor[:2])
        write_tensor_csv(blocks, tensor[2:], 2)
        assert blocks.read_bytes() == whole.read_bytes()


class TestReadValidation:
    def write_good(self, tmp_path):
        path = tmp_path / "t.risch"
        write_tensor(path, np.ones((2, 2, 2), dtype=complex))
        return path

    def test_too_short(self, tmp_path):
        path = tmp_path / "t.risch"
        path.write_bytes(b"RISCH1")
        with pytest.raises(ValueError, match="too short"):
            read_tensor(path)

    def test_bad_magic(self, tmp_path):
        path = self.write_good(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[0:8] = b"NOTMAGIC"
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="magic"):
            read_tensor(path)

    def test_bad_version(self, tmp_path):
        path = self.write_good(tmp_path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<I", raw, 8, 99)
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="version 99"):
            read_tensor(path)

    def test_truncated_payload(self, tmp_path):
        path = self.write_good(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(ValueError, match="payload"):
            read_tensor(path)


class TestCsv:
    def test_layout_and_roundtrip(self, tmp_path, tensor):
        path = tmp_path / "t.csv"
        write_tensor_csv(path, tensor)
        lines = path.read_text().splitlines()
        assert lines[0] == "realization,row,col,re,im"
        assert len(lines) == 1 + tensor.size
        i, r, c, re, im = lines[1].split(",")
        assert (int(i), int(r), int(c)) == (0, 0, 0)
        # %.17g preserves float64 exactly
        assert float(re) == tensor[0, 0, 0].real
        assert float(im) == tensor[0, 0, 0].imag
        last = lines[-1].split(",")
        assert (int(last[0]), int(last[1]), int(last[2])) == (2, 1, 3)
        assert float(last[3]) == tensor[2, 1, 3].real

    def test_rejects_non_3d(self, tmp_path):
        with pytest.raises(ValueError, match="3-d"):
            write_tensor_csv(tmp_path / "t.csv", np.zeros(3))


class TestMetadata:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "m.json"
        meta = {"b": 2, "a": [1, 2], "nested": {"z": 1, "y": None}}
        write_metadata(path, meta)
        assert read_metadata(path) == meta

    def test_sorted_and_stable(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_metadata(a, {"b": 1, "a": 2})
        write_metadata(b, {"a": 2, "b": 1})
        assert a.read_bytes() == b.read_bytes()
        keys = list(json.loads(a.read_text()))
        assert keys == sorted(keys)

    def test_trailing_newline(self, tmp_path):
        path = tmp_path / "m.json"
        write_metadata(path, {})
        assert path.read_bytes().endswith(b"\n")


def test_file_digest_matches_hashlib(tmp_path):
    path = tmp_path / "x.bin"
    path.write_bytes(b"some bytes\x00\xff")
    assert file_digest(path) == hashlib.sha256(b"some bytes\x00\xff").hexdigest()


def test_file_digest_over_several_blocks(tmp_path):
    data = bytes(range(256)) * (5 * simio._BLOCK // 512) + b"tail"
    path = tmp_path / "x.bin"
    path.write_bytes(data)
    assert file_digest(path) == hashlib.sha256(data).hexdigest()
