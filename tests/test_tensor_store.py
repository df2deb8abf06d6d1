"""Tests for the raw float32 tensor container and calibration loading."""

import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import missed_raises
from slimquant import tensor_store
from slimquant.errors import (
    BadMagic,
    EmptyCalibration,
    IoFailure,
    NonFiniteValue,
    ShapeMismatch,
    SlimQuantError,
    TruncatedPayload,
    UnsupportedVersion,
)
from slimquant.tensor_store import (
    CalibrationSet,
    atomic_write,
    load_calibration,
    read_rows,
    read_tensor,
    tensor_from_bytes,
    tensor_to_bytes,
    write_tensor,
)


def test_round_trip_many_shapes(tmp_path):
    rng = np.random.default_rng(11)
    path = tmp_path / "t.slmt"
    for trial in range(100):
        ndim = int(rng.integers(1, 4))
        shape = tuple(int(rng.integers(0, 7)) for _ in range(ndim))
        arr = rng.standard_normal(shape).astype(np.float32)
        write_tensor(path, arr)
        back = read_tensor(path)
        assert back.dtype == np.float32
        assert back.shape == arr.shape
        assert np.array_equal(back, arr)


def test_header_layout():
    arr = np.zeros((2, 3), dtype=np.float32)
    blob = tensor_to_bytes(arr)
    assert blob[:4] == b"SLMT"
    version, ndim, _pad = struct.unpack_from("<HBB", blob, 4)
    assert version == 1
    assert ndim == 2
    d0, d1 = struct.unpack_from("<QQ", blob, 8)
    assert (d0, d1) == (2, 3)
    assert len(blob) == 8 + 16 + 24


def test_empty_tensor_is_header_plus_extent():
    arr = np.zeros((0,), dtype=np.float32)
    blob = tensor_to_bytes(arr)
    assert len(blob) == 8 + 8
    back = tensor_from_bytes(blob)
    assert back.shape == (0,)


def test_zero_dim_tensor_stays_zero_dim():
    blob = tensor_to_bytes(np.float32(2.5))
    assert len(blob) == 8 + 4 and blob[6] == 0
    back = tensor_from_bytes(blob)
    assert back.shape == () and back == np.float32(2.5)


def test_write_is_deterministic():
    rng = np.random.default_rng(5)
    arr = rng.standard_normal((4, 9)).astype(np.float32)
    assert tensor_to_bytes(arr) == tensor_to_bytes(arr.copy())


def test_row_major_payload_order():
    arr = np.arange(6, dtype=np.float32).reshape(2, 3)
    blob = tensor_to_bytes(arr)
    payload = np.frombuffer(blob[8 + 16:], dtype="<f4")
    assert np.array_equal(payload, np.arange(6, dtype=np.float32))


def test_bad_magic_rejected():
    blob = bytearray(tensor_to_bytes(np.ones((2,), dtype=np.float32)))
    blob[0:4] = b"NOPE"
    with pytest.raises(BadMagic):
        tensor_from_bytes(bytes(blob))


def test_unsupported_version_rejected():
    blob = bytearray(tensor_to_bytes(np.ones((2,), dtype=np.float32)))
    struct.pack_into("<H", blob, 4, 7)
    with pytest.raises(UnsupportedVersion):
        tensor_from_bytes(bytes(blob))


def test_nonzero_reserved_byte_rejected():
    blob = bytearray(tensor_to_bytes(np.ones((2,), dtype=np.float32)))
    blob[7] = 1
    with pytest.raises(UnsupportedVersion):
        tensor_from_bytes(bytes(blob))


def test_unrepresentable_extents_rejected():
    huge = b"SLMT" + struct.pack("<HBB", 1, 2, 0) + struct.pack("<QQ", 2**63 + 3, 0)
    with pytest.raises(ShapeMismatch):
        tensor_from_bytes(huge)
    deep = b"SLMT" + struct.pack("<HBB", 1, 65, 0) + bytes(8 * 65)
    with pytest.raises(ShapeMismatch):
        tensor_from_bytes(deep)


def test_truncated_payload_rejected():
    blob = tensor_to_bytes(np.ones((4,), dtype=np.float32))
    with pytest.raises(TruncatedPayload):
        tensor_from_bytes(blob[:-3])
    with pytest.raises(TruncatedPayload):
        tensor_from_bytes(blob[:10])


def test_trailing_bytes_rejected():
    blob = tensor_to_bytes(np.ones((4,), dtype=np.float32))
    with pytest.raises(TruncatedPayload):
        tensor_from_bytes(blob + b"\x00")


def test_non_finite_write_rejected(tmp_path):
    bad = np.array([1.0, np.nan], dtype=np.float32)
    with pytest.raises(NonFiniteValue):
        write_tensor(tmp_path / "bad.slmt", bad)
    bad[1] = np.inf
    with pytest.raises(NonFiniteValue):
        tensor_to_bytes(bad)


def test_non_finite_read_rejected():
    blob = bytearray(tensor_to_bytes(np.ones((2,), dtype=np.float32)))
    struct.pack_into("<f", blob, len(blob) - 4, np.nan)
    with pytest.raises(NonFiniteValue):
        tensor_from_bytes(bytes(blob))


def test_missing_file_is_io_failure(tmp_path):
    with pytest.raises(IoFailure):
        read_tensor(tmp_path / "does-not-exist.slmt")


def test_failed_write_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "t.slmt"
    write_tensor(path, np.ones((64,), dtype=np.float32))
    before = path.read_bytes()

    class DiskFull:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[: len(data) // 2])
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(tensor_store, "open", lambda *a: DiskFull(open(*a)), raising=False)
    with pytest.raises(IoFailure):
        write_tensor(path, np.zeros((64,), dtype=np.float32))
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.slmt"]


def test_failed_rename_raises_its_own_error_and_keeps_previous_file(tmp_path, monkeypatch):
    # only an OSError becomes IoFailure; anything else, such as an
    # interrupt, propagates as it is, and the temporary still goes
    path = tmp_path / "t.slmt"
    write_tensor(path, np.ones((64,), dtype=np.float32))
    before = path.read_bytes()
    interrupted = RuntimeError("interrupted")

    def replace(src, dst):
        raise interrupted

    monkeypatch.setattr(os, "replace", replace)
    with pytest.raises(RuntimeError) as exc:
        atomic_write(path, b"other bytes")
    assert exc.value is interrupted
    assert path.read_bytes() == before
    assert list(tmp_path.glob("*.tmp")) == []


def test_load_calibration_2d(tmp_path):
    rng = np.random.default_rng(3)
    x = rng.standard_normal((8, 5)).astype(np.float32)
    path = tmp_path / "c.slmt"
    write_tensor(path, x)
    cs = load_calibration(path)
    assert cs.rows.shape == (8, 5) and cs.rows.dtype == np.float32
    assert np.array_equal(cs.rows, x)


def test_load_calibration_3d(tmp_path):
    # the samples' rows in order, as a view of the file's one array
    rng = np.random.default_rng(4)
    x = rng.standard_normal((3, 8, 5)).astype(np.float32)
    path = tmp_path / "c3.slmt"
    write_tensor(path, x)
    cs = load_calibration(path)
    assert np.array_equal(cs.rows, x.reshape(24, 5))
    assert cs.rows.base is not None and cs.rows.base.shape == (3, 8, 5)
    assert np.array_equal(read_rows(path), cs.rows)


def test_load_calibration_rejects_1d(tmp_path):
    path = tmp_path / "c1.slmt"
    write_tensor(path, np.ones((6,), dtype=np.float32))
    with pytest.raises(ShapeMismatch):
        load_calibration(path)


def test_calibration_set_stacks_samples_once_and_rounds_other_dtypes():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((2, 4)).astype(np.float32)
    rows = CalibrationSet([a, b]).rows
    assert rows.dtype == np.float32 and rows.flags.c_contiguous
    assert np.array_equal(rows, np.vstack([a.astype(np.float32), b]))
    one = CalibrationSet([a]).rows
    assert one.dtype == np.float32
    assert np.array_equal(one, a.astype(np.float32))


def test_calibration_set_validates_channels():
    a = np.ones((2, 4), dtype=np.float32)
    b = np.ones((2, 5), dtype=np.float32)
    with pytest.raises(ShapeMismatch):
        CalibrationSet(samples=[a, b])


@pytest.mark.parametrize("samples, error", [
    pytest.param([[[1.0, 2.0]]], ShapeMismatch, id="nested-list"),
    pytest.param([[[1.0], [1.0, 2.0]]], ShapeMismatch, id="ragged-list"),
    pytest.param([np.float32(1.0)], ShapeMismatch, id="scalar"),
    pytest.param([np.ones((), dtype=np.float32)], ShapeMismatch, id="0-d"),
    pytest.param([np.ones(3, dtype=np.float32)], ShapeMismatch, id="1-d"),
    pytest.param([np.ones((2, 3, 4), dtype=np.float32)], ShapeMismatch, id="3-d"),
    pytest.param([np.ones((2, 3), dtype=np.float32), np.ones(3, dtype=np.float32)],
                 ShapeMismatch, id="second-1-d"),
    pytest.param([], EmptyCalibration, id="empty"),
])
def test_malformed_calibration_set_is_a_slimquant_error(samples, error):
    # disagreeing channel counts: test_calibration_set_validates_channels
    with pytest.raises(error):
        CalibrationSet(samples)


# Property: every valid file has exactly one in-memory reading, so a
# mutated file is either rejected or is the encoding of what it decodes to.
# The examples are drawn under the derandomized profile of conftest.py.
BASE_TENSORS = [
    tensor_to_bytes(np.arange(6, dtype=np.float32).reshape(2, 3) - 2.5),
    tensor_to_bytes(np.zeros((0,), dtype=np.float32)),
    tensor_to_bytes(np.zeros((3, 0), dtype=np.float32)),
    tensor_to_bytes(np.float32(-0.0)),
    tensor_to_bytes(np.linspace(-1e-40, 3e38, 4, dtype=np.float32).reshape(1, 2, 2)),
]


def header_fields(raw):
    """(offset, size) of magic, version, ndim, reserved and each extent."""
    ndim = raw[6]
    return [(0, 4), (4, 2), (6, 1), (7, 1)] + [(8 + 8 * i, 8) for i in range(ndim)]


def assert_rejected_or_canonical(raw):
    try:
        arr = tensor_from_bytes(raw)
    except SlimQuantError:
        return
    assert tensor_to_bytes(arr) == raw


@settings(max_examples=200)
@given(st.sampled_from(BASE_TENSORS), st.data())
def test_property_truncation(raw, data):
    assert_rejected_or_canonical(raw[: data.draw(st.integers(0, len(raw) - 1))])


@settings(max_examples=200)
@given(st.sampled_from(BASE_TENSORS), st.data())
def test_property_bit_flip(raw, data):
    bit = data.draw(st.integers(0, 8 * len(raw) - 1))
    mutated = bytearray(raw)
    mutated[bit // 8] ^= 1 << (bit % 8)
    assert_rejected_or_canonical(bytes(mutated))


@settings(max_examples=200)
@given(st.sampled_from(BASE_TENSORS), st.data())
def test_property_header_overwrite(raw, data):
    start, size = data.draw(st.sampled_from(header_fields(raw)))
    mutated = bytearray(raw)
    mutated[start : start + size] = data.draw(st.binary(min_size=size, max_size=size))
    assert_rejected_or_canonical(bytes(mutated))


@settings(max_examples=100)
@given(st.sampled_from([raw for raw in BASE_TENSORS if len(raw) > 8 + 8 * raw[6]]), st.data())
def test_property_payload_non_finite(raw, data):
    # a payload float overwritten with an infinity or a NaN (all exponent
    # bits set, any sign and mantissa) is always rejected
    start = 8 + 8 * raw[6]
    at = start + 4 * data.draw(st.integers(0, (len(raw) - start) // 4 - 1))
    pattern = 0x7F800000 | data.draw(st.integers(0, 1)) << 31 | data.draw(st.integers(0, 2**23 - 1))
    mutated = bytearray(raw)
    struct.pack_into("<I", mutated, at, pattern)
    with pytest.raises(NonFiniteValue):
        tensor_from_bytes(bytes(mutated))


def test_properties_reach_every_rejection():
    # the four properties' examples run every raise of the reader: a
    # rejection no mutated file reaches is a rejection no property tests
    def properties():
        for prop in (test_property_truncation, test_property_bit_flip,
                     test_property_header_overwrite, test_property_payload_non_finite):
            prop()

    assert not missed_raises((tensor_from_bytes,), properties)
