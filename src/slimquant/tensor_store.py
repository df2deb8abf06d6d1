"""Flat binary tensor files.

Layout, all little-endian:

    magic    4 bytes  b"SLMT"
    version  u16      currently 1
    ndim     u8
    reserved u8       zero
    extent   u64 * ndim
    payload  f32 * prod(extent), row-major

NaN and infinity are rejected on both read and write. A size mismatch
between header and payload is an error in either direction; short files
are never silently truncated. A nonzero reserved byte is rejected on read.

Every file this package writes goes through atomic_write: a temporary
file next to the target, renamed over it once complete.

An activation file (calibration or matmul input) is read by read_rows
alone: a 2-D tensor of token rows, or a 3-D tensor of samples whose rows
are taken in order. Calibration is those rows, one (T, m) float32 array.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct

import numpy as np

from .errors import (
    BadMagic,
    IoFailure,
    NonFiniteValue,
    ShapeMismatch,
    TruncatedPayload,
    UnsupportedVersion,
    require_real,
)

MAGIC = b"SLMT"
VERSION = 1
_HEADER = struct.Struct("<4sHBB")


def tensor_to_bytes(values: np.ndarray, name: str = "<bytes>") -> bytes:
    """Serialize a tensor of real numbers to the container format, casting
    to float32; any other dtype is InvalidConfig."""
    arr = np.asarray(values)  # keeps a 0-d tensor 0-d
    require_real(arr, f"{name}: a tensor")
    arr = np.asarray(arr, dtype=np.float32, order="C")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteValue(f"refusing to serialize non-finite values for {name}")
    header = _HEADER.pack(MAGIC, VERSION, arr.ndim, 0)
    extents = struct.pack(f"<{arr.ndim}Q", *arr.shape)
    if not np.little_endian:
        arr = arr.byteswap()
    return b"".join((header, extents, arr.data))


def atomic_write(path: str, payload: bytes | str) -> None:
    """Write payload to a temporary file in path's directory, then rename
    it over path: a reader never sees a partial file, and a failed write
    leaves a previous file at path as it was and removes the temporary."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    data = payload.encode() if isinstance(payload, str) else payload
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        if isinstance(exc, OSError):
            raise IoFailure(f"cannot write {path}: {exc}") from exc
        raise


def write_tensor(path: str, values: np.ndarray) -> None:
    """Write a float32 tensor. Real input of another dtype is cast before
    writing."""
    atomic_write(path, tensor_to_bytes(values, name=str(path)))


def read_file(path: str) -> bytes:
    """The whole file at path; an OSError becomes IoFailure."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc


def read_tensor(path: str) -> np.ndarray:
    """Read a tensor written by write_tensor. Returns float32, row-major."""
    return tensor_from_bytes(read_file(path), name=path)


def tensor_from_bytes(raw: bytes, name: str = "<bytes>") -> np.ndarray:
    if len(raw) < _HEADER.size:
        raise TruncatedPayload(f"{name}: {len(raw)} bytes is shorter than the header")
    magic, version, ndim, reserved = _HEADER.unpack_from(raw, 0)
    if magic != MAGIC:
        raise BadMagic(f"{name}: expected {MAGIC!r}, found {magic!r}")
    if version != VERSION or reserved != 0:
        raise UnsupportedVersion(
            f"{name}: version {version} with reserved byte {reserved}, "
            f"this build reads {VERSION} with 0"
        )
    extent_end = _HEADER.size + 8 * ndim
    if len(raw) < extent_end:
        raise TruncatedPayload(f"{name}: header declares {ndim} dims but extents are cut off")
    shape = struct.unpack_from(f"<{ndim}Q", raw, _HEADER.size)
    count = math.prod(shape)
    expected = extent_end + 4 * count
    if len(raw) != expected:
        raise TruncatedPayload(
            f"{name}: header implies {expected} bytes total, file has {len(raw)}"
        )
    flat = np.frombuffer(raw, dtype="<f4", count=count, offset=extent_end)
    try:
        arr = flat.reshape(shape)
    except ValueError as exc:  # too many dims, or extents beyond the address space
        raise ShapeMismatch(f"{name}: numpy cannot hold extents {shape}: {exc}") from exc
    arr = arr.astype(np.float32, copy=True)
    if not np.all(np.isfinite(arr)):
        raise NonFiniteValue(f"{name}: payload contains NaN or infinity")
    return arr


def read_rows(path: str) -> np.ndarray:
    """The token rows of an activation file, (T, m) float32: a 2-D tensor
    is its rows, and a 3-D tensor of s samples of t rows is reshaped to
    s * t rows, a view."""
    arr = read_tensor(path)
    if arr.ndim == 3:
        arr = arr.reshape(arr.shape[0] * arr.shape[1], arr.shape[2])
    if arr.ndim != 2:
        raise ShapeMismatch(f"{path}: activations must be 2-D or 3-D, got {arr.ndim}-D")
    return arr


def load_calibration(path: str) -> np.ndarray:
    """read_rows(path), kept as the CLI's calibration reader because
    perfbench/spans.py wraps cli.load_calibration; ROADMAP item 3 can fold
    it into read_rows once the tracer reads the report instead."""
    return read_rows(path)
