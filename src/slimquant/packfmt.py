"""Bit-exact packed storage for mixed-precision quantized matrices.

File layout (SLMQ, all little-endian):

    magic    4 bytes  b"SLMQ"
    version  u16      currently 2
    flags    u16      bit 0: set exactly when some group is 1-bit; every
                      other bit is zero
    n        u32      output rows
    m        u32      input channels
    beta     u32      group width
    N        u8       average bit-width target
    reserved 3 bytes  zero
    sections, back to back, in order:
        bit_codes      one row of k = m / beta 2-bit fields, value = width - 1
        scales         k*n float32, group-major then row
        zeros_stream   per group: one row of n zero-points at the group's width
        weights_stream per group: beta rows, one per column, of n codes at
                       the group's width

Every packed section is written by one rule: rows of fixed-width fields,
LSB-first, bytes in ascending address order, each row padded with zero
bits to a 32-bit word. No section carries its length: the header fixes k
and the bit-code row, and the widths then fix every other section's size,
so a file is exactly as long as they imply (_layout). Padding bits,
reserved bytes and undefined flag bits are always zero and nonzero ones
are rejected on read, as is a flag bit 0 that disagrees with the widths,
which keeps the encoding injective.

A group's width fixes its decode rule: 2 to 4 bits are affine, 1 bit is
sign/magnitude (quant_core). A 1-bit group's zero-point row is stored
like any other and round-trips, but decode never reads it.
"""

from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BadMagic, CodeOutOfRange, InconsistentPlan, TruncatedPayload, UnsupportedVersion
from .quant_core import GroupQuantParams, QuantizedBlock
from .tensor_store import atomic_write, read_file

MAGIC = b"SLMQ"
VERSION = 2
FLAG_BINARY_1BIT = 1
_HEADER = struct.Struct("<4sHHIIIB3s")
_RESERVED = bytes(3)
WORD_BITS = 32


def _row_words(count: int, width: int) -> int:
    """32-bit words in one padded row of count width-bit fields."""
    return -(-count * width // WORD_BITS)


def pack_fields(values: np.ndarray, width: int) -> bytes:
    """Rows of `width`-bit fields, LSB-first, each row zero-padded to a
    32-bit word. values is (rows, count) with entries below 2**width."""
    v = np.asarray(values, dtype=np.uint8)
    rows, count = v.shape
    words = _row_words(count, width)
    bits = np.zeros((rows, words * WORD_BITS), dtype=np.uint8)
    fields = bits[:, : count * width].reshape(rows, count, width)  # a view into bits
    for i in range(width):
        fields[:, :, i] = (v >> i) & 1
    return np.packbits(bits, axis=1, bitorder="little").tobytes()


def unpack_fields(raw, rows: int, count: int, width: int, what: str) -> np.ndarray:
    """Inverse of pack_fields: (rows, count) uint8. raw must hold exactly
    rows padded rows; a nonzero padding bit raises CodeOutOfRange."""
    words = _row_words(count, width)
    bits = np.unpackbits(
        np.frombuffer(raw, dtype=np.uint8).reshape(rows, 4 * words), axis=1, bitorder="little"
    )
    if bits[:, count * width :].any():
        raise CodeOutOfRange(f"nonzero padding bits in {what}")
    fields = bits[:, : count * width].reshape(rows, count, width)
    values = np.zeros((rows, count), dtype=np.uint8)
    for i in range(width):
        values |= fields[:, :, i] << i
    return values


def _layout(n: int, beta: int, widths) -> tuple[list[int], list[int], tuple[int, ...]]:
    """Words in one padded row of n fields at each group's width (a
    group's zero-points are one such row, its codes beta of them), the
    k + 1 bit offsets of the groups in the weight stream, and the byte
    length of each of the four sections, in file order. Python integers,
    so a hostile header cannot overflow them."""
    k = len(widths)
    words = [_row_words(n, int(w)) for w in widths]
    offsets = [0, *itertools.accumulate(beta * WORD_BITS * c for c in words)]
    sizes = (4 * _row_words(k, 2), 4 * k * n, 4 * sum(words), offsets[-1] // 8)
    return words, offsets, sizes


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _frozen_block(codes, scale, zero, width: int) -> QuantizedBlock:
    """One group of a PackedModel, its arrays marked read-only."""
    params = GroupQuantParams(width, _readonly(scale), _readonly(zero))
    return QuantizedBlock(codes=_readonly(codes), params=params)


@dataclass(frozen=True)
class PackedModel:
    """A packed layer in memory: the k groups that pack or from_bytes
    checked, each with (n, beta) uint8 codes, (n,) float32 scales and (n,)
    uint8 zero-points, every array read-only. Codes are column-major, so a
    column, which is one row of the weight stream, is contiguous."""

    n: int
    m: int
    beta: int
    target_bits: int
    blocks: tuple  # k QuantizedBlock

    @property
    def k(self) -> int:
        return len(self.blocks)

    @cached_property
    def widths(self) -> np.ndarray:
        """(k,) int64 in [1, 4], read-only."""
        return _readonly(np.array([b.params.bit_width for b in self.blocks], dtype=np.int64))

    @property
    def flags(self) -> int:
        return FLAG_BINARY_1BIT if np.any(self.widths == 1) else 0

    def group_block(self, g: int) -> QuantizedBlock:
        return self.blocks[g]

    def to_bytes(self) -> bytes:
        header = _HEADER.pack(
            MAGIC, VERSION, self.flags, self.n, self.m, self.beta, self.target_bits, _RESERVED
        )
        return b"".join(
            [
                header,
                pack_fields(self.widths[None, :] - 1, 2),
                *(b.params.scale.astype("<f4").tobytes() for b in self.blocks),
                *(pack_fields(b.params.zero[None, :], b.params.bit_width) for b in self.blocks),
                *(pack_fields(b.codes.T, b.params.bit_width) for b in self.blocks),
            ]
        )


def pack(blocks: list, n: int, m: int, beta: int, target_bits: int) -> PackedModel:
    """Check a list of QuantizedBlock against an n x m layer in groups of
    beta, and copy it once into a PackedModel whose header records the
    average width target target_bits (a u8)."""
    if beta < 1 or m % beta != 0:
        raise InconsistentPlan(f"group size {beta} does not divide {m} channels")
    k = m // beta
    if len(blocks) != k:
        raise InconsistentPlan(f"{len(blocks)} blocks for {k} groups")
    if not 0 <= target_bits <= 255:
        raise InconsistentPlan(f"target width {target_bits} does not fit the header's u8")

    checked = []
    for g, b in enumerate(blocks):
        width = b.params.bit_width
        maxq = (1 << width) - 1
        if b.codes.shape != (n, beta):
            raise InconsistentPlan(f"group {g} codes have shape {b.codes.shape}")
        if b.params.scale.shape != (n,) or b.params.zero.shape != (n,):
            raise InconsistentPlan(f"group {g} params are not per-row of length {n}")
        for values in (b.codes, b.params.zero):
            if values.min(initial=0) < 0 or values.max(initial=0) > maxq:
                raise InconsistentPlan(f"group {g} carries values outside [0, {maxq}]")
            if values.dtype.kind not in "biu" and not np.all(values == np.rint(values)):
                raise InconsistentPlan(f"group {g} carries non-integral codes or zero-points")
        scale = np.array(b.params.scale, dtype=np.float32)
        if not np.all(np.isfinite(scale)):
            raise InconsistentPlan(f"group {g} has non-finite scales")
        codes = np.array(b.codes, dtype=np.uint8, order="F")
        zero = np.array(b.params.zero, dtype=np.uint8)
        checked.append(_frozen_block(codes, scale, zero, width))
    return PackedModel(n=n, m=m, beta=beta, target_bits=target_bits, blocks=tuple(checked))


def unpack(pm: PackedModel) -> tuple[list[QuantizedBlock], np.ndarray]:
    """Blocks and their bit widths, exactly as packed (read-only)."""
    return list(pm.blocks), pm.widths


def from_bytes(raw: bytes, name: str = "<bytes>") -> PackedModel:
    if len(raw) < _HEADER.size:
        raise TruncatedPayload(f"{name}: too short for a header")
    magic, version, flags, n, m, beta, target_bits, reserved = _HEADER.unpack_from(raw, 0)
    if magic != MAGIC:
        raise BadMagic(f"{name}: expected {MAGIC!r}, found {magic!r}")
    if version != VERSION or flags & ~FLAG_BINARY_1BIT or reserved != _RESERVED:
        raise UnsupportedVersion(
            f"{name}: version {version}, flags {flags:#06x}, reserved bytes {reserved.hex()}; "
            f"this build reads version {VERSION}, flag bit 0 only and 000000"
        )
    if beta < 1 or m % beta != 0:
        raise InconsistentPlan(f"{name}: group size {beta} does not divide {m}")
    k = m // beta

    # the bit-code row first: it bounds k by the file's size before
    # anything is sized by k, and its widths size every other section
    view = memoryview(raw)
    code_end = _HEADER.size + 4 * _row_words(k, 2)
    if len(raw) < code_end:
        raise TruncatedPayload(f"{name}: bit-code row of {k} groups cut off")
    bit_codes = view[_HEADER.size : code_end]
    widths = unpack_fields(bit_codes, 1, k, 2, f"{name}: bit codes")[0].astype(np.int64) + 1
    words, offsets, sizes = _layout(n, beta, widths)
    _, scales_at, zeros_at, weights_at, end = itertools.accumulate(sizes, initial=_HEADER.size)
    if len(raw) != end:
        raise TruncatedPayload(f"{name}: {len(raw)} bytes, header and bit widths imply {end}")
    if bool(flags & FLAG_BINARY_1BIT) != bool(np.any(widths == 1)):
        raise InconsistentPlan(f"{name}: flag bit 0 must be set exactly when a group is 1-bit")

    scales = np.frombuffer(raw, dtype="<f4", count=k * n, offset=scales_at)
    scales = _readonly(scales.reshape(k, n).astype(np.float32))
    if not np.all(np.isfinite(scales)):
        raise CodeOutOfRange(f"{name}: non-finite scale")

    blocks = []
    for g in range(k):
        width = int(widths[g])
        row = view[zeros_at : zeros_at + 4 * words[g]]
        zeros_at += 4 * words[g]
        zero = _readonly(unpack_fields(row, 1, n, width, f"{name}: zero-point group {g}"))[0]
        group = view[weights_at + offsets[g] // 8 : weights_at + offsets[g + 1] // 8]
        codes = _readonly(unpack_fields(group, beta, n, width, f"{name}: weight group {g}")).T
        blocks.append(_frozen_block(codes, scales[g], zero, width))
    return PackedModel(n=n, m=m, beta=beta, target_bits=target_bits, blocks=tuple(blocks))


def write_packed(pm: PackedModel, path: str) -> None:
    atomic_write(path, pm.to_bytes())


def read_packed(path: str) -> PackedModel:
    return from_bytes(read_file(path), name=path)


@dataclass(frozen=True)
class SizeReport:
    payload_bits: int  # code bits, padding excluded
    padding_bits: int
    metadata_bits: int  # header, bit codes, scales, zeros
    bits_per_weight: float

    @property
    def total_bits(self) -> int:
        return self.payload_bits + self.padding_bits + self.metadata_bits


def packed_size_report(pm: PackedModel) -> SizeReport:
    payload = int(sum(pm.n * pm.beta * int(w) for w in pm.widths))
    sizes = _layout(pm.n, pm.beta, pm.widths)[2]
    stream = 8 * sizes[-1]
    # the header and every section but the weight stream
    metadata_bytes = _HEADER.size + sum(sizes[:-1])
    weights = pm.n * pm.m
    return SizeReport(
        payload_bits=payload,
        padding_bits=stream - payload,
        metadata_bits=8 * metadata_bytes,
        bits_per_weight=payload / weights if weights else 0.0,
    )
