"""Bit-exact packed storage for mixed-precision quantized matrices.

File layout (SLMQ, all little-endian):

    magic    4 bytes  b"SLMQ"
    version  u16      currently 1
    flags    u16      bit 0: 1-bit groups are sign/magnitude; it needs a
                      1-bit group, and every other bit is zero
    n        u32      output rows
    m        u32      input channels
    beta     u32      group width
    N        u8       average bit-width target
    reserved 3 bytes  zero
    sections, each prefixed by a u64 byte length, in order:
        bit_codes      one row of k 2-bit fields, value = width - 1
        offsets        (k+1) u64 cumulative bit offsets into weights_stream
        scales         k*n float32, group-major then row
        zeros_stream   per group: one row of n zero-points at the group's width
        weights_stream per group: beta rows, one per column, of n codes at
                       the group's width

Every packed section is written by one rule: rows of fixed-width fields,
LSB-first, bytes in ascending address order, each row padded with zero
bits to a 32-bit word; the bit-code row is then cut to whole bytes.
Padding bits, reserved bytes and undefined flag bits are always zero and
nonzero ones are rejected on read, which keeps the encoding injective.
"""

from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    BadMagic,
    CodeOutOfRange,
    CorruptOffsets,
    InconsistentPlan,
    IoFailure,
    TruncatedPayload,
    UnsupportedVersion,
)
from .quant_core import GroupQuantParams, QuantizedBlock
from .tensor_store import atomic_write

MAGIC = b"SLMQ"
VERSION = 1
FLAG_BINARY_1BIT = 1
_HEADER = struct.Struct("<4sHHIIIB3s")
_RESERVED = bytes(3)
WORD_BITS = 32


def pack_fields(values: np.ndarray, width: int) -> bytes:
    """Rows of `width`-bit fields, LSB-first, each row zero-padded to a
    32-bit word. values is (rows, count) with entries below 2**width."""
    v = np.asarray(values, dtype=np.uint8)
    rows, count = v.shape
    words = -(-count * width // WORD_BITS)
    bits = np.zeros((rows, words * WORD_BITS), dtype=np.uint8)
    fields = bits[:, : count * width].reshape(rows, count, width)  # a view into bits
    for i in range(width):
        fields[:, :, i] = (v >> i) & 1
    return np.packbits(bits, axis=1, bitorder="little").tobytes()


def unpack_fields(raw, rows: int, count: int, width: int, what: str) -> np.ndarray:
    """Inverse of pack_fields: (rows, count) uint8. raw must hold exactly
    rows padded rows; a nonzero padding bit raises CodeOutOfRange."""
    words = -(-count * width // WORD_BITS)
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


def _bit_code_bytes(k: int) -> int:
    """Bytes of the bit-code section: k 2-bit fields cut to whole bytes."""
    return -(-k // 4)


def _layout(n: int, beta: int, widths) -> tuple[list[int], list[int], tuple[int, ...]]:
    """Words in one padded row of n fields at each group's width (a
    group's zero-points are one such row, its codes beta of them), the
    k + 1 bit offsets of the groups in the weight stream, and the byte
    length of each of the five sections, in file order. Python integers,
    so a hostile header cannot overflow them."""
    k = len(widths)
    words = [-(-n * int(w) // WORD_BITS) for w in widths]
    offsets = [0, *itertools.accumulate(beta * WORD_BITS * c for c in words)]
    sizes = (_bit_code_bytes(k), 8 * (k + 1), 4 * k * n, 4 * sum(words), offsets[-1] // 8)
    return words, offsets, sizes


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _frozen_block(codes, scale, zero, width: int, binary: bool) -> QuantizedBlock:
    """One group of a PackedModel, its arrays marked read-only."""
    params = GroupQuantParams(width, _readonly(scale), _readonly(zero), binary)
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
    def binary_1bit(self) -> bool:
        return any(b.params.binary for b in self.blocks)

    @property
    def flags(self) -> int:
        return FLAG_BINARY_1BIT if self.binary_1bit else 0

    @cached_property
    def offsets(self) -> np.ndarray:
        """Cumulative bit offsets of each group in the weight stream, read-only."""
        return _readonly(np.array(_layout(self.n, self.beta, self.widths)[1], dtype=np.uint64))

    def group_block(self, g: int) -> QuantizedBlock:
        return self.blocks[g]

    def to_bytes(self) -> bytes:
        header = _HEADER.pack(
            MAGIC, VERSION, self.flags, self.n, self.m, self.beta, self.target_bits, _RESERVED
        )
        bit_codes = pack_fields(self.widths[None, :] - 1, 2)[: _bit_code_bytes(self.k)]
        offsets = struct.pack(f"<{self.k + 1}Q", *self.offsets.tolist())
        scales = b"".join(b.params.scale.astype("<f4").tobytes() for b in self.blocks)
        zeros_stream = b"".join(
            pack_fields(b.params.zero[None, :], b.params.bit_width) for b in self.blocks
        )
        weights_stream = b"".join(pack_fields(b.codes.T, b.params.bit_width) for b in self.blocks)
        parts = [header]
        for section in (bit_codes, offsets, scales, zeros_stream, weights_stream):
            parts.append(struct.pack("<Q", len(section)))
            parts.append(section)
        return b"".join(parts)


def pack(blocks: list, n: int, m: int, beta: int, target_bits: int | None = None) -> PackedModel:
    """Check a list of QuantizedBlock against an n x m layer in groups of
    beta, and copy it once into a PackedModel. target_bits defaults to the
    mean width, rounded."""
    if beta < 1 or m % beta != 0:
        raise InconsistentPlan(f"group size {beta} does not divide {m} channels")
    k = m // beta
    if len(blocks) != k:
        raise InconsistentPlan(f"{len(blocks)} blocks for {k} groups")
    if target_bits is None:
        target_bits = round(sum(b.params.bit_width for b in blocks) / k) if k else 0
    if not 0 <= target_bits <= 255:
        raise InconsistentPlan(f"target width {target_bits} does not fit the header's u8")

    binary_flags = {b.params.binary for b in blocks if b.params.bit_width == 1}
    if len(binary_flags) > 1:
        raise InconsistentPlan("1-bit groups mix sign/magnitude and affine modes")

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
        checked.append(_frozen_block(codes, scale, zero, width, b.params.binary))
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

    sections = []
    pos = _HEADER.size
    view = memoryview(raw)
    for label in ("bit_codes", "offsets", "scales", "zeros", "weights"):
        if pos + 8 > len(raw):
            raise TruncatedPayload(f"{name}: missing length of {label} section")
        (length,) = struct.unpack_from("<Q", raw, pos)
        pos += 8
        if pos + length > len(raw):
            raise TruncatedPayload(f"{name}: {label} section cut off")
        sections.append(view[pos : pos + length])
        pos += length
    if pos != len(raw):
        raise TruncatedPayload(f"{name}: {len(raw) - pos} trailing bytes")
    bit_codes_raw, offsets_raw, scales_raw, zeros_raw, weights_raw = sections

    if len(bit_codes_raw) != _bit_code_bytes(k):
        raise InconsistentPlan(f"{name}: bit-code section holds {len(bit_codes_raw)} bytes for {k} groups")
    bit_codes_row = bytes(bit_codes_raw) + bytes(-len(bit_codes_raw) % 4)  # back to whole words
    widths = unpack_fields(bit_codes_row, 1, k, 2, f"{name}: bit codes")[0].astype(np.int64) + 1
    binary = bool(flags & FLAG_BINARY_1BIT)
    if binary and not np.any(widths == 1):
        raise InconsistentPlan(f"{name}: sign/magnitude flag set with no 1-bit group")

    words, expected, sizes = _layout(n, beta, widths)
    _, offsets_bytes, scales_bytes, zeros_bytes, weights_bytes = sizes
    if len(offsets_raw) != offsets_bytes:
        raise CorruptOffsets(f"{name}: offset table holds {len(offsets_raw)} bytes for {k + 1} entries")
    offsets = list(struct.unpack(f"<{k + 1}Q", offsets_raw))
    if offsets != expected:
        raise CorruptOffsets(f"{name}: offset table disagrees with the declared bit widths")
    if len(weights_raw) != weights_bytes:
        raise CorruptOffsets(
            f"{name}: weight stream holds {8 * len(weights_raw)} bits, offsets claim {offsets[-1]}"
        )

    if len(scales_raw) != scales_bytes:
        raise InconsistentPlan(f"{name}: scale section holds {len(scales_raw)} bytes for {k}x{n} rows")
    scales = _readonly(np.frombuffer(scales_raw, dtype="<f4").reshape(k, n).astype(np.float32))
    if not np.all(np.isfinite(scales)):
        raise CodeOutOfRange(f"{name}: non-finite scale")

    if len(zeros_raw) != zeros_bytes:
        raise InconsistentPlan(f"{name}: zero section length mismatch")
    blocks = []
    zero_pos = 0
    for g in range(k):
        width = int(widths[g])
        row = zeros_raw[zero_pos : zero_pos + 4 * words[g]]
        zero_pos += 4 * words[g]
        zero = _readonly(unpack_fields(row, 1, n, width, f"{name}: zero-point group {g}"))[0]
        group = weights_raw[offsets[g] // 8 : offsets[g + 1] // 8]
        codes = _readonly(unpack_fields(group, beta, n, width, f"{name}: weight group {g}")).T
        blocks.append(_frozen_block(codes, scales[g], zero, width, binary and width == 1))
    return PackedModel(n=n, m=m, beta=beta, target_bits=target_bits, blocks=tuple(blocks))


def write_packed(pm: PackedModel, path: str) -> None:
    atomic_write(path, pm.to_bytes())


def read_packed(path: str) -> PackedModel:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    return from_bytes(raw, name=path)


@dataclass(frozen=True)
class SizeReport:
    payload_bits: int  # code bits, padding excluded
    padding_bits: int
    metadata_bits: int  # header, lengths, bit codes, offsets, scales, zeros
    bits_per_weight: float

    @property
    def total_bits(self) -> int:
        return self.payload_bits + self.padding_bits + self.metadata_bits


def packed_size_report(pm: PackedModel) -> SizeReport:
    payload = int(sum(pm.n * pm.beta * int(w) for w in pm.widths))
    sizes = _layout(pm.n, pm.beta, pm.widths)[2]
    stream = 8 * sizes[-1]
    # the header, a u64 length per section, and every section but the weight stream
    metadata_bytes = _HEADER.size + 8 * len(sizes) + sum(sizes[:-1])
    weights = pm.n * pm.m
    return SizeReport(
        payload_bits=payload,
        padding_bits=stream - payload,
        metadata_bits=8 * metadata_bytes,
        bits_per_weight=payload / weights if weights else 0.0,
    )
