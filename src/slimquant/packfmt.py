"""Bit-exact packed storage for mixed-precision quantized matrices.

File layout (SLMQ, all little-endian):

    magic    4 bytes  b"SLMQ"
    version  u16      currently 1
    flags    u16      bit 0: 1-bit groups are sign/magnitude
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
Padding bits and reserved bytes are always zero and nonzero ones are
rejected on read, which keeps the encoding injective.
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


def _layout(n: int, beta: int, widths) -> tuple[list[int], list[int]]:
    """Words in one padded row of n fields at each group's width (a
    group's zero-points are one such row, its codes beta of them), and the
    k + 1 bit offsets of the groups in the weight stream. Python integers,
    so a hostile header cannot overflow them."""
    words = [-(-n * int(w) // WORD_BITS) for w in widths]
    offsets = [0, *itertools.accumulate(beta * WORD_BITS * c for c in words)]
    return words, offsets


@dataclass(frozen=True)
class PackedModel:
    n: int
    m: int
    beta: int
    target_bits: int
    flags: int
    widths: np.ndarray  # (k,) int64 in [1, 4]
    scales: np.ndarray  # (k, n) float32
    zeros: list  # k arrays of (n,) uint8
    codes: list  # k arrays of (n, beta) uint8

    @property
    def k(self) -> int:
        return len(self.widths)

    @property
    def binary_1bit(self) -> bool:
        return bool(self.flags & FLAG_BINARY_1BIT)

    @cached_property
    def offsets(self) -> np.ndarray:
        """Cumulative bit offsets of each group in the weight stream."""
        return np.array(_layout(self.n, self.beta, self.widths)[1], dtype=np.uint64)

    def group_block(self, g: int) -> QuantizedBlock:
        width = int(self.widths[g])
        params = GroupQuantParams(
            bit_width=width,
            scale=self.scales[g].copy(),
            zero=self.zeros[g].copy(),
            binary=self.binary_1bit and width == 1,
        )
        return QuantizedBlock(codes=self.codes[g].copy(), params=params)

    def to_bytes(self) -> bytes:
        header = _HEADER.pack(
            MAGIC, VERSION, self.flags, self.n, self.m, self.beta, self.target_bits, _RESERVED
        )
        bit_codes = pack_fields(self.widths[None, :] - 1, 2)[: -(-self.k // 4)]
        offsets = struct.pack(f"<{self.k + 1}Q", *self.offsets.tolist())
        scales = self.scales.astype("<f4").tobytes(order="C")
        zeros_stream = b"".join(
            pack_fields(self.zeros[g][None, :], int(self.widths[g])) for g in range(self.k)
        )
        weights_stream = b"".join(
            pack_fields(self.codes[g].T, int(self.widths[g])) for g in range(self.k)
        )
        parts = [header]
        for section in (bit_codes, offsets, scales, zeros_stream, weights_stream):
            parts.append(struct.pack("<Q", len(section)))
            parts.append(section)
        return b"".join(parts)


def pack(result, n: int, m: int, beta: int, target_bits: int | None = None) -> PackedModel:
    """Build a PackedModel from a quantization result (anything exposing
    .blocks and .plan, or a plain list of QuantizedBlock)."""
    blocks = result if isinstance(result, list) else result.blocks
    plan_bits = None if isinstance(result, list) else np.asarray(result.plan.bits)
    if beta < 1 or m % beta != 0:
        raise InconsistentPlan(f"group size {beta} does not divide {m} channels")
    k = m // beta
    if len(blocks) != k:
        raise InconsistentPlan(f"{len(blocks)} blocks for {k} groups")
    widths = np.array([b.params.bit_width for b in blocks], dtype=np.int64)
    if plan_bits is not None and (len(plan_bits) != k or np.any(plan_bits != widths)):
        raise InconsistentPlan("plan bit widths disagree with block parameters")

    binary_flags = {b.params.binary for b in blocks if b.params.bit_width == 1}
    if len(binary_flags) > 1:
        raise InconsistentPlan("1-bit groups mix sign/magnitude and affine modes")
    if any(b.params.binary and b.params.bit_width != 1 for b in blocks):
        raise InconsistentPlan("sign/magnitude mode is only defined for 1-bit groups")
    flags = FLAG_BINARY_1BIT if binary_flags == {True} else 0

    scales = np.empty((k, n), dtype=np.float32)
    zeros, codes = [], []
    for g, b in enumerate(blocks):
        maxq = (1 << b.params.bit_width) - 1
        if b.codes.shape != (n, beta):
            raise InconsistentPlan(f"group {g} codes have shape {b.codes.shape}")
        if b.params.scale.shape != (n,) or b.params.zero.shape != (n,):
            raise InconsistentPlan(f"group {g} params are not per-row of length {n}")
        if b.codes.max(initial=0) > maxq or b.params.zero.max(initial=0) > maxq:
            raise InconsistentPlan(f"group {g} carries values beyond {maxq}")
        if not np.all(np.isfinite(b.params.scale)):
            raise InconsistentPlan(f"group {g} has non-finite scales")
        scales[g] = b.params.scale
        zeros.append(b.params.zero.astype(np.uint8))
        codes.append(b.codes.astype(np.uint8))

    if target_bits is None:
        target_bits = int(round(float(widths.mean()))) if k else 0
    return PackedModel(
        n=n,
        m=m,
        beta=beta,
        target_bits=target_bits,
        flags=flags,
        widths=widths,
        scales=scales,
        zeros=zeros,
        codes=codes,
    )


def unpack(pm: PackedModel) -> tuple[list[QuantizedBlock], np.ndarray]:
    """Blocks and their bit widths, exactly as packed."""
    return [pm.group_block(g) for g in range(pm.k)], pm.widths.copy()


def from_bytes(raw: bytes, name: str = "<bytes>") -> PackedModel:
    if len(raw) < _HEADER.size:
        raise TruncatedPayload(f"{name}: too short for a header")
    magic, version, flags, n, m, beta, target_bits, reserved = _HEADER.unpack_from(raw, 0)
    if magic != MAGIC:
        raise BadMagic(f"{name}: expected {MAGIC!r}, found {magic!r}")
    if version != VERSION or reserved != _RESERVED:
        raise UnsupportedVersion(
            f"{name}: version {version} with reserved bytes {reserved.hex()}, "
            f"this build reads {VERSION} with 000000"
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

    if len(bit_codes_raw) != -(-k // 4):
        raise InconsistentPlan(f"{name}: bit-code section holds {len(bit_codes_raw)} bytes for {k} groups")
    bit_codes_row = bytes(bit_codes_raw) + bytes(-len(bit_codes_raw) % 4)  # back to whole words
    widths = unpack_fields(bit_codes_row, 1, k, 2, f"{name}: bit codes")[0].astype(np.int64) + 1

    if len(offsets_raw) != 8 * (k + 1):
        raise CorruptOffsets(f"{name}: offset table holds {len(offsets_raw)} bytes for {k + 1} entries")
    offsets = list(struct.unpack(f"<{k + 1}Q", offsets_raw))
    words, expected = _layout(n, beta, widths)
    if offsets != expected:
        raise CorruptOffsets(f"{name}: offset table disagrees with the declared bit widths")
    if offsets[-1] != 8 * len(weights_raw):
        raise CorruptOffsets(
            f"{name}: weight stream holds {8 * len(weights_raw)} bits, offsets claim {offsets[-1]}"
        )

    if len(scales_raw) != 4 * k * n:
        raise InconsistentPlan(f"{name}: scale section holds {len(scales_raw)} bytes for {k}x{n} rows")
    scales = np.frombuffer(scales_raw, dtype="<f4").reshape(k, n).astype(np.float32)
    if not np.all(np.isfinite(scales)):
        raise CodeOutOfRange(f"{name}: non-finite scale")

    if len(zeros_raw) != 4 * sum(words):
        raise InconsistentPlan(f"{name}: zero section length mismatch")
    zeros, codes = [], []
    zero_pos = 0
    for g in range(k):
        width = int(widths[g])
        row = zeros_raw[zero_pos : zero_pos + 4 * words[g]]
        zero_pos += 4 * words[g]
        zeros.append(unpack_fields(row, 1, n, width, f"{name}: zero-point group {g}")[0])
        group = weights_raw[offsets[g] // 8 : offsets[g + 1] // 8]
        codes.append(unpack_fields(group, beta, n, width, f"{name}: weight group {g}").T)

    return PackedModel(
        n=n,
        m=m,
        beta=beta,
        target_bits=target_bits,
        flags=flags,
        widths=widths,
        scales=scales,
        zeros=zeros,
        codes=codes,
    )


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
    words, offsets = _layout(pm.n, pm.beta, pm.widths)
    stream = offsets[-1]
    metadata_bytes = (
        _HEADER.size
        + 8 * 5  # u64 length prefix of each section
        + -(-pm.k // 4)  # bit codes, 2 bits per group
        + 8 * (pm.k + 1)  # offsets
        + 4 * pm.k * pm.n  # scales
        + 4 * sum(words)  # zero-points
    )
    weights = pm.n * pm.m
    return SizeReport(
        payload_bits=payload,
        padding_bits=stream - payload,
        metadata_bits=8 * metadata_bytes,
        bits_per_weight=payload / weights if weights else 0.0,
    )
