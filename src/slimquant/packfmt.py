"""Bit-exact packed storage for mixed-precision quantized matrices.

File layout (SLMQ, all little-endian):

    magic    4 bytes  b"SLMQ"
    version  u16      currently 1
    flags    u16      bit 0: 1-bit groups are sign/magnitude
    n        u32      output rows
    m        u32      input channels
    beta     u32      group width
    N        u8       average bit-width target
    pad      3 bytes  reserved, zero
    sections, each prefixed by a u64 byte length, in order:
        bit_codes      2 bits per group, value = width - 1
        offsets        (k+1) u64 cumulative bit offsets into weights_stream
        scales         k*n float32, group-major then row
        zeros_stream   per group: n zero-points at the group's width
        weights_stream per group, column by column: n codes at the group's
                       width, each column padded to a 32-bit word boundary

Every bitstream is LSB-first within each byte, bytes in ascending address
order. Padding bits are always zero; nonzero padding is rejected on read,
which keeps the encoding injective.
"""

from __future__ import annotations

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

MAGIC = b"SLMQ"
VERSION = 1
FLAG_BINARY_1BIT = 1
_HEADER = struct.Struct("<4sHHIIIB3x")
WORD_BITS = 32


def _column_words(n: int, width: int) -> int:
    return -(-n * width // WORD_BITS)


def _field_bits(values: np.ndarray, width: int) -> np.ndarray:
    """LSB-first bit expansion, value-major: (count * width,) uint8."""
    v = np.asarray(values, dtype=np.uint32)
    shifts = np.arange(width, dtype=np.uint32)
    return ((v[:, None] >> shifts) & 1).astype(np.uint8).reshape(-1)


def _bits_from_fields(bits: np.ndarray, width: int) -> np.ndarray:
    """Inverse of _field_bits for a flat (count * width,) bit array."""
    weights = (1 << np.arange(width, dtype=np.uint32))
    return (bits.reshape(-1, width).astype(np.uint32) * weights).sum(axis=1)


def _pad_bits_to_words(bits: np.ndarray) -> np.ndarray:
    rem = (-len(bits)) % WORD_BITS
    if rem:
        bits = np.concatenate([bits, np.zeros(rem, dtype=np.uint8)])
    return bits


def encode_bit_codes(widths: np.ndarray) -> bytes:
    """Group widths as packed 2-bit fields (value = width - 1)."""
    codes = np.asarray(widths, dtype=np.uint32) - 1
    return np.packbits(_field_bits(codes, 2), bitorder="little").tobytes()


def decode_bit_codes(raw: bytes, k: int) -> np.ndarray:
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    if np.any(bits[2 * k :]):
        raise CodeOutOfRange("nonzero padding in bit-code section")
    return (_bits_from_fields(bits[: 2 * k], 2) + 1).astype(np.int64)


def encode_column_stream(codes: np.ndarray, width: int) -> bytes:
    """One group's codes (n, beta), packed column by column, each column
    padded to a word boundary."""
    n, beta = codes.shape
    words = _column_words(n, width)
    out = np.zeros((beta, words * WORD_BITS), dtype=np.uint8)
    col_bits = np.transpose(
        ((codes.astype(np.uint32)[:, :, None] >> np.arange(width, dtype=np.uint32)) & 1),
        (1, 0, 2),
    ).reshape(beta, n * width)
    out[:, : n * width] = col_bits
    return np.packbits(out.reshape(-1), bitorder="little").tobytes()


def decode_column_stream(bits: np.ndarray, n: int, beta: int, width: int) -> np.ndarray:
    """Inverse of encode_column_stream given the group's flat bit segment."""
    words = _column_words(n, width)
    seg = bits.reshape(beta, words * WORD_BITS)
    if np.any(seg[:, n * width :]):
        raise CodeOutOfRange("nonzero padding bits inside a weight column")
    fields = seg[:, : n * width].reshape(beta, n, width).astype(np.uint32)
    values = (fields * (1 << np.arange(width, dtype=np.uint32))).sum(axis=2)
    return values.T.astype(np.uint8)


def encode_zeros(zeros: np.ndarray, width: int) -> bytes:
    bits = _pad_bits_to_words(_field_bits(zeros, width))
    return np.packbits(bits, bitorder="little").tobytes()


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
        group_bits = [
            self.beta * _column_words(self.n, int(w)) * WORD_BITS for w in self.widths
        ]
        return np.concatenate([[0], np.cumsum(group_bits, dtype=np.uint64)]).astype(
            np.uint64
        )

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
            MAGIC, VERSION, self.flags, self.n, self.m, self.beta, self.target_bits
        )
        bit_codes = encode_bit_codes(self.widths)
        offsets = struct.pack(f"<{self.k + 1}Q", *self.offsets.tolist())
        scales = self.scales.astype("<f4").tobytes(order="C")
        zeros_stream = b"".join(
            encode_zeros(self.zeros[g], int(self.widths[g])) for g in range(self.k)
        )
        weights_stream = b"".join(
            encode_column_stream(self.codes[g], int(self.widths[g]))
            for g in range(self.k)
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
    magic, version, flags, n, m, beta, target_bits = _HEADER.unpack_from(raw, 0)
    if magic != MAGIC:
        raise BadMagic(f"{name}: expected {MAGIC!r}, found {magic!r}")
    if version != VERSION:
        raise UnsupportedVersion(f"{name}: version {version}, this build reads {VERSION}")
    if beta < 1 or m % beta != 0:
        raise InconsistentPlan(f"{name}: group size {beta} does not divide {m}")
    k = m // beta

    sections = []
    pos = _HEADER.size
    for label in ("bit_codes", "offsets", "scales", "zeros", "weights"):
        if pos + 8 > len(raw):
            raise TruncatedPayload(f"{name}: missing length of {label} section")
        (length,) = struct.unpack_from("<Q", raw, pos)
        pos += 8
        if pos + length > len(raw):
            raise TruncatedPayload(f"{name}: {label} section cut off")
        sections.append(raw[pos : pos + length])
        pos += length
    if pos != len(raw):
        raise TruncatedPayload(f"{name}: {len(raw) - pos} trailing bytes")
    bit_codes_raw, offsets_raw, scales_raw, zeros_raw, weights_raw = sections

    if len(bit_codes_raw) != -(-k // 4):
        raise InconsistentPlan(f"{name}: bit-code section holds {len(bit_codes_raw)} bytes for {k} groups")
    widths = decode_bit_codes(bit_codes_raw, k)

    if len(offsets_raw) != 8 * (k + 1):
        raise CorruptOffsets(f"{name}: offset table holds {len(offsets_raw)} bytes for {k + 1} entries")
    offsets = np.array(struct.unpack(f"<{k + 1}Q", offsets_raw), dtype=np.uint64)
    expected = np.concatenate(
        [[0], np.cumsum([beta * _column_words(n, int(w)) * WORD_BITS for w in widths], dtype=np.uint64)]
    ).astype(np.uint64)
    if not np.array_equal(offsets, expected):
        raise CorruptOffsets(f"{name}: offset table disagrees with the declared bit widths")
    if int(offsets[-1]) != 8 * len(weights_raw):
        raise CorruptOffsets(
            f"{name}: weight stream holds {8 * len(weights_raw)} bits, offsets claim {int(offsets[-1])}"
        )

    if len(scales_raw) != 4 * k * n:
        raise InconsistentPlan(f"{name}: scale section holds {len(scales_raw)} bytes for {k}x{n} rows")
    scales = np.frombuffer(scales_raw, dtype="<f4").reshape(k, n).astype(np.float32)
    if not np.all(np.isfinite(scales)):
        raise CodeOutOfRange(f"{name}: non-finite scale")

    zeros_words = [_column_words(n, int(w)) for w in widths]
    if len(zeros_raw) != 4 * sum(zeros_words):
        raise InconsistentPlan(f"{name}: zero section length mismatch")
    zero_bits = np.unpackbits(np.frombuffer(zeros_raw, dtype=np.uint8), bitorder="little")
    zeros = []
    cursor = 0
    for g in range(k):
        width = int(widths[g])
        seg = zero_bits[cursor : cursor + zeros_words[g] * WORD_BITS]
        cursor += zeros_words[g] * WORD_BITS
        if np.any(seg[n * width :]):
            raise CodeOutOfRange(f"{name}: nonzero padding in zero-point group {g}")
        zeros.append(_bits_from_fields(seg[: n * width], width).astype(np.uint8))

    weight_bits = np.unpackbits(np.frombuffer(weights_raw, dtype=np.uint8), bitorder="little")
    codes = []
    for g in range(k):
        seg = weight_bits[int(offsets[g]) : int(offsets[g + 1])]
        codes.append(decode_column_stream(seg, n, beta, int(widths[g])))

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
    try:
        with open(path, "wb") as fh:
            fh.write(pm.to_bytes())
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


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
    stream = int(pm.offsets[-1])
    metadata_bytes = (
        _HEADER.size
        + 8 * 5  # u64 length prefix of each section
        + -(-pm.k // 4)  # bit codes, 2 bits per group
        + 8 * (pm.k + 1)  # offsets
        + 4 * pm.k * pm.n  # scales
        + 4 * sum(_column_words(pm.n, int(w)) for w in pm.widths)  # zero-points
    )
    weights = pm.n * pm.m
    return SizeReport(
        payload_bits=payload,
        padding_bits=stream - payload,
        metadata_bits=8 * metadata_bytes,
        bits_per_weight=payload / weights if weights else 0.0,
    )
