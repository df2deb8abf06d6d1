"""Bit-exact packed storage for mixed-precision quantized matrices.

File layout (SLMQ, all little-endian):

    magic    4 bytes  b"SLMQ"
    version  u16      currently 3
    flags    u16      reserved, zero
    n        u32      output rows
    m        u32      input channels
    beta     u32      group width
    N        u8       average bit-width target
    reserved 3 bytes  zero
    sections, back to back, in order:
        group_codes    one row of k = m / beta 3-bit fields: bits 0-1 hold
                       width - 1, bit 2 marks a shared group
        scales         float32, group-major then row: n per group, or one
                       for a shared group
        zeros_stream   per group: one row of n zero-points at the group's
                       width, or of one for a shared group
        weights_stream per group: beta rows, one per column, of n codes at
                       the group's width

A group is shared when it has at least 2 rows and they all hold one
float32 scale (bitwise) and one zero-point; the file stores that pair
once, and reading expands it to every row. Every packed section is written
by one rule: rows of fixed-width fields, LSB-first, bytes in ascending
address order, each row padded with zero bits to a 32-bit word. No section
carries its length: the header fixes k and the group-code row, and the
codes then fix every other section's size, so a file is exactly as long as
they imply (_layout). The codec works on whole bytes, never on one byte
per bit: at 2 and 4 bits no field straddles a byte and at 3 bits 8 fields
fill 3 bytes, so shifts and masks place each such run one field per byte
of a word (_SPREAD). A row's last run is filled with zero fields, which
are its padding, and packed like any other. Padding bits, reserved bytes
and flag bits are always zero and nonzero ones are rejected on read, as
is a shared bit that disagrees with the rows it stands for (one on a group
of fewer than 2 rows, or none on a group whose rows share both values),
which keeps the encoding injective.

A group's width fixes its decode rule: 2 to 4 bits are affine, 1 bit is
sign/magnitude (quant_core). A 1-bit group's zero-points are stored like
any other and round-trip, but decode never reads them.
"""

from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BadMagic, CodeOutOfRange, InconsistentPlan, TruncatedPayload, UnsupportedVersion
from .quant_core import GroupQuantParams, QuantizedBlock, check_group
from .tensor_store import atomic_write, read_file

MAGIC = b"SLMQ"
VERSION = 3
_SHARED = 4  # group-code bit 2
_HEADER = struct.Struct("<4sHHIIIB3s")
_RESERVED = bytes(3)
WORD_BITS = 32


def _row_words(count: int, width: int) -> int:
    """32-bit words in one padded row of count width-bit fields."""
    return -(-count * width // WORD_BITS)


# Width -> (word, fields, bytes, steps) of a run of fields of 2 to 4 bits,
# the fewest fields that fill whole bytes. Unpacked, a run's fields sit one
# per byte of one little-endian word. Starting from the packed run in the
# word's low bytes, each step word = (word | word << shift) & mask moves the
# upper half of every piece of fields up to its place; packing takes the
# steps back, with >>.
_SPREAD = {
    2: ("<u4", 4, 1, ((12, 0x000F000F), (6, 0x03030303))),
    3: ("<u8", 8, 3, ((20, 0x00000FFF00000FFF), (10, 0x003F003F003F003F), (5, 0x0707070707070707))),
    4: ("<u2", 2, 1, ((4, 0x0F0F),)),
}


def pack_fields(values: np.ndarray, width: int) -> np.ndarray:
    """Rows of `width`-bit fields, LSB-first, each row zero-padded to a
    32-bit word, as a (rows, 4 * words) uint8 array. values is (rows,
    count) with entries below 2**width."""
    v = np.ascontiguousarray(values, dtype=np.uint8)
    rows, count = v.shape
    out = np.zeros((rows, 4 * _row_words(count, width)), dtype=np.uint8)
    if width == 1:
        out[:, : -(-count // 8)] = np.packbits(v, axis=1, bitorder="little")
        return out
    word, per_run, run_bytes, steps = _SPREAD[width]
    runs = -(-count // per_run)
    # the last run's missing fields are zero, as the padding bits they become
    fields = np.zeros((rows, runs * per_run), dtype=np.uint8)
    fields[:, :count] = v
    fields = fields.view(word)
    acc = fields >> steps[-1][0]
    acc |= fields
    del v, fields  # before the steps' temporaries: the peak stays under 3x the fields
    for shift, mask in reversed(steps[:-1]):
        acc &= mask
        acc |= acc >> shift
    # the packed run is the low run_bytes bytes of each word; bytes past
    # the row's last word (8 fields of 3 bits can reach there) are padding
    for byte in range(run_bytes):
        column = out[:, byte : runs * run_bytes : run_bytes]
        np.copyto(column, acc[:, : column.shape[1]], casting="unsafe")
        if byte + 1 < run_bytes:
            acc >>= 8
    return out


def unpack_fields(raw, rows: int, count: int, width: int, what: str) -> np.ndarray:
    """Inverse of pack_fields: (rows, count) uint8, which owns its memory.
    raw must hold exactly rows padded rows; a nonzero padding bit raises
    CodeOutOfRange."""
    b = np.frombuffer(raw, dtype=np.uint8).reshape(rows, 4 * _row_words(count, width))
    used, spare = divmod(count * width, 8)
    if b[:, used + (spare > 0) :].any() or (spare and (b[:, used] >> spare).any()):
        raise CodeOutOfRange(f"nonzero padding bits in {what}")
    if width == 1:
        return np.unpackbits(b, axis=1, count=count, bitorder="little")
    word, per_run, run_bytes, steps = _SPREAD[width]
    runs = -(-count // per_run)
    # each run's packed bytes into the low bytes of its word, the row
    # zero-extended to whole runs
    values = np.zeros((rows, runs * per_run), dtype=np.uint8)
    fields = values.view(word)
    *lower, top = (b[:, byte : runs * run_bytes : run_bytes] for byte in range(run_bytes))
    np.copyto(fields[:, : top.shape[1]], top)
    for column in reversed(lower):
        fields <<= 8
        fields[:, : column.shape[1]] |= column
    for shift, mask in steps:
        fields |= fields << shift
        fields &= mask
    return values[:, :count].copy()


def _layout(n: int, beta: int, widths, shared) -> tuple[list[int], list[int], tuple[int, ...]]:
    """Words in each group's zero-point row (n fields at its width, or one
    for a shared group), the k + 1 bit offsets of the groups in the weight
    stream (beta padded rows of n codes each), and the byte length of each
    of the four sections, in file order. Python integers, so a hostile
    header cannot overflow them."""
    k = len(widths)
    rows = [1 if s else n for s in shared]
    zero_words = [_row_words(r, int(w)) for r, w in zip(rows, widths)]
    offsets = [0, *itertools.accumulate(beta * WORD_BITS * _row_words(n, int(w)) for w in widths)]
    sizes = (4 * _row_words(k, 3), 4 * sum(rows), 4 * sum(zero_words), offsets[-1] // 8)
    return zero_words, offsets, sizes


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _is_shared(params: GroupQuantParams) -> bool:
    bits, zero = np.asarray(params.scale, dtype="<f4").view("<u4"), params.zero
    return len(bits) >= 2 and bool(np.all(bits == bits[0]) and np.all(zero == zero[0]))


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

    @cached_property
    def shared(self) -> np.ndarray:
        """(k,) bool, read-only: the groups of at least 2 rows whose rows
        all hold one float32 scale, bitwise, and one zero-point."""
        return _readonly(np.array([_is_shared(b.params) for b in self.blocks], dtype=bool))

    def group_block(self, g: int) -> QuantizedBlock:
        return self.blocks[g]

    def to_bytes(self) -> bytes:
        header = _HEADER.pack(
            MAGIC, VERSION, 0, self.n, self.m, self.beta, self.target_bits, _RESERVED
        )
        # a shared group's scale and zero-point rows are their first entry
        params = [(b.params, 1 if s else self.n) for b, s in zip(self.blocks, self.shared)]
        return b"".join(
            [
                header,
                pack_fields(self.widths[None, :] - 1 + _SHARED * self.shared, 3),
                *(np.asarray(p.scale[:r], dtype="<f4") for p, r in params),
                *(pack_fields(p.zero[None, :r], p.bit_width) for p, r in params),
                *(pack_fields(b.codes.T, b.params.bit_width) for b in self.blocks),
            ]
        )


def pack(blocks: list, n: int, m: int, beta: int, target_bits: int) -> PackedModel:
    """Check a list of QuantizedBlock against an n x m layer in groups of
    beta (each by check_group), and copy it once into a PackedModel whose
    header records the average width target target_bits (a u8)."""
    if beta < 1 or m % beta != 0:
        raise InconsistentPlan(f"group size {beta} does not divide {m} channels")
    k = m // beta
    if len(blocks) != k:
        raise InconsistentPlan(f"{len(blocks)} blocks for {k} groups")
    if not isinstance(target_bits, (int, np.integer)) or not 0 <= target_bits <= 255:
        raise InconsistentPlan(f"target width {target_bits!r} is not an integer the u8 holds")

    checked = []
    for g, b in enumerate(blocks):
        if b.codes.shape != (n, beta):
            raise InconsistentPlan(f"group {g} codes have shape {b.codes.shape}")
        scale = check_group(b, f"group {g}")
        codes = np.array(b.codes, dtype=np.uint8, order="F")
        zero = np.array(b.params.zero, dtype=np.uint8)
        checked.append(_frozen_block(codes, scale, zero, b.params.bit_width))
    return PackedModel(n=n, m=m, beta=beta, target_bits=target_bits, blocks=tuple(checked))


def from_bytes(raw: bytes, name: str = "<bytes>") -> PackedModel:
    if len(raw) < _HEADER.size:
        raise TruncatedPayload(f"{name}: too short for a header")
    magic, version, flags, n, m, beta, target_bits, reserved = _HEADER.unpack_from(raw, 0)
    if magic != MAGIC:
        raise BadMagic(f"{name}: expected {MAGIC!r}, found {magic!r}")
    if version != VERSION or flags or reserved != _RESERVED:
        raise UnsupportedVersion(
            f"{name}: version {version}, flags {flags:#06x}, reserved bytes {reserved.hex()}; "
            f"this build reads version {VERSION} with flags 0 and 000000"
        )
    if beta < 1 or m % beta != 0:
        raise InconsistentPlan(f"{name}: group size {beta} does not divide {m}")
    k = m // beta

    # the group-code row first: it bounds k by the file's size before
    # anything is sized by k, and its codes size every other section
    view = memoryview(raw)
    code_end = _HEADER.size + 4 * _row_words(k, 3)
    if len(raw) < code_end:
        raise TruncatedPayload(f"{name}: group-code row of {k} groups cut off")
    group_codes = unpack_fields(view[_HEADER.size : code_end], 1, k, 3, f"{name}: group codes")[0]
    widths = (group_codes & 3).astype(np.int64) + 1
    shared = (group_codes & _SHARED).astype(bool)
    zero_words, offsets, sizes = _layout(n, beta, widths, shared)
    _, scales_at, zeros_at, weights_at, end = itertools.accumulate(sizes, initial=_HEADER.size)
    if len(raw) != end:
        raise TruncatedPayload(f"{name}: {len(raw)} bytes, header and group codes imply {end}")

    scales = np.frombuffer(raw, dtype="<f4", count=sizes[1] // 4, offset=scales_at)
    if not np.all(np.isfinite(scales)):
        raise CodeOutOfRange(f"{name}: non-finite scale")

    blocks = []
    for g in range(k):
        width, rows = int(widths[g]), 1 if shared[g] else n
        scale = scales[:rows].astype(np.float32)
        scales = scales[rows:]
        row = view[zeros_at : zeros_at + 4 * zero_words[g]]
        zeros_at += 4 * zero_words[g]
        zero = _readonly(unpack_fields(row, 1, rows, width, f"{name}: zero-point group {g}"))[0]
        if shared[g]:
            scale, zero = np.full(n, scale[0]), np.full(n, zero[0])
        group = view[weights_at + offsets[g] // 8 : weights_at + offsets[g + 1] // 8]
        codes = _readonly(unpack_fields(group, beta, n, width, f"{name}: weight group {g}")).T
        blocks.append(_frozen_block(codes, scale, zero, width))
    pm = PackedModel(n=n, m=m, beta=beta, target_bits=target_bits, blocks=tuple(blocks))
    misread = np.flatnonzero(pm.shared != shared)
    if misread.size:
        raise InconsistentPlan(f"{name}: group {misread[0]}'s shared bit disagrees with its "
                               f"{n} rows' scales and zero-points")
    return pm


def write_packed(pm: PackedModel, path: str) -> None:
    atomic_write(path, pm.to_bytes())


def read_packed(path: str) -> PackedModel:
    return from_bytes(read_file(path), name=path)


@dataclass(frozen=True)
class SizeReport:
    payload_bits: int  # code bits, padding excluded
    padding_bits: int
    metadata_bits: int  # header, group codes, scales, zeros
    bits_per_weight: float


def packed_size_report(pm: PackedModel) -> SizeReport:
    payload = int(sum(pm.n * pm.beta * int(w) for w in pm.widths))
    sizes = _layout(pm.n, pm.beta, pm.widths, pm.shared)[2]
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
