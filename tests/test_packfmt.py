"""Tests for the packed mixed-precision container.

Covers the hand-packed byte examples, exact round trips, every corruption
class, the size accounting, and a frozen golden digest so any byte-level
drift in the writer is caught immediately.
"""

import hashlib
import itertools
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import missed_raises, random_blocks, random_calib, random_layer
from slimquant.errors import (
    BadMagic,
    CodeOutOfRange,
    InconsistentPlan,
    IoFailure,
    SlimQuantError,
    TruncatedPayload,
    UnsupportedVersion,
)
from slimquant.packfmt import (
    WORD_BITS,
    PackedModel,
    _layout,
    _row_words,
    from_bytes,
    pack,
    pack_fields,
    packed_size_report,
    read_packed,
    unpack_fields,
    write_packed,
)
from slimquant.pipeline import PipelineConfig, quantize_layer, reconstruct
from slimquant.quant_core import GroupQuantParams, QuantizedBlock, dequantize

GOLDEN_SHA256 = "0287f475ce796cfe6601fa691df4691bdff3b02a21d8d0bff7beeccf93b5701d"
# the same model in version 2, which differs in the version, the flags and
# the group-code row (test_version_two_file_rejected)
GOLDEN_V2_SHA256 = "1060f6626a51f4b78c0187b1c0c82817f0cf305a89952be2cbd90b3d0d77eade"


def sections_of(raw):
    """(start, length) of each of the four sections of a valid file, in
    file order, as its header and bit widths imply them."""
    pm = from_bytes(raw)
    sizes = _layout(pm.n, pm.beta, pm.widths, pm.shared)[2]
    return list(zip(itertools.accumulate(sizes, initial=24), sizes))


def golden_model():
    rng = np.random.default_rng(424242)
    blocks, _ = random_blocks(rng, n=8, m=64, beta=16, widths=[1, 2, 3, 2])
    return pack(blocks, 8, 64, 16, target_bits=2)


def reference_pack_fields(values, width):
    """pack_fields through one byte per bit: the oracle of the codec."""
    v = np.asarray(values, dtype=np.uint8)
    rows, count = v.shape
    words = _row_words(count, width)
    bits = np.zeros((rows, words * WORD_BITS), dtype=np.uint8)
    fields = bits[:, : count * width].reshape(rows, count, width)  # a view into bits
    for i in range(width):
        fields[:, :, i] = (v >> i) & 1
    return np.packbits(bits, axis=1, bitorder="little").tobytes()


def reference_unpack_fields(raw, rows, count, width, what):
    """unpack_fields through one byte per bit: the oracle of the codec."""
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


@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_codec_matches_bit_per_byte_oracle(width):
    # every count of fields up to 70 (runs of 8 3-bit fields in 3 bytes,
    # with 9 fields the last run reaching past the first word) and rows of
    # 1024, 1023 and 1017 fields, whose last run is whole or partial at
    # every width, on 1 to 4 rows, read back into arrays that own their
    # memory; then each padding bit of each row set alone, which both
    # codecs refuse
    rng = np.random.default_rng(width)
    for rows, count in itertools.product(range(1, 5), [*range(1, 71), 1024, 1023, 1017]):
        values = rng.integers(0, 1 << width, size=(rows, count), dtype=np.uint8)
        raw = reference_pack_fields(values, width)
        assert pack_fields(values, width).tobytes() == raw
        got = unpack_fields(raw, rows, count, width, "row")
        assert got.dtype == np.uint8 and got.flags.owndata and np.array_equal(got, values)
        row_bits = 8 * len(raw) // rows
        for row, bit in itertools.product(range(rows), range(count * width, row_bits)):
            mutated = bytearray(raw)
            at = row * row_bits + bit
            mutated[at // 8] ^= 1 << (at % 8)
            for unpack_with in (unpack_fields, reference_unpack_fields):
                with pytest.raises(CodeOutOfRange):
                    unpack_with(bytes(mutated), rows, count, width, "row")


@pytest.mark.parametrize("width", [2, 3, 4])
def test_codec_peak_memory_is_bounded(width):
    # a group of 128 rows of 1024 fields, whose last run is whole, and of
    # 1023 and 1017, whose last run is partial at every width: with one
    # byte per bit the codec peaked at 4, 5 and 6 times the field bytes at
    # widths 2, 3 and 4, and reading a partial run one column at a time,
    # unpacking peaked at 3.26, 3.50 and 3.14 times
    rows = 128
    for count in (1024, 1023, 1017):
        values = np.random.default_rng(width).integers(0, 1 << width, size=(rows, count),
                                                       dtype=np.uint8)
        raw = pack_fields(values, width)
        for run in (lambda: pack_fields(values, width),
                    lambda: unpack_fields(raw, rows, count, width, "group")):
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 3 * rows * count, (count, peak / (rows * count))


def test_bit_code_hand_example():
    # widths [3,2,1,2] with group 2 shared -> group codes [2,1,4,1] ->
    # LSB-first 3-bit fields 010 100 001 100 -> 0x30A in one padded word
    raw = pack_fields(np.array([[2, 1, 4, 1]]), 3)
    assert raw.tolist() == [[0x0A, 0x03, 0x00, 0x00]]
    assert unpack_fields(raw, 1, 4, 3, "group codes").tolist() == [[2, 1, 4, 1]]


def test_column_hand_example():
    # one 2-bit column [0,1,2,3] packs to 0xE4 inside one zero-padded word
    codes = np.array([[0], [1], [2], [3]], dtype=np.uint8)
    raw = pack_fields(codes.T, 2)
    assert raw.tolist() == [[0xE4, 0x00, 0x00, 0x00]]
    assert np.array_equal(unpack_fields(raw, 1, 4, 2, "column").T, codes)


def test_round_trip_random_models():
    rng = np.random.default_rng(1)
    for trial in range(50):
        n = int(rng.integers(1, 33))
        beta = int(rng.choice([4, 8, 16]))
        k = int(rng.integers(1, 6))
        blocks, widths = random_blocks(rng, n, k * beta, beta)
        pm = pack(blocks, n, k * beta, beta, target_bits=2)
        back = from_bytes(pm.to_bytes())
        assert back.n == n and back.m == k * beta and back.beta == beta
        assert np.array_equal(back.shared, pm.shared)
        assert back.target_bits == pm.target_bits
        assert np.array_equal(back.widths, widths)
        assert len(back.blocks) == len(pm.blocks) == k
        for a, b in zip(back.blocks, pm.blocks):
            assert a.params.bit_width == b.params.bit_width
            assert np.array_equal(a.params.scale, b.params.scale)
            assert np.array_equal(a.params.zero, b.params.zero)
            assert np.array_equal(a.codes, b.codes)


def test_round_trip_preserves_decode():
    rng = np.random.default_rng(2)
    w = random_layer(rng, 16, 128)
    calib = random_calib(rng, 256, 128)
    res = quantize_layer(w, calib, PipelineConfig(beta=32, bits=2))
    pm = pack(res.blocks, 16, 128, 32, target_bits=2)
    back = from_bytes(pm.to_bytes())
    assert np.array_equal(back.widths, res.plan.bits)
    assert np.array_equal(reconstruct(back.blocks), reconstruct(res.blocks))
    for a, b in zip(back.blocks, res.blocks):
        assert np.array_equal(a.codes, b.codes)
        assert np.array_equal(a.params.scale, b.params.scale)
        assert np.array_equal(a.params.zero, b.params.zero)


def test_one_bit_groups_round_trip():
    # a 1-bit group's per-row scales and zero-points round-trip, and it
    # decodes to +-scale whatever its zero-points hold
    rng = np.random.default_rng(3)
    blocks, _ = random_blocks(rng, 4, 32, 8, widths=[1, 2, 1, 3])
    pm = pack(blocks, 4, 32, 8, target_bits=2)
    assert not pm.shared.any()
    got = from_bytes(pm.to_bytes()).blocks
    for g in (0, 2):
        assert np.array_equal(got[g].params.zero, blocks[g].params.zero)
        scale = blocks[g].params.scale[:, None]
        want = np.where(blocks[g].codes == 1, scale, -scale)
        assert np.array_equal(dequantize(got[g]), want)


def test_offsets_use_padded_group_lengths():
    rng = np.random.default_rng(4)
    blocks, _ = random_blocks(rng, 8, 48, 16, widths=[2, 3, 1])
    pm = pack(blocks, 8, 48, 16, target_bits=2)
    # n=8: a column holds 8*width bits, padded to one 32-bit word
    offsets = _layout(8, 16, pm.widths, pm.shared)[1]
    assert offsets == [0, 16 * 32, 32 * 32, 48 * 32]
    raw = pm.to_bytes()
    weights = sections_of(raw)[3]
    assert weights[1] * 8 == offsets[-1]


def test_file_identity_is_stable():
    pm = golden_model()
    blob = pm.to_bytes()
    assert blob[:4] == b"SLMQ"
    assert hashlib.sha256(blob).hexdigest() == GOLDEN_SHA256
    assert pm.to_bytes() == blob


def test_writer_is_injective_on_codes():
    pm = golden_model()
    blocks = list(pm.blocks)
    codes = blocks[1].codes.copy()
    codes[0, 0] ^= 1
    blocks[1] = QuantizedBlock(codes=codes, params=blocks[1].params)
    other = PackedModel(
        n=pm.n, m=pm.m, beta=pm.beta, target_bits=pm.target_bits, blocks=tuple(blocks))
    assert other.to_bytes() != pm.to_bytes()


def model_arrays(pm):
    for b in pm.blocks:
        yield from (b.codes, b.params.scale, b.params.zero)
    yield from (pm.widths, pm.shared)


@pytest.mark.parametrize("source", ["pack", "from_bytes"])
def test_model_arrays_are_read_only(source):
    pm = golden_model()
    if source == "from_bytes":
        pm = from_bytes(pm.to_bytes())
    for arr in model_arrays(pm):
        with pytest.raises(ValueError):
            arr[0] = 1
        if arr.base is not None:  # a view cannot be made writable again
            with pytest.raises(ValueError):
                arr.flags.writeable = True


def test_pack_copies_caller_arrays():
    rng = np.random.default_rng(424242)
    blocks, _ = random_blocks(rng, n=8, m=64, beta=16, widths=[1, 2, 3, 2])
    pm = pack(blocks, 8, 64, 16, target_bits=2)
    blob = pm.to_bytes()
    for b in blocks:
        b.codes[:] = 0
        b.params.scale[:] = 7.0
        b.params.zero[:] = 0
    assert pm.to_bytes() == blob


def test_group_block_is_the_stored_block():
    pm = golden_model()
    for source in (pm, from_bytes(pm.to_bytes())):
        for g in range(source.k):
            assert source.group_block(g) is source.blocks[g]


def test_empty_model_round_trips():
    pm = pack([], 4, 0, 16, target_bits=2)
    back = from_bytes(pm.to_bytes())
    assert back.k == 0
    assert back.blocks == () and len(back.widths) == 0


def test_write_read_files(tmp_path):
    pm = golden_model()
    path = tmp_path / "model.slmq"
    write_packed(pm, path)
    back = read_packed(path)
    assert back.to_bytes() == pm.to_bytes()
    with pytest.raises(IoFailure):
        read_packed(tmp_path / "missing.slmq")


def test_bad_magic_and_version():
    raw = bytearray(golden_model().to_bytes())
    tampered = raw.copy()
    tampered[0:4] = b"WXYZ"
    with pytest.raises(BadMagic):
        from_bytes(bytes(tampered))
    tampered = raw.copy()
    struct.pack_into("<H", tampered, 4, 9)
    with pytest.raises(UnsupportedVersion):
        from_bytes(bytes(tampered))


@pytest.mark.parametrize("target_bits", [2.0, 2.5, None, "2", -1, 256])
def test_target_width_that_is_not_a_u8_integer_rejected(target_bits):
    pm = golden_model()
    with pytest.raises(InconsistentPlan, match="target width"):
        pack(pm.blocks, pm.n, pm.m, pm.beta, target_bits)


def test_numpy_integer_target_width_accepted():
    pm = golden_model()
    again = pack(pm.blocks, pm.n, pm.m, pm.beta, np.int64(2))
    assert again.to_bytes() == pm.to_bytes()


def test_nonzero_reserved_header_bytes_rejected():
    raw = golden_model().to_bytes()
    for pos in (21, 22, 23):
        tampered = bytearray(raw)
        tampered[pos] = 0x7F
        with pytest.raises(UnsupportedVersion):
            from_bytes(bytes(tampered))


def test_undefined_flag_bits_rejected():
    # all 16 flag bits are reserved, bit 0 included: the widths already say
    # which groups are 1-bit
    raw = golden_model().to_bytes()
    assert raw[6:8] == bytes(2)
    for flags in (0x0001, 0x0002, 0x8000, 0x0003):
        tampered = bytearray(raw)
        struct.pack_into("<H", tampered, 6, flags)
        with pytest.raises(UnsupportedVersion):
            from_bytes(bytes(tampered))


def test_binary_flag_without_one_bit_group_rejected():
    # flag bit 0, which version 2 set when a group was 1-bit, is reserved
    # like the rest, also on files that have no 1-bit group at all
    rng = np.random.default_rng(12)
    blocks, _ = random_blocks(rng, 4, 16, 8, widths=[2, 3])
    for pm in (pack(blocks, 4, 16, 8, target_bits=2), pack([], 4, 0, 16, target_bits=2)):
        raw = pm.to_bytes()
        assert raw[6:8] == bytes(2)
        for flags in (0x0001, 0x0003):
            tampered = bytearray(raw)
            struct.pack_into("<H", tampered, 6, flags)
            with pytest.raises(UnsupportedVersion):
                from_bytes(bytes(tampered))


def test_truncation_rejected_everywhere():
    raw = golden_model().to_bytes()
    with pytest.raises(TruncatedPayload):
        from_bytes(raw[:10])  # inside the header
    for start, length in sections_of(raw):
        if length:
            with pytest.raises(TruncatedPayload):
                from_bytes(raw[: start + length - 1])
    with pytest.raises(TruncatedPayload):
        from_bytes(raw + b"\x00")


def test_every_proper_prefix_and_one_extra_byte_rejected():
    raw = golden_model().to_bytes()
    for end in range(len(raw)):
        with pytest.raises(TruncatedPayload):
            from_bytes(raw[:end])
    with pytest.raises(TruncatedPayload):
        from_bytes(raw + b"\x00")


def test_version_one_file_rejected():
    raw = bytearray(golden_model().to_bytes())
    struct.pack_into("<H", raw, 4, 1)
    with pytest.raises(UnsupportedVersion):
        from_bytes(bytes(raw))


def test_version_two_file_rejected():
    # version 2 set flag bit 0 when a group was 1-bit and stored widths as
    # 2-bit fields; without shared groups its other sections match version
    # 3's. The file rebuilt here is the golden model's version-2 encoding.
    pm = golden_model()
    raw = bytearray(pm.to_bytes())
    struct.pack_into("<HH", raw, 4, 2, 1)
    raw[24:28] = pack_fields(pm.widths[None, :] - 1, 2).tobytes()
    assert hashlib.sha256(raw).hexdigest() == GOLDEN_V2_SHA256
    with pytest.raises(UnsupportedVersion):
        from_bytes(bytes(raw))


def shared_model(n=6):
    """Widths 1, 3, 1, 2 in groups of 4; groups 0 and 1 share one scale
    and zero-point across their rows."""
    rng = np.random.default_rng(31)
    blocks, _ = random_blocks(rng, n, 16, 4, widths=[1, 3, 1, 2], shared=(0, 1))
    return pack(blocks, n, 16, 4, target_bits=2)


def encoded_as(pm, shared):
    """pm's encoding with the groups in the (k,) bool shared marked shared,
    whatever their rows hold."""
    pm = PackedModel(n=pm.n, m=pm.m, beta=pm.beta, target_bits=pm.target_bits,
                     blocks=pm.blocks)
    pm.__dict__["shared"] = np.array(shared)  # set before the cached property runs
    return pm.to_bytes()


def test_shared_groups_round_trip():
    pm = shared_model()
    assert pm.shared.tolist() == [True, True, False, False]
    raw = pm.to_bytes()
    back = from_bytes(raw)
    assert back.to_bytes() == raw
    assert back.shared.tolist() == pm.shared.tolist()
    for a, b in zip(back.blocks, pm.blocks):
        assert a.params.scale.shape == a.params.zero.shape == (6,)
        assert a.params.scale.dtype == np.float32 and a.params.zero.dtype == np.uint8
        assert np.array_equal(a.params.scale, b.params.scale)
        assert np.array_equal(a.params.zero, b.params.zero)
        assert np.array_equal(a.codes, b.codes)
    # each shared group stores 1 scale, not 6; at n = 6 its zero row is one
    # word either way
    assert len(raw) == len(encoded_as(pm, [False] * 4)) - 2 * 4 * 5


def test_unshared_group_whose_rows_share_both_values_rejected():
    pm = shared_model()
    for g in (0, 1):
        marks = pm.shared.copy()
        marks[g] = False
        with pytest.raises(InconsistentPlan, match=f"group {g}'s shared bit"):
            from_bytes(encoded_as(pm, marks))


def test_shared_bit_on_fewer_than_two_rows_rejected():
    # one row takes one scale and one zero word either way, so only the bit
    # tells the two encodings apart
    pm = shared_model(n=1)
    assert not pm.shared.any()
    for g in range(pm.k):
        marks = np.zeros(pm.k, dtype=bool)
        marks[g] = True
        raw = encoded_as(pm, marks)
        assert len(raw) == len(pm.to_bytes())
        with pytest.raises(InconsistentPlan, match=f"group {g}'s shared bit"):
            from_bytes(raw)


@pytest.mark.parametrize("field, value", [("m", 2**32 - 1), ("n", 2**32 - 1)])
def test_hostile_header_rejected_before_sizing(field, value):
    # m = 2^32 - 1 with beta = 1 claims 2^32 - 1 groups; n = 2^32 - 1 claims
    # rows of 2^32 - 1 fields. Either is refused on the file's length, with
    # no allocation sized by k or n.
    raw = bytearray(golden_model().to_bytes()[:40])
    if field == "m":
        struct.pack_into("<II", raw, 12, value, 1)
    else:
        struct.pack_into("<I", raw, 8, value)
    tracemalloc.start()
    try:
        with pytest.raises(TruncatedPayload):
            from_bytes(bytes(raw))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_tampered_bit_codes_change_the_file_length():
    # with 16 rows, a 1-bit and a 3-bit column pad to different word counts,
    # so flipping a stored width changes the length the file must have
    rng = np.random.default_rng(11)
    blocks, _ = random_blocks(rng, 16, 32, 16, widths=[1, 2])
    raw = bytearray(pack(blocks, 16, 32, 16, target_bits=2).to_bytes())
    start, _ = sections_of(raw)[0]
    raw[start] ^= 0x02  # group 0: 1 bit -> 3 bits
    with pytest.raises(TruncatedPayload):
        from_bytes(bytes(raw))


def test_nonzero_weight_padding_rejected():
    # golden model has n=8, so every column leaves padding inside its word
    raw = bytearray(golden_model().to_bytes())
    start, _ = sections_of(raw)[3]
    raw[start + 3] = 0xFF  # top byte of the first column's word
    with pytest.raises(CodeOutOfRange):
        from_bytes(bytes(raw))


def test_nonzero_zero_point_padding_rejected():
    raw = bytearray(golden_model().to_bytes())
    start, _ = sections_of(raw)[2]
    raw[start + 3] = 0xFF
    with pytest.raises(CodeOutOfRange):
        from_bytes(bytes(raw))


def test_non_finite_scale_rejected_on_read():
    raw = bytearray(golden_model().to_bytes())
    start, _ = sections_of(raw)[1]
    struct.pack_into("<f", raw, start, np.nan)
    with pytest.raises(CodeOutOfRange):
        from_bytes(bytes(raw))


def test_pack_validates_block_count_and_shapes():
    rng = np.random.default_rng(5)
    blocks, _ = random_blocks(rng, 4, 32, 8)
    with pytest.raises(InconsistentPlan):
        pack(blocks[:-1], 4, 32, 8, target_bits=2)
    with pytest.raises(InconsistentPlan):
        pack(blocks, 4, 32, 7, target_bits=2)
    with pytest.raises(InconsistentPlan):
        pack(blocks, 8, 32, 8, target_bits=2)  # n disagrees with code shapes
    # a scale and a zero-point per row: rows of another length, or not 1-D
    codes = np.zeros((2, 4), dtype=np.uint8)
    for shape in ((1,), (3,), (2, 1)):
        params = GroupQuantParams(2, np.ones(shape, dtype=np.float32),
                                  np.zeros(shape, dtype=np.uint8))
        with pytest.raises(InconsistentPlan, match="not per-row of length 2"):
            pack([QuantizedBlock(codes=codes, params=params)], 2, 4, 4, target_bits=2)


def test_pack_validates_code_and_zero_ranges():
    codes = np.full((2, 4), 5, dtype=np.uint8)  # too big for 2 bits
    params = GroupQuantParams(2, np.ones(2, dtype=np.float32),
                              np.zeros(2, dtype=np.uint8))
    with pytest.raises(InconsistentPlan):
        pack([QuantizedBlock(codes=codes, params=params)], 2, 4, 4, target_bits=2)
    params_bad_zero = GroupQuantParams(2, np.ones(2, dtype=np.float32),
                                       np.full(2, 9, dtype=np.uint8))
    ok_codes = np.zeros((2, 4), dtype=np.uint8)
    with pytest.raises(InconsistentPlan):
        pack([QuantizedBlock(codes=ok_codes, params=params_bad_zero)], 2, 4, 4, target_bits=2)
    # values that a uint8 copy would wrap into range
    for bad in (-1, 256):
        wrapped = np.zeros((2, 4), dtype=np.int64)
        wrapped[1, 2] = bad
        with pytest.raises(InconsistentPlan):
            pack([QuantizedBlock(codes=wrapped, params=params)], 2, 4, 4, target_bits=2)
        with pytest.raises(InconsistentPlan):
            pack([QuantizedBlock(codes=ok_codes, params=GroupQuantParams(
                2, np.ones(2, dtype=np.float32), wrapped[1, 1:3]))], 2, 4, 4, target_bits=2)
    # values that a uint8 copy would truncate to an integer
    for bad in (2.7, 1.5, np.nan):
        fractional = np.zeros((2, 4))
        fractional[1, 3] = bad
        with pytest.raises(InconsistentPlan):
            pack([QuantizedBlock(codes=fractional, params=params)], 2, 4, 4, target_bits=2)
        with pytest.raises(InconsistentPlan):
            pack([QuantizedBlock(codes=ok_codes, params=GroupQuantParams(
                2, np.ones(2, dtype=np.float32), fractional[1, 2:]))], 2, 4, 4, target_bits=2)
    # integral floats are accepted as codes and zero-points
    whole = np.full((2, 4), 3.0)
    pm = pack([QuantizedBlock(codes=whole, params=GroupQuantParams(
        2, np.ones(2, dtype=np.float32), whole[0, :2]))], 2, 4, 4, target_bits=2)
    assert np.array_equal(pm.blocks[0].codes, whole)


def test_pack_validates_scale_finiteness():
    codes = np.zeros((2, 4), dtype=np.uint8)
    params = GroupQuantParams(2, np.array([1.0, np.inf], dtype=np.float32),
                              np.zeros(2, dtype=np.uint8))
    with pytest.raises(InconsistentPlan):
        pack([QuantizedBlock(codes=codes, params=params)], 2, 4, 4, target_bits=2)


def test_pack_rejects_target_bits_beyond_u8():
    rng = np.random.default_rng(7)
    blocks, _ = random_blocks(rng, 4, 32, 8)
    for target in (-1, 256):
        with pytest.raises(InconsistentPlan):
            pack(blocks, 4, 32, 8, target_bits=target)
    assert from_bytes(pack(blocks, 4, 32, 8, target_bits=255).to_bytes()).target_bits == 255


def test_size_report_uniform_two_bit():
    rng = np.random.default_rng(8)
    blocks, _ = random_blocks(rng, 16, 64, 16, widths=[2, 2, 2, 2])
    pm = pack(blocks, 16, 64, 16, target_bits=2)
    report = packed_size_report(pm)
    assert report.bits_per_weight == 2.0
    assert report.payload_bits == 2 * 16 * 64
    assert report.padding_bits == 0  # 16 rows * 2 bits fill words exactly
    total = report.payload_bits + report.padding_bits + report.metadata_bits
    assert total == 8 * len(pm.to_bytes())


def test_size_report_balanced_mixed_plan():
    rng = np.random.default_rng(9)
    blocks, _ = random_blocks(rng, 8, 48, 16, widths=[1, 2, 3])
    pm = pack(blocks, 8, 48, 16, target_bits=2)
    report = packed_size_report(pm)
    assert report.bits_per_weight == 2.0  # (1+2+3)/3 at equal group sizes
    assert report.padding_bits > 0  # n=8 leaves slack in every word
    assert report.payload_bits + report.padding_bits == _layout(8, 16, pm.widths, pm.shared)[1][-1]


def test_size_report_accounts_for_every_bit():
    rng = np.random.default_rng(10)
    for trial in range(20):
        n = int(rng.integers(1, 20))
        beta = int(rng.choice([4, 8]))
        k = int(rng.integers(1, 7))
        shared = set(np.flatnonzero(rng.integers(0, 2, size=k)).tolist())
        blocks, widths = random_blocks(rng, n, k * beta, beta, shared=shared)
        pm = pack(blocks, n, k * beta, beta, target_bits=2)
        assert set(np.flatnonzero(pm.shared).tolist()) == (shared if n >= 2 else set())
        report = packed_size_report(pm)
        assert report.payload_bits == int(
            sum(n * beta * int(w) for w in widths))
        stream_bits = _layout(n, beta, widths, pm.shared)[1][-1]
        assert report.metadata_bits == 8 * len(pm.to_bytes()) - stream_bits
        total = report.payload_bits + report.padding_bits + report.metadata_bits
        assert total == 8 * len(pm.to_bytes())


def base_files():
    """Small valid files: widths 1-4 mixed, two 1-bit groups, n not a
    multiple of 32 (with rows spanning two words), shared groups at
    widths 1 and 3, k = 0, one row, where a group's shared bit changes
    no section's size, and an unshared 2-row group with equal zero-points
    whose scales differ only in the lowest mantissa bit, one scale away
    from a group whose rows share both values."""
    rng = np.random.default_rng(99)
    mixed, _ = random_blocks(rng, 5, 16, 4, widths=[1, 2, 3, 4])
    one_bit, _ = random_blocks(rng, 3, 12, 4, widths=[1, 2, 1])
    long_rows, _ = random_blocks(rng, 33, 8, 4, widths=[4, 1])
    one_row, _ = random_blocks(rng, 1, 4, 1, widths=[3, 1, 2, 4])
    near_shared, _ = random_blocks(rng, 2, 8, 4, widths=[3, 2], shared=(0,))
    scale = near_shared[0].params.scale.copy()
    scale.view(np.uint32)[1] ^= 1
    near_shared[0] = QuantizedBlock(near_shared[0].codes,
                                    GroupQuantParams(3, scale, near_shared[0].params.zero))
    return [
        pack(mixed, 5, 16, 4, target_bits=2).to_bytes(),
        pack(one_bit, 3, 12, 4, target_bits=2).to_bytes(),
        pack(long_rows, 33, 8, 4, target_bits=2).to_bytes(),
        shared_model().to_bytes(),
        pack([], 4, 0, 16, target_bits=2).to_bytes(),
        pack(one_row, 1, 4, 1, target_bits=2).to_bytes(),
        pack(near_shared, 2, 8, 4, target_bits=2).to_bytes(),
    ]


# Property: every valid file has exactly one in-memory reading, so a
# mutated file is either rejected or is the encoding of what it decodes to.
# The examples are drawn under the derandomized profile of conftest.py.
BASE_FILES = base_files()


# (offset, size) of every header field
HEADER_FIELDS = [(0, 4), (4, 2), (6, 2), (8, 4), (12, 4), (16, 4), (20, 1), (21, 3)]


def assert_rejected_or_canonical(raw):
    try:
        pm = from_bytes(raw)
    except SlimQuantError:
        return
    assert pm.to_bytes() == raw


@settings(max_examples=300)
@given(st.sampled_from(BASE_FILES), st.data())
def test_property_truncation(raw, data):
    assert_rejected_or_canonical(raw[: data.draw(st.integers(0, len(raw) - 1))])


@settings(max_examples=300)
@given(st.sampled_from(BASE_FILES), st.data())
def test_property_bit_flip(raw, data):
    bit = data.draw(st.integers(0, 8 * len(raw) - 1))
    mutated = bytearray(raw)
    mutated[bit // 8] ^= 1 << (bit % 8)
    assert_rejected_or_canonical(bytes(mutated))


@settings(max_examples=300)
@given(st.sampled_from(BASE_FILES), st.data())
def test_property_header_overwrite(raw, data):
    start, size = data.draw(st.sampled_from(HEADER_FIELDS))
    mutated = bytearray(raw)
    mutated[start : start + size] = data.draw(st.binary(min_size=size, max_size=size))
    assert_rejected_or_canonical(bytes(mutated))


# Every stored field the structured property overwrites, as (file, kind,
# index): the 3-bit code of group index, or the float32 scale at index in
# the scales section.
FIELD_SITES = [
    (raw, kind, i)
    for raw in BASE_FILES
    for kind, count in (("code", from_bytes(raw).k), ("scale", sections_of(raw)[1][1] // 4))
    for i in range(count)
]


@settings(max_examples=300)
@given(st.sampled_from(FIELD_SITES), st.data())
def test_property_field_overwrite(site, data):
    # one group code set to a drawn value, or one scale set to drawn bits:
    # random, an inf or NaN pattern, or the neighbouring scale's
    raw, kind, i = site
    mutated = bytearray(raw)
    if kind == "code":
        start, size = sections_of(raw)[0]
        row = int.from_bytes(raw[start : start + size], "little") & ~(7 << 3 * i)
        row |= data.draw(st.integers(0, 7)) << 3 * i
        mutated[start : start + size] = row.to_bytes(size, "little")
    else:
        start, size = sections_of(raw)[1]
        scales = np.frombuffer(raw, dtype="<u4", count=size // 4, offset=start)
        neighbour = int(scales[i - 1 if i else min(1, len(scales) - 1)])
        bits = data.draw(st.one_of(
            st.integers(0, 2**32 - 1),
            # sign and mantissa drawn, exponent all ones
            st.integers(0, 2**24 - 1).map(lambda v: 0x7F800000 | (v >> 23) << 31 | v & 0x7FFFFF),
            st.just(neighbour),
        ))
        struct.pack_into("<I", mutated, start + 4 * i, bits)
    assert_rejected_or_canonical(bytes(mutated))


def test_properties_reach_every_rejection():
    # the four properties' examples run every raise of the reader: a
    # rejection no mutated file reaches is a rejection no property tests
    def properties():
        for prop in (test_property_truncation, test_property_bit_flip,
                     test_property_header_overwrite, test_property_field_overwrite):
            prop()

    assert not missed_raises((from_bytes, unpack_fields), properties)
