"""Tests for the affine group quantizer and the sign binarizer.

The reference oracle re-derives every code with scalar Python arithmetic,
one element at a time, so any vectorization slip in the library shows up
as an exact mismatch.
"""

import math
import warnings

import numpy as np
import pytest

from fixtures import encode_block, missed_raises
from slimquant.errors import InconsistentPlan, InvalidConfig, NonFiniteValue, ShapeMismatch
from slimquant.packfmt import pack
from slimquant.quant_core import (
    RANGE_FLOOR,
    GroupQuantParams,
    QuantizedBlock,
    _levels,
    _row_range,
    affine_params,
    binarize_block,
    block_mse,
    check_group,
    decode,
    dequantize,
    derive_params,
    encode,
    params_from_range,
    quantize_uniform,
)
from slimquant.sqc import STEP, calibrate_group, walk_group


def scalar_reference(block, bits):
    """Elementwise re-derivation of codes, scales and zero-points: the
    sign/magnitude form at 1 bit, the zero-inclusive min/max grid above."""
    n, width = block.shape
    maxq = (1 << bits) - 1
    codes = np.zeros((n, width), dtype=np.uint8)
    scales = np.zeros(n, dtype=np.float32)
    zeros = np.zeros(n, dtype=np.uint8)
    if bits == 1:
        values = [float(v) for v in np.asarray(block, dtype=np.float64).ravel()]
        scales[:] = np.float32(math.fsum(abs(v) for v in values) / len(values))
        for i in range(n):
            for j in range(width):
                codes[i, j] = 1 if float(block[i, j]) >= 0.0 else 0
        return codes, scales, zeros
    for i in range(n):
        row = [float(v) for v in np.asarray(block[i], dtype=np.float64)]
        lo = min(min(row), 0.0)
        hi = max(max(row), 0.0)
        span = hi - lo
        degenerate = span == 0.0
        if degenerate:
            span = max(abs(hi), 1.0) * RANGE_FLOOR
        scale = np.float32(span / maxq)
        if not scale > 0.0:
            scale = np.float32(RANGE_FLOOR / maxq)
        if degenerate:
            z = 0.0
        else:
            z = float(np.clip(-np.rint(lo / span * maxq), 0, maxq))
        scales[i] = scale
        zeros[i] = np.uint8(z)
        for j, v in enumerate(row):
            c = np.clip(np.rint(v / float(scale)) + z, 0, maxq)
            codes[i, j] = np.uint8(c)
    return codes, scales, zeros


def test_unit_grid_row_is_exact():
    block = np.array([[0.0, 1.0, 2.0, 3.0]], dtype=np.float32)
    qb = quantize_uniform(block, 2)
    assert np.array_equal(qb.codes, [[0, 1, 2, 3]])
    assert qb.params.scale[0] == np.float32(1.0)
    assert qb.params.zero[0] == 0
    assert np.array_equal(dequantize(qb), block)


def test_constant_rows_decode_exactly():
    block = np.array([[5.0, 5.0, 5.0], [-5.0, -5.0, -5.0]], dtype=np.float32)
    qb = quantize_uniform(block, 2)
    # positive constants sit at the top of the zero-extended grid,
    # negative constants at the bottom; both decode without error
    assert np.array_equal(qb.codes, [[3, 3, 3], [0, 0, 0]])
    assert np.array_equal(dequantize(qb), block)


def test_all_zero_row_uses_range_floor():
    block = np.zeros((1, 4), dtype=np.float32)
    qb = quantize_uniform(block, 2)
    assert np.array_equal(qb.codes, np.zeros((1, 4)))
    assert qb.params.zero[0] == 0
    assert qb.params.scale[0] == np.float32(RANGE_FLOOR / 3.0)
    assert np.array_equal(dequantize(qb), block)


@pytest.mark.parametrize("bits", [1, 2, 3, 4])
def test_matches_scalar_reference(bits):
    rng = np.random.default_rng(100 + bits)
    for trial in range(50):
        n = int(rng.integers(1, 9))
        width = int(rng.integers(1, 24))
        kind = trial % 4
        if kind == 0:
            block = rng.standard_normal((n, width)) * rng.uniform(0.01, 20.0)
        elif kind == 1:
            block = np.abs(rng.standard_normal((n, width)))  # single-sign
        elif kind == 2:
            block = -np.abs(rng.standard_normal((n, width)))
        else:
            block = np.repeat(rng.standard_normal((n, 1)), width, axis=1)
        block = block.astype(np.float32)
        qb = quantize_uniform(block, bits)
        codes, scales, zeros = scalar_reference(block, bits)
        assert np.array_equal(qb.codes, codes)
        assert np.array_equal(qb.params.scale, scales)
        assert np.array_equal(qb.params.zero, zeros)


def test_invariants_hold_on_random_blocks():
    rng = np.random.default_rng(7)
    for bits in (1, 2, 3, 4):
        maxq = (1 << bits) - 1
        for _ in range(40):
            block = (rng.standard_normal((6, 32)) * 3.0).astype(np.float32)
            qb = quantize_uniform(block, bits)
            assert qb.codes.dtype == np.uint8
            assert qb.codes.max() <= maxq
            assert np.all(qb.params.scale > 0.0)
            assert qb.params.zero.max() <= maxq
            deq = dequantize(qb).astype(np.float64)
            if bits == 1:
                # every weight keeps its sign at the shared magnitude
                assert np.all(np.abs(deq) == qb.params.scale[0])
                assert np.all((deq > 0.0) == (block >= 0.0))
            else:
                # derived params cover the data, so error stays within half a step
                bound = qb.params.scale.astype(np.float64)[:, None] * (0.5 + 1e-5)
                assert np.all(np.abs(deq - block) <= bound)


def test_round_half_to_even():
    # w / scale == 0.5 and 1.5 exactly: both round toward the even code
    block = np.array([[0.5, 1.5, 3.0]], dtype=np.float32)
    qb = quantize_uniform(block, 2)
    assert qb.params.scale[0] == np.float32(1.0)
    assert np.array_equal(qb.codes, [[0, 2, 3]])


def test_requantize_is_idempotent():
    rng = np.random.default_rng(21)
    for bits in (1, 2, 3, 4):
        for _ in range(25):
            block = (rng.standard_normal((4, 16)) * 5.0).astype(np.float32)
            qb = quantize_uniform(block, bits)
            again = quantize_uniform(dequantize(qb), bits)
            assert np.array_equal(qb.codes, again.codes)


def test_clamp_applies_with_narrow_params():
    # params cover [0, 3] but the data reaches 9: codes must clamp at maxq
    block = np.array([[-4.0, 9.0]], dtype=np.float32)
    codes = encode(block, np.ones((1, 1)), np.zeros((1, 1)), 2)
    assert np.array_equal(codes, [[0, 3]])


def test_gamma_shrinks_scale():
    lo = np.array([0.0])
    hi = np.array([3.0])
    full, full_zero = affine_params(lo, hi, 2, 1.0)
    tight, tight_zero = affine_params(lo, hi, 2, 0.5)
    assert full[0] == np.float32(1.0)
    assert tight[0] == np.float32(0.5)
    assert full_zero[0] == tight_zero[0] == 0


def test_gamma_keeps_zero_point_in_range():
    rng = np.random.default_rng(33)
    for _ in range(50):
        block = (rng.standard_normal((5, 12)) * 4.0).astype(np.float32)
        lo = np.minimum(block.min(axis=1), 0.0).astype(np.float64)
        hi = np.maximum(block.max(axis=1), 0.0).astype(np.float64)
        for gamma in (0.9, 1.0, 1.1):
            scale, zero = affine_params(lo, hi, 2, gamma)
            assert zero.max() <= 3
            assert np.all(scale > 0.0)


@pytest.mark.parametrize("bits", [2, 3, 4])
def test_every_gamma_of_a_row_shares_its_zero_point(bits):
    # the zero-point is clip(-rint(lo / (hi - lo) maxq), 0, maxq) of the
    # unscaled range, so the float32 rounding of gamma's scale cannot move
    # it, not even where the ratio is a half-integer or the scale subnormal
    maxq = (1 << bits) - 1
    rng = np.random.default_rng(40 + bits)
    block = rng.standard_normal((40, 16))
    top = np.abs(block[:10]).max(axis=1)
    block[:10, 0], block[:10, 1] = -top, top  # lo = -hi
    block[10:12] = 0.0
    block[12:16] *= 1e-40 / np.abs(block[12:16]).max(axis=1, keepdims=True)
    block[14:16, 0], block[14:16, 1] = -1e-40, 1e-40
    lo, hi = _row_range(block)
    grid = np.arange(13, 22) / STEP  # every factor a row can end on
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # degenerate rows divide by nothing
        scales, zeros = affine_params(lo[None, :], hi[None, :], bits, grid[:, None])
        plain = params_from_range(lo, hi, bits).zero
    assert np.all(zeros == plain)
    for gamma in grid:
        assert np.array_equal(affine_params(lo, hi, bits, float(gamma))[1], plain)
    want = [0 if h == l else min(max(-round(l / (h - l) * maxq), 0), maxq) for l, h in zip(lo, hi)]
    assert np.array_equal(plain, want)
    assert np.all(plain[:10] == (maxq + 1) // 2)  # half to even: 2, 4 and 8
    assert np.all(plain[14:16] == (maxq + 1) // 2)
    assert np.all(plain[10:12] == 0)
    assert np.all(scales[:, 12:16] < np.finfo(np.float32).tiny)


def test_bit_width_bounds():
    with pytest.raises(ValueError):
        quantize_uniform(np.zeros((1, 2), dtype=np.float32), 0)
    with pytest.raises(ValueError):
        quantize_uniform(np.zeros((1, 2), dtype=np.float32), 5)


def test_non_2d_block_rejected():
    with pytest.raises(ShapeMismatch):
        quantize_uniform(np.zeros(4, dtype=np.float32), 2)


@pytest.mark.parametrize("shape, bits, error", [
    *[(shape, bits, ShapeMismatch) for shape in [(4, 0), (0, 4), (4,)] for bits in (1, 2, 3, 4)],
    ((2, 3), 0, InvalidConfig),
    ((2, 3), 5, InvalidConfig),
], ids=lambda v: getattr(v, "__name__", None) or "x".join(map(str, np.atleast_1d(v))))
def test_malformed_blocks_and_widths_raise_typed_errors(shape, bits, error):
    # the same error at every width, from each quantizer; InvalidConfig is
    # also a ValueError
    block = np.zeros(shape, dtype=np.float32)
    with pytest.raises(error):
        quantize_uniform(block, bits)
    if bits != 1:  # range calibration rejects 1 bit for its width alone
        with pytest.raises(error):
            calibrate_group(block, bits)
    if error is InvalidConfig:
        with pytest.raises(error):
            GroupQuantParams(bits, np.ones(2, dtype=np.float32), np.zeros(2, dtype=np.uint8))


def test_scale_zero_shape_agreement():
    with pytest.raises(ShapeMismatch):
        GroupQuantParams(
            bit_width=2,
            scale=np.ones(2, dtype=np.float32),
            zero=np.zeros(3, dtype=np.uint8),
        )


def test_binarize_signs_and_magnitude():
    # the 1-bit quantizer codes sign(0) as +1, and its magnitude is the
    # block's mean |w|
    block = np.array([[1.0, -2.0, 0.0, 3.0]], dtype=np.float32)
    qb = quantize_uniform(block, 1)
    assert np.array_equal(qb.codes, [[1, 0, 1, 1]])
    assert qb.params.scale.tolist() == [1.5]


def test_binarize_magnitude_is_mean_abs():
    rng = np.random.default_rng(9)
    for _ in range(20):
        block = (rng.standard_normal((3, 10)) * 2.0).astype(np.float32)
        qb = quantize_uniform(block, 1)
        ref = float(np.mean([abs(float(v)) for v in block.ravel()]))
        assert np.all(qb.params.scale == qb.params.scale[0])
        assert float(qb.params.scale[0]) == pytest.approx(ref, rel=1e-7)  # float32 rounding
        assert set(np.unique(qb.codes)) <= {0, 1}


def test_binarize_sign_flip_mirrors_signs():
    rng = np.random.default_rng(10)
    block = rng.standard_normal((4, 8)).astype(np.float32)
    block[np.abs(block) < 1e-6] = 0.1  # keep signs unambiguous
    q1, q2 = quantize_uniform(block, 1), quantize_uniform(-block, 1)
    assert np.array_equal(q1.codes, 1 - q2.codes)
    assert np.array_equal(q1.params.scale, q2.params.scale)


def test_binarize_block_decodes_to_signed_magnitude():
    block = np.array([[0.5, -1.5], [2.0, -2.0]], dtype=np.float32)
    qb = binarize_block(block)
    assert qb.params.bit_width == 1
    assert np.array_equal(qb.codes, [[1, 0], [1, 0]])
    alpha = np.float32(1.5)
    assert np.array_equal(dequantize(qb), np.array(
        [[alpha, -alpha], [alpha, -alpha]], dtype=np.float32))


def test_binarize_empty_rejected():
    with pytest.raises(ShapeMismatch):
        quantize_uniform(np.zeros((0, 4), dtype=np.float32), 1)


def test_block_mse_hand_values():
    assert block_mse(np.zeros((1, 2)), np.ones((1, 2))) == 2.0
    a = np.array([[1.0, 2.0]], dtype=np.float32)
    assert block_mse(a, a) == 0.0


def test_block_mse_matches_loop():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((5, 7))
    b = rng.standard_normal((5, 7))
    ref = sum((float(x) - float(y)) ** 2 for x, y in zip(a.ravel(), b.ravel()))
    assert block_mse(a, b) == pytest.approx(ref, rel=1e-12)


def test_block_mse_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        block_mse(np.zeros((2, 2)), np.zeros((2, 3)))


def test_quantize_uniform_one_bit_is_binarize_block():
    rng = np.random.default_rng(14)
    for _ in range(30):
        block = rng.standard_normal((int(rng.integers(1, 9)), 16)).astype(np.float32)
        a, b = quantize_uniform(block, 1), binarize_block(block)
        assert np.array_equal(a.codes, b.codes)
        assert np.array_equal(a.params.scale, b.params.scale)
        assert np.array_equal(a.params.zero, b.params.zero)


def test_binary_params_take_sign_rule():
    # at 1 bit: rounding 0.1 / alpha and 0.2 / alpha would give code 0,
    # which decodes to -alpha; the sign rule keeps their sign, whatever
    # the zero-point
    block = np.array([[-1.0, 0.1, 0.2, 2.0]], dtype=np.float32)
    alpha = binarize_block(block).params.scale.astype(np.float64)[:, None]
    for zero in (0.0, 1.0):
        codes = encode(block, alpha, np.full((1, 1), zero), 1)
        assert np.array_equal(codes, [[0, 1, 1, 1]])


def test_derive_params_float32_scale():
    p = derive_params(np.array([[0.0, 1.0]], dtype=np.float32), 3)
    assert p.scale.dtype == np.float32
    assert p.zero.dtype == np.uint8
    assert p.scale[0] == np.float32(1.0 / 7.0)


def three_step_decode(qb):
    """Decode by casting the codes, then subtracting the zero-point (or
    doubling and subtracting 1), then scaling, each step a new float32
    array."""
    codes = qb.codes.astype(np.float32)
    scale = qb.params.scale.astype(np.float32)[:, None]
    if qb.params.bit_width == 1:
        return (codes * np.float32(2.0) - np.float32(1.0)) * scale
    return (codes - qb.params.zero.astype(np.float32)[:, None]) * scale


# sign: the width's form is sign/magnitude, whose decode never reads the
# zero-points; they are drawn at every width all the same
@pytest.mark.parametrize("bits, sign", [(1, True), (2, False), (3, False), (4, False)])
def test_dequantize_bytes_match_three_step_decode(bits, sign):
    rng = np.random.default_rng(15)
    n, width, maxq = 64, 48, (1 << bits) - 1
    codes = rng.integers(0, maxq + 1, size=(n, width)).astype(np.uint8)
    codes[0] = maxq
    codes[1] = 0
    scale = (rng.uniform(0.5, 2.0, size=n) * 2.0 ** rng.integers(-30, 30, size=n)).astype(np.float32)
    zero = rng.integers(0, maxq + 1, size=n).astype(np.uint8)
    zero[2:4] = (0, maxq)
    params = GroupQuantParams(bits, scale, zero)
    # row-major as quantize_uniform returns, column-major as a PackedModel holds
    for layout in (codes, np.asfortranarray(codes)):
        qb = QuantizedBlock(codes=layout, params=params)
        got, ref = dequantize(qb), three_step_decode(qb)
        assert (np.abs(got) == scale[:, None]).all() == sign
        assert got.dtype == ref.dtype == np.float32
        assert got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()
        # into a column slice of a Fortran-order buffer, as the kernel's
        # chunked decode writes it; the columns around it are not touched
        buf = np.full((n, 3 * width), np.nan, dtype=np.float32, order="F")
        cols = buf[:, width : 2 * width]
        back = decode(layout, scale[:, None], params.zero[:, None], bits, out=cols)
        assert back is cols
        assert cols.tobytes() == got.tobytes()
        assert np.isnan(buf[:, :width]).all() and np.isnan(buf[:, 2 * width :]).all()


@pytest.mark.parametrize("bits, sign", [(1, True), (2, False), (3, False), (4, False)])
def test_column_rule_matches_block_column(bits, sign):
    # the error compensation encodes and decodes one column at a time, with
    # each row's parameters along the column
    rng = np.random.default_rng(16)
    n, width, maxq = 32, 12, (1 << bits) - 1
    scale = (rng.uniform(0.5, 2.0, size=n) * 2.0 ** rng.integers(-20, 20, size=n)).astype(np.float32)
    zero = rng.integers(0, maxq + 1, size=n).astype(np.uint8)
    zero[:2] = (0, maxq)
    s = scale.astype(np.float64)[:, None]
    k = rng.integers(-maxq - 2, maxq + 3, size=(n, width)).astype(np.float64)
    block = (k + rng.uniform(-0.5, 0.5, size=(n, width))) * s
    block[:, 0] = (k[:, 0] + 0.5) * s[:, 0]  # half-way: rounds to the even level
    block[:, 1] = (k[:, 1] - 0.5) * s[:, 0]
    block[:, 2] = 0.0
    block[:, 3] = -0.0
    block[:, 4] = (2 * maxq + 3.0) * s[:, 0]  # clamped at the top code
    block[:, 5] = -(2 * maxq + 3.0) * s[:, 0]  # and at code 0
    qb = encode_block(block, GroupQuantParams(bits, scale, zero))
    deq = dequantize(qb)
    assert np.all(qb.codes[:, 4] == maxq)
    assert np.all(qb.codes[:, 5] == 0)
    if sign:
        # the sign rule: code 1 exactly where the value is >= 0
        assert np.array_equal(qb.codes, (block >= 0.0).astype(np.uint8))
    else:
        # clamped codes aside, a half-way value keeps an even level
        level = qb.codes[:, :2].astype(np.int64) - zero[:, None]
        inside = (qb.codes[:, :2] > 0) & (qb.codes[:, :2] < maxq)
        assert np.all(level[inside] % 2 == 0)
    for j in range(width):
        codes = encode(block[:, j], s[:, 0], zero.astype(np.float64), bits)
        assert codes.dtype == np.uint8
        assert np.array_equal(codes, qb.codes[:, j])
        col = decode(codes, scale, zero, bits)
        assert col.dtype == np.float32
        assert col.tobytes() == deq[:, j].tobytes()


@pytest.mark.parametrize("bits", [1, 2, 3, 4])
def test_levels_are_exact_for_every_code_and_zero_point(bits):
    # row i holds zero-point i and column j code j, so the block holds every
    # pair; levels are int8 code - zero, or 2 code - 1 at 1 bit whatever the
    # zero-point, both in the (n, beta) column-major layout of a packed
    # group and one column at a time, as the error compensation decodes
    maxq = (1 << bits) - 1
    zero = np.arange(maxq + 1, dtype=np.uint8)
    codes = np.asfortranarray(np.tile(zero, (maxq + 1, 1)))
    want = 2 * codes.astype(np.int64) - 1 if bits == 1 else codes - zero[:, None].astype(np.int64)
    got = _levels(codes, zero[:, None], bits)
    assert got.dtype == np.int8 and got.flags.f_contiguous
    assert np.array_equal(got, want)
    for j in range(maxq + 1):
        col = _levels(codes[:, j], zero, bits)
        assert col.dtype == np.int8 and np.array_equal(col, want[:, j])


@pytest.mark.parametrize("bits", [1, 2, 3, 4])
@pytest.mark.parametrize("inputs", ["random", "half-integer ties", "clip edges"])
def test_encode_in_one_buffer_keeps_the_codes(bits, inputs):
    # encode works in place in one float64 buffer; the codes are those of
    # the expression it replaced, bit for bit, also on float32 values (at
    # 1 bit, those of the sign rule)
    rng = np.random.default_rng(17)
    n, width, maxq = 64, 48, (1 << bits) - 1
    scale = (rng.uniform(0.5, 2.0, size=(n, 1)) * 2.0 ** rng.integers(-30, 30, size=(n, 1)))
    scale = scale.astype(np.float32).astype(np.float64)
    zero = rng.integers(0, maxq + 1, size=(n, 1)).astype(np.float64)
    k = rng.integers(-maxq - 3, maxq + 4, size=(n, width)).astype(np.float64)
    if inputs == "random":
        block = rng.standard_normal((n, width)) * scale * maxq
    elif inputs == "half-integer ties":
        block = (k + 0.5) * scale
    else:  # on and around the first and last code, and far past them
        edge = np.where(rng.random((n, width)) < 0.5, -zero, maxq - zero)
        block = (edge + rng.choice([-3.0, -0.5, 0.0, 0.5, 3.0], size=(n, width))) * scale
    for w in (block, block.astype(np.float32)):
        old = np.clip(np.rint(w / scale) + zero, 0, maxq).astype(np.uint8)
        if bits == 1:
            old = (w >= 0.0).astype(np.uint8)
        assert encode(w, scale, zero, bits).tobytes() == old.tobytes()
        # one column, with each row's parameters along it
        col = encode(w[:, 3], scale[:, 0], zero[:, 0], bits)
        assert col.tobytes() == old[:, 3].tobytes()


def test_quantize_uniform_peaks_near_one_float64_block():
    # the float32 block is encoded as given, without a float64 copy, and
    # encode holds one float64 buffer: about 1.1 blocks of float64, where
    # the widened copy and four temporaries came to 3.1
    import tracemalloc

    block = np.random.default_rng(18).standard_normal((1024, 128)).astype(np.float32)
    quantize_uniform(block, 3)
    tracemalloc.start()
    try:
        quantize_uniform(block, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.1 * block.size * 8


@pytest.mark.filterwarnings("error")  # a non-finite block fails typed, before any arithmetic warns
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("bits", [1, 2, 3, 4])
def test_non_finite_block_raises(value, bits):
    block = np.random.default_rng(bits).standard_normal((4, 8))
    block[2, 5] = value
    quantizers = [quantize_uniform, walk_group] + ([calibrate_group] if bits > 1 else [])
    for quantize in quantizers:
        with pytest.raises(NonFiniteValue):
            quantize(block, bits)


@pytest.mark.parametrize("bits, codes, zero", [
    (2, [[0, 200]], [0]),  # decoded to -57 before it was refused
    (2, [[0, 3]], [9]),  # a zero-point of 9 gave level -9
    (1, [[2, 3]], [0]),  # 1-bit codes 2 and 3 gave 3 and 5
    (3, np.array([[-1, 7]], dtype=np.int16), [0]),
    (4, [[0, 15]], np.array([-1], dtype=np.int16)),
])
def test_dequantize_refuses_out_of_range_codes(bits, codes, zero):
    # dequantize refuses the blocks pack refuses, with the same error; the
    # width's largest code and zero-point still decode
    def block(codes, zero):
        return QuantizedBlock(np.asarray(codes), GroupQuantParams(bits, np.ones(1, np.float32), np.asarray(zero)))

    for refuse in (dequantize, lambda qb: pack([qb], 1, 2, 2, target_bits=bits)):
        with pytest.raises(InconsistentPlan):
            refuse(block(codes, zero))
    maxq = (1 << bits) - 1
    assert dequantize(block([[maxq, maxq]], [maxq])).tolist() == [[1.0 if bits == 1 else 0.0] * 2]


def two_bit_block(codes, scale=(1.0, 1.0)):
    """A 2-bit block of codes under the given per-row scales, zero-points 0."""
    scale = np.asarray(scale)
    return QuantizedBlock(np.asarray(codes), GroupQuantParams(2, scale, np.zeros(scale.shape)))


# 2-bit blocks that pack refuses, and that dequantize, apart from the last,
# once decoded wrongly or failed untyped on
MALFORMED_GROUPS = {
    "fractional-code": two_bit_block([[0, 2.7], [1, 3]]),  # decoded as 2
    "nan-code": two_bit_block([[0, np.nan], [1, 3]]),  # decoded as 0, with a warning
    "infinite-scale": two_bit_block([[0, 1], [1, 3]], (1.0, np.inf)),  # a row of inf
    "float32-overflowing-scale": two_bit_block([[0, 1], [1, 3]], (1.0, 1e39)),  # the same
    "three-rows-under-two-scales": two_bit_block(np.ones((3, 2))),  # a bare ValueError
    "1d-codes": two_bit_block(np.ones(4)),  # broadcast to a (2, 4) result
    "code-out-of-range": two_bit_block([[0, 4], [1, 3]]),  # so the cases reach every raise
}


def refuse_as_pack_and_dequantize(qb):
    for refuse in (dequantize, lambda qb: pack([qb], 2, 2, 2, target_bits=2)):
        with pytest.raises(InconsistentPlan):
            refuse(qb)


@pytest.mark.filterwarnings("error")  # refused typed, before any arithmetic warns
@pytest.mark.parametrize("case", MALFORMED_GROUPS)
def test_dequantize_refuses_what_pack_refuses(case):
    refuse_as_pack_and_dequantize(MALFORMED_GROUPS[case])


def test_group_rule_cases_reach_every_raise():
    def run():
        for qb in MALFORMED_GROUPS.values():
            refuse_as_pack_and_dequantize(qb)

    assert not missed_raises((check_group,), run)


@pytest.mark.filterwarnings("error")  # no ComplexWarning before the error
@pytest.mark.parametrize("dtype", [np.complex128, object, np.str_])
def test_non_real_blocks_are_invalid_config(dtype):
    block = np.random.default_rng(4).standard_normal((4, 8)).astype(dtype)
    for quantize in (quantize_uniform, walk_group, calibrate_group):
        with pytest.raises(InvalidConfig, match="real numbers"):
            quantize(block, 2)
