"""Tests for the group walk: per-row range calibration by compensated loss,
and the walk under one parameter set."""

import tracemalloc

import numpy as np
import pytest

import slimquant.sqc as sqc
from fixtures import hessian_state, random_calib
from slimquant.errors import InvalidConfig
from slimquant.quant_core import (
    GroupQuantParams,
    _row_range,
    affine_params,
    block_mse,
    derive_params,
    dequantize,
    params_from_range,
    quantize_uniform,
)
from slimquant.sqc import calibrate_group, walk_group


def inverse_factor(rng, beta, outliers=2):
    """The inverse Gram factor U of beta channels, a few of them scaled up,
    as the pipeline hands a group's diagonal block of it to the walk."""
    x = random_calib(rng, 4 * beta, beta)
    x[:, rng.choice(beta, outliers, replace=False)] *= 8.0
    return hessian_state(x).chol_inv


def walk_reference(block, params, u):
    """The walk written out one column at a time: each column's codes and
    float32 decode, its error over u's diagonal, and a rank-1 update of
    every later column of the group. Returns the codes and E."""
    work = np.array(block, dtype=np.float64)
    n, beta = work.shape
    maxq = (1 << params.bit_width) - 1
    scale64, scale32 = params.scale.astype(np.float64), params.scale.astype(np.float32)
    codes = np.empty((n, beta), dtype=np.uint8)
    err = np.empty((n, beta))
    for j in range(beta):
        col = work[:, j]
        if params.bit_width == 1:
            codes[:, j] = col >= 0.0
            deq = (codes[:, j].astype(np.float32) * 2 - 1) * scale32
        else:
            q = np.rint(col / scale64) + params.zero.astype(np.float64)
            codes[:, j] = np.clip(q, 0, maxq)
            deq = (codes[:, j].astype(np.float32) - params.zero.astype(np.float32)) * scale32
        err[:, j] = (col - deq) / u[j, j]
        work[:, j + 1:] -= np.outer(err[:, j], u[j, j + 1:])
    return codes, err


def row_losses(err):
    """||E_row||^2, summed over the columns in order, as the walk sums."""
    loss = np.zeros(len(err))
    for j in range(err.shape[1]):
        loss += err[:, j] ** 2
    return loss


def reference_calibrate(block, bits, u):
    """Per row: the coarse winner by (loss, closeness to 1, value), then the
    best of it and its fine neighbours, each factor's loss from its own
    walk of the whole block. Returns the codes, scales and factors, in
    multiples of 1 / sqc.STEP."""
    step = sqc.STEP
    lo, hi = _row_range(block)
    walks = {}
    for k in range(min(sqc.COARSE) - 1, max(sqc.COARSE) + 2):
        params = GroupQuantParams(bits, *affine_params(lo, hi, bits, k / step))
        codes, err = walk_reference(block, params, u)
        walks[k] = codes, row_losses(err)

    def best(candidates, r):
        return min(candidates, key=lambda k: (walks[k][1][r], abs(k - step), k))

    chosen = []
    for r in range(len(block)):
        winner = best(sqc.COARSE, r)
        chosen.append(best([winner] + [winner + d for d in sqc.FINE], r))
    codes = np.stack([walks[k][0][r] for r, k in enumerate(chosen)])
    chosen = np.array(chosen)
    return codes, affine_params(lo, hi, bits, chosen / step)[0], chosen


def assert_same_block(a, b):
    assert np.array_equal(a.codes, b.codes)
    assert np.array_equal(a.params.scale, b.params.scale)
    assert np.array_equal(a.params.zero, b.params.zero)
    assert a.params.bit_width == b.params.bit_width


def test_on_grid_block_wins_with_unity():
    rng = np.random.default_rng(1)
    for bits in (2, 3):
        maxq = (1 << bits) - 1
        n = 4
        codes = rng.integers(0, maxq + 1, size=(n, 16))
        codes[:, 0] = 0
        codes[:, 1] = maxq  # pin each row's range to [0, maxq * step]
        step = np.exp2(rng.integers(-3, 3, size=(n, 1))).astype(np.float64)
        block = codes * step
        qb, gamma = calibrate_group(block, bits)
        assert gamma == 1.0
        assert np.array_equal(dequantize(qb).astype(np.float64), block)


def test_never_worse_than_plain_minmax():
    rng = np.random.default_rng(2)
    strict = 0
    for trial in range(100):
        block = (rng.standard_normal((16, 32)) * rng.uniform(0.1, 3.0)).astype(
            np.float32)
        plain = block_mse(block, dequantize(quantize_uniform(block, 2)))
        qb, gamma = calibrate_group(block, 2)
        tuned = block_mse(block, dequantize(qb))
        assert tuned <= plain
        if tuned < plain:
            strict += 1
    assert strict >= 50  # shrinking the range usually helps Gaussian data


def test_constant_block_ties_resolve_to_unity():
    block = np.full((3, 8), 4.0)
    qb, gamma = calibrate_group(block, 2)
    assert gamma == 1.0
    assert np.array_equal(dequantize(qb), np.full((3, 8), np.float32(4.0)))


def test_scaling_block_by_two_keeps_winner():
    rng = np.random.default_rng(4)
    block = rng.standard_normal((8, 16)).astype(np.float32)
    qb1, g1 = calibrate_group(block, 2)
    qb2, g2 = calibrate_group(2.0 * block.astype(np.float64), 2)
    assert g1 == g2
    assert np.array_equal(qb1.codes, qb2.codes)
    assert np.array_equal(qb2.params.scale, 2.0 * qb1.params.scale)


def test_codes_stay_in_range_for_grown_gamma(monkeypatch):
    monkeypatch.setattr(sqc, "COARSE", (20, 30, 38))  # up to 1.95
    rng = np.random.default_rng(5)
    for bits in (2, 3, 4):
        block = (rng.standard_normal((4, 12)) * 5.0).astype(np.float32)
        qb, _ = calibrate_group(block, bits)
        assert qb.codes.max() <= (1 << bits) - 1
        assert qb.params.zero.max() <= (1 << bits) - 1


def test_dominance_holds_in_deployed_float32():
    # the objective is measured on the exact float32 decode, so factor 1
    # ties the plain quantizer bit for bit and the winner can never come
    # out behind, not even at the last ulp
    rng = np.random.default_rng(10)
    for bits in (2, 3, 4):
        for _ in range(30):
            block = (rng.standard_normal((8, 16)) * rng.uniform(0.1, 4.0)).astype(
                np.float32)
            qb, _ = calibrate_group(block, bits)
            tuned = block_mse(block, dequantize(qb))
            plain = block_mse(block, dequantize(quantize_uniform(block, bits)))
            assert tuned <= plain


@pytest.mark.parametrize("bits", [0, 1])
def test_widths_below_two_rejected(bits):
    # 1-bit groups take the sign/magnitude form, which has no range to scale
    with pytest.raises(InvalidConfig):
        calibrate_group(np.ones((2, 8)), bits)


def assert_matches_reference(compensated):
    """calibrate_group against reference_calibrate on random blocks; ties
    come from coarse values and from zero rows."""
    rng = np.random.default_rng(22)
    for trial in range(60):
        bits = 2 + trial % 3
        beta = (4, 8, 16, 40)[trial // 3 % 4]
        block = rng.standard_normal((int(rng.integers(1, 24)), beta))
        if trial % 4 == 1:
            block = np.round(block * 2.0) / 2.0
        elif trial % 4 == 2:
            block[rng.random(block.shape) < 0.5] = 0.0
        block *= 10.0 ** rng.uniform(-6, 6)
        u = inverse_factor(rng, beta) if compensated else np.eye(beta)
        qb, gamma = calibrate_group(block, bits, u if compensated else None)
        codes, scale, factors = reference_calibrate(block, bits, u)
        assert np.array_equal(qb.codes, codes)
        assert np.array_equal(qb.params.scale, scale)
        assert gamma == factors.mean() / sqc.STEP
        assert np.all((factors >= 13) & (factors <= 21))  # 0.65 to 1.05


def test_winner_matches_grid_scan():
    # without a factor each row's loss is its plain squared error
    assert_matches_reference(compensated=False)


def test_calibration_matches_full_search():
    # every factor a row can end on, walked one column at a time
    assert_matches_reference(compensated=True)


@pytest.mark.parametrize("compensated", [False, True])
def test_each_row_is_no_worse_than_at_factor_one(compensated):
    rng = np.random.default_rng(30)
    for bits in (2, 3, 4):
        block = rng.standard_normal((64, 128)) * rng.uniform(0.1, 3.0)
        u = inverse_factor(rng, 128) if compensated else None
        qb, _ = calibrate_group(block, bits, u)
        plain = params_from_range(*_row_range(block), bits)
        chosen = sqc._walk(block, qb.params.scale[None], qb.params.zero, bits, u)
        at_one = sqc._walk(block, plain.scale[None], plain.zero, bits, u)
        assert np.array_equal(chosen[0][0], qb.codes)
        assert np.all(chosen[1] <= at_one[1])
        assert np.sum(chosen[1] < at_one[1]) >= 32


def test_identity_factor_is_no_factor():
    rng = np.random.default_rng(31)
    for bits in (2, 3, 4):
        block = rng.standard_normal((40, 32))
        a, gamma_a = calibrate_group(block, bits, np.eye(32))
        b, gamma_b = calibrate_group(block, bits)
        assert_same_block(a, b)
        assert gamma_a == gamma_b
    for bits in (1, 2, 3):
        assert_same_block(walk_group(block, bits, np.eye(32)), walk_group(block, bits))


@pytest.mark.parametrize("pairs", [1, 7])
def test_walk_is_the_same_at_every_slice_size(monkeypatch, pairs):
    # each row is walked on its own, so the 100 rows around the boundary of
    # the coarse pass's two default slices come out the same when they are
    # walked alone in slices of 1 or 7 (candidate, row) pairs
    boundary = sqc._SLICE // len(sqc.COARSE)
    rng = np.random.default_rng(32)
    block = rng.standard_normal((boundary + 100, 128))
    block[boundary + 10] = 0.0
    u = inverse_factor(rng, 128)
    part = slice(boundary - 50, boundary + 50)
    whole = {bits: calibrate_group(block, bits, u)[0] for bits in (2, 3)}
    walked = {bits: walk_group(block, bits, u) for bits in (2, 3)}
    monkeypatch.setattr(sqc, "_SLICE", pairs)
    for bits in (2, 3):
        for qb, again in (
            (whole[bits], calibrate_group(block[part], bits, u)[0]),
            (walked[bits], walk_group(block[part], bits, u)),
        ):
            assert np.array_equal(again.codes, qb.codes[part])
            assert np.array_equal(again.params.scale, qb.params.scale[part])
            assert np.array_equal(again.params.zero, qb.params.zero[part])


@pytest.mark.parametrize("bits", [1, 2, 3, 4])
def test_one_candidate_walk_matches_per_column_reference(bits):
    rng = np.random.default_rng(33 + bits)
    for beta in (8, 40, 128):
        block = rng.standard_normal((50, beta))
        u = inverse_factor(rng, beta)
        qb = walk_group(block, bits, u)
        params = derive_params(block, bits)
        codes, _ = walk_reference(block, params, u)
        assert np.array_equal(qb.codes, codes)
        assert_same_block(qb, type(qb)(codes, params))


@pytest.mark.parametrize("coarse", [sqc.COARSE, tuple(range(13, 21))])
def test_walk_memory_is_bounded_by_the_slice(monkeypatch, coarse):
    # the walk's float64 buffer over one slice's (candidate, row) pairs
    # takes 4 MiB at 128 columns; it also holds the block's transpose (4
    # MiB) and every candidate's codes in uint8. All 4096 rows stacked at
    # once would take 16 MiB for the buffer under 4 candidates, and twice
    # that under 8
    monkeypatch.setattr(sqc, "COARSE", coarse)
    rng = np.random.default_rng(34)
    block = rng.standard_normal((4096, 128))
    u = inverse_factor(rng, 128)
    tracemalloc.start()
    try:
        calibrate_group(block, 3, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * sqc._SLICE * 128 * 8
