"""Tests for gamma grid construction and per-group range calibration."""

import numpy as np
import pytest

import slimquant.sqc as sqc
from slimquant.errors import InvalidConfig
from slimquant.quant_core import (
    _row_range,
    affine_params,
    block_mse,
    dequantize,
    params_from_range,
    quantize_uniform,
)
from slimquant.sqc import (
    SqcConfig,
    calibrate_group,
    gamma_grid,
    grid_row_losses,
)


def test_default_grid_has_101_points():
    grid = gamma_grid(SqcConfig())
    assert len(grid) == 101
    assert grid[0] == pytest.approx(0.9)
    assert grid[-1] == pytest.approx(1.1)
    assert 1.0 in grid
    assert np.all(np.diff(grid) > 0.0)


def test_grid_dedupes_unity():
    # 2 * n_gamma points symmetric about 1.0 never hit it; unity is added once
    cfg = SqcConfig(n_gamma=2)
    grid = gamma_grid(cfg)
    assert np.sum(grid == 1.0) == 1


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
        qb, gamma = calibrate_group(block, bits, SqcConfig())
        assert gamma == 1.0
        assert np.array_equal(dequantize(qb).astype(np.float64), block)


def test_never_worse_than_plain_minmax():
    rng = np.random.default_rng(2)
    strict = 0
    for trial in range(100):
        block = (rng.standard_normal((16, 32)) * rng.uniform(0.1, 3.0)).astype(
            np.float32)
        plain = block_mse(block, dequantize(quantize_uniform(block, 2)))
        qb, gamma = calibrate_group(block, 2, SqcConfig())
        tuned = block_mse(block, dequantize(qb))
        assert tuned <= plain
        if tuned < plain:
            strict += 1
    assert strict >= 50  # shrinking the range usually helps Gaussian data


def test_winner_matches_grid_scan():
    rng = np.random.default_rng(3)
    cfg = SqcConfig(n_gamma=10)
    block = rng.standard_normal((6, 24)).astype(np.float32)
    qb, gamma = calibrate_group(block, 2, cfg)
    got = block_mse(block, dequantize(qb))
    from slimquant.quant_core import _row_range, params_from_range

    lo, hi = _row_range(block.astype(np.float64))
    losses = []
    for g in gamma_grid(cfg):
        params = params_from_range(lo, hi, 2, gamma=float(g))
        deq = dequantize(quantize_uniform(block.astype(np.float64), 2, params))
        losses.append(block_mse(block, deq))
    assert got == min(losses)


def test_constant_block_ties_resolve_to_unity():
    block = np.full((3, 8), 4.0)
    qb, gamma = calibrate_group(block, 2, SqcConfig())
    assert gamma == 1.0
    assert np.array_equal(dequantize(qb), np.full((3, 8), np.float32(4.0)))


def test_scaling_block_by_two_keeps_winner():
    rng = np.random.default_rng(4)
    block = rng.standard_normal((8, 16)).astype(np.float32)
    qb1, g1 = calibrate_group(block, 2, SqcConfig())
    qb2, g2 = calibrate_group(2.0 * block.astype(np.float64), 2, SqcConfig())
    assert g1 == g2
    assert np.array_equal(qb1.codes, qb2.codes)
    assert np.array_equal(qb2.params.scale, 2.0 * qb1.params.scale)


def test_codes_stay_in_range_for_grown_gamma():
    rng = np.random.default_rng(5)
    cfg = SqcConfig(lambda_gamma=0.9, n_gamma=40)
    for bits in (2, 3, 4):
        block = (rng.standard_normal((4, 12)) * 5.0).astype(np.float32)
        qb, _ = calibrate_group(block, bits, cfg)
        assert qb.codes.max() <= (1 << bits) - 1
        assert qb.params.zero.max() <= (1 << bits) - 1


def test_config_validation():
    with pytest.raises(InvalidConfig):
        SqcConfig(lambda_gamma=0.0)
    with pytest.raises(InvalidConfig):
        SqcConfig(lambda_gamma=1.0)
    with pytest.raises(InvalidConfig):
        SqcConfig(n_gamma=0)


def test_dominance_holds_in_deployed_float32():
    # the objective is measured on the exact float32 decode, so the unity
    # candidate ties the plain quantizer bit for bit and the winner can
    # never come out behind, not even at the last ulp
    rng = np.random.default_rng(10)
    for bits in (2, 3, 4):
        for _ in range(30):
            block = (rng.standard_normal((8, 16)) * rng.uniform(0.1, 4.0)).astype(
                np.float32)
            qb, _ = calibrate_group(block, bits, SqcConfig())
            tuned = block_mse(block, dequantize(qb))
            plain = block_mse(block, dequantize(quantize_uniform(block, bits)))
            assert tuned <= plain


def reference_row_losses(block, bits, grid):
    """One full quantize_uniform -> dequantize per gamma."""
    lo, hi = _row_range(block)
    losses = np.empty((len(grid), block.shape[0]))
    for i, gamma in enumerate(grid):
        params = params_from_range(lo, hi, bits, gamma=float(gamma))
        deq = dequantize(quantize_uniform(block, bits, params)).astype(np.float64)
        losses[i] = ((block - deq) ** 2).sum(axis=1)
    return losses


def reference_calibrate(block, bits, cfg):
    """Winner by the reference losses: (quantized block, gamma)."""
    grid = gamma_grid(cfg)
    losses = reference_row_losses(block, bits, grid)
    gamma = float(grid[np.lexsort((grid, np.abs(grid - 1.0), losses.sum(axis=1)))[0]])
    lo, hi = _row_range(block)
    return quantize_uniform(block, bits, params_from_range(lo, hi, bits, gamma)), gamma


@pytest.mark.parametrize("slice_elements, shapes", [
    # slices of 4 rows at width 16 and 2 rows at width 32
    (64, ((1, 16), (9, 16), (13, 32))),
    # the default slice: 128 rows at width 128
    (sqc._SLICE_ELEMENTS, ((300, 128),)),
])
def test_grid_losses_bit_identical_to_reference(monkeypatch, slice_elements, shapes):
    # no row count divides evenly into slices
    monkeypatch.setattr(sqc, "_SLICE_ELEMENTS", slice_elements)
    rng = np.random.default_rng(11)
    grid = gamma_grid(SqcConfig())
    for bits in (2, 3, 4):
        for n, beta in shapes:
            block = rng.standard_normal((n, beta)) * rng.uniform(0.01, 4.0)
            block[n // 2] = 0.0
            if n > 2:
                block[-1] = -1.5  # constant row
                block[1] = np.abs(block[1])  # range pinned at zero from below
            lo, hi = _row_range(block)
            scales, zeros = affine_params(lo[None, :], hi[None, :], bits, grid[:, None])
            got = grid_row_losses(block, bits, scales, zeros)
            assert np.array_equal(got, reference_row_losses(block, bits, grid))
            qb, gamma = calibrate_group(block, bits, SqcConfig())
            ref_qb, ref_gamma = reference_calibrate(block, bits, SqcConfig())
            assert gamma == ref_gamma
            assert np.array_equal(qb.codes, ref_qb.codes)
            assert np.array_equal(qb.params.scale, ref_qb.params.scale)
            assert np.array_equal(qb.params.zero, ref_qb.params.zero)


@pytest.mark.parametrize("bits", [0, 1])
def test_widths_below_two_rejected(bits):
    # 1-bit groups take the sign/magnitude form, which has no range to scale
    with pytest.raises(InvalidConfig):
        calibrate_group(np.ones((2, 8)), bits, SqcConfig())
