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
from slimquant.sqc import SqcConfig, calibrate_group, gamma_grid


def test_default_grid_has_101_points():
    grid = gamma_grid()
    assert len(grid) == 101
    assert grid[0] == pytest.approx(0.9)
    assert grid[-1] == pytest.approx(1.1)
    assert 1.0 in grid
    assert np.all(np.diff(grid) > 0.0)


def test_grid_dedupes_unity(monkeypatch):
    # 2 * n_gamma points symmetric about 1.0 never hit it; unity is added once
    monkeypatch.setattr(SqcConfig, "n_gamma", 2)
    grid = gamma_grid()
    assert len(grid) == 5
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


def test_winner_matches_grid_scan(monkeypatch):
    monkeypatch.setattr(SqcConfig, "n_gamma", 10)
    rng = np.random.default_rng(3)
    block = rng.standard_normal((6, 24)).astype(np.float32)
    qb, gamma = calibrate_group(block, 2, SqcConfig())
    got = block_mse(block, dequantize(qb))
    from slimquant.quant_core import _row_range, params_from_range

    lo, hi = _row_range(block.astype(np.float64))
    losses = []
    for g in gamma_grid():
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


def test_codes_stay_in_range_for_grown_gamma(monkeypatch):
    monkeypatch.setattr(SqcConfig, "lambda_gamma", 0.9)
    monkeypatch.setattr(SqcConfig, "n_gamma", 40)
    rng = np.random.default_rng(5)
    for bits in (2, 3, 4):
        block = (rng.standard_normal((4, 12)) * 5.0).astype(np.float32)
        qb, _ = calibrate_group(block, bits, SqcConfig())
        assert qb.codes.max() <= (1 << bits) - 1
        assert qb.params.zero.max() <= (1 << bits) - 1


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


def reference_calibrate(block, bits):
    """Winner by the reference losses: (quantized block, gamma)."""
    grid = gamma_grid()
    losses = reference_row_losses(block, bits, grid)
    gamma = float(grid[np.lexsort((grid, np.abs(grid - 1.0), losses.sum(axis=1)))[0]])
    lo, hi = _row_range(block)
    return quantize_uniform(block, bits, params_from_range(lo, hi, bits, gamma)), gamma


@pytest.mark.parametrize("bits", [0, 1])
def test_widths_below_two_rejected(bits):
    # 1-bit groups take the sign/magnitude form, which has no range to scale
    with pytest.raises(InvalidConfig):
        calibrate_group(np.ones((2, 8)), bits, SqcConfig())


def candidates(block, bits):
    """Every candidate's scales and zero-points on the default grid."""
    lo, hi = _row_range(block)
    return affine_params(lo[None, :], hi[None, :], bits, gamma_grid()[:, None])


def grid_case(block, bits):
    """Candidate parameters of a block and their exact float64 totals."""
    scales, zeros = candidates(block, bits)
    return scales, zeros, reference_row_losses(block, bits, gamma_grid()).sum(axis=1)


def on_half_steps(rng, block, bits, index):
    """Move every element but each row's min and max onto a half-integer
    multiple of candidate index's scale inside the row's range, so the row
    ranges, and with them every candidate's parameters, stay as they were."""
    lo, hi = _row_range(block)
    s = candidates(block, bits)[0][index].astype(np.float64)[:, None]
    k_lo, k_hi = np.ceil(lo[:, None] / s - 0.5), np.floor(hi[:, None] / s - 0.5)
    k = k_lo + np.floor(rng.random(block.shape) * (k_hi - k_lo + 1))
    out = (k + 0.5) * s
    out[:, 0], out[:, 1] = lo, hi
    return out


def edge_rows(block):
    block = block.copy()
    block[0] = 0.0
    block[1] = block[1, 0]  # constant row
    block[2] = np.abs(block[2])  # range pinned at zero from below
    block[3] = -np.abs(block[3])  # and from above
    return block


@pytest.mark.parametrize("beta", [16, 128])
@pytest.mark.parametrize("magnitude", [1e-30, 1e-12, 1.0, 1e12, 1e30])
def test_screen_bound_holds_for_every_candidate(beta, magnitude):
    rng = np.random.default_rng(20 + beta)
    for bits in (2, 3, 4):
        gaussian = rng.standard_normal((37, beta)) * magnitude
        blocks = [gaussian, edge_rows(gaussian)]
        blocks += [on_half_steps(rng, gaussian, bits, i) for i in (0, 30, 50, 77)]
        for block in blocks:
            scales, zeros, exact = grid_case(block, bits)
            approx, bound = sqc._screen_totals(block, bits, scales, zeros)
            assert np.all(np.isfinite(approx)) and np.all(np.isfinite(bound))
            assert np.all(np.abs(approx - exact) <= bound)
            # every candidate that can win survives the screen
            keep = sqc._survivors(block, bits, scales, zeros)
            assert set(np.flatnonzero(exact == exact.min())) <= set(keep)


def test_screen_bound_holds_on_rows_rounded_by_half_an_ulp():
    # where every element loses almost half a float32 ulp and a row has
    # few elements, the screen's error comes closest to its bound (about
    # a third of it here)
    rng = np.random.default_rng(25)
    for trial in range(400):
        bits, beta = 2 + trial % 3, 1 + trial // 3 % 4
        x = rng.standard_normal((1, beta)).astype(np.float32)
        ulp = np.spacing(np.abs(x)).astype(np.float64)
        block = x.astype(np.float64) + rng.choice([-0.499, 0.499], x.shape) * ulp
        scales, zeros, exact = grid_case(block, bits)
        approx, bound = sqc._screen_totals(block, bits, scales, zeros)
        assert np.all(np.abs(approx - exact) <= bound)


def assert_matches_reference(block, bits):
    qb, gamma = calibrate_group(block, bits, SqcConfig())
    ref_qb, ref_gamma = reference_calibrate(block, bits)
    assert gamma == ref_gamma
    assert np.array_equal(qb.codes, ref_qb.codes)
    assert np.array_equal(qb.params.scale, ref_qb.params.scale)
    assert np.array_equal(qb.params.zero, ref_qb.params.zero)


@pytest.mark.parametrize("slice_elements, shapes", [
    # slices of 4 rows at width 16 and 2 rows at width 32
    (64, ((1, 16), (9, 16), (13, 32))),
    # the default slice: 512 rows at width 128, so two full slices and 76 rows
    (sqc._SLICE_ELEMENTS, ((1100, 128),)),
])
def test_sliced_screen_keeps_the_reference_winner(monkeypatch, slice_elements, shapes):
    # the float32 screen is the one pass over slices of rows; no row count
    # divides evenly into slices
    monkeypatch.setattr(sqc, "_SLICE_ELEMENTS", slice_elements)
    rng = np.random.default_rng(11)
    for bits in (2, 3, 4):
        for n, beta in shapes:
            block = rng.standard_normal((n, beta)) * rng.uniform(0.01, 4.0)
            block[n // 2] = 0.0
            if n > 2:
                block[-1] = -1.5  # constant row
                block[1] = np.abs(block[1])  # range pinned at zero from below
            assert_matches_reference(block, bits)


def near_tie(rng, bits, beta):
    """A block whose two best candidates' exact totals differ by far less
    than the screen's bound: a row that prefers the runner-up, scaled so
    that it makes up the gap."""
    base = rng.standard_normal((int(rng.integers(1, 6)), beta))
    grid = gamma_grid()
    _, _, totals = grid_case(base, bits)
    first, second = np.lexsort((grid, np.abs(grid - 1.0), totals))[:2]
    while True:
        row = rng.standard_normal((1, beta))
        _, _, losses = grid_case(row, bits)
        if losses[first] > losses[second]:
            break
    alpha = np.sqrt((totals[second] - totals[first]) / (losses[first] - losses[second]))
    return np.vstack([base, alpha * row])


def test_calibration_matches_full_search():
    rng = np.random.default_rng(22)
    for trial in range(480):
        bits = 2 + trial % 3
        beta = (4, 8, 16, 32)[trial // 3 % 4]
        block = rng.standard_normal((int(rng.integers(1, 40)), beta))
        if trial % 4 == 1:
            block = np.round(block * 2.0) / 2.0  # coarse values, exact ties
        elif trial % 4 == 2:
            block[rng.random(block.shape) < 0.5] = 0.0
        assert_matches_reference(block * 10.0 ** rng.uniform(-6, 6), bits)
    rescored = 0
    for trial in range(30):
        bits, beta = 2 + trial % 3, (8, 16, 32)[trial // 3 % 3]
        block = near_tie(rng, bits, beta)
        scales, zeros, exact = grid_case(block, bits)
        keep = sqc._survivors(block, bits, scales, zeros)
        rescored += len(keep) >= 2 and len(set(exact[keep])) >= 2
        assert_matches_reference(block, bits)
    assert rescored >= 20  # near-ties the screen cannot split: scored exactly


@pytest.mark.parametrize("magnitude, value", [(1.0, 1e-40), (1e30, 1e-10)])
def test_block_outside_float32_normal_range_keeps_every_candidate(magnitude, value):
    # no power of two brings both magnitudes into float32's normal range
    block = np.random.default_rng(23).standard_normal((6, 16)) * magnitude
    block[2, 5] = value
    scales, zeros = candidates(block, 2)
    assert sqc._screen_totals(block, 2, scales, zeros) is None
    assert len(sqc._survivors(block, 2, scales, zeros)) == len(scales)
    for bits in (2, 3, 4):
        assert_matches_reference(block, bits)


@pytest.mark.parametrize("rows", [1024, 4096])
def test_screen_leaves_at_most_two_candidates(rows):
    # a deterministic stand-in for a timing check: each survivor costs one
    # exact float64 pass over the block
    rng = np.random.default_rng(24)
    for bits in (2, 3, 4):
        block = rng.standard_normal((rows, 128))
        scales, zeros = candidates(block, bits)
        assert len(sqc._survivors(block, bits, scales, zeros)) <= 2
