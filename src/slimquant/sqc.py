"""Quantizer range calibration by grid search.

For one block, a shrink/grow factor gamma is applied to every row's
min/max range before deriving scale and zero-point. The winning gamma
minimizes the total squared reconstruction error of the block. gamma = 1.0
is always a candidate, so calibrated quantization can never lose to the
plain min/max quantizer on this objective. The search runs at 2 to 4 bits:
1-bit groups take the sign/magnitude form, which has no range to scale.

The grid is searched in two passes. A float32 screen scores every
candidate cheaply, with a proven bound on its distance from the exact
float64 total; only the candidates the bound cannot rule out are then
scored exactly, by quantizing and dequantizing the block once each with
quant_core's deployed quantizer, and the winner is picked among them by
the same rule as before. No candidate that could win is ever dropped,
ties included, so the gamma, codes, scales and zero-points are those of
the full float64 search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig
from .quant_core import (
    QuantizedBlock,
    _row_range,
    affine_params,
    as_block,
    dequantize,
    params_from_range,
    quantize_uniform,
)

# Elements per slice of rows in the float32 screen. The slice and its work
# buffer (512 KiB together) stay in a 2 MiB L2 cache across all candidates.
# On a 4096x128 block at 3 bits (a 2-vCPU Xeon, numpy 2.4, one thread) the
# screen took 206 ms at 16384 elements, 140 ms at 65536 and 125 ms at
# 131072; smaller slices pay numpy's per-call overhead instead.
_SLICE_ELEMENTS = 65536

# float32's smallest normal number, and a bound on the scales that keeps
# every decode k * s (|k| <= 15) finite in float32: the screen runs only
# where the block and its scales stay between them (_screen_totals).
_F32_TINY = float(np.finfo(np.float32).tiny)  # 2^-126
_F32_SCALE_MAX = 2.0 ** 123


@dataclass(frozen=True)
class SqcConfig:
    lambda_gamma: float = 0.1  # half-width of the gamma interval
    n_gamma: int = 50  # grid holds 2 * n_gamma points, plus unity

    def __post_init__(self) -> None:
        if not 0.0 < self.lambda_gamma < 1.0:
            raise InvalidConfig(f"lambda_gamma must be in (0, 1), got {self.lambda_gamma}")
        if self.n_gamma < 1:
            raise InvalidConfig(f"n_gamma must be >= 1, got {self.n_gamma}")


def gamma_grid(cfg: SqcConfig) -> np.ndarray:
    """Candidate gammas: 2*n_gamma points spanning [1-lambda, 1+lambda]
    endpoints included, plus forced unity."""
    grid = np.linspace(1.0 - cfg.lambda_gamma, 1.0 + cfg.lambda_gamma, 2 * cfg.n_gamma)
    return np.unique(np.append(grid, 1.0))


def calibrate_group(
    block: np.ndarray, bit_width: int, cfg: SqcConfig
) -> tuple[QuantizedBlock, float]:
    """Grid-search gamma for one block and quantize with the winner.

    Returns the quantized block and the winning gamma. Ties prefer the
    gamma closest to 1.0, then the smaller gamma. The loss of each
    candidate is measured on the float32 dequantization actually deployed,
    so the winner's objective value is exactly the reconstruction error
    downstream consumers will see. Only the candidates that survive the
    float32 screen (_survivors) are scored exactly; the others provably
    lose, so the winner is that of the full float64 search.
    """
    if bit_width < 2:
        raise InvalidConfig(f"range calibration needs a width of 2 to 4 bits, got {bit_width}")
    # a column slice of a wider matrix is copied once, so that every pass
    # over the grid reads contiguous rows
    block = np.ascontiguousarray(as_block(block))
    grid = gamma_grid(cfg)
    lo, hi = _row_range(block)
    scales, zeros = affine_params(lo[None, :], hi[None, :], bit_width, grid[:, None])
    kept = grid[_survivors(block, bit_width, scales, zeros)]
    totals = []
    for i, gamma in enumerate(kept):
        qb = quantize_uniform(block, bit_width, params_from_range(lo, hi, bit_width, gamma))
        residual = block - dequantize(qb)
        np.square(residual, out=residual)
        totals.append(residual.sum(axis=1).sum())
        # keep only the winner so far; lexsort keys, last listed is primary:
        # loss, then closeness to 1, then value
        head = kept[: i + 1]
        if np.lexsort((head, np.abs(head - 1.0), totals))[0] == i:
            best = qb, float(gamma)
    return best


def _survivors(
    block: np.ndarray, bit_width: int, scales: np.ndarray, zeros: np.ndarray
) -> np.ndarray:
    """Indices of the candidates whose exact total the float32 screen
    cannot rule out. With A the screen's totals and E >= |A - T| their
    bounds (_screen_totals), a candidate survives when A - E <= min(A + E):
    the winner's exact total T is at most every other T, hence at most
    every A + E, and so is every candidate tied with it. Blocks outside the
    bound's domain keep every candidate."""
    screen = _screen_totals(block, bit_width, scales, zeros)
    if screen is None:
        return np.arange(len(scales))
    approx, bound = screen
    return np.flatnonzero(approx - bound <= np.min(approx + bound))


def _screen_totals(
    block: np.ndarray, bit_width: int, scales: np.ndarray, zeros: np.ndarray
) -> tuple[np.ndarray, np.ndarray] | None:
    """Each candidate's total squared error from a float32 pass, A, and a
    bound E with |A - T| <= E, where T is the deployed quantizer's float64
    total: quantize_uniform, then dequantize, then the float64 residual
    squared, summed per row and then over rows.

    The pass runs on the block and scales times 2^p, with p chosen to
    bring the largest |b| into [1/2, 1), so that neither the squares nor
    the sums leave float32's range, and its A and E are scaled back by
    4^-p. Scaling by a power of two is exact in both passes, and so it
    multiplies every T by 4^p, when every nonzero |b| and every scale, as
    given and as scaled, is at least _F32_TINY and every scale at most
    _F32_SCALE_MAX: the decodes k s are then normal float32 and the
    float64 residuals and squares are normal too. Other blocks, and an
    all-zero block, get None.

    The bound follows the standard rounding model (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, ch. 2-4): fl(x op y) =
    (x op y)(1 + d) with |d| <= u, and a sum of k terms taken in any order
    puts at most k - 1 roundings on each, so nothing here depends on how
    numpy orders its sums. Take u = 2^-24, one row b with scale s, S1 =
    sum |b|, S2 = sum b^2, R' the row's float32 loss, and let d and d' be
    the float64 and float32 decodes of each element.

    * The float32 pass against the exact loss of its own decodes. It
      rounds b to b(1 + e), |e| <= u, then rounds the residual, the square
      and the row sum, so with y = fl32(b) - d', R' = sum y^2 (1 + t),
      |t| <= g = (beta + 2)u / (1 - (beta + 2)u), plus at most
      beta 2^-150 where a square falls below float32's normal range
      (a float32 difference or sum that does so is exact). So sum y^2 <=
      W = (R' + beta 2^-149) / (1 - g). With x = b - d',
      |sum y^2 - sum x^2| <= 2u |x| |b| + u^2 S2 by Cauchy-Schwarz, and
      |x| <= X = sqrt(W) + u sqrt(S2). The row is off by at most
      g W + beta 2^-149 + 2u X sqrt(S2) + u^2 S2.
    * Codes that differ between the passes. A code k gives the decode
      fl32(k s) in both passes (|k| <= 15 and a float32 s make k s exact
      in float64), so equal codes give equal decodes. The quotients lie
      within 2^-53 |q| and (2u + u^2)|q| of q = b / s, so they round to
      different codes only when a half-integer h lies between them:
      |q - h| <= 2.01u |q|, and the codes are h -/+ 1/2. Then
      (b - d')^2 - (b - d)^2 = (d - d')(2b - d - d'), with
      |d - d'| <= s (1 + 31u) and |2b - d - d'| <= 2s |q - h| + 2u s |h|
      <= 6.01u |b|, the decode rounding of both codes included. Each
      element moves by at most 6.02u s |b|; 6.02u s S1 covers the row.

    E_rows sums both over rows. The float64 sums on both sides (the exact
    pass's residual, square, row sum and total, and this pass's total)
    add at most c (A + E_rows), c = (2n + beta + 2) 2^-52. The factor
    1 + 2^-20 covers the float64 rounding of the bound's own evaluation
    and of the comparison in _survivors while n and beta stay below 2^30.
    """
    n, beta = block.shape
    mag = np.abs(block)
    top = mag.max()
    if not 0.0 < top < np.inf:
        return None
    p = -int(np.frexp(top)[1])
    low = np.min(mag, where=mag > 0.0, initial=top)
    s_lo, s_hi = float(scales.min()), float(scales.max())
    if (
        min(low, np.ldexp(low, p), s_lo, np.ldexp(s_lo, p)) < _F32_TINY
        or max(s_hi, np.ldexp(s_hi, p)) > _F32_SCALE_MAX
    ):
        return None
    block = np.ldexp(block, p)
    scales = np.ldexp(scales.astype(np.float64), p)
    u = 2.0 ** -24
    g = (beta + 2) * u / (1.0 - (beta + 2) * u)
    under = beta * 2.0 ** -149
    losses = _screen_row_losses(block, bit_width, scales, zeros).astype(np.float64)
    s1 = np.abs(block).sum(axis=1)
    s2 = np.einsum("ij,ij->i", block, block)
    root_s2 = np.sqrt(s2)
    w = (losses + under) / (1.0 - g)
    x = np.sqrt(w) + u * root_s2
    row_bound = g * w + under + 2.0 * u * x * root_s2 + u * u * s2 + 6.02 * u * scales * s1
    approx = losses.sum(axis=1)
    bound = row_bound.sum(axis=1)
    bound += (2 * n + beta + 2) * 2.0 ** -52 * (approx + bound)
    return np.ldexp(approx, -2 * p), np.ldexp(bound * (1.0 + 2.0 ** -20), -2 * p)


def _screen_row_losses(
    block: np.ndarray, bit_width: int, scales: np.ndarray, zeros: np.ndarray
) -> np.ndarray:
    """Per-row squared reconstruction error of the block under each
    candidate's parameters, in float32, for the screen: scales/zeros are
    (G, n), the result (G, n). The zero-point only moves the clip bounds,
    since code - zero is clip(rint(w / scale), -zero, maxq - zero). Each
    slice of rows is held transposed, so the per-row parameters run along
    its contiguous axis and every ufunc makes long inner loops; the decode
    needs no cast."""
    n, beta = block.shape
    scales = scales.astype(np.float32)
    floor = -zeros.astype(np.float32)
    ceil = floor + np.float32((1 << bit_width) - 1)
    losses = np.empty(scales.shape, dtype=np.float32)
    rows = max(1, _SLICE_ELEMENTS // beta)
    q = np.empty((beta, rows), dtype=np.float32)
    for r0 in range(0, n, rows):
        r1 = min(r0 + rows, n)
        b = np.ascontiguousarray(block[r0:r1].T, dtype=np.float32)
        qv = q[:, : r1 - r0]
        for i in range(len(scales)):
            s = scales[i, r0:r1]
            np.divide(b, s, out=qv)
            np.rint(qv, out=qv)
            np.maximum(qv, floor[i, r0:r1], out=qv)
            np.minimum(qv, ceil[i, r0:r1], out=qv)
            np.multiply(qv, s, out=qv)
            np.subtract(b, qv, out=qv)
            np.square(qv, out=qv)
            np.add.reduce(qv, axis=0, out=losses[i, r0:r1])
    return losses
