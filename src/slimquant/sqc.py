"""Quantizer range calibration by grid search.

For one block, a shrink/grow factor gamma is applied to every row's
min/max range before deriving scale and zero-point. The grid is fixed
(SqcConfig): 101 gammas in [0.9, 1.1]. The winning gamma
minimizes the total squared reconstruction error of the block. gamma = 1.0
is always a candidate, so calibrated quantization can never lose to the
plain min/max quantizer on this objective. The search runs at 2 to 4 bits:
1-bit groups take the sign/magnitude form, which has no range to scale.

The grid is searched in two passes. A step screen scores every candidate
from where each weight's level steps: every candidate of a row shares its
zero-point, which quant_core takes from the unscaled range, and along the
grid a row's scale never falls, so a weight's level (code minus
zero-point) is a monotone step function of the candidate. The screen takes
the levels at the grid's two ends from quant_core's encode, finds each
step between them by searching the grid, and forms every candidate's row
error in float64 from running sums, with a proven bound on its distance
from the exact total. Only the candidates the bound cannot rule out are
then scored exactly, by quantizing and dequantizing the block once each
with quant_core's deployed quantizer, and the winner is picked among them
by the same rule as before. No candidate that could win is ever dropped,
ties included, so the gamma, codes, scales and zero-points are those of
the full float64 search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import InvalidConfig
from .quant_core import (
    QuantizedBlock,
    _row_range,
    affine_params,
    as_block,
    dequantize,
    encode,
    params_from_range,
    quantize_uniform,
)

# Elements per slice of rows in the step screen, which bounds its
# temporaries: the slice's endpoint levels and its (candidates, rows)
# running sums.
_SLICE_ELEMENTS = 65536

# Largest magnitude the screen takes, of a weight or of a decode
# (2^bits - 1) s: every float32 decode stays finite and no float64 square
# or sum can overflow.
_SCREEN_MAX = 2.0 ** 120

@dataclass(frozen=True)
class SqcConfig:
    """The gamma grid's fixed settings, as in the paper (gamma_grid).
    SqcConfig() takes no arguments."""

    lambda_gamma: ClassVar[float] = 0.1  # half-width of the gamma interval
    n_gamma: ClassVar[int] = 50


def gamma_grid() -> np.ndarray:
    """Candidate gammas: 2 * SqcConfig.n_gamma points spanning
    [1 - lambda_gamma, 1 + lambda_gamma], endpoints included, plus forced
    unity."""
    lam = SqcConfig.lambda_gamma
    grid = np.linspace(1.0 - lam, 1.0 + lam, 2 * SqcConfig.n_gamma)
    return np.unique(np.append(grid, 1.0))


def calibrate_group(
    block: np.ndarray, bit_width: int, cfg: SqcConfig
) -> tuple[QuantizedBlock, float]:
    """Grid-search gamma for one block and quantize with the winner.

    Returns the quantized block and the winning gamma; cfg is SqcConfig(),
    the one value there is. Ties prefer the gamma closest to 1.0, then the
    smaller gamma. The loss of each candidate is measured on the float32 dequantization actually deployed,
    so the winner's objective value is exactly the reconstruction error
    downstream consumers will see. Only the candidates that survive the
    step screen (_survivors) are scored exactly; the others provably
    lose, so the winner is that of the full float64 search.
    """
    if bit_width < 2:
        raise InvalidConfig(f"range calibration needs a width of 2 to 4 bits, got {bit_width}")
    # a column slice of a wider matrix is copied once, so that every pass
    # over the grid reads contiguous rows
    block = np.ascontiguousarray(as_block(block))
    grid = gamma_grid()
    lo, hi = _row_range(block)
    scales, zeros = affine_params(lo[None, :], hi[None, :], bit_width, grid[:, None])
    best_key = None
    for gamma in grid[_survivors(block, bit_width, scales, zeros)]:
        qb = quantize_uniform(block, bit_width, params_from_range(lo, hi, bit_width, gamma))
        residual = block - dequantize(qb)
        np.square(residual, out=residual)
        # loss, then closeness to 1, then value; only the winner so far is kept
        key = (residual.sum(axis=1).sum(), abs(gamma - 1.0), gamma)
        if best_key is None or key < best_key:
            best_key, best = key, (qb, float(gamma))
    return best


def _survivors(
    block: np.ndarray, bit_width: int, scales: np.ndarray, zeros: np.ndarray
) -> np.ndarray:
    """Indices of the candidates whose exact total the step screen cannot
    rule out. With A the screen's totals and E >= |A - T| their bounds
    (_screen_totals), a candidate survives when A - E <= min(A + E): the
    winner's exact total T is at most every other T, hence at most every
    A + E, and so is every candidate tied with it. Blocks outside the
    bound's domain keep every candidate."""
    screen = _screen_totals(block, bit_width, scales, zeros)
    if screen is None:
        return np.arange(len(scales))
    approx, bound = screen
    return np.flatnonzero(approx - bound <= np.min(approx + bound))


def _screen_totals(
    block: np.ndarray, bit_width: int, scales: np.ndarray, zeros: np.ndarray
) -> tuple[np.ndarray, np.ndarray] | None:
    """Each candidate's total squared error from the step screen, A, and a
    bound E with |A - T| <= E, where T is the deployed quantizer's float64
    total: quantize_uniform, then dequantize, then the float64 residual
    squared, summed per row and then over rows. scales are (G, n), one row
    per candidate in grid order, and every candidate takes the row of
    zero-points zeros[0] (affine_params).

    The screen runs where no row's scale falls from one candidate to the
    next and where every |b| and every (2^bits - 1) s is below
    _SCREEN_MAX = 2^120, so that no float32 decode and no float64 square
    or sum overflows; other blocks get None.

    Levels. Under the row's zero-point z a weight's level (code minus z)
    is clip(rint(b / s), -z, maxq - z), maxq = 2^bits - 1, and float64
    division by a growing s, rint and clip are all monotone, so along the
    whole grid it moves one way in steps. For each row the screen gets the
    levels at the grid's two ends from encode, the deployed rule, and finds
    each unit step between them, the first candidate at which the level
    reaches the next value, with encode (_step_index). Each candidate then
    has exactly the levels l the deployed pass gives it.

    Row totals. With A = sum b l and C = sum l^2 kept as running sums over
    the steps (C in exact integers), a candidate's row error with exact
    decodes l s is Q = S2 - 2 s A + s^2 C, S2 = sum b^2. The bound follows
    the standard rounding model (Higham, Accuracy and Stability of
    Numerical Algorithms, 2002, ch. 2-4): fl(x op y) = (x op y)(1 + d) +
    e, |d| <= u = 2^-53, with e = 0 for sums and |e| <= 2^-1075 for
    products that underflow; a sum of k terms taken in any order puts at
    most k - 1 roundings on each, and gamma_k = k u / (1 - k u) <= k 2^-52,
    so nothing here depends on how numpy orders its sums. Take one row of
    beta weights b with scale s, and S1 = sum |b|.

    * The screen's float64 sums. A is a sum of beta products b L (|L| <=
      maxq) and of at most maxq beta steps +-b (one per level a weight
      passes; the constants here allow (maxq + 2) beta), so its absolute
      terms sum to at most 2 (maxq + 1) S1, and no term of Q sees more
      than K = (maxq + 3) beta + G + 4 roundings (the endpoint dot
      product, the step sums, the running sum over G candidates and Q's
      formula). So |Q^ - Q| <= K 2^-52 Z, with
      Z = S2 + 4 (maxq + 1) s S1 + s^2 C.
    * The float32 decode. The deployed decode of level l is
      d = fl32(l s), within 2^-24 |l s| + 2^-150 of l s (2^-150 covers a
      subnormal result). With x = b - l s and e = l s - d over the whole
      block, the deployed total sum (x + e)^2 differs from sum Q by at
      most 2 |e| |x| + |e|^2 (Cauchy-Schwarz), where |x|^2 = sum Q and,
      by Minkowski, |e| <= P = 2^-24 sqrt(sum s^2 C) + 2^-150 sqrt(n beta).

    Summed over rows, E64 = K 2^-52 sum Z and sum Q <= A + E64 +
    c sum |Q^| give F = P (2 sqrt(sum Q) + P). The exact pass rounds the
    residual, the square, the row sum and the total, at most
    n + beta + 1 roundings on a nonnegative term, and the screen's total
    over rows adds at most 3n more; both are covered by
    c (sum |Q^| + E64 + F), c = (4n + beta + 2) 2^-52, and underflowing
    products in either pass and in the bound by n (4 beta + 4) 2^-1074.
    Adding 2^-50 (|A| + E) covers the rounding of A -/+ E in _survivors,
    and the factor 1 + 2^-20 the float64 evaluation of the bound itself,
    while n and beta stay below 2^30.
    """
    n, beta = block.shape
    maxq = (1 << bit_width) - 1
    if (
        np.any(scales[1:] < scales[:-1])
        or not np.max([block.max(), -block.min(), maxq * scales.max()]) < _SCREEN_MAX
    ):
        return None
    g = len(scales)
    sums = np.zeros((4, g))
    rows = max(1, _SLICE_ELEMENTS // beta)
    for r0 in range(0, n, rows):
        r1 = min(r0 + rows, n)
        sums += _slice_sums(block[r0:r1], bit_width, scales[:, r0:r1], zeros[:, r0:r1])
    approx, magnitude, sc, ss1 = sums
    s2 = np.einsum("ij,ij->", block, block)
    e64 = ((maxq + 3) * beta + g + 4) * 2.0 ** -52 * (s2 + 4.0 * (maxq + 1) * ss1 + sc)
    c = (4 * n + beta + 2) * 2.0 ** -52
    p = 2.0 ** -24 * np.sqrt(sc) + 2.0 ** -150 * np.sqrt(n * beta)
    q = np.maximum(approx + e64 + c * magnitude, 0.0)
    rows_bound = e64 + p * (2.0 * np.sqrt(q) + p)
    bound = rows_bound + c * (magnitude + rows_bound) + n * (4 * beta + 4) * 2.0 ** -1074
    bound += 2.0 ** -50 * (np.abs(approx) + bound)
    return approx, bound * (1.0 + 2.0 ** -20)


def _slice_sums(
    block: np.ndarray, bit_width: int, scales: np.ndarray, zeros: np.ndarray
) -> np.ndarray:
    """(4, G) sums over a slice of rows, per candidate: of the row errors
    Q^, of their absolute values, of s^2 C and of s S1 (_screen_totals).
    The running sums are held per row."""
    G, (rows, beta) = len(scales), block.shape
    z = zeros[0].astype(np.float64)
    s = scales.astype(np.float64)
    lev_a, lev_b = (
        encode(block, s[i, :, None], z[:, None], bit_width, False) - z[:, None] for i in (0, -1)
    )
    # every unit step of the levels: its weight, direction and the level it
    # reaches
    change = np.subtract(lev_b, lev_a, dtype=np.int8, casting="unsafe").ravel()
    moves = np.flatnonzero(change)
    count = np.abs(change[moves]).astype(np.intp)
    cell = np.repeat(moves, count)
    sign = np.sign(change[cell]).astype(np.float64)
    nth = np.arange(len(cell)) - np.repeat(np.cumsum(count) - count, count) + 1
    target = lev_a.ravel()[cell] + sign * nth
    row = cell // beta
    x = block.ravel()[cell]
    cells = _step_index(x, target, sign, s, row, z, bit_width) * rows + row
    # running sums over the grid, from the first candidate's dot products
    # (bincount gives integers when there is no step)
    a, c = (
        np.bincount(cells, d, G * rows).astype(np.float64, copy=False).reshape(G, rows)
        for d in (sign * x, sign * (2.0 * target - sign))
    )
    a[0] += np.einsum("ij,ij->i", block, lev_a)
    c[0] += np.einsum("ij,ij->i", lev_a, lev_a)
    np.cumsum(a, axis=0, out=a)
    np.cumsum(c, axis=0, out=c)
    c *= s
    c *= s
    a *= -2.0 * s
    a += np.einsum("ij,ij->i", block, block)
    a += c
    ss1 = s @ np.abs(block).sum(axis=1)
    return np.stack([a.sum(axis=1), np.abs(a).sum(axis=1), c.sum(axis=1), ss1])


def _step_index(
    x: np.ndarray,
    target: np.ndarray,
    sign: np.ndarray,
    s: np.ndarray,
    row: np.ndarray,
    z: np.ndarray,
    bit_width: int,
) -> np.ndarray:
    """For each unit step, the first candidate whose level for weight x
    under the scales s[:, row] and zero-point z[row] reaches target (at
    the first candidate it has not, at the last it has). The level reaches
    target where s passes x / (target - sign / 2), at which rint(x / s)
    does; the scales of every row run nearly in proportion, so that
    candidate is predicted from one reference row's scales and checked by
    encode at it and the one before. Predictions that miss are bisected
    from what the check found."""
    G = len(s)
    if not len(x):
        return np.zeros(0, dtype=np.intp)
    ref = np.argmax(s[-1] - s[0])
    profile = (s[:, ref] - s[0, ref]) / (s[-1, ref] - s[0, ref])
    s_0, s_1 = s[0, row], s[-1, row]
    v = (x / (target - 0.5 * sign) - s_0) / (s_1 - s_0)
    hi = np.clip(np.ceil(v * (G - 1)), 1, G - 1).astype(np.intp)
    hi = np.minimum(hi + (profile[hi] < v), G - 1)
    hi = np.maximum(hi - (profile[hi - 1] >= v), 1)
    z = z[row]
    code = target + z

    def reached(m, i=slice(None)):
        return sign[i] * (encode(x[i], s[m, row[i]], z[i], bit_width, False) - code[i]) >= 0.0

    hit_lo, hit_hi = reached(hi - 1), reached(hi)
    miss = np.flatnonzero(hit_lo | ~hit_hi)
    # bracket each miss by what the check found, then bisect
    lo = np.where(hit_lo[miss], 0, hi[miss])
    up = np.where(hit_lo[miss], hi[miss] - 1, G - 1)
    while np.any(up - lo > 1):
        m = (lo + up) // 2
        hit = reached(m, miss)
        open_ = up - lo > 1
        up = np.where(open_ & hit, m, up)
        lo = np.where(open_ & ~hit, m, lo)
    hi[miss] = up
    return hi
