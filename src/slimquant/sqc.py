"""Quantizer range calibration by grid search.

For one block, a shrink/grow factor gamma is applied to every row's
min/max range before deriving scale and zero-point. The winning gamma
minimizes the total squared reconstruction error of the block. gamma = 1.0
is always a candidate, so calibrated quantization can never lose to the
plain min/max quantizer on this objective. The search runs at 2 to 4 bits:
1-bit groups take the sign/magnitude form, which has no range to scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig
from .quant_core import (
    QuantizedBlock,
    _row_range,
    affine_params,
    dequantize,  # noqa: F401  (kept importable from this module)
    params_from_range,
    quantize_uniform,
)

# Elements per slice of rows in the grid search. The slice's work buffers
# (128 KiB float64 plus 64 KiB float32) stay in cache across all
# candidates; much smaller slices pay numpy's per-call overhead instead.
_SLICE_ELEMENTS = 16384


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
    downstream consumers will see.
    """
    if bit_width < 2:
        raise InvalidConfig(f"range calibration needs a width of 2 to 4 bits, got {bit_width}")
    # a column slice of a wider matrix is copied: grid_row_losses re-reads
    # each slice of rows once per candidate, and strided rows miss the cache
    block = np.ascontiguousarray(block, dtype=np.float64)
    grid = gamma_grid(cfg)
    lo, hi = _row_range(block)
    scales, zeros = affine_params(lo[None, :], hi[None, :], bit_width, grid[:, None])
    totals = grid_row_losses(block, bit_width, scales, zeros).sum(axis=1)
    # lexsort keys, last listed is primary: loss, then closeness to 1, then value
    best = int(np.lexsort((grid, np.abs(grid - 1.0), totals))[0])
    gamma_star = float(grid[best])
    params = params_from_range(lo, hi, bit_width, gamma=gamma_star)
    return quantize_uniform(block, bit_width, params), gamma_star


def grid_row_losses(
    block: np.ndarray, bit_width: int, scales: np.ndarray, zeros: np.ndarray
) -> np.ndarray:
    """Per-row squared reconstruction error of a float64 block under each
    candidate's parameters: scales/zeros are (G, n), the result (G, n).

    Bit-identical to quantizing with quantize_uniform, decoding with
    dequantize and summing each row of the squared float64 error, but run
    over slices of rows that stay in cache for the whole grid, with no
    per-candidate allocation. Two identities keep it exact: code - zero is
    clip(rint(w / scale), -zero, maxq - zero), so the zero-point only moves
    the clip bounds; and |code - zero| <= 15 times a float32 scale is exact
    in float64, so rounding that product to float32 equals the float32
    decode.
    """
    n, beta = block.shape
    scales64 = scales.astype(np.float64)
    floor = -zeros.astype(np.float64)
    ceil = floor + float((1 << bit_width) - 1)
    losses = np.empty(scales.shape, dtype=np.float64)
    rows = max(1, _SLICE_ELEMENTS // beta)
    q = np.empty((rows, beta), dtype=np.float64)
    deq = np.empty((rows, beta), dtype=np.float32)
    for r0 in range(0, n, rows):
        r1 = min(r0 + rows, n)
        b = block[r0:r1]
        qv, dv = q[: r1 - r0], deq[: r1 - r0]
        for i in range(len(scales)):
            s = scales64[i, r0:r1, None]
            np.divide(b, s, out=qv)
            np.rint(qv, out=qv)
            np.maximum(qv, floor[i, r0:r1, None], out=qv)
            np.minimum(qv, ceil[i, r0:r1, None], out=qv)
            np.multiply(qv, s, out=dv, casting="same_kind")
            np.copyto(qv, dv)
            np.subtract(b, qv, out=qv)
            np.square(qv, out=qv)
            np.sum(qv, axis=1, out=losses[i, r0:r1])
    return losses
