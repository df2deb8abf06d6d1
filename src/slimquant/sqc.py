"""The group walk: range calibration and in-group error compensation in
one pass over a group's columns.

A group's columns are quantized left to right, in GPTQ's column order
(arXiv 2210.17323). Each column's rounding error, divided by the diagonal
of u, the group's diagonal block of the inverse Gram factor U, is the
row's share of that column's E, and it is spread onto the group's later
columns through u. A row's loss is ||E_row||^2, its share of proxy_loss:
the salience weighting (an error's OBS cost is its square over the
inverse Hessian's diagonal) made exact. u = None stands for the identity,
under which a row's loss is its plain squared error.

Range calibration (SQC) scales each row's min/max range by a factor and
keeps, per row, the factor of least loss with the walk's codes under it:
rows do not interact inside a group, and the .slmq file stores a scale
and zero-point per row. The factors (SqcConfig) are a coarse pass, then
a fine one around each row's winner; factor 1 is among them, so no row
loses to plain min/max. This is a gradient-free stand-in for OmniQuant's
learned clipping (arXiv 2308.13137). Groups that are not calibrated take
the same walk under their one parameter set (walk_group).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from scipy.linalg.blas import dgemm, dgemv

from .errors import InvalidConfig
from .quant_core import (
    GroupQuantParams,
    QuantizedBlock,
    _row_range,
    affine_params,
    as_block,
    decode,
    dequantize,  # noqa: F401  (kept importable: the benchmark tracer wraps it here)
    derive_params,
    encode,
    params_from_range,  # noqa: F401  (kept importable: the benchmark tracer wraps it here)
    quantize_uniform,  # noqa: F401  (kept importable: the benchmark tracer wraps it here)
)

# Columns per lazy batch of the in-group error spreading.
_BATCH = 16

# (candidate, row) pairs per slice of the walk, which bounds its float64
# buffer (4 MiB at 128 columns): 1024 rows under each of 4 candidates.
_SLICE = 4096


@dataclass(frozen=True)
class SqcConfig:
    """The range factors' fixed grid, in multiples of 1 / step: a coarse
    pass, then a fine pass at the given offsets from each row's coarse
    winner, so a row ends on a factor in [0.65, 1.05]. SqcConfig() takes
    no arguments."""

    step: ClassVar[int] = 20
    coarse: ClassVar[tuple[int, ...]] = (14, 16, 18, 20)  # 0.7, 0.8, 0.9, 1.0
    fine: ClassVar[tuple[int, ...]] = (-1, 1)


def calibrate_group(
    block: np.ndarray, bit_width: int, cfg: SqcConfig, u: np.ndarray | None = None
) -> tuple[QuantizedBlock, float]:
    """Walk one group under each row's range factors and keep, per row,
    the factor of least loss ||E_row||^2, with its codes and float32 scale.

    Returns the block and the mean of its rows' factors; cfg is
    SqcConfig(), the one value there is. u is the group's diagonal block
    of the inverse factor U, None for the identity. Ties go to the factor
    closest to 1, then to the smaller one."""
    if bit_width < 2:
        raise InvalidConfig(f"range calibration needs a width of 2 to 4 bits, got {bit_width}")
    block = as_block(block)
    # made before the walk's temporaries: made after them, the blocks kept
    # over a layer split the heap's large free chunks, and from the second
    # quantize in a process quantize-tall's scoring took 24 MB of fresh
    # memory (peak RSS 275 against 251 MB)
    out = np.empty(block.shape, dtype=np.uint8)
    lo, hi = _row_range(block)
    _, zero = affine_params(lo, hi, bit_width)
    rows = np.arange(len(block))

    def walk(factors):
        scale = affine_params(lo, hi, bit_width, factors / SqcConfig.step)[0]
        return _walk(block, scale, zero, bit_width, False, u)

    factors = np.repeat(np.array(SqcConfig.coarse)[:, None], len(block), axis=1)
    codes, loss = walk(factors)
    best = _best(factors, loss)
    winner = factors[best, rows]
    near = winner + np.array(SqcConfig.fine)[:, None]
    near_codes, near_loss = walk(near)
    factors = np.vstack([winner[None], near])
    codes = np.concatenate([codes[best, rows][None], near_codes])
    loss = np.vstack([loss[best, rows][None], near_loss])
    best = _best(factors, loss)
    chosen = factors[best, rows]
    scale = affine_params(lo, hi, bit_width, chosen / SqcConfig.step)[0]
    out[...] = codes[best, rows]
    qb = QuantizedBlock(out, GroupQuantParams(bit_width, scale, zero))
    return qb, float(chosen.mean() / SqcConfig.step)


def walk_group(block: np.ndarray, bit_width: int, u: np.ndarray | None = None) -> QuantizedBlock:
    """Walk one group under its one min/max (at 1 bit, sign/magnitude)
    parameter set (quant_core.derive_params); u as in calibrate_group."""
    block = as_block(block)
    out = np.empty(block.shape, dtype=np.uint8)  # first, as in calibrate_group
    p = derive_params(block, bit_width)
    out[...] = _walk(block, p.scale[None], p.zero, bit_width, p.binary, u)[0][0]
    return QuantizedBlock(out, p)


def _best(factors: np.ndarray, loss: np.ndarray) -> np.ndarray:
    """Per row (column of the (candidates, rows) arrays), the index of the
    candidate of least loss; ties go to the factor closest to 1, then to
    the smaller one."""
    step = SqcConfig.step
    closeness = 2 * np.abs(factors - step) + (factors > step)
    return np.lexsort((closeness, loss), axis=0)[0]


def _walk(
    block: np.ndarray,
    scale: np.ndarray,
    zero: np.ndarray,
    bit_width: int,
    binary: bool,
    u: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Codes (C, n, beta) and losses ||E_row||^2 (C, n) of the n x beta
    float64 block's rows under each of C candidate parameter sets: float32
    scales (C, n) and the rows' uint8 zero-points (n,).

    The rows are walked in slices of _SLICE (candidate, row) pairs, in one
    float64 buffer that holds a slice's rows stacked once per candidate and
    transposed, so each column of every pair is one contiguous row. Each
    column's codes and float32 decode come from quant_core's encode and
    decode, the rule quantize_uniform and dequantize apply to a whole
    block; once a column is encoded, its row of the buffer holds its errors
    instead. Inside a batch of _BATCH columns each column first takes the
    errors of the batch's earlier columns; the batch then reaches the rest
    of the group in one product (GPTQ's lazy batch updates). Both updates
    are BLAS calls that accumulate into the buffer in place."""
    n, beta = block.shape
    count = len(scale)
    u = np.eye(beta) if u is None else np.asfortranarray(u)
    diag = u.diagonal()
    block = np.ascontiguousarray(block.T)
    codes = np.empty((count, n, beta), dtype=np.uint8)
    loss = np.empty((count, n))
    rows = max(1, _SLICE // count)
    buf = np.empty(beta * count * min(rows, n))
    for r0 in range(0, n, rows):
        r = slice(r0, min(r0 + rows, n))
        cols = buf[: beta * count * (r.stop - r0)].reshape(beta, -1)
        cols.reshape(beta, count, -1)[...] = block[:, None, r]
        scale32 = scale[:, r].ravel()
        scale64 = scale32.astype(np.float64)
        zero8 = np.tile(zero[r], count)
        zero64 = zero8.astype(np.float64)
        q = np.empty(cols.shape, dtype=np.uint8)
        for b0 in range(0, beta, _BATCH):
            b1 = min(b0 + _BATCH, beta)
            for j in range(b0, b1):
                if j > b0:
                    dgemv(-1.0, cols[b0:j].T, u[b0:j, j], beta=1.0, y=cols[j], overwrite_y=1)
                q[j] = encode(cols[j], scale64, zero64, bit_width, binary)
                cols[j] -= decode(q[j], scale32, zero8, binary)
                cols[j] /= diag[j]
            if b1 < beta:
                # cols[b1:] -= u[b0:b1, b1:]^T times the batch's errors, as
                # the Fortran-ordered transposes of both sides
                dgemm(-1.0, cols[b0:b1].T, u[b0:b1, b1:], beta=1.0, c=cols[b1:].T, overwrite_c=1)
        np.square(cols, out=cols)
        loss[:, r] = cols.sum(axis=0).reshape(count, -1)
        codes[:, r] = q.reshape(beta, count, -1).transpose(1, 2, 0)
    return codes, loss
