"""Reference compute path over packed models.

packed_matmul has two forms and picks one from the batch's token count t
alone. Below beta tokens its scale-after form keeps the affine map out of
the weight decode: per group, left to right, the codes become their
signed integer levels in int8 (code - zero, or 2 code - 1 at 1 bit, the
sign/magnitude form), the activations multiply those levels in float32,
and the row scales are applied to the product, which is then added into
the output. From beta tokens on its decode form decodes runs of
consecutive groups into one reused float32 buffer through
quant_core.decode and adds one product per run. Per group, the
scale-after form makes two extra passes over the t x n product (the scale
and the addition), where the decode form makes one extra pass over the
n x beta weights (the scale), so the decode form gains as t grows past
about beta / 2. On a 1024 x 4096 layer in groups of 128 (2 vCPUs,
OpenBLAS) a call takes 1.1 ms in the scale-after form against 2.8 ms in
the decode form at 1 token and 2.9 against 3.5 ms at 8; the forms tie at
about 32 tokens (4.5 against 4.1 ms), and at beta = 128 tokens the decode
form is about 1.4x faster (6.8 against 9.3 ms) and at 256 about 1.6x
(10.0 against 16.2 ms). One row's output falls into three bit classes
by the batch's token count t: t = 1, 2 <= t < beta and t >= beta (row 0
of a 1024 x 4096 layer in groups of 128, widths 1/2/3/2, over t = 1 to
256; within a class its bits are equal). The t = 1 class is likely the
BLAS taking a one-row product through its matrix-vector routine, which
sums in another order; that is not proven. Every class stays within
matmul_tolerance of the oracle. dense_reference is the
deliberately boring oracle: dequantize everything, one dense multiply.
Every path accepts mixed and uniform bit widths identically.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ShapeMismatch, require_real
from .packfmt import PackedModel
from .quant_core import decode, dequantize, int_levels

# Float32 elements of the decode buffer (4 MiB): 8 groups of 1024 x 128.
# On a 1024 x 4096 layer at 64 to 256 tokens (2 vCPUs, OpenBLAS) buffers
# of 4, 8 and 16 such groups timed within noise of each other; runs of 2
# groups were 12-30% slower.
_CHUNK_ELEMENTS = 1 << 20


def _check_input(pm: PackedModel, x: np.ndarray) -> np.ndarray:
    """x as float32, refused unless it holds real numbers in rows of the
    model's m channels."""
    x = np.asarray(x)
    require_real(x, "input")
    x = np.asarray(x, dtype=np.float32)
    if x.ndim != 2 or x.shape[1] != pm.m:
        raise ShapeMismatch(f"input {x.shape} does not match {pm.m} channels")
    return x


def packed_matmul(pm: PackedModel, x: np.ndarray) -> np.ndarray:
    """x @ W^T for the model's decoded weights W, accumulated in float32:
    in chunks of decoded groups from beta tokens on, below that group by
    group as (x_g @ L_g^T) * scale_g, with L_g the group's integer levels.
    A group of 2 to 4 bits whose codes all sit at their zero-points adds
    exactly 0; a 1-bit group has no zero level, its codes decode to
    +-scale."""
    x = _check_input(pm, x)
    out = np.zeros((x.shape[0], pm.n), dtype=np.float32)
    if x.shape[0] >= pm.beta:
        _decode_chunks(pm, x, out)
    else:
        _scale_after(pm, x, out)
    return out


def _scale_after(pm: PackedModel, x: np.ndarray, out: np.ndarray) -> None:
    for g, qb in enumerate(pm.blocks):
        y = x[:, g * pm.beta : (g + 1) * pm.beta] @ int_levels(qb).astype(np.float32).T
        y *= qb.params.scale
        out += y


def _decode_chunks(pm: PackedModel, x: np.ndarray, out: np.ndarray) -> None:
    """Decode runs of consecutive groups into one reused Fortran-order
    buffer, where each group is a contiguous slice of columns, and add one
    product per run into out."""
    per_chunk = max(1, _CHUNK_ELEMENTS // max(1, pm.n * pm.beta))
    buf = np.empty((pm.n, min(per_chunk, pm.k) * pm.beta), dtype=np.float32, order="F")
    for g0 in range(0, pm.k, per_chunk):
        run = pm.blocks[g0 : g0 + per_chunk]
        for j, qb in enumerate(run):
            p = qb.params
            cols = buf[:, j * pm.beta : (j + 1) * pm.beta]
            decode(qb.codes, p.scale[:, None], p.zero[:, None], p.bit_width, out=cols)
        width = len(run) * pm.beta
        out += x[:, g0 * pm.beta : g0 * pm.beta + width] @ buf[:, :width].T


def dense_reference(pm: PackedModel, x: np.ndarray) -> np.ndarray:
    """Fully dequantize, then one dense float32 multiply."""
    x = _check_input(pm, x)
    if pm.k == 0:
        return np.zeros((x.shape[0], pm.n), dtype=np.float32)
    w = np.concatenate([dequantize(pm.group_block(g)) for g in range(pm.k)], axis=1)
    return x @ w.T


def matmul_tolerance(pm: PackedModel, x: np.ndarray) -> float:
    """Worst-case bound on |packed_matmul - dense_reference| at every shape
    and in either form: 2 gamma_(m+1) max_i S_i + m 2^-148, evaluated in
    float64 and raised by a factor 1 + (m + 4) 2^-51.

    Error model: u = 2^-24 the float32 unit roundoff, gamma_j = j u /
    (1 - j u), W = L * scale the exact decoded weights and S_i =
    sum_j |x_j| |W_ij|, the entries of |x| @ |W|^T. Every float32 operation
    is exact times (1 + d), |d| <= u, under any summation order the BLAS
    picks, so a term that passes through r roundings is off by at most
    gamma_r of itself.

    * dense_reference rounds each weight once in its decode, then makes an
      m-term dot product: a term passes through at most 1 + 1 + (m - 1)
      roundings, so the output is within gamma_(m+1) S_i of x W^T.
    * The decode form, at beta tokens and above, makes the same decode, a
      C-column product per chunk and K - 1 additions of chunk products
      into the output: at most 2 + (C - 1) + (K - 1) roundings, which is
      at most m + 1 since the other chunks hold at least one column each.
    * The scale-after form, below beta tokens, makes a beta-term product of
      exact integer levels, one rounding for the scale and k - 1 additions
      of group products: at most beta + k roundings, and beta + k <= m + 1
      because m + 1 - beta - k = (k - 1)(beta - 1) >= 0.

    So either form and the oracle each lie within gamma_(m+1) S_i of x W^T,
    and within 2 gamma_(m+1) S_i of each other. Below the normal range a
    product may also be off by up to 2^-150 absolute. The decode L * scale
    and the product x * L never are: L is 0 or an integer with |L| >= 1,
    so a product of it that lands below the normal range is a multiple of
    the smallest subnormal and exact. Each output then takes at most m such
    errors (m products x_j w_j, or k products by the scale) in each path;
    later roundings at most double them while (m + 1) u <= 1/2, which gives
    the m 2^-148 term. Beyond that size the bound is infinite. S_i is
    summed in float64 from exact terms (L * scale has at most 28
    significant bits), all non-negative, with at most m + 4 roundings of
    2^-53 from there to the returned value, which the final factor covers.
    An output that overflows to inf or NaN fails any finite bound.
    """
    x = _check_input(pm, x)
    if (pm.m + 1) * 2.0**-24 > 0.5:
        return math.inf
    s = np.zeros((x.shape[0], pm.n))
    for g, qb in enumerate(pm.blocks):
        w_abs = np.abs(int_levels(qb)) * qb.params.scale.astype(np.float64)[:, None]
        s += np.abs(x[:, g * pm.beta : (g + 1) * pm.beta], dtype=np.float64) @ w_abs.T
    gamma = (pm.m + 1) * 2.0**-24 / (1.0 - (pm.m + 1) * 2.0**-24)
    bound = 2.0 * gamma * float(s.max(initial=0.0)) + pm.m * 2.0**-148
    return bound * (1.0 + (pm.m + 4) * 2.0**-51)
