"""Reference compute path over packed models.

packed_matmul keeps the affine map out of the weight decode. It walks the
groups left to right; each group's codes become their signed integer
levels in int8 (code - zero, or 2 code - 1 in the sign/magnitude form),
the activations multiply those levels in float32, and the row scales are
applied to the product, which is then added into the output. The same
form runs at every token count. dense_reference is the deliberately
boring oracle: dequantize everything, one dense multiply. Both paths
accept mixed and uniform bit widths identically.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeMismatch
from .packfmt import PackedModel
from .quant_core import dequantize, int_levels


def _check_input(pm: PackedModel, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float32)
    if x.ndim != 2 or x.shape[1] != pm.m:
        raise ShapeMismatch(f"input {x.shape} does not match {pm.m} channels")
    return x


def packed_matmul(pm: PackedModel, x: np.ndarray) -> np.ndarray:
    """x @ W^T for the model's decoded weights W, accumulated group by
    group in float32 as (x_g @ L_g^T) * scale_g, with L_g the group's
    integer levels. A group whose codes all sit at their zero-points adds
    exactly 0."""
    x = _check_input(pm, x)
    out = np.zeros((x.shape[0], pm.n), dtype=np.float32)
    for g, qb in enumerate(pm.blocks):
        y = x[:, g * pm.beta : (g + 1) * pm.beta] @ int_levels(qb).astype(np.float32).T
        y *= qb.params.scale
        out += y
    return out


def dense_reference(pm: PackedModel, x: np.ndarray) -> np.ndarray:
    """Fully dequantize, then one dense float32 multiply."""
    x = _check_input(pm, x)
    if pm.k == 0:
        return np.zeros((x.shape[0], pm.n), dtype=np.float32)
    w = np.concatenate([dequantize(pm.group_block(g)) for g in range(pm.k)], axis=1)
    return x @ w.T


def matmul_tolerance(pm: PackedModel, x: np.ndarray) -> float:
    """Budget for |packed_matmul - dense_reference|: 1e-4 * m * |x|inf * |w|inf.

    Error model, with u = 2^-24 the float32 unit roundoff, gamma_j =
    j u / (1 - j u), and w = L * scale the exact decoded weights.
    packed_matmul makes a beta-term dot product per group, rounds once
    when it applies the scale, and adds the k group results: its error is
    at most gamma_(beta + k) * sum_j |x_j| |w_j|. dense_reference rounds
    each weight to float32 once and makes one m-term dot product: at most
    gamma_(m + 1) * sum_j |x_j| |w_j|. Both hold for any summation order
    the BLAS picks. With sum_j |x_j| |w_j| <= m |x|inf |w|inf the two
    differ by at most (gamma_(m + 1) + gamma_(beta + k)) * m |x|inf |w|inf,
    which the budget covers while m + 1 + beta + k <= 1677 (1e-4 / u):
    for example beta = 128 with k up to 12 groups (m = 1536), or beta =
    32 with k up to 49. Larger layers rest on rounding errors of mixed
    sign, which grow like the square root of the term count: on a
    1024 x 4096 layer (beta = 128, k = 32) the observed gap is 1e-5 to
    2e-5 of the budget at 1 to 256 tokens.
    """
    x = _check_input(pm, x)
    w_inf = max(
        (float(np.abs(dequantize(pm.group_block(g))).max(initial=0.0)) for g in range(pm.k)),
        default=0.0,
    )
    x_inf = float(np.abs(x).max(initial=0.0))
    return 1e-4 * x_inf * w_inf * pm.m
