"""Uniform affine group quantizer and sign binarizer.

Groups of 2 to 4 bits use the per-row affine map

    code = clamp(round(w / scale) + zero, 0, 2^N - 1)
    w'   = (code - zero) * scale

with one (scale, zero) pair per output row inside an n x beta block.
Rounding is round-half-to-even everywhere, so results are platform-stable.
1-bit groups use the sign/magnitude form instead: code = (w >= 0) and
w' = alpha * (2 code - 1), with alpha the block's mean absolute value.
encode and decode are the only place either rule is written out: whole
blocks and the error compensation's single columns both go through them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InconsistentPlan, InvalidConfig, ShapeMismatch

# Smallest usable row range. Rows whose extended range collapses to zero
# (all-zero rows) get this floor so the affine map stays well defined.
RANGE_FLOOR = 2.0 ** -20


def _max_code(bit_width: int) -> int:
    if not 1 <= bit_width <= 4:
        raise InvalidConfig(f"bit width must be in [1, 4], got {bit_width}")
    return (1 << bit_width) - 1


@dataclass(frozen=True)
class GroupQuantParams:
    """Per-row affine parameters for one block.

    binary marks sign/magnitude blocks: codes {0,1} decode to scale*(2c - 1)
    instead of the affine map. Only 1-bit blocks can be binary.
    """

    bit_width: int
    scale: np.ndarray  # (n,) float32, > 0
    zero: np.ndarray  # (n,) uint8, in [0, 2^N - 1]
    binary: bool = False

    def __post_init__(self) -> None:
        _max_code(self.bit_width)
        if self.scale.shape != self.zero.shape:
            raise ShapeMismatch(
                f"scale shape {self.scale.shape} != zero shape {self.zero.shape}"
            )
        if self.binary and self.bit_width != 1:
            raise InconsistentPlan(
                f"sign/magnitude form is only defined at 1 bit, not {self.bit_width}"
            )


@dataclass(frozen=True)
class QuantizedBlock:
    codes: np.ndarray  # (n, width) uint8, in [0, 2^N - 1]
    params: GroupQuantParams


def as_block(block: np.ndarray) -> np.ndarray:
    """block as float64, checked to be 2-D and non-empty (ShapeMismatch):
    every quantizer, at every width, takes its input through here."""
    b = np.asarray(block, dtype=np.float64)
    if b.ndim != 2 or b.size == 0:
        raise ShapeMismatch(f"block must be 2-D and non-empty, got shape {b.shape}")
    return b


def _row_range(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row (lo, hi) extended to include zero.

    Extending the range to cover 0 keeps the derived zero-point inside
    [0, 2^N - 1] (required for packing) and makes constant rows exactly
    representable at a grid endpoint.
    """
    b = np.asarray(block, dtype=np.float64)
    lo = np.minimum(b.min(axis=1), 0.0)
    hi = np.maximum(b.max(axis=1), 0.0)
    return lo, hi


def params_from_range(
    lo: np.ndarray, hi: np.ndarray, bit_width: int, gamma: float = 1.0
) -> GroupQuantParams:
    """Affine params for per-row ranges [lo, hi], optionally shrunk/grown by gamma."""
    scale, zero = affine_params(lo, hi, bit_width, gamma)
    return GroupQuantParams(bit_width=bit_width, scale=scale, zero=zero)


def affine_params(
    lo: np.ndarray, hi: np.ndarray, bit_width: int, gamma: float | np.ndarray = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """Float32 scales and uint8 zero-points for ranges [lo, hi] scaled by
    gamma. Elementwise, so a column of gammas against rows of lo/hi gives
    one row of parameters per gamma, each exactly what params_from_range
    returns for that gamma alone."""
    maxq = _max_code(bit_width)
    span = (hi - lo) * gamma
    degenerate = span == 0.0
    span = np.where(degenerate, np.maximum(np.abs(hi), 1.0) * RANGE_FLOOR, span)
    scale = (span / maxq).astype(np.float32)
    # float32 underflow guard for subnormal spans
    scale = np.where(scale > 0.0, scale, np.float32(RANGE_FLOOR / maxq))
    zero = -np.rint(gamma * lo / scale.astype(np.float64))
    zero = np.where(degenerate, 0.0, zero)
    zero = np.clip(zero, 0, maxq).astype(np.uint8)
    return scale, zero


def derive_params(block: np.ndarray, bit_width: int) -> GroupQuantParams:
    """Per-row min/max params; at 1 bit sign/magnitude params, because the
    zero-inclusive affine grid's two levels are 0 and the whole row range
    on one side of it: [-1, 0.1, 0.2, 2] would decode to [0, 0, 0, 3]."""
    block = as_block(block)
    if bit_width == 1:
        n, alpha = block.shape[0], np.float32(np.abs(block).mean())
        return GroupQuantParams(1, np.full(n, alpha), np.zeros(n, dtype=np.uint8), binary=True)
    lo, hi = _row_range(block)
    return params_from_range(lo, hi, bit_width)


def quantize_uniform(
    block: np.ndarray, bit_width: int, params: GroupQuantParams | None = None
) -> QuantizedBlock:
    """Quantize an n x beta block at bit_width bits, deriving its params
    (derive_params) unless explicit ones are supplied; the codes come from
    encode."""
    b = as_block(block)
    if params is None:
        params = derive_params(b, bit_width)
    elif params.bit_width != bit_width:
        raise ShapeMismatch(
            f"params are {params.bit_width}-bit, requested {bit_width}-bit"
        )
    scale = params.scale.astype(np.float64)[:, None]
    zero = params.zero.astype(np.float64)[:, None]
    codes = encode(b, scale, zero, bit_width, params.binary)
    return QuantizedBlock(codes=codes, params=params)


def encode(
    w: np.ndarray, scale: np.ndarray, zero: np.ndarray, bit_width: int, binary: bool
) -> np.ndarray:
    """uint8 codes of float64 values under float64 scales and zero-points
    that broadcast against them: the sign rule, code = (w >= 0), under
    binary params, else clamp(round(w / scale) + zero, 0, 2^N - 1). The one
    quantizer rule, for a whole block or for a single column."""
    if binary:
        return (w >= 0.0).astype(np.uint8)
    return np.clip(np.rint(w / scale) + zero, 0, _max_code(bit_width)).astype(np.uint8)


def _levels(codes: np.ndarray, zero: np.ndarray, binary: bool) -> np.ndarray:
    """Integer levels of codes, int8 in their layout: code - zero, or
    2 code - 1 in the sign/magnitude form. Exact, because codes and
    zero-points are at most 15."""
    if binary:
        levels = np.multiply(codes, 2, dtype=np.int8, casting="unsafe")
        levels -= 1
        return levels
    return np.subtract(codes, zero, dtype=np.int8, casting="unsafe")


def decode(codes: np.ndarray, scale: np.ndarray, zero: np.ndarray, binary: bool) -> np.ndarray:
    """float32 decode of codes: their integer levels times float32 scales
    that broadcast against them, in one float32 buffer."""
    w = _levels(codes, zero, binary).astype(np.float32)
    w *= scale
    return w


def int_levels(qb: QuantizedBlock) -> np.ndarray:
    """The block's integer levels (_levels), one zero-point per row."""
    return _levels(qb.codes, qb.params.zero[:, None], qb.params.binary)


def dequantize(qb: QuantizedBlock) -> np.ndarray:
    """Decode a block back to float32 (decode), one scale per row."""
    p = qb.params
    return decode(qb.codes, p.scale.astype(np.float32)[:, None], p.zero[:, None], p.binary)


def binarize_block(block: np.ndarray) -> QuantizedBlock:
    """1-bit sign/magnitude form of a block: what quantize_uniform(block, 1)
    returns."""
    return quantize_uniform(block, 1)


def block_mse(a: np.ndarray, b: np.ndarray) -> float:
    """Sum of squared element differences, in float64; squared in place in
    the one difference array."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        raise ShapeMismatch(f"shape {a.shape} vs {b.shape}")
    d = np.subtract(a, b, dtype=np.float64)
    np.square(d, out=d)
    return float(d.sum())
