"""Uniform affine group quantizer and sign binarizer.

Groups of 2 to 4 bits use the per-row affine map

    code = clamp(round(w / scale) + zero, 0, 2^N - 1)
    w'   = (code - zero) * scale

with one (scale, zero) pair per output row inside an n x beta block. A
row's range [lo, hi] always includes 0; range calibration scales it by a
factor gamma, which sets scale = fl32(gamma (hi - lo) / (2^N - 1)), while
the zero-point comes from the unscaled range,

    zero = clip(-round(lo / (hi - lo) * (2^N - 1)), 0, 2^N - 1)

in float64 (0 on a row with hi = lo), so every gamma of a row shares it.
Rounding is round-half-to-even everywhere, so results are platform-stable.
1-bit groups use the sign/magnitude form instead: code = (w >= 0) and
w' = alpha * (2 code - 1), with alpha the block's mean absolute value.
encode and decode are the only place either rule is written out: whole
blocks and the error compensation's single columns both go through them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InconsistentPlan, InvalidConfig, NonFiniteValue, ShapeMismatch, require_real

# Smallest usable row range. Rows whose extended range collapses to zero
# (all-zero rows) get this floor so the affine map stays well defined.
RANGE_FLOOR = 2.0 ** -20


def _max_code(bit_width: int) -> int:
    if not 1 <= bit_width <= 4:
        raise InvalidConfig(f"bit width must be in [1, 4], got {bit_width}")
    return (1 << bit_width) - 1


@dataclass(frozen=True)
class GroupQuantParams:
    """Per-row parameters for one block: the affine map's scale and
    zero-point at 2 to 4 bits; at 1 bit the sign/magnitude form's alpha
    as the scale, its codes {0, 1} decoding to scale * (2 code - 1), and a
    zero-point that is never read (a .slmq file stores it once per row
    unless every row holds the same scale and zero-point)."""

    bit_width: int
    scale: np.ndarray  # (n,) float32, > 0
    zero: np.ndarray  # (n,) uint8, in [0, 2^N - 1]

    def __post_init__(self) -> None:
        _max_code(self.bit_width)
        if self.scale.shape != self.zero.shape:
            raise ShapeMismatch(
                f"scale shape {self.scale.shape} != zero shape {self.zero.shape}"
            )


@dataclass(frozen=True)
class QuantizedBlock:
    codes: np.ndarray  # (n, width) uint8, in [0, 2^N - 1]
    params: GroupQuantParams


def as_block(block: np.ndarray, dtype: type | None = np.float64) -> np.ndarray:
    """block, of real numbers (require_real), as float64 (or dtype; None
    keeps its own), 2-D and non-empty (ShapeMismatch): every quantizer, at
    every width, takes its input through here."""
    b = np.asarray(block)
    require_real(b, "block")
    b = np.asarray(b, dtype=dtype)
    if b.ndim != 2 or b.size == 0:
        raise ShapeMismatch(f"block must be 2-D and non-empty, got shape {b.shape}")
    return b


def _row_range(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row (lo, hi) extended to include zero.

    Extending the range to cover 0 keeps the derived zero-point inside
    [0, 2^N - 1] (required for packing) and makes constant rows exactly
    representable at a grid endpoint. NonFiniteValue if a row is not finite.
    """
    b = np.asarray(block, dtype=np.float64)
    lo = np.minimum(b.min(axis=1), 0.0)
    hi = np.maximum(b.max(axis=1), 0.0)
    if not np.isfinite([lo, hi]).all():
        raise NonFiniteValue("block holds NaN or infinity")
    return lo, hi


def params_from_range(lo: np.ndarray, hi: np.ndarray, bit_width: int) -> GroupQuantParams:
    """Affine params for per-row ranges [lo, hi], unscaled (gamma = 1)."""
    scale, zero = affine_params(lo, hi, bit_width)
    return GroupQuantParams(bit_width=bit_width, scale=scale, zero=zero)


def affine_params(
    lo: np.ndarray, hi: np.ndarray, bit_width: int, gamma: float | np.ndarray = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """Float32 scales for ranges [lo, hi] scaled by gamma, and uint8
    zero-points from the unscaled ranges, so one per range whatever gamma
    is. Elementwise, so a column of gammas against rows of lo/hi gives one
    row of scales per gamma and the one row of zero-points they share, each
    exactly what it returns for that gamma alone."""
    maxq = _max_code(bit_width)
    width = hi - lo
    degenerate = width == 0.0
    span = np.where(degenerate, np.maximum(np.abs(hi), 1.0) * RANGE_FLOOR, width * gamma)
    scale = (span / maxq).astype(np.float32)
    # float32 underflow guard for subnormal spans
    scale = np.where(scale > 0.0, scale, np.float32(RANGE_FLOOR / maxq))
    # lo / (hi - lo) first, so that it is exactly -1/2 on rows with lo = -hi
    ratio = np.divide(lo, width, out=np.zeros(np.shape(width)), where=~degenerate)
    zero = np.clip(-np.rint(ratio * maxq), 0, maxq).astype(np.uint8)
    return scale, zero


def derive_params(block: np.ndarray, bit_width: int) -> GroupQuantParams:
    """Per-row min/max params; at 1 bit sign/magnitude params, because the
    zero-inclusive affine grid's two levels are 0 and the whole row range
    on one side of it: [-1, 0.1, 0.2, 2] would decode to [0, 0, 0, 3].
    NonFiniteValue if the block is not finite."""
    block = as_block(block)
    if bit_width == 1:
        # summed in C order, so alpha's bits do not depend on the layout
        n, alpha = block.shape[0], np.abs(block, order="C").mean()
        if not np.isfinite(alpha):
            raise NonFiniteValue("block holds NaN or infinity")
        return GroupQuantParams(1, np.full(n, np.float32(alpha)), np.zeros(n, dtype=np.uint8))
    lo, hi = _row_range(block)
    return params_from_range(lo, hi, bit_width)


def quantize_uniform(block: np.ndarray, bit_width: int) -> QuantizedBlock:
    """Quantize an n x beta block at bit_width bits under its own per-row
    params (derive_params); the codes come from encode, which widens the
    values itself, so the block is not copied."""
    b = as_block(block, dtype=None)
    params = derive_params(b, bit_width)
    scale = params.scale.astype(np.float64)[:, None]
    zero = params.zero.astype(np.float64)[:, None]
    codes = encode(b, scale, zero, bit_width)
    return QuantizedBlock(codes=codes, params=params)


def encode(w: np.ndarray, scale: np.ndarray, zero: np.ndarray, bit_width: int) -> np.ndarray:
    """uint8 codes of values under float64 scales and zero-points that
    broadcast against them: the sign rule, code = (w >= 0), at 1 bit,
    else clamp(round(w / scale) + zero, 0, 2^N - 1), worked in one
    float64 buffer (float32 values are widened exactly by the divide). The
    one quantizer rule, for a whole block or for a single column."""
    if bit_width == 1:
        return (w >= 0.0).astype(np.uint8)
    q = np.empty(np.broadcast(w, scale, zero).shape)
    np.divide(w, scale, out=q)
    np.rint(q, out=q)
    q += zero
    np.clip(q, 0, _max_code(bit_width), out=q)
    return q.astype(np.uint8)


def _levels(codes: np.ndarray, zero: np.ndarray, bit_width: int) -> np.ndarray:
    """Integer levels of codes, int8 in their layout: code - zero, or
    2 code - 1 at 1 bit, the sign/magnitude form. Worked in uint8 and read
    as int8, which is exact: codes and zero-points are at most 15, and a
    difference of at most 15 either way wraps mod 256 to its two's
    complement."""
    if bit_width == 1:
        levels = np.multiply(codes, 2, dtype=np.uint8, casting="unsafe")
        levels -= 1
    else:
        levels = np.subtract(codes, zero, dtype=np.uint8, casting="unsafe")
    return levels.view(np.int8)


def decode(
    codes: np.ndarray,
    scale: np.ndarray,
    zero: np.ndarray,
    bit_width: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """float32 decode of codes: their integer levels times float32 scales
    that broadcast against them, in one float32 buffer, a new one or out
    (float32, the codes' shape, any layout), which is returned."""
    levels = _levels(codes, zero, bit_width)
    if out is None:
        out = levels.astype(np.float32)
    else:
        out[...] = levels
    out *= scale
    return out


def int_levels(qb: QuantizedBlock) -> np.ndarray:
    """The block's integer levels (_levels), one zero-point per row."""
    return _levels(qb.codes, qb.params.zero[:, None], qb.params.bit_width)


def check_group(qb: QuantizedBlock, what: str = "block") -> np.ndarray:
    """The float32 scales of qb; InconsistentPlan unless it has 2-D codes,
    a scale and zero-point per row, codes and zero-points integers in
    [0, 2^N - 1], and scales finite once rounded to float32 (pack's rule)."""
    codes, p = qb.codes, qb.params
    maxq = _max_code(p.bit_width)
    if codes.ndim != 2:
        raise InconsistentPlan(f"{what} codes have shape {codes.shape}")
    if p.scale.shape != codes.shape[:1] or p.zero.shape != codes.shape[:1]:
        raise InconsistentPlan(f"{what} params are not per-row of length {len(codes)}")
    for values in (codes, p.zero):
        if values.min(initial=0) < 0 or values.max(initial=0) > maxq:
            raise InconsistentPlan(f"{what} carries values outside [0, {maxq}]")
        if values.dtype.kind not in "biu" and not np.all(values == np.rint(values)):
            raise InconsistentPlan(f"{what} carries non-integral codes or zero-points")
    with np.errstate(over="ignore"):  # a scale past float32's range is inf, refused below
        scale = np.array(p.scale, dtype=np.float32)
    if not np.all(np.isfinite(scale)):
        raise InconsistentPlan(f"{what} has non-finite scales")
    return scale


def dequantize(qb: QuantizedBlock) -> np.ndarray:
    """Decode a block that check_group passes to float32 (decode)."""
    scale = check_group(qb)
    return decode(qb.codes, scale[:, None], qb.params.zero[:, None], qb.params.bit_width)


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
