"""Mixed-precision bit allocation across column groups.

Groups are ranked by mean salience. For a target width N, the search
evaluates every pairing count p in [0, k/2]: the p least salient groups
drop to N-1 bits, the p most salient rise to N+1 bits, and the output
divergence of the resulting fake-quantized layer is measured. Paired
promotion/demotion keeps the average width at exactly N bits.

The search is sequential: neighbouring candidates differ in a few groups,
so each evaluation updates the previous candidate's layer output instead
of recomputing it, and costs one softmax plus a few thin matmuls, each
accumulated into the running output in place. Layer outputs are formed
one token block at a time (at most _TOKEN_OUTPUTS of them): the search
runs every candidate on one block of token rows, keeping each row's
divergence, before it forms the next block, and a whole-layer score does
the same. The reference distribution is thus the only output-sized array
either holds. Every divergence is taken against a KlReference, the exact
layer's side, which kl_reference builds from the raw token rows: it
checks them, takes at most KlConfig.max_tokens of them at a uniform stride,
and keeps them in the dtype they came in. The reference carries the
KlConfig every score against it uses.

Every product with the token rows (the exact outputs, each block's first
candidate and a whole-layer score) goes through _outputs, which widens
the rows and the weights to float64 a block at a time into reused
C-ordered buffers. No float64 copy of all the rows or of the whole layer
is made, and no score depends on the weights' memory layout.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg.blas

from .errors import BadGroupSize, InsufficientCalibration, InvalidConfig, ShapeMismatch
from .quant_core import QuantizedBlock, dequantize, quantize_uniform
from .quant_core import binarize_block  # noqa: F401  (kept importable: the benchmark tracer wraps it here)
from .salience import SalienceMap

# Elements per row block of the divergence scoring (512 KiB of float64),
# as in sqc's slices: the block and its buffer stay in cache.
_BLOCK_ELEMENTS = 65536

# Elements of each float64 buffer _outputs widens token rows or weight
# rows into (8 MiB): 256 rows at 4096 channels, 1024 at 1024. A block of
# either makes 2^20 multiply-adds with each row of the other, more than
# the about 1e6 up to which OpenBLAS takes a product to a kernel that sums
# in another order than the whole product's.
_PRODUCT_ELEMENTS = 1 << 20

# Fewest weight rows per block of a product, so BLAS calls stay large.
_WEIGHT_ROWS = 1024

# Outputs per token block (32 MiB of float64) of the width search and of
# a whole-layer score, which form and score one block of layer outputs at
# a time: 2048 x 1024 outputs are one block, 2048 x 4096 two of 1024 rows.
# Blocks stay this large because a width update's dgemm costs nearly as
# much on 64 token rows as on 2048 (1024 x 128 weights, 2 BLAS threads).
_TOKEN_OUTPUTS = 1 << 22


@dataclass(frozen=True)
class KlConfig:
    """Knobs for turning raw layer outputs into distributions."""

    temperature: float = 1.0
    epsilon: float = 1e-8
    max_tokens: int = 4096  # token rows used by the search, uniform stride

    def __post_init__(self) -> None:
        if not (self.temperature > 0.0 and math.isfinite(self.temperature)):
            raise InvalidConfig(f"temperature must be finite and > 0, got {self.temperature}")
        if not 0.0 < self.epsilon <= 1e-3:
            raise InvalidConfig(f"epsilon must be in (0, 1e-3], got {self.epsilon}")
        if self.max_tokens < 1:
            raise InvalidConfig(f"max_tokens must be >= 1, got {self.max_tokens}")


@dataclass(frozen=True, eq=False)  # compared by identity: == on arrays is ambiguous
class BitPlan:
    bits: np.ndarray  # (k,) int, entries in {N-1, N, N+1}
    p_star: int
    kl_curve: np.ndarray  # (floor(k/2)+1,) float64, empty for a uniform plan

    @property
    def evaluations(self) -> int:  # candidates scored, one per curve point
        return len(self.kl_curve)


def stride_subsample(x: np.ndarray, max_tokens: int) -> np.ndarray:
    """At most max_tokens rows of x, taken at a uniform stride: x itself
    if it has no more, else a compact copy, which does not keep x alive."""
    t = x.shape[0]
    if t <= max_tokens:
        return x
    stride = math.ceil(t / max_tokens)
    return x[::stride].copy()


@dataclass(frozen=True, eq=False)  # compared by identity: == on arrays is ambiguous
class KlReference:
    """The exact layer's side of an output divergence: the token rows, the
    softmax distribution of the exact outputs over them, and the KlConfig
    that distribution was taken under, which every score against it uses.
    The rows are kept in the dtype they came in; every product widens them
    to float64 a row block at a time (_outputs). The log of p is not
    stored; each score takes it block by block. Built once per layer by
    kl_reference, it serves the width search and the final score."""

    xs: np.ndarray  # (t, m) token rows, at most cfg.max_tokens
    p: np.ndarray  # (t, n) float64
    cfg: KlConfig


def kl_reference(x: np.ndarray, w: np.ndarray, cfg: KlConfig) -> KlReference:
    """Distributions under cfg of the exact outputs xs @ wT, where xs is at
    most cfg.max_tokens of x's token rows at a uniform stride
    (stride_subsample). The one check of a divergence's inputs: w must be
    2-D with at least one row (ShapeMismatch), x 2-D over w's channels
    (ShapeMismatch) with at least one row (InsufficientCalibration). The
    rows are not converted: unstrided rows are x itself, strided ones a
    compact copy."""
    x, w = np.asarray(x), np.asarray(w)
    if w.ndim != 2 or w.shape[0] == 0:
        raise ShapeMismatch(f"weights must be 2-D with at least one row, got shape {w.shape}")
    if x.ndim != 2 or x.shape[1] != w.shape[1]:
        raise ShapeMismatch(f"activations {x.shape} do not match weights {w.shape}")
    if x.shape[0] == 0:
        raise InsufficientCalibration("no token rows to compare outputs on")
    xs = stride_subsample(x, cfg.max_tokens)
    p = _outputs(xs, w)
    _row_distributions(p, cfg)
    return KlReference(xs=xs, p=p, cfg=cfg)


def _spans(total: int, size: int, align: int = 1) -> list[tuple[int, int]]:
    """[0, total) cut into ceil(total / size) runs of nearly equal length,
    every cut at a multiple of align, which must not exceed size: no run
    is longer than size rounded up to a multiple of align. With size >= 4
    no run is a single row unless total is 1."""
    units, count = -(-total // align), -(-total // size)
    cuts = [align * (units * i // count) for i in range(count)] + [total]
    return list(zip(cuts, cuts[1:]))


def _outputs(xs: np.ndarray, w, out: np.ndarray | None = None) -> np.ndarray:
    """xs @ wT in float64, (t, n), for token rows xs (t, m) of any real
    dtype and weights w of any real dtype and memory layout: an (n, m)
    array, or a list of column blocks (n, m_g) that make one. Written into
    out, a C-ordered (t, n) float64 array, if one is given.

    Both sides are widened into reused C-ordered float64 buffers: the
    weights a block of whole rows at a time (at least _WEIGHT_ROWS rows),
    the token rows a block of about _PRODUCT_ELEMENTS elements at a time
    (at least 4 rows; no block is a single row, which numpy takes to
    another routine). Weight blocks are cut at multiples of 8 rows, so
    that a ragged edge, which OpenBLAS sums in another kernel, falls where
    the whole product's does. Each pair's product is written straight into
    its part of the result. Every product thus sees C-ordered float64
    weights whatever w's layout, so no score depends on it.

    The result equals one product of all rows and all weights widened at
    once, C-ordered, to the bit, when n is a multiple of 8 or both sides
    are one block. Measured on OpenBLAS 0.3.31 (AVX-512) over random
    shapes with m from 512 to 2048, 320 on 2 BLAS threads and 120 on 1:
    every shape with n a multiple of 8 (274) and every single-block shape
    was equal. Where n is not a multiple of 8, more than a third of the
    products over several blocks differed in the low bits of some outputs,
    as a whole product's outputs can between BLAS thread counts."""
    parts = w if isinstance(w, list) else [np.asarray(w)]
    t, m = xs.shape
    n = parts[0].shape[0]
    y = np.empty((t, n)) if out is None else out
    w_spans = _spans(n, max(_WEIGHT_ROWS, _PRODUCT_ELEMENTS // m), align=8)
    x_spans = _spans(t, max(4, _PRODUCT_ELEMENTS // m))
    w_buf = np.empty((max(b - a for a, b in w_spans), m))
    x_buf = np.empty((max(b - a for a, b in x_spans), m))
    widened = None  # the token rows x_buf holds
    for c0, c1 in w_spans:
        wb = w_buf[: c1 - c0]
        col = 0
        for part in parts:
            np.copyto(wb[:, col : col + part.shape[1]], part[c0:c1])
            col += part.shape[1]
        for r0, r1 in x_spans:
            xb = x_buf[: r1 - r0]
            if widened != (r0, r1):
                np.copyto(xb, xs[r0:r1])
                widened = (r0, r1)
            np.matmul(xb, wb.T, out=y[r0:r1, c0:c1])
    return y


def _token_blocks(ref: KlReference):
    """(r0, r1, y) for each block of ref's token rows [r0, r1) with at most
    about _TOKEN_OUTPUTS outputs (at least 4 rows), where y is a (r1 - r0,
    n) view of one float64 buffer reused by every block."""
    t, n = ref.p.shape
    spans = _spans(t, max(4, _TOKEN_OUTPUTS // n))
    buf = np.empty((max(b - a for a, b in spans), n))
    for r0, r1 in spans:
        yield r0, r1, buf[: r1 - r0]


def _check_weights(ref: KlReference, w: np.ndarray) -> None:
    """ShapeMismatch unless w has the shape of the weights ref was built from."""
    want = (ref.p.shape[1], ref.xs.shape[1])
    if np.shape(w) != want:
        raise ShapeMismatch(f"weights {np.shape(w)} do not match the reference's {want}")


def _row_distributions(y: np.ndarray, cfg: KlConfig, out: np.ndarray | None = None) -> None:
    """Write each row's tempered softmax of y, floored at cfg.epsilon and
    renormalized, into out, which defaults to y itself."""
    q = y if out is None else out
    np.divide(y, cfg.temperature, out=q)
    q -= q.max(axis=1, keepdims=True)
    np.exp(q, out=q)
    q /= q.sum(axis=1, keepdims=True)
    np.maximum(q, cfg.epsilon, out=q)
    q /= q.sum(axis=1, keepdims=True)


def _row_kl(ref: KlReference, r0: int, y: np.ndarray, out: np.ndarray) -> None:
    """Write KL(ref.p[r0 + i] || softmax of y[i]) under ref.cfg into out[i]
    for every row i of y; y is not written.

    The rows are taken in blocks of about _BLOCK_ELEMENTS elements through
    two reused buffers, one for the block of y's distributions and one for
    the log of ref.p's block. Every max and sum still runs over one whole
    contiguous row, and the log is elementwise, so each row's divergence is
    the same to the bit however the rows are blocked."""
    t, n = y.shape
    rows = max(1, _BLOCK_ELEMENTS // n)
    buf = np.empty((min(rows, t), n))
    log_buf = np.empty_like(buf)
    for a in range(0, t, rows):
        b = min(a + rows, t)
        q, log_p, p = buf[: b - a], log_buf[: b - a], ref.p[r0 + a : r0 + b]
        _row_distributions(y[a:b], ref.cfg, out=q)
        np.log(q, out=q)
        np.log(p, out=log_p)
        np.subtract(log_p, q, out=q)
        q *= p
        q.sum(axis=1, out=out[a:b])


def output_kl(ref: KlReference, w_hat: np.ndarray) -> float:
    """Mean over ref's token rows of KL(P || Q), where P is ref's
    distribution of the exact outputs and Q the softmax of the outputs of
    w_hat, under ref.cfg. w_hat must have the shape of the weights ref was
    built from (ShapeMismatch). The outputs are formed and scored one
    token block at a time (_token_blocks), so p is the only (t, n) array
    the score holds."""
    _check_weights(ref, w_hat)
    row_kl = np.empty(ref.p.shape[0])
    for r0, r1, y in _token_blocks(ref):
        _row_kl(ref, r0, _outputs(ref.xs[r0:r1], w_hat, out=y), row_kl[r0:r1])
    return float(row_kl.mean())


def _ranked_sets(group_mean: np.ndarray, p: int) -> tuple[list[int], list[int]]:
    """Indices of the p least and p most salient groups, disjoint, ties
    resolved toward lower group index."""
    asc = sorted(range(len(group_mean)), key=lambda g: (group_mean[g], g))
    return asc[:p], sorted(asc[p:], key=lambda g: (-group_mean[g], g))[:p]


def allocate_bits(
    w: np.ndarray,
    x: np.ndarray,
    sal: SalienceMap,
    beta: int,
    target_bits: int,
    cfg: KlConfig,
    *,
    ref: KlReference | None = None,
) -> BitPlan:
    """Search all pairing counts p and return the divergence-minimizing plan.

    Divergences are measured against kl_reference of x's float32-rounded
    token rows, which checks w and x and keeps at most cfg.max_tokens rows
    at a uniform stride. A ref given must be that reference (x is then not
    read): one built under another config is rejected (InvalidConfig), as
    is one of another weight shape (ShapeMismatch).

    Fake quantization here is quantize_uniform at each group's width:
    per-row min/max, or sign/magnitude at 1 bit. Range calibration and
    error compensation happen later in the pipeline and deliberately do not
    influence the allocation.

    The quantized output Y = xs @ W_hat^T is formed one token block at a
    time (_token_blocks). A block's Y is built for p = 0 and then updated
    in place: from one candidate to the next only the groups whose width
    changed contribute xs[:, g] @ (new_g - old_g)^T, which one dgemm adds
    straight into Y. Each candidate's divergence of every row of the block
    is kept, and the curve is the mean over all rows; no row's score
    depends on how the rows are blocked. The curve matches a full
    recompute per candidate up to float rounding (the summation order
    differs), not bit for bit. While beta fits the BLAS library's K block,
    the accumulating dgemm rounds as a separate product followed by an add
    does, to the bit; past it, the library adds partial sums into Y and
    the low bits move. On more than one BLAS thread the two forms can also
    split the work differently at some shapes, and a few elements then
    differ in their last bit.
    """
    w = np.asarray(w, dtype=np.float32)
    if target_bits not in (2, 3):
        raise InvalidConfig(f"target width must be 2 or 3 bits, got {target_bits}")
    if ref is None:
        ref = kl_reference(np.asarray(x, dtype=np.float32), w, cfg)
    elif ref.cfg != cfg:
        raise InvalidConfig(f"reference was built under {ref.cfg}, allocation asks for {cfg}")
    _check_weights(ref, w)
    m = w.shape[1]
    if beta < 1 or m % beta != 0:
        raise BadGroupSize(f"group size {beta} does not divide {m} channels")
    k = m // beta
    if sal.group_mean.shape[0] != k:
        raise ShapeMismatch(f"salience has {sal.group_mean.shape[0]} groups, expected {k}")
    xs = ref.xs

    # float32 decodes, widened to float64 where they are used. They are
    # decoded from Fortran-ordered codes, so the difference of two is the
    # Fortran-ordered operand dgemm takes without a transposing copy
    @functools.cache
    def fake_block(g: int, bits: int) -> np.ndarray:
        qb = quantize_uniform(w[:, g * beta : (g + 1) * beta], bits)
        return dequantize(QuantizedBlock(np.asfortranarray(qb.codes), qb.params))

    candidates = []
    for p in range(k // 2 + 1):
        low, high = _ranked_sets(sal.group_mean, p)
        bits = np.full(k, target_bits, dtype=np.int64)
        bits[low] = target_bits - 1
        bits[high] = target_bits + 1
        candidates.append(bits)

    first = [fake_block(g, int(b)) for g, b in enumerate(candidates[0])]
    row_kl = np.empty((len(candidates), xs.shape[0]))
    for r0, r1, y in _token_blocks(ref):
        rows = xs[r0:r1]
        # the block's first candidate, widened from the cached decodes a
        # block of weight rows at a time
        _outputs(rows, first, out=y)
        prev = candidates[0]
        for p, bits in enumerate(candidates):
            for g in map(int, np.flatnonzero(bits != prev)):
                delta = np.subtract(
                    fake_block(g, int(bits[g])), fake_block(g, int(prev[g])), dtype=np.float64
                )
                # yT += delta @ group_rowsT in yT's own Fortran-ordered
                # buffer; the wrapper copies the transposed slice, widened
                # to float64, without transposing it
                group_rows = rows[:, g * beta : (g + 1) * beta]
                scipy.linalg.blas.dgemm(1.0, delta, group_rows.T, beta=1.0, c=y.T, overwrite_c=1)
            _row_kl(ref, r0, y, row_kl[p, r0:r1])
            prev = bits
    kl_curve = row_kl.mean(axis=1)

    p_star = int(np.argmin(kl_curve))  # first minimum: ties favor smaller p
    return BitPlan(bits=candidates[p_star], p_star=p_star, kl_curve=kl_curve)
