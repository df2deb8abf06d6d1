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
checks them, takes at most MAX_TOKENS of them at a uniform stride, and
keeps them in the dtype they came in. The divergence's settings are
fixed module constants, as in the paper: the softmax of the raw outputs
(temperature 1, outputs are not divided), floored at EPSILON.

Every layer output is formed one way: zeroed, then added to by
_add_product, one accumulating dgemm per block of columns (a group in
the width search, _COLUMNS channels in a whole-layer product). The dgemm
wrapper widens each block of rows and weights into Fortran-ordered
float64, so no float64 copy of all the rows or of the whole layer is
made, and no score depends on the rows' dtype or the weights' memory
layout.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg.blas

from .errors import BadGroupSize, InvalidConfig, ShapeMismatch, require_rows
from .quant_core import QuantizedBlock, dequantize, quantize_uniform
from .quant_core import binarize_block  # noqa: F401  (kept importable: the benchmark tracer wraps it here)
from .salience import SalienceMap

# Elements per row block of the divergence scoring (512 KiB of float64):
# small enough that the block and its buffer stay in cache.
_BLOCK_ELEMENTS = 65536

# Channels per block of a whole-layer product (_outputs), the benchmark's
# group size: a block fits the BLAS library's K block, so its accumulating
# dgemm rounds as its own product plus an add does (see allocate_bits),
# and at 4096 weight rows its float64 copy is 4 MiB.
_COLUMNS = 128

# Outputs per token block (32 MiB of float64) of the width search and of
# a whole-layer score, which form and score one block of layer outputs at
# a time: 2048 x 1024 outputs are one block, 2048 x 4096 two of 1024 rows.
# Blocks stay this large because a width update's dgemm costs nearly as
# much on 64 token rows as on 2048 (1024 x 128 weights, 2 BLAS threads).
_TOKEN_OUTPUTS = 1 << 22

# Floor of every softmax probability, applied before renormalizing.
EPSILON = 1e-8

# Most token rows a divergence is taken over, at a uniform stride.
MAX_TOKENS = 4096


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
    """The exact layer's side of an output divergence: the token rows and
    the softmax distribution of the exact outputs over them. The rows are
    kept in the dtype they came in; every product widens them to float64 a
    block of columns at a time (_add_product). The log of p is not stored;
    each score takes it block by block. Built once per layer by
    kl_reference, it serves the width search and the final score."""

    xs: np.ndarray  # (t, m) token rows, at most MAX_TOKENS
    p: np.ndarray  # (t, n) float64


def kl_reference(x: np.ndarray, w: np.ndarray) -> KlReference:
    """Distributions of the exact outputs xs @ wT, where xs is at most
    MAX_TOKENS of x's token rows at a uniform stride
    (stride_subsample). w must be 2-D with at least one row
    (ShapeMismatch), and x must pass errors.require_rows over w's
    channels. The rows are not converted: unstrided rows are x itself,
    strided ones a compact copy."""
    w = np.asarray(w)
    if w.ndim != 2 or w.shape[0] == 0:
        raise ShapeMismatch(f"weights must be 2-D with at least one row, got shape {w.shape}")
    require_rows(x, w.shape[1])
    xs = stride_subsample(x, MAX_TOKENS)
    p = _outputs(xs, w)
    for a, b in _spans(len(p), max(1, _BLOCK_ELEMENTS // p.shape[1])):  # as _row_kl
        _row_distributions(p[a:b])
    return KlReference(xs=xs, p=p)


def _spans(total: int, size: int) -> list[tuple[int, int]]:
    """[0, total) cut into ceil(total / size) runs of nearly equal length,
    none longer than size. With size >= 4 no run is a single row unless
    total is 1."""
    count = -(-total // size)
    cuts = [total * i // count for i in range(count)] + [total]
    return list(zip(cuts, cuts[1:]))


def _add_product(y: np.ndarray, rows: np.ndarray, w: np.ndarray) -> None:
    """y += rows @ wT in place, for a C-ordered float64 y (t, n), token rows
    (t, m) and weights (n, m), as one accumulating dgemm on yT, y's own
    Fortran-ordered buffer. The wrapper copies each operand that is not
    Fortran-ordered float64 into one that is, so the sum depends on
    neither's dtype or memory layout."""
    scipy.linalg.blas.dgemm(1.0, w, rows.T, beta=1.0, c=y.T, overwrite_c=1)


def _outputs(xs: np.ndarray, w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """xs @ wT in float64, (t, n), for token rows xs (t, m) and weights w
    (n, m) of any real dtype and memory layout: zero plus the product of
    each block of _COLUMNS channels, added left to right (_add_product).
    Written into out, a C-ordered (t, n) float64 array, if one is given."""
    y = np.empty((xs.shape[0], w.shape[0])) if out is None else out
    y.fill(0.0)
    for c0 in range(0, xs.shape[1], _COLUMNS):
        _add_product(y, xs[:, c0 : c0 + _COLUMNS], w[:, c0 : c0 + _COLUMNS])
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


def _row_distributions(y: np.ndarray, out: np.ndarray | None = None) -> None:
    """Write each row's softmax of y, floored at EPSILON and
    renormalized, into out, which defaults to y itself. The temperature is
    1, so y is not divided by it."""
    q = y if out is None else out
    np.subtract(y, y.max(axis=1, keepdims=True), out=q)
    np.exp(q, out=q)
    q /= q.sum(axis=1, keepdims=True)
    np.maximum(q, EPSILON, out=q)
    q /= q.sum(axis=1, keepdims=True)


def _row_kl(ref: KlReference, r0: int, y: np.ndarray, out: np.ndarray) -> None:
    """Write KL(ref.p[r0 + i] || softmax of y[i]) into out[i] for every
    row i of y; y is not written.

    The rows are taken as kl_reference normalizes ref.p, in blocks of at
    most _BLOCK_ELEMENTS elements or one row, through two reused buffers:
    y's distributions and the log of ref.p's block. Every max and sum still
    runs over one whole contiguous row, and the rest is elementwise, so no
    row's divergence or distribution depends on the blocking."""
    t, n = y.shape
    spans = _spans(t, max(1, _BLOCK_ELEMENTS // n))
    buf = np.empty((max(b - a for a, b in spans), n))
    log_buf = np.empty_like(buf)
    for a, b in spans:
        q, log_p, p = buf[: b - a], log_buf[: b - a], ref.p[r0 + a : r0 + b]
        _row_distributions(y[a:b], out=q)
        np.log(q, out=q)
        np.log(p, out=log_p)
        np.subtract(log_p, q, out=q)
        q *= p
        q.sum(axis=1, out=out[a:b])


def output_kl(ref: KlReference, w_hat: np.ndarray) -> float:
    """Mean over ref's token rows of KL(P || Q), where P is ref's
    distribution of the exact outputs and Q the softmax of the outputs of
    w_hat. w_hat must have the shape of the weights ref was built from
    (ShapeMismatch). The outputs are formed and scored one token block at
    a time (_token_blocks), so p is the only (t, n) array the score
    holds."""
    _check_weights(ref, w_hat)
    row_kl = np.empty(ref.p.shape[0])
    for r0, r1, y in _token_blocks(ref):
        _row_kl(ref, r0, _outputs(ref.xs[r0:r1], np.asarray(w_hat), out=y), row_kl[r0:r1])
    return float(row_kl.mean())


def _ranked_sets(group_mean: np.ndarray, p: int) -> tuple[list[int], list[int]]:
    """Indices of the p least and p most salient groups, disjoint, ties
    resolved toward lower group index."""
    asc = sorted(range(len(group_mean)), key=lambda g: (group_mean[g], g))
    return asc[:p], sorted(asc[p:], key=lambda g: (-group_mean[g], g))[:p]


def allocate_bits(
    w: np.ndarray, ref: KlReference, sal: SalienceMap, beta: int, target_bits: int
) -> BitPlan:
    """Search all pairing counts p and return the divergence-minimizing plan.

    Divergences are measured against ref, the kl_reference of the layer's
    token rows and w, which checked both; a ref built from weights of
    another shape is rejected (ShapeMismatch).

    Fake quantization here is quantize_uniform at each group's width:
    per-row min/max, or sign/magnitude at 1 bit. Range calibration and
    error compensation happen later in the pipeline and deliberately do not
    influence the allocation.

    The quantized output Y = xs @ W_hat^T is formed one token block at a
    time (_token_blocks). A block's Y starts at zero; the first candidate
    adds every group's product xs[:, g] @ fake_gT, and from one candidate
    to the next only the groups whose width changed add xs[:, g] @ (new_g -
    old_g)^T, each by one accumulating dgemm (_add_product). Each
    candidate's divergence of every row of the block is kept, and the curve
    is the mean over all rows; no row's score depends on how the rows are
    blocked. The curve matches a full recompute per candidate up to float
    rounding (the summation order differs), not bit for bit. While beta
    fits the BLAS library's K block, the accumulating dgemm rounds as a
    separate product followed by an add does, to the bit; past it, the
    library adds partial sums into Y and the low bits move. On more than
    one BLAS thread the two forms can also split the work differently at
    some shapes, and a few elements then differ in their last bit.
    """
    w = np.asarray(w, dtype=np.float32)
    if target_bits not in (2, 3):
        raise InvalidConfig(f"target width must be 2 or 3 bits, got {target_bits}")
    _check_weights(ref, w)
    m = w.shape[1]
    if beta < 1 or m % beta != 0:
        raise BadGroupSize(f"group size {beta} does not divide {m} channels")
    k = m // beta
    if sal.group_mean.shape[0] != k:
        raise ShapeMismatch(f"salience has {sal.group_mean.shape[0]} groups, expected {k}")
    xs = ref.xs

    # float32 decodes, widened to float64 where they are used. They are
    # decoded from Fortran-ordered codes, so a decode, and the difference
    # of two, is the Fortran-ordered operand dgemm takes without a
    # transposing copy
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

    row_kl = np.empty((len(candidates), xs.shape[0]))
    for r0, r1, y in _token_blocks(ref):
        rows = xs[r0:r1]
        y.fill(0.0)
        prev = candidates[0]
        for g, b in enumerate(prev):  # the first candidate, from zero
            _add_product(y, rows[:, g * beta : (g + 1) * beta], fake_block(g, int(b)))
        for p, bits in enumerate(candidates):
            for g in map(int, np.flatnonzero(bits != prev)):
                delta = np.subtract(
                    fake_block(g, int(bits[g])), fake_block(g, int(prev[g])), dtype=np.float64
                )
                _add_product(y, rows[:, g * beta : (g + 1) * beta], delta)
            _row_kl(ref, r0, y, row_kl[p, r0:r1])
            prev = bits
    kl_curve = row_kl.mean(axis=1)

    p_star = int(np.argmin(kl_curve))  # first minimum: ties favor smaller p
    return BitPlan(bits=candidates[p_star], p_star=p_star, kl_curve=kl_curve)
