"""Mixed-precision bit allocation across column groups.

Groups are ranked by mean salience. For a target width N, the search
evaluates every pairing count p in [0, k/2]: the p least salient groups
drop to N-1 bits, the p most salient rise to N+1 bits, and the output
divergence of the resulting fake-quantized layer is measured. Paired
promotion/demotion keeps the average width at exactly N bits.

The search is sequential: neighbouring candidates differ in a few groups,
so each evaluation updates the previous candidate's layer output instead
of recomputing it, and costs one softmax plus a few thin matmuls. Each
thin product is accumulated into the running output in place, so the
search holds two output-sized arrays: the reference distribution and the
running output. Every divergence is taken against a KlReference, the
exact layer's side, which kl_reference builds from the raw token rows: it
checks them, takes at most KlConfig.max_tokens of them at a uniform stride,
and keeps them in the dtype they came in. The reference carries the
KlConfig every score against it uses.

Every full product with the token rows (the exact outputs, the search's
first candidate and a whole-layer score) goes through _outputs, which
widens the rows to float64 one row block at a time, so no float64 copy of
all the rows is made.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg.blas

from .errors import BadGroupSize, InsufficientCalibration, InvalidConfig, ShapeMismatch
from .quant_core import dequantize, quantize_uniform
from .quant_core import binarize_block  # noqa: F401  (kept importable: the benchmark tracer wraps it here)
from .salience import SalienceMap

# Elements per row block of the divergence scoring (512 KiB of float64),
# as in sqc's slices: the block and its buffer stay in cache.
_BLOCK_ELEMENTS = 65536

# Elements of the float64 buffer _outputs widens token rows into (8 MiB):
# 256 rows at 4096 channels, 1024 at 1024. A block of them holds at least
# 2^20 multiply-adds per output, more than the about 1e6 up to which
# OpenBLAS takes a product to a kernel that sums in another order than the
# whole product's (numpy takes single rows to another routine too).
_PRODUCT_ELEMENTS = 1 << 20


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


def _outputs(xs: np.ndarray, w: np.ndarray) -> np.ndarray:
    """xs @ wT in float64, (t, n), for token rows xs (t, m) of any real
    dtype and weights w (n, m).

    The rows are widened block by block into one reused float64 buffer of
    about _PRODUCT_ELEMENTS elements (at least two rows), and a partial
    last block joins the one before it. Each block's product is written
    straight into its rows of the result. On OpenBLAS this equals the product of all rows widened at
    once, to the bit, when n is a multiple of 8; at other widths the last
    rows of a block can differ in their last bits, as one whole product's
    rows can between BLAS thread counts."""
    w = np.asarray(w, dtype=np.float64)
    t, (n, m) = xs.shape[0], w.shape
    rows = max(2, _PRODUCT_ELEMENTS // max(m, 1))
    bounds = list(range(0, t, rows))
    if len(bounds) > 1 and t - bounds[-1] < rows:
        bounds.pop()
    bounds.append(t)
    y = np.empty((t, n))
    buf = np.empty((max(b - a for a, b in zip(bounds, bounds[1:])), m))
    for r0, r1 in zip(bounds, bounds[1:]):
        block = buf[: r1 - r0]
        np.copyto(block, xs[r0:r1])
        np.matmul(block, w.T, out=y[r0:r1])
    return y


def _check_weights(ref: KlReference, w: np.ndarray) -> None:
    """ShapeMismatch unless w has the shape of the weights ref was built from."""
    want = (ref.p.shape[1], ref.xs.shape[1])
    if np.shape(w) != want:
        raise ShapeMismatch(f"weights {np.shape(w)} do not match the reference's {want}")


def _row_distributions(y: np.ndarray, cfg: KlConfig) -> None:
    """Overwrite each row of y with its tempered softmax, floored at
    cfg.epsilon and renormalized."""
    y /= cfg.temperature
    y -= y.max(axis=1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=1, keepdims=True)
    np.maximum(y, cfg.epsilon, out=y)
    y /= y.sum(axis=1, keepdims=True)


def _kl_score(ref: KlReference, y: np.ndarray) -> float:
    """Mean over rows of KL(ref.p || softmax of y's rows) under ref.cfg; y
    is not written.

    The rows are taken in blocks of about _BLOCK_ELEMENTS elements through
    two reused buffers, one for the block of y's distributions and one for
    the log of ref.p's block. Every max and sum still runs over one whole
    contiguous row, and the log is elementwise, so the score is the same to
    the bit as one pass over the full arrays."""
    t, n = y.shape
    rows = max(1, _BLOCK_ELEMENTS // n)
    buf = np.empty((min(rows, t), n))
    log_buf = np.empty_like(buf)
    row_kl = np.empty(t)
    for r0 in range(0, t, rows):
        r1 = min(r0 + rows, t)
        q, log_p = buf[: r1 - r0], log_buf[: r1 - r0]
        np.copyto(q, y[r0:r1])
        _row_distributions(q, ref.cfg)
        np.log(q, out=q)
        np.log(ref.p[r0:r1], out=log_p)
        np.subtract(log_p, q, out=q)
        q *= ref.p[r0:r1]
        q.sum(axis=1, out=row_kl[r0:r1])
    return float(row_kl.mean())


def output_kl(ref: KlReference, w_hat: np.ndarray) -> float:
    """Mean over ref's token rows of KL(P || Q), where P is ref's
    distribution of the exact outputs and Q the softmax of the outputs of
    w_hat, under ref.cfg. w_hat must have the shape of the weights ref was
    built from (ShapeMismatch)."""
    _check_weights(ref, w_hat)
    return _kl_score(ref, _outputs(ref.xs, w_hat))


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

    The quantized output Y = xs @ W_hat^T is built once for p = 0 and then
    updated in place: from one candidate to the next only the groups whose
    width changed contribute xs[:, g] @ (new_g - old_g)^T, which one dgemm
    adds straight into Y. The curve thus matches a full recompute per
    candidate up to float rounding (the summation order differs), not bit
    for bit. While beta fits the BLAS library's K block, the accumulating
    dgemm rounds as a separate product followed by an add does, to the
    bit; past it, the library adds partial sums into Y and the low bits
    move. On more than one BLAS thread the two forms can also split the
    work differently at some shapes, and a few elements then differ in
    their last bit.
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

    # float32 decodes, widened to float64 where they are used
    @functools.cache
    def fake_block(g: int, bits: int) -> np.ndarray:
        return dequantize(quantize_uniform(w[:, g * beta : (g + 1) * beta], bits))

    candidates = []
    for p in range(k // 2 + 1):
        low, high = _ranked_sets(sal.group_mean, p)
        bits = np.full(k, target_bits, dtype=np.int64)
        bits[low] = target_bits - 1
        bits[high] = target_bits + 1
        candidates.append(bits)

    prev = candidates[0]
    groups = [fake_block(g, int(b)) for g, b in enumerate(prev)]
    # the float64 layer lives only through this product
    y = _outputs(xs, np.concatenate(groups, axis=1, dtype=np.float64))
    kl_curve = np.empty(len(candidates))
    for p, bits in enumerate(candidates):
        for g in map(int, np.flatnonzero(bits != prev)):
            delta = np.subtract(
                fake_block(g, int(bits[g])), fake_block(g, int(prev[g])), dtype=np.float64
            )
            # yT += delta @ xs[:, g]T in yT's own Fortran-ordered buffer;
            # the wrapper copies the transposed slice, widened to float64,
            # without transposing it
            scipy.linalg.blas.dgemm(
                1.0, delta, xs[:, g * beta : (g + 1) * beta].T, beta=1.0, c=y.T, overwrite_c=1
            )
        kl_curve[p] = _kl_score(ref, y)
        prev = bits

    p_star = int(np.argmin(kl_curve))  # first minimum: ties favor smaller p
    return BitPlan(bits=candidates[p_star], p_star=p_star, kl_curve=kl_curve)
