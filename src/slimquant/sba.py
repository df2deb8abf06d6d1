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
running output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg.blas

from .errors import BadGroupSize, InsufficientCalibration, InvalidConfig, ShapeMismatch
from .quant_core import dequantize, quantize_uniform
from .quant_core import binarize_block  # noqa: F401  (kept importable: the benchmark tracer wraps it here)
from .salience import SalienceMap

# Elements per row block of the divergence scoring (512 KiB of float64),
# as in sqc's slices: the block and its buffer stay in cache.
_BLOCK_ELEMENTS = 65536


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


@dataclass(frozen=True)
class BitPlan:
    bits: np.ndarray  # (k,) int, entries in {N-1, N, N+1}
    p_star: int
    kl_curve: np.ndarray  # (floor(k/2)+1,) float64
    evaluations: int = field(default=0)


def stride_subsample(x: np.ndarray, max_tokens: int) -> np.ndarray:
    """At most max_tokens rows of x, taken at a uniform stride."""
    t = x.shape[0]
    if t <= max_tokens:
        return x
    stride = math.ceil(t / max_tokens)
    return x[::stride]


@dataclass(frozen=True)
class KlReference:
    """The exact layer's side of an output divergence: the token rows and
    the softmax distribution of the exact outputs over them. Its log is not
    stored; each score takes it block by block. Built once per layer, it
    serves the width search and the final score."""

    xs: np.ndarray  # (t, m) float64 token rows
    p: np.ndarray  # (t, n) float64


def kl_reference(xs: np.ndarray, w: np.ndarray, cfg: KlConfig) -> KlReference:
    """Distributions of the exact outputs xs @ wT, every row of xs used."""
    xs = np.asarray(xs, dtype=np.float64)
    p = xs @ np.asarray(w, dtype=np.float64).T
    _row_distributions(p, cfg)
    return KlReference(xs=xs, p=p)


def _row_distributions(y: np.ndarray, cfg: KlConfig) -> None:
    """Overwrite each row of y with its tempered softmax, floored at
    cfg.epsilon and renormalized."""
    y /= cfg.temperature
    y -= y.max(axis=1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=1, keepdims=True)
    np.maximum(y, cfg.epsilon, out=y)
    y /= y.sum(axis=1, keepdims=True)


def _kl_score(ref: KlReference, y: np.ndarray, cfg: KlConfig) -> float:
    """Mean over rows of KL(ref.p || softmax of y's rows); y is not written.

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
        _row_distributions(q, cfg)
        np.log(q, out=q)
        np.log(ref.p[r0:r1], out=log_p)
        np.subtract(log_p, q, out=q)
        q *= ref.p[r0:r1]
        q.sum(axis=1, out=row_kl[r0:r1])
    return float(row_kl.mean())


def output_kl(
    x: np.ndarray,
    w: np.ndarray,
    w_hat: np.ndarray,
    cfg: KlConfig,
    *,
    ref: KlReference | None = None,
) -> float:
    """Mean over token rows of KL(P || Q), where P and Q are softmax
    distributions over the exact and quantized layer outputs.

    ref, when given, must be kl_reference(x, w, cfg); the exact side is
    then read from it instead of being recomputed."""
    x = np.asarray(x, dtype=np.float64)
    w_hat = np.asarray(w_hat, dtype=np.float64)
    if np.shape(w) != w_hat.shape:
        raise ShapeMismatch(f"weight shapes differ: {np.shape(w)} vs {w_hat.shape}")
    if x.ndim != 2 or x.shape[1] != w_hat.shape[1]:
        raise ShapeMismatch(f"activations {x.shape} do not match weights {w_hat.shape}")
    if x.shape[0] == 0:
        raise InsufficientCalibration("no token rows to compare outputs on")
    if ref is None:
        ref = kl_reference(x, w, cfg)
    return _kl_score(ref, ref.xs @ w_hat.T, cfg)


def _ranked_sets(group_mean: np.ndarray, p: int) -> tuple[list[int], list[int]]:
    """Indices of the p least and p most salient groups, disjoint, ties
    resolved toward lower group index."""
    k = len(group_mean)
    asc = sorted(range(k), key=lambda g: (group_mean[g], g))
    low = asc[:p]
    taken = set(low)
    desc = sorted(
        (g for g in range(k) if g not in taken),
        key=lambda g: (-group_mean[g], g),
    )
    high = desc[:p]
    return low, high


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

    Divergences are measured on the float32-rounded token rows of x, at
    most cfg.max_tokens of them at a uniform stride. ref, when given, must
    be kl_reference of exactly those rows and w; it is built here if not.

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
    x = np.asarray(x, dtype=np.float32)
    if target_bits not in (2, 3):
        raise InvalidConfig(f"target width must be 2 or 3 bits, got {target_bits}")
    n, m = w.shape
    if beta < 1 or m % beta != 0:
        raise BadGroupSize(f"group size {beta} does not divide {m} channels")
    k = m // beta
    if sal.group_mean.shape[0] != k:
        raise ShapeMismatch(f"salience has {sal.group_mean.shape[0]} groups, expected {k}")
    if x.size == 0:
        raise InsufficientCalibration("bit allocation needs calibration activations")
    if ref is None:
        ref = kl_reference(stride_subsample(x, cfg.max_tokens), w, cfg)
    xs64 = ref.xs

    # float32 decodes, widened to float64 where they are used
    deq_cache: dict[tuple[int, int], np.ndarray] = {}

    def fake_block(g: int, bits: int) -> np.ndarray:
        key = (g, bits)
        if key not in deq_cache:
            deq_cache[key] = dequantize(quantize_uniform(w[:, g * beta : (g + 1) * beta], bits))
        return deq_cache[key]

    candidates = []
    for p in range(k // 2 + 1):
        low, high = _ranked_sets(sal.group_mean, p)
        bits = np.full(k, target_bits, dtype=np.int64)
        bits[low] = target_bits - 1
        bits[high] = target_bits + 1
        candidates.append(bits)

    prev = candidates[0]
    w_hat = np.concatenate(
        [fake_block(g, int(prev[g])) for g in range(k)], axis=1, dtype=np.float64
    )
    y = xs64 @ w_hat.T
    del w_hat
    kl_curve = np.empty(len(candidates))
    for p, bits in enumerate(candidates):
        for g in map(int, np.flatnonzero(bits != prev)):
            delta = np.subtract(
                fake_block(g, int(bits[g])), fake_block(g, int(prev[g])), dtype=np.float64
            )
            # yT += delta @ xs[:, g]T in yT's own Fortran-ordered buffer;
            # the transposed slice is Fortran-ordered, so the wrapper copies
            # it without transposing
            scipy.linalg.blas.dgemm(
                1.0, delta, xs64[:, g * beta : (g + 1) * beta].T, beta=1.0, c=y.T, overwrite_c=1
            )
        kl_curve[p] = _kl_score(ref, y, cfg)
        prev = bits

    p_star = int(np.argmin(kl_curve))  # first minimum: ties favor smaller p
    return BitPlan(
        bits=candidates[p_star],
        p_star=p_star,
        kl_curve=kl_curve,
        evaluations=len(kl_curve),
    )
