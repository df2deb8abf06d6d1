"""Mixed-precision bit allocation across column groups.

Groups are ranked by mean salience. For a target width N, the search
evaluates every pairing count p in [0, k/2]: the p least salient groups
drop to N-1 bits, the p most salient rise to N+1 bits, and the output
divergence of the resulting fake-quantized layer is measured. Paired
promotion/demotion keeps the average width at exactly N bits.

The search is sequential: neighbouring candidates differ in a few groups,
so each evaluation updates the previous candidate's layer output instead
of recomputing it, and costs one softmax plus a few thin matmuls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BadGroupSize, InsufficientCalibration, InvalidConfig, ShapeMismatch
from .quant_core import binarize_block, dequantize, quantize_uniform
from .salience import SalienceMap


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


def _row_distributions(y: np.ndarray, cfg: KlConfig) -> np.ndarray:
    p = y / cfg.temperature
    p -= p.max(axis=1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=1, keepdims=True)
    np.maximum(p, cfg.epsilon, out=p)
    p /= p.sum(axis=1, keepdims=True)
    return p


def _kl_rows(p: np.ndarray, log_p: np.ndarray, q: np.ndarray) -> float:
    """Mean over rows of sum p * (log p - log q); overwrites q."""
    terms = np.log(q, out=q)
    np.subtract(log_p, terms, out=terms)
    terms *= p
    return float(terms.sum(axis=1).mean())


def output_kl(x: np.ndarray, w: np.ndarray, w_hat: np.ndarray, cfg: KlConfig) -> float:
    """Mean over token rows of KL(P || Q), where P and Q are softmax
    distributions over the exact and quantized layer outputs."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    w_hat = np.asarray(w_hat, dtype=np.float64)
    if w.shape != w_hat.shape:
        raise ShapeMismatch(f"weight shapes differ: {w.shape} vs {w_hat.shape}")
    if x.ndim != 2 or x.shape[1] != w.shape[1]:
        raise ShapeMismatch(f"activations {x.shape} do not match weights {w.shape}")
    if x.shape[0] == 0:
        raise InsufficientCalibration("no token rows to compare outputs on")
    p = _row_distributions(x @ w.T, cfg)
    q = _row_distributions(x @ w_hat.T, cfg)
    return _kl_rows(p, np.log(p), q)


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
    binarize_low: bool = False,
) -> BitPlan:
    """Search all pairing counts p and return the divergence-minimizing plan.

    Fake quantization here is plain per-row min/max at each group's width;
    range calibration and error compensation happen later in the pipeline
    and deliberately do not influence the allocation.

    The quantized output Y = xs @ W_hat^T is built once for p = 0 and then
    updated in place: from one candidate to the next only the groups whose
    width changed contribute xs[:, g] @ (new_g - old_g)^T. The curve thus
    matches a full recompute per candidate up to float rounding (the
    summation order differs), not bit for bit.
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
    xs64 = stride_subsample(x, cfg.max_tokens).astype(np.float64)

    deq_cache: dict[tuple[int, int], np.ndarray] = {}

    def fake_block(g: int, bits: int) -> np.ndarray:
        key = (g, bits)
        if key not in deq_cache:
            block = w[:, g * beta : (g + 1) * beta]
            if bits == 1 and binarize_low:
                qb = binarize_block(block)
            else:
                qb = quantize_uniform(block, bits)
            deq_cache[key] = dequantize(qb).astype(np.float64)
        return deq_cache[key]

    candidates = []
    for p in range(k // 2 + 1):
        low, high = _ranked_sets(sal.group_mean, p)
        bits = np.full(k, target_bits, dtype=np.int64)
        bits[low] = target_bits - 1
        bits[high] = target_bits + 1
        candidates.append(bits)

    p_ref = _row_distributions(xs64 @ w.astype(np.float64).T, cfg)
    log_p_ref = np.log(p_ref)

    prev = candidates[0]
    y = xs64 @ np.concatenate([fake_block(g, int(prev[g])) for g in range(k)], axis=1).T
    kl_curve = np.empty(len(candidates))
    for p, bits in enumerate(candidates):
        for g in map(int, np.flatnonzero(bits != prev)):
            delta = fake_block(g, int(bits[g])) - fake_block(g, int(prev[g]))
            y += xs64[:, g * beta : (g + 1) * beta] @ delta.T
        kl_curve[p] = _kl_rows(p_ref, log_p_ref, _row_distributions(y, cfg))
        prev = bits

    p_star = int(np.argmin(kl_curve))  # first minimum: ties favor smaller p
    return BitPlan(
        bits=candidates[p_star],
        p_star=p_star,
        kl_curve=kl_curve,
        evaluations=len(kl_curve),
    )
