"""End-to-end layer quantization.

Order of operations for one weight matrix:

  1. build the damped activation Gram matrix and its inverse factor
  2. compute the salience map
  3. pick per-group bit widths (paired promote/demote search), or all-N
  4. walk groups left to right: range-calibrated parameters (sign/magnitude
     ones for 1-bit groups), then
     requantize the group's columns left to right under them, spreading
     each column's rounding error onto the not-yet-quantized columns
     through the inverse factor
  5. score the reconstruction against the original weights

The error spreading mutates only a working copy; every reported metric
compares against the caller's original matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadGroupSize,
    InvalidConfig,
    NonFiniteIntermediate,
    NonFiniteValue,
    ShapeMismatch,
)
from .quant_core import (
    QuantizedBlock,
    binarize_block,  # noqa: F401  (kept importable: the benchmark tracer wraps it here)
    block_mse,
    dequantize,
    quantize_uniform,
)
from .salience import (
    HessianState,
    accumulate_hessian,
    damp_and_invert,
    salience_map,
    salient_mask_3sigma,  # noqa: F401  (kept importable: the benchmark tracer wraps it here)
)
from .sba import BitPlan, KlConfig, allocate_bits, output_kl, stride_subsample
from .sqc import SqcConfig, calibrate_group
from .tensor_store import CalibrationSet

# Columns per lazy batch of the in-group error spreading.
_BATCH = 16


@dataclass(frozen=True)
class PipelineConfig:
    beta: int = 128
    bits: int = 2  # average width target, 2 or 3
    percdamp: float = 0.01
    sba_enabled: bool = True
    sqc_enabled: bool = True
    compensation_enabled: bool = True
    kl_cfg: KlConfig = field(default_factory=KlConfig)
    sqc_cfg: SqcConfig = field(default_factory=SqcConfig)

    def __post_init__(self) -> None:
        if self.bits not in (2, 3):
            raise InvalidConfig(f"bits must be 2 or 3, got {self.bits}")
        if self.beta < 1:
            raise InvalidConfig(f"group size must be >= 1, got {self.beta}")
        if not (math.isfinite(self.percdamp) and self.percdamp >= 0.0):
            raise InvalidConfig(f"percdamp must be finite and >= 0, got {self.percdamp}")


@dataclass(frozen=True)
class QuantizationResult:
    plan: BitPlan
    blocks: list[QuantizedBlock]
    proxy_loss: float
    recon_mse: float
    recon_kl: float
    gammas: np.ndarray  # (k,) float64, 1.0 where calibration was off


def reconstruct(blocks: list[QuantizedBlock]) -> np.ndarray:
    """Dequantize per-group blocks back into one float32 matrix."""
    return np.concatenate([dequantize(b) for b in blocks], axis=1)


def proxy_loss(w: np.ndarray, w_hat: np.ndarray, hs: HessianState) -> float:
    """Quadratic-form reconstruction loss tr(D (H + damping I) DT),
    D = w_hat - w: squared output error averaged over calibration tokens."""
    w = np.asarray(w, dtype=np.float64)
    w_hat = np.asarray(w_hat, dtype=np.float64)
    if w.shape != w_hat.shape:
        raise ShapeMismatch(f"weight shapes differ: {w.shape} vs {w_hat.shape}")
    if w.shape[1] != hs.H.shape[0]:
        raise ShapeMismatch(f"weights have {w.shape[1]} channels, Gram has {hs.H.shape[0]}")
    d = w_hat - w
    return float(np.sum((d @ hs.H) * d) + hs.damping * np.sum(d * d))


def _quantize_group(
    block: np.ndarray, bits: int, cfg: PipelineConfig
) -> tuple[QuantizedBlock, float]:
    """Quantize one group at its planned width; returns the block and its
    range factor (1.0 where no calibration ran, and always at 1 bit: the
    sign/magnitude form has no range to scale)."""
    if cfg.sqc_enabled and bits > 1:
        return calibrate_group(block, bits, cfg.sqc_cfg)
    return quantize_uniform(block, bits), 1.0


def _compensate(
    work: np.ndarray, qb: QuantizedBlock, u: np.ndarray, lo: int, hi: int
) -> QuantizedBlock:
    """Requantize columns [lo, hi) of work one at a time, left to right,
    under the group's fixed parameters qb.params, and spread each column's
    rounding error onto the columns right of it through the inverse factor
    u (the GPTQ column order). Updates work right of the group in place and
    returns the group's final block.

    The group is worked on as a transposed copy, so each column is one
    contiguous row. Each column's codes and decode are bit-identical to
    quant_core's quantize_uniform and dequantize under the same parameters.
    Inside a batch of _BATCH columns the error spreads by rank-1 updates;
    the batch then reaches the rest of the group in one matmul (GPTQ's lazy
    batch updates).
    """
    p = qb.params
    cols = work[:, lo:hi].T.copy()
    codes = np.empty(cols.shape, dtype=np.uint8)
    err = np.empty_like(cols)
    d = u.diagonal()[lo:hi]
    scale64, scale32 = p.scale.astype(np.float64), p.scale.astype(np.float32)
    zero64, zero32 = p.zero.astype(np.float64), p.zero.astype(np.float32)
    maxq = (1 << p.bit_width) - 1
    beta = hi - lo
    for b0 in range(0, beta, _BATCH):
        b1 = min(b0 + _BATCH, beta)
        for j in range(b0, b1):
            col = cols[j]
            if p.binary:
                q = col >= 0.0  # the sign convention of binarize
                deq = (q.astype(np.float32) * np.float32(2.0) - np.float32(1.0)) * scale32
            else:
                q = np.clip(np.rint(col / scale64) + zero64, 0, maxq)
                deq = (q.astype(np.float32) - zero32) * scale32
            codes[j] = q
            err[j] = (col - deq) / d[j]
            cols[j + 1 : b1] -= u[lo + j, lo + j + 1 : lo + b1, None] * err[j]
        cols[b1:] -= u[lo + b0 : lo + b1, lo + b1 : hi].T @ err[b0:b1]
    err = err.T
    work[:, hi:] -= err @ u[lo:hi, hi:]
    if not (np.all(np.isfinite(err)) and np.all(np.isfinite(work[:, hi:]))):
        raise NonFiniteIntermediate(
            f"error spreading produced non-finite values at group {lo // beta}"
        )
    return QuantizedBlock(codes=codes.T, params=p)


def quantize_layer(
    w: np.ndarray, calib: CalibrationSet, cfg: PipelineConfig
) -> QuantizationResult:
    w = np.asarray(w, dtype=np.float32)
    if w.ndim != 2:
        raise ShapeMismatch(f"weights must be 2-D, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise NonFiniteValue("weight matrix contains NaN or infinity")
    n, m = w.shape
    if m % cfg.beta != 0:
        raise BadGroupSize(f"group size {cfg.beta} does not divide {m} channels")
    if calib.channels != m:
        raise ShapeMismatch(f"calibration has {calib.channels} channels, weights {m}")
    beta = cfg.beta
    k = m // beta

    # 1. Gram matrix and inverse factor
    hs = damp_and_invert(accumulate_hessian(calib), cfg.percdamp)
    # 2. salience
    sal = salience_map(w, hs, beta)
    # 3. width plan
    x_all = calib.stacked()
    if cfg.sba_enabled:
        plan = allocate_bits(w, x_all, sal, beta, cfg.bits, cfg.kl_cfg)
    else:
        plan = BitPlan(
            bits=np.full(k, cfg.bits, dtype=np.int64),
            p_star=0,
            kl_curve=np.empty(0, dtype=np.float64),
            evaluations=0,
        )
    # 4. per group, left to right: quantize, then compensate
    work = w.astype(np.float64)
    blocks: list[QuantizedBlock] = []
    gammas = np.ones(k, dtype=np.float64)
    for g in range(k):
        lo, hi = g * beta, (g + 1) * beta
        qb, gammas[g] = _quantize_group(work[:, lo:hi], int(plan.bits[g]), cfg)
        if cfg.compensation_enabled:
            qb = _compensate(work, qb, hs.chol_inv, lo, hi)
        blocks.append(qb)
    # 5. score against the original weights
    recon = reconstruct(blocks)
    xs = stride_subsample(x_all, cfg.kl_cfg.max_tokens)
    return QuantizationResult(
        plan=plan,
        blocks=blocks,
        proxy_loss=proxy_loss(w, recon, hs),
        recon_mse=block_mse(w, recon),
        recon_kl=output_kl(xs, w, recon, cfg.kl_cfg),
        gammas=gammas,
    )
