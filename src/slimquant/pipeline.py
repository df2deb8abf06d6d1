"""End-to-end layer quantization.

Order of operations for one weight matrix:

  1. build the damped activation Gram matrix and its inverse factor
  2. compute the salience map
  3. pick per-group bit widths (paired promote/demote search), or all-N
  4. walk groups left to right: range-calibrated quantization, then
     spread this group's rounding error onto the not-yet-quantized columns
     through the inverse factor
  5. score the reconstruction against the original weights

The error spreading mutates only a working copy; every reported metric
compares against the caller's original matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadGroupSize,
    NonFiniteIntermediate,
    NonFiniteValue,
    ShapeMismatch,
)
from .quant_core import (
    QuantizedBlock,
    binarize_block,
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


@dataclass(frozen=True)
class PipelineConfig:
    beta: int = 128
    bits: int = 2  # average width target, 2 or 3
    percdamp: float = 0.01
    sba_enabled: bool = True
    sqc_enabled: bool = True
    compensation_enabled: bool = True
    binarize_1bit: bool = False  # 1-bit groups use sign/magnitude form
    inner_columnwise: bool = False  # compensate column-by-column inside groups
    kl_cfg: KlConfig = field(default_factory=KlConfig)
    sqc_cfg: SqcConfig = field(default_factory=SqcConfig)


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
    range factor (1.0 where no calibration ran)."""
    if bits == 1 and cfg.binarize_1bit:
        return binarize_block(block), 1.0
    if cfg.sqc_enabled:
        return calibrate_group(block, bits, cfg.sqc_cfg)
    return quantize_uniform(block, bits), 1.0


def _compensate(
    work: np.ndarray, qb: QuantizedBlock, u: np.ndarray, lo: int, hi: int, columnwise: bool
) -> QuantizedBlock:
    """Spread the rounding error of columns [lo, hi) of work onto the
    columns right of them through the inverse factor u, in place, and
    return the group's final block.

    In columnwise mode each column of the group is first requantized under
    the group's fixed parameters, left to right, and its error spread onto
    the rest of the group; the cross-group update is then the same.
    """
    if columnwise:
        p = qb.params
        codes = np.empty_like(qb.codes)
        for j in range(hi - lo):
            c = lo + j
            col = work[:, c : c + 1]
            if p.binary:
                codes[:, j : j + 1] = col >= 0.0  # the sign convention of binarize
            else:
                codes[:, j : j + 1] = quantize_uniform(col, p.bit_width, p).codes
            deq = dequantize(QuantizedBlock(codes=codes[:, j : j + 1], params=p))
            e = (col - deq) / u[c, c]
            work[:, c + 1 : hi] -= e * u[c, c + 1 : hi]
        qb = QuantizedBlock(codes=codes, params=p)
    # in columnwise mode work[:, c] now holds the value column c was
    # requantized from: later columns never update earlier ones
    err = (work[:, lo:hi] - dequantize(qb)) / np.diag(u)[lo:hi]
    work[:, hi:] -= err @ u[lo:hi, hi:]
    if not (np.all(np.isfinite(err)) and np.all(np.isfinite(work[:, hi:]))):
        raise NonFiniteIntermediate(
            f"error spreading produced non-finite values at group {lo // (hi - lo)}"
        )
    return qb


def quantize_layer(
    w: np.ndarray, calib: CalibrationSet, cfg: PipelineConfig
) -> QuantizationResult:
    w = np.asarray(w, dtype=np.float32)
    if w.ndim != 2:
        raise ShapeMismatch(f"weights must be 2-D, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise NonFiniteValue("weight matrix contains NaN or infinity")
    n, m = w.shape
    if cfg.beta < 1 or m % cfg.beta != 0:
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
        plan = allocate_bits(
            w, x_all, sal, beta, cfg.bits, cfg.kl_cfg, binarize_low=cfg.binarize_1bit
        )
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
            qb = _compensate(work, qb, hs.chol_inv, lo, hi, cfg.inner_columnwise)
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
