"""End-to-end layer quantization.

Order of operations for one weight matrix:

  1. build the damped activation Gram matrix and its inverse factor
  2. compute the salience map
  3. pick per-group bit widths (paired promote/demote search), or all-N
  4. walk groups left to right: 3-sigma mask, range-calibrated
     quantization, then spread this group's rounding error onto the
     not-yet-quantized columns through the inverse factor
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
    salient_mask_3sigma,
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
    threads: int = 1  # recorded in the report; every stage runs on one Python thread
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


def _quantize_column(col: np.ndarray, qb_params) -> np.ndarray:
    """Requantize a single column under a block's fixed parameters."""
    if qb_params.binary:
        return (col >= 0.0).astype(np.uint8)
    block = quantize_uniform(col[:, None], qb_params.bit_width, qb_params)
    return block.codes[:, 0]


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

    hs = damp_and_invert(accumulate_hessian(calib), cfg.percdamp)
    sal = salience_map(w, hs, beta)
    x_all = calib.stacked()

    if cfg.sba_enabled:
        plan = allocate_bits(
            w,
            x_all,
            sal,
            beta,
            cfg.bits,
            cfg.kl_cfg,
            binarize_low=cfg.binarize_1bit,
        )
    else:
        plan = BitPlan(
            bits=np.full(k, cfg.bits, dtype=np.int64),
            p_star=0,
            kl_curve=np.empty(0, dtype=np.float64),
            evaluations=0,
        )

    u = hs.chol_inv
    work = w.astype(np.float64)
    blocks: list[QuantizedBlock] = []
    gammas = np.ones(k, dtype=np.float64)

    for g in range(k):
        lo_col = g * beta
        hi_col = lo_col + beta
        bits_g = int(plan.bits[g])
        block = work[:, lo_col:hi_col].copy()
        mask = salient_mask_3sigma(sal.delta[:, lo_col:hi_col])

        if bits_g == 1 and cfg.binarize_1bit:
            qb = binarize_block(block)
        elif cfg.sqc_enabled:
            qb, gamma = calibrate_group(block, bits_g, mask, cfg.sqc_cfg)
            gammas[g] = float(np.mean(gamma))
        else:
            qb = quantize_uniform(block, bits_g)

        if cfg.compensation_enabled:
            if cfg.inner_columnwise:
                err = np.empty((n, beta), dtype=np.float64)
                codes = np.empty((n, beta), dtype=np.uint8)
                scale = qb.params.scale.astype(np.float64)
                zero = qb.params.zero.astype(np.float64)
                for j in range(beta):
                    c = lo_col + j
                    col = work[:, c]
                    codes[:, j] = _quantize_column(col, qb.params)
                    if qb.params.binary:
                        deq_col = (codes[:, j] * 2.0 - 1.0) * scale
                    else:
                        deq_col = (codes[:, j] - zero) * scale
                    e = (col - deq_col) / u[c, c]
                    if j + 1 < beta:
                        work[:, c + 1 : hi_col] -= np.outer(e, u[c, c + 1 : hi_col])
                    err[:, j] = e
                qb = QuantizedBlock(codes=codes, params=qb.params)
                if hi_col < m:
                    work[:, hi_col:] -= err @ u[lo_col:hi_col, hi_col:]
            else:
                deq = dequantize(qb).astype(np.float64)
                err = (block - deq) / np.diag(u)[lo_col:hi_col][None, :]
                if hi_col < m:
                    work[:, hi_col:] -= err @ u[lo_col:hi_col, hi_col:]
            if not np.all(np.isfinite(err)) or (
                hi_col < m and not np.all(np.isfinite(work[:, hi_col:]))
            ):
                raise NonFiniteIntermediate(
                    f"error spreading produced non-finite values at group {g}"
                )
        blocks.append(qb)

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
