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
  5. score the reconstruction against the original weights (score, which
     slimquant eval calls too)

The error spreading mutates only a working copy; every reported metric
compares against the caller's original matrix. The exact layer's output
distributions are built once, in step 3, and serve both the width search
and the final divergence score. Each step's wall time is reported in
QuantizationResult.stage_s under the names in STAGES.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg.blas

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
    decode,
    dequantize,
    encode,
    quantize_uniform,
)
from .salience import (
    HessianState,
    accumulate_hessian,
    damp_and_invert,
    salience_map,
    salient_mask_3sigma,  # noqa: F401  (kept importable: the benchmark tracer wraps it here)
)
from .sba import BitPlan, KlConfig, KlReference, allocate_bits, kl_reference, output_kl
from .sba import stride_subsample  # noqa: F401  (kept importable: the benchmark tracer wraps it here)
from .sqc import SqcConfig, calibrate_group
from .tensor_store import CalibrationSet

# Columns per lazy batch of the in-group error spreading.
_BATCH = 16

# quantize_layer's steps, in order, as keys of QuantizationResult.stage_s.
STAGES = ("gram_and_inverse", "salience", "width_plan", "groups", "scoring")


@dataclass(frozen=True)
class PipelineConfig:
    """The settings a caller chooses, the only ones quantize_layer has.
    The rest are fixed, as in the paper: damp_and_invert's default
    damping, the gamma grid of SqcConfig and the divergence of KlConfig,
    neither of which takes a value."""

    beta: int = 128
    bits: int = 2  # average width target, 2 or 3
    sba_enabled: bool = True
    sqc_enabled: bool = True
    compensation_enabled: bool = True

    def __post_init__(self) -> None:
        if self.bits not in (2, 3):
            raise InvalidConfig(f"bits must be 2 or 3, got {self.bits}")
        if self.beta < 1:
            raise InvalidConfig(f"group size must be >= 1, got {self.beta}")


@dataclass(frozen=True)
class QuantizationResult:
    plan: BitPlan
    blocks: list[QuantizedBlock]
    proxy_loss: float
    recon_mse: float
    recon_kl: float
    gammas: np.ndarray  # (k,) float64, 1.0 where calibration was off
    stage_s: dict[str, float]  # wall seconds per step, keyed by STAGES


def reconstruct(blocks: list[QuantizedBlock]) -> np.ndarray:
    """Dequantize per-group blocks back into one float32 matrix."""
    return np.concatenate([dequantize(b) for b in blocks], axis=1)


def proxy_loss(w: np.ndarray, w_hat: np.ndarray, hs: HessianState) -> float:
    """Quadratic-form reconstruction loss tr(D (H + damping I) DT),
    D = w_hat - w: squared output error averaged over calibration tokens.

    Since UT U = (H + damping I)^-1 for U = hs.chol_inv, the loss is
    ||D U^-1||_F^2: one triangular solve, done in D's buffer."""
    w, w_hat = np.asarray(w), np.asarray(w_hat)
    if w.shape != w_hat.shape:
        raise ShapeMismatch(f"weight shapes differ: {w.shape} vs {w_hat.shape}")
    if w.ndim != 2 or w.shape[1] != hs.chol_inv.shape[0]:
        raise ShapeMismatch(
            f"weights {w.shape} do not match a Gram matrix of {hs.chol_inv.shape[0]} channels"
        )
    d = np.subtract(w_hat, w, dtype=np.float64)
    # X U = D is UT XT = DT; DT of a C-ordered D is Fortran-ordered, so
    # dtrsm solves it in place
    x = scipy.linalg.blas.dtrsm(1.0, hs.chol_inv, d.T, trans_a=1, overwrite_b=1)
    np.square(x, out=x)
    return float(x.sum())


def score(
    w: np.ndarray, recon: np.ndarray, hs: HessianState, ref: KlReference
) -> tuple[float, float, float]:
    """(proxy_loss, recon_mse, recon_kl) of the reconstruction recon of the
    original weights w, under the Gram state hs and the divergence
    reference ref. quantize_layer and slimquant eval both score here, so
    eval reports what quantize scored.

    hs is not read after the proxy loss: a caller that hands over its only
    reference to it has the m x m inverse factor freed before the
    divergence's products."""
    loss = proxy_loss(w, recon, hs)
    del hs
    return loss, block_mse(w, recon), output_kl(ref, recon)


def _quantize_group(
    block: np.ndarray, bits: int, cfg: PipelineConfig
) -> tuple[QuantizedBlock, float]:
    """Quantize one group at its planned width; returns the block and its
    range factor (1.0 where no calibration ran, and always at 1 bit: the
    sign/magnitude form has no range to scale)."""
    if cfg.sqc_enabled and bits > 1:
        return calibrate_group(block, bits, SqcConfig())
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
    contiguous row. Each column's codes and decode come from quant_core's
    encode and decode, the rule quantize_uniform and dequantize apply to a
    whole block.
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
    zero64 = p.zero.astype(np.float64)
    beta = hi - lo
    for b0 in range(0, beta, _BATCH):
        b1 = min(b0 + _BATCH, beta)
        for j in range(b0, b1):
            codes[j] = encode(cols[j], scale64, zero64, p.bit_width, p.binary)
            err[j] = (cols[j] - decode(codes[j], scale32, p.zero, p.binary)) / d[j]
            cols[j + 1 : b1] -= u[lo + j, lo + j + 1 : lo + b1, None] * err[j]
        cols[b1:] -= u[lo + b0 : lo + b1, lo + b1 : hi].T @ err[b0:b1]
    if not np.all(np.isfinite(err)):
        raise NonFiniteIntermediate(
            f"error spreading produced non-finite values at group {lo // beta}"
        )
    work[:, hi:] -= err.T @ u[lo:hi, hi:]
    return QuantizedBlock(codes=codes.T, params=p)


def quantize_layer(
    w: np.ndarray, calib: CalibrationSet, cfg: PipelineConfig
) -> QuantizationResult:
    w = np.asarray(w, dtype=np.float32)
    if w.ndim != 2:
        raise ShapeMismatch(f"weights must be 2-D, got shape {w.shape}")
    if w.size == 0:
        raise ShapeMismatch(f"weights need at least one row and one channel, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise NonFiniteValue("weight matrix contains NaN or infinity")
    n, m = w.shape
    if m % cfg.beta != 0:
        raise BadGroupSize(f"group size {cfg.beta} does not divide {m} channels")
    if calib.channels != m:
        raise ShapeMismatch(f"calibration has {calib.channels} channels, weights {m}")
    beta = cfg.beta
    k = m // beta

    marks = [time.perf_counter()]
    # 1. Gram matrix and inverse factor, factored in the Gram matrix's buffer
    hs = damp_and_invert(accumulate_hessian(calib))
    marks.append(time.perf_counter())
    # 2. salience
    sal = salience_map(w, hs, beta)
    marks.append(time.perf_counter())
    # 3. width plan, and the exact outputs every divergence is taken against
    x_all = calib.stacked()
    ref = kl_reference(x_all, w)
    if cfg.sba_enabled:
        plan = allocate_bits(w, x_all, sal, beta, cfg.bits, KlConfig(), ref=ref)
    else:
        plan = BitPlan(
            bits=np.full(k, cfg.bits, dtype=np.int64), p_star=0, kl_curve=np.empty(0)
        )
    # nothing after the plan reads x_all (ref keeps its own rows) or sal
    del x_all, sal
    marks.append(time.perf_counter())
    # 4. per group, left to right: quantize, then compensate
    work = w.astype(np.float64)
    blocks: list[QuantizedBlock] = []
    gammas = np.ones(k, dtype=np.float64)
    for g in range(k):
        lo, hi = g * beta, (g + 1) * beta
        # the spreading from earlier groups has reached these columns; each
        # column is checked once, before anything reads it
        if not np.all(np.isfinite(work[:, lo:hi])):
            raise NonFiniteIntermediate(f"error spreading left non-finite values in group {g}")
        qb, gammas[g] = _quantize_group(work[:, lo:hi], int(plan.bits[g]), cfg)
        if cfg.compensation_enabled:
            qb = _compensate(work, qb, hs.chol_inv, lo, hi)
        blocks.append(qb)
    del work  # scoring's temporaries reuse its memory
    marks.append(time.perf_counter())
    # 5. score against the original weights. score is handed the only
    # reference to the Gram state, so it frees the m x m inverse factor
    # after the proxy loss (held through the divergence, it raised
    # quantize-wide's peak RSS by 13 MB)
    handed = [hs]
    del hs
    loss, mse, kl = score(w, reconstruct(blocks), handed.pop(), ref)
    marks.append(time.perf_counter())
    return QuantizationResult(
        plan=plan,
        blocks=blocks,
        proxy_loss=loss,
        recon_mse=mse,
        recon_kl=kl,
        gammas=gammas,
        stage_s={name: b - a for name, a, b in zip(STAGES, marks, marks[1:])},
    )
