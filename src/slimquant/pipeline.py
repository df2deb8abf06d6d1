"""End-to-end layer quantization.

quantize_layer runs the stages named in STAGES, in that order, each timed
under its name in QuantizationResult.stage_s. Groups are quantized left to
right, each by one walk over its columns in GPTQ's column order (sqc):
range calibration picks each row's range factor by its compensated loss
while the walk spreads each column's rounding error onto the group's later
columns (calibrate_group; walk_group for 1-bit groups and with calibration
off). Error compensation then spreads the group's error onto the later
groups through the inverse factor, taking the walk's E from one triangular
solve. The two per-group stages are timed as sums over the groups.

The error spreading mutates only a working copy; every reported metric
compares against the caller's original matrix. The exact layer's output
distributions are built once, in the width search, and serve both the
search and the final divergence score.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg.blas

from .errors import (
    BadGroupSize,
    EmptyCalibration,
    InvalidConfig,
    NonFiniteIntermediate,
    NonFiniteValue,
    ShapeMismatch,
    require_real,
)
from .quant_core import (
    QuantizedBlock,
    binarize_block,  # noqa: F401  (kept importable: the benchmark tracer wraps it here)
    block_mse,
    dequantize,
    quantize_uniform,  # noqa: F401  (kept importable: the benchmark tracer wraps it here)
)
from .salience import (
    HessianState,
    accumulate_hessian,
    damp_and_invert,
    salience_map,
    salient_mask_3sigma,  # noqa: F401  (kept importable: the benchmark tracer wraps it here)
)
from .sba import BitPlan, KlReference, allocate_bits, kl_reference, output_kl
from .sba import stride_subsample  # noqa: F401  (kept importable: the benchmark tracer wraps it here)
from .sqc import calibrate_group, walk_group

# quantize_layer's stages, in order, as keys of QuantizationResult.stage_s.
STAGES = (
    "gram",
    "damp_and_invert",
    "salience",
    "width_search",
    "range_calibration",
    "compensation",
    "scoring",
)


@dataclass(frozen=True)
class PipelineConfig:
    """The settings a caller chooses, the only ones quantize_layer has.
    The rest are fixed, as in the paper: damp_and_invert's default
    damping, the range factors sqc.STEP, COARSE and FINE, and the
    divergence's sba.EPSILON and MAX_TOKENS."""

    beta: int = 128
    bits: int = 2  # average width target, 2 or 3
    sba_enabled: bool = True
    sqc_enabled: bool = True
    compensation_enabled: bool = True

    def __post_init__(self) -> None:
        for name in ("beta", "bits"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)):
                raise InvalidConfig(f"{name} must be an integer, got {value!r}")
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
    gammas: np.ndarray  # (k,) float64, each group's mean row factor; 1.0 where calibration was off
    stage_s: dict[str, float]  # wall seconds per stage, keyed by STAGES


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
    eval reports what quantize scored."""
    return proxy_loss(w, recon, hs), block_mse(w, recon), output_kl(ref, recon)


@contextlib.contextmanager
def _stage(stage_s: dict[str, float], name: str):
    """Add the wall time of the with-block to stage_s[name]."""
    start = time.perf_counter()
    yield
    stage_s[name] += time.perf_counter() - start


def _group_errors(w_g: np.ndarray, qb: QuantizedBlock, u_g: np.ndarray) -> np.ndarray:
    """The walk's E for one group, (W_g - W_hat_g) U_gg^-1, from one
    triangular solve: the walk's recurrence is W_g - W_hat_g = E U_gg,
    with W_g the group's columns as the walk found them and U_gg the
    group's diagonal block of the inverse factor."""
    d = np.subtract(w_g, dequantize(qb))
    # E U_gg = D is U_gg^T E^T = D^T; D^T of a C-ordered D is
    # Fortran-ordered, so dtrsm solves it in place
    return scipy.linalg.blas.dtrsm(1.0, u_g, d.T, trans_a=1, overwrite_b=1).T


def check_layer(w: np.ndarray, x: np.ndarray, beta: int) -> None:
    """Reject weights w and (T, m) calibration rows x that groups of beta
    channels do not define; the first failing check raises. quantize_layer,
    `slimquant eval` and `slimquant inspect` call it before any Gram matrix.
    Both must hold real numbers (errors.require_real), and w must be finite
    once rounded to float32, the precision the layer is quantized in."""
    w = np.asarray(w)
    if beta < 1:
        raise InvalidConfig(f"group size must be >= 1, got {beta}")
    if w.ndim != 2:
        raise ShapeMismatch(f"weights must be 2-D, got shape {w.shape}")
    if w.size == 0:
        raise ShapeMismatch(f"weights need at least one row and one channel, got shape {w.shape}")
    require_real(w, "weights")
    if not np.all(np.isfinite(w.astype(np.float32, copy=False))):
        raise NonFiniteValue("weight matrix contains NaN or infinity")
    m = w.shape[1]
    if m % beta != 0:
        raise BadGroupSize(f"group size {beta} does not divide {m} channels")
    if not (isinstance(x, np.ndarray) and x.ndim == 2):
        got = x.shape if isinstance(x, np.ndarray) else type(x).__name__
        raise ShapeMismatch(f"calibration must be a 2-D array of token rows, got {got}")
    require_real(x, "calibration")
    if x.shape[1] != m:
        raise ShapeMismatch(f"calibration has {x.shape[1]} channels, weights {m}")
    if x.shape[0] == 0:
        raise EmptyCalibration("need at least one token vector")


def quantize_layer(w: np.ndarray, x: np.ndarray, cfg: PipelineConfig) -> QuantizationResult:
    """Quantize w against the (T, m) calibration rows x. Both are rounded
    to float32 once, after check_layer; a float32 x is read as given, never
    copied or written."""
    check_layer(w, x, cfg.beta)
    w = np.asarray(w, dtype=np.float32)
    x = np.asarray(x, dtype=np.float32)
    beta = cfg.beta
    k = w.shape[1] // beta

    stage_s = dict.fromkeys(STAGES, 0.0)
    with _stage(stage_s, "gram"):
        H = accumulate_hessian(x)
    with _stage(stage_s, "damp_and_invert"):
        hs = damp_and_invert(H)
    # H's buffer now holds the inverse factor; no name but hs may keep it
    del H
    with _stage(stage_s, "salience"):
        sal = salience_map(w, hs, beta)
    with _stage(stage_s, "width_search"):
        # the exact outputs every divergence is taken against
        ref = kl_reference(x, w)
        if cfg.sba_enabled:
            plan = allocate_bits(w, ref, sal, beta, cfg.bits)
        else:
            plan = BitPlan(
                bits=np.full(k, cfg.bits, dtype=np.int64), p_star=0, kl_curve=np.empty(0)
            )
    work = w.astype(np.float64)
    blocks: list[QuantizedBlock] = []
    gammas = np.ones(k, dtype=np.float64)
    for g in range(k):
        lo, hi = g * beta, (g + 1) * beta
        # the spreading from earlier groups has reached these columns; each
        # column is checked once, before anything reads it
        if not np.all(np.isfinite(work[:, lo:hi])):
            raise NonFiniteIntermediate(f"error spreading left non-finite values in group {g}")
        bits = int(plan.bits[g])
        u = hs.chol_inv[lo:hi, lo:hi] if cfg.compensation_enabled else None
        with _stage(stage_s, "range_calibration"):
            # the sign/magnitude form of a 1-bit group has no range to scale
            if cfg.sqc_enabled and bits > 1:
                qb, gammas[g] = calibrate_group(work[:, lo:hi], bits, u)
            else:
                qb = walk_group(work[:, lo:hi], bits, u)
        if cfg.compensation_enabled:
            with _stage(stage_s, "compensation"):
                err = _group_errors(work[:, lo:hi], qb, u)
                if not np.all(np.isfinite(err)):
                    raise NonFiniteIntermediate(
                        f"error spreading produced non-finite values at group {g}"
                    )
                # GPTQ's update of the later columns, on scipy's BLAS like
                # every product of the walk: numpy's BLAS has its own worker
                # thread, and alternating the two libraries' workers stalled
                # the walk's products on two cores
                work[:, hi:] -= scipy.linalg.blas.dgemm(
                    1.0, hs.chol_inv[lo:hi, hi:], err.T, trans_a=1
                ).T
        blocks.append(qb)
    # scoring's temporaries reuse work's memory (kept through scoring, work
    # raised quantize-wide's peak RSS by 31 MB and quantize-tall's by 28 MB)
    del work, u
    with _stage(stage_s, "scoring"):
        loss, mse, kl = score(w, reconstruct(blocks), hs, ref)
    return QuantizationResult(
        plan=plan,
        blocks=blocks,
        proxy_loss=loss,
        recon_mse=mse,
        recon_kl=kl,
        gammas=gammas,
        stage_s=stage_s,
    )
