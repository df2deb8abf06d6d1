"""Second-order weight salience from calibration activations.

The importance of weight element (i, j) is estimated as

    delta[i, j] = w[i, j]^2 / d[j]^2

where d is the diagonal of the inverse of the damped activation Gram
matrix H = mean over tokens of x xT. Channels that the calibration data
drives hard get small inverse diagonals and therefore large salience.

The inverse itself is never formed: damp_and_invert computes its upper
Cholesky factor (used by error compensation) from one Cholesky
factorization and one triangular inversion, and reads d off that factor.

The group means drive the width search. salient_mask_3sigma flags the
outliers of one block of the map; `slimquant inspect` reports its density
per group, and no quantization stage reads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.linalg.lapack

from .errors import (
    BadGroupSize,
    EmptyCalibration,
    InvalidConfig,
    NotPositiveDefinite,
    ShapeMismatch,
)
from .tensor_store import CalibrationSet

DAMPING_FLOOR = 1e-8


@dataclass(frozen=True)
class HessianState:
    """Damped activation Gram matrix with its inverse diagonal and the
    upper-triangular factor U of the inverse: (H + damping*I)^-1 == UT U."""

    H: np.ndarray  # (m, m) float64, symmetric
    damping: float
    H_inv_diag: np.ndarray  # (m,) float64, > 0
    chol_inv: np.ndarray  # (m, m) float64, upper-triangular


@dataclass(frozen=True)
class SalienceMap:
    delta: np.ndarray  # (n, m) float64, >= 0
    group_mean: np.ndarray  # (k,) float64
    channel_mean: np.ndarray  # (m,) float64


def accumulate_hessian(calib: CalibrationSet) -> np.ndarray:
    """Mean outer product of all token vectors: (1/T) * sum_t x_t x_tT."""
    if not calib.samples or calib.token_count == 0:
        raise EmptyCalibration("need at least one token vector")
    m = calib.channels
    acc = np.zeros((m, m), dtype=np.float64)
    for s in calib.samples:
        x = np.asarray(s, dtype=np.float64)
        acc += x.T @ x
    return acc / float(calib.token_count)


def damp_and_invert(H: np.ndarray, percdamp: float = 0.01) -> HessianState:
    """Add proportional diagonal damping and factor the inverse.

    With P the reversal permutation and P A P = L L^T (one Cholesky), the
    upper factor of the inverse is U = P L^-1 P, so A^-1 = U^T U without
    ever forming A^-1; its diagonal is the column sums of U * U.
    """
    H = np.asarray(H, dtype=np.float64)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ShapeMismatch(f"Gram matrix must be square, got {H.shape}")
    if not (math.isfinite(percdamp) and percdamp >= 0.0):
        raise InvalidConfig(f"percdamp must be finite and >= 0, got {percdamp}")
    H = H + H.T
    H *= 0.5
    damping = max(float(percdamp) * float(np.mean(np.diag(H))), DAMPING_FLOOR)
    # P A P with A = H + damping * I, built in place. H is exactly
    # symmetric, so the transpose of the C-ordered reversal is P H P in
    # Fortran order: LAPACK factors and inverts it without another copy.
    reversed_a = np.ascontiguousarray(H[::-1, ::-1]).T
    reversed_a[np.diag_indices_from(reversed_a)] += damping
    try:
        lower = scipy.linalg.cholesky(reversed_a, lower=True, overwrite_a=True)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise NotPositiveDefinite(f"damped Gram matrix is not PD: {exc}") from exc
    lower_inv, info = scipy.linalg.lapack.dtrtri(lower, lower=1, overwrite_c=1)
    if info != 0:
        raise NotPositiveDefinite(f"Cholesky factor is singular (dtrtri info {info})")
    return HessianState(
        H=H,
        damping=damping,
        H_inv_diag=np.einsum("ij,ij->j", lower_inv, lower_inv)[::-1].copy(),
        chol_inv=np.asfortranarray(lower_inv[::-1, ::-1]),
    )


def salience_map(w: np.ndarray, hs: HessianState, beta: int) -> SalienceMap:
    """Element salience plus its per-group and per-channel means."""
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2:
        raise ShapeMismatch(f"weights must be 2-D, got {w.shape}")
    n, m = w.shape
    if m != hs.H_inv_diag.shape[0]:
        raise ShapeMismatch(f"weights have {m} channels, Gram matrix has {hs.H_inv_diag.shape[0]}")
    if beta < 1 or m % beta != 0:
        raise BadGroupSize(f"group size {beta} does not divide {m} channels")
    d = hs.H_inv_diag
    delta = (w * w) / (d * d)[None, :]
    k = m // beta
    group_mean = delta.reshape(n, k, beta).mean(axis=(0, 2))
    channel_mean = delta.mean(axis=0)
    return SalienceMap(delta=delta, group_mean=group_mean, channel_mean=channel_mean)


def salient_mask_3sigma(delta_block: np.ndarray) -> np.ndarray:
    """True where salience exceeds mean + 3 population standard deviations
    of its own block."""
    d = np.asarray(delta_block, dtype=np.float64)
    if d.size == 0:
        raise ShapeMismatch("empty salience block")
    return d > d.mean() + 3.0 * d.std()
