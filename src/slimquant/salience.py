"""Second-order weight salience from calibration activations.

The importance of weight element (i, j) is estimated as

    delta[i, j] = w[i, j]^2 / d[j]^2

where d is the diagonal of the inverse of the damped activation Gram
matrix H = mean over tokens of x xT. Channels that the calibration data
drives hard get small inverse diagonals and therefore large salience.

accumulate_hessian builds H's lower triangle with BLAS's symmetric rank-k
update (dsyrk), summed over fixed blocks of the calibration rows. The
inverse itself is never formed: damp_and_invert computes its upper
Cholesky factor (used by error compensation) from one Cholesky
factorization and one triangular inversion, both run by LAPACK in H's
own buffer, and reads d off that factor. It allocates no m x m
array: the Gram matrix becomes the factor.

salience gives the element map; salience_map keeps only its group and
channel means, which drive the width search. salient_mask_3sigma flags
the outliers of one block of the map; `slimquant inspect` reports its
density per group, and no quantization stage reads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg.blas
import scipy.linalg.lapack

from .errors import BadGroupSize, InvalidConfig, NotPositiveDefinite, ShapeMismatch, require_rows

DAMPING_FLOOR = 1e-8

# Elements per row block of the Gram matrix's products (64 MiB once
# widened to float64): 2048 rows at 4096 channels.
_GRAM_BLOCK = 1 << 23

# Elements per chunk of the in-place buffer reversal (512 KiB of float64).
_REVERSE_CHUNK = 65536


@dataclass(frozen=True)
class HessianState:
    """What quantization keeps of the damped Gram matrix H + damping*I:
    the damping, the inverse diagonal and the upper-triangular factor U of
    the inverse, (H + damping*I)^-1 == UT U. The Gram matrix itself is not
    held."""

    damping: float
    H_inv_diag: np.ndarray  # (m,) float64, > 0
    chol_inv: np.ndarray  # (m, m) float64, upper-triangular, Fortran order


@dataclass(frozen=True)
class SalienceMap:
    """The means of the element salience (see salience) that quantization
    reads; the element map itself is not held."""

    group_mean: np.ndarray  # (k,) float64
    channel_mean: np.ndarray  # (m,) float64


def accumulate_hessian(x: np.ndarray) -> np.ndarray:
    """Mean outer product of the (T, m) calibration rows x, (1/T) * sum_t
    x_t x_tT, as a C-ordered m x m float64 array that holds H's lower
    triangle and diagonal; its strict upper triangle is zero
    (damp_and_invert reads only the lower one).

    The rows are taken in fixed blocks of at most _GRAM_BLOCK elements, so
    H depends on the rows alone and the block widened to float64 is the
    stage's one transient beside two m x m arrays. Each block's x.T @ x is
    one dsyrk: the triangle numpy's x.T @ x computes, to the bit, without
    numpy's pass that mirrors it. Later blocks' products are added after,
    not accumulated by dsyrk itself: accumulating moves the low bits once
    a block has more rows than the BLAS library's K block (384 on scipy's
    OpenBLAS 0.3.30)."""
    require_rows(x)
    t, m = x.shape
    if m == 0:
        # BLAS would reject the empty product with a line of its own on stderr
        raise ShapeMismatch("calibration has no channels")
    step = max(1, _GRAM_BLOCK // m)
    acc = _lower_gram(x[:step])
    for lo in range(step, t, step):
        acc += _lower_gram(x[lo : lo + step])
    acc /= float(t)
    return acc


def _lower_gram(rows: np.ndarray) -> np.ndarray:
    """x.T @ x of a block of rows widened to float64: C-ordered, its lower
    triangle and diagonal filled and zeros above."""
    x = np.asarray(rows, dtype=np.float64)
    if x.shape[1] == 1:
        # numpy takes one channel as a dot product, which sums in another
        # order than dsyrk
        return x.T @ x
    # dsyrk of the Fortran-ordered xT fills the upper triangle of a
    # Fortran-ordered xT x; its transpose is C-ordered with the lower one
    return scipy.linalg.blas.dsyrk(1.0, x.T, lower=0).T


def damp_and_invert(H: np.ndarray, percdamp: float = 0.01) -> HessianState:
    """Add proportional diagonal damping and factor the inverse.

    With P the reversal permutation and P A P = L L^T (one Cholesky), the
    upper factor of the inverse is U = P L^-1 P, so A^-1 = U^T U without
    ever forming A^-1; its diagonal is the column sums of U * U.

    H is consumed: a C-ordered, writeable float64 H becomes the returned
    factor, chol_inv, and the caller must not read it after the call. Any
    other H is first copied to one, and the caller's array is left alone.
    Only H's lower triangle and diagonal are factored (LAPACK's
    convention), as accumulate_hessian builds it, but a non-finite entry in
    either triangle raises NotPositiveDefinite. No other m x m array is
    allocated.
    """
    H = np.asarray(H)
    if H.ndim != 2 or H.shape[0] != H.shape[1] or H.size == 0:
        # an empty one would reach LAPACK, which rejects it on stderr
        raise ShapeMismatch(f"Gram matrix must be square and non-empty, got {H.shape}")
    if not (math.isfinite(percdamp) and percdamp >= 0.0):
        raise InvalidConfig(f"percdamp must be finite and >= 0, got {percdamp}")
    if not (H.dtype == np.float64 and H.flags.c_contiguous and H.flags.writeable):
        H = np.array(H, dtype=np.float64, order="C")
    # from H's own diagonal, before the reversal reverses it
    damping = max(float(percdamp) * float(np.mean(np.diag(H))), DAMPING_FLOOR)
    if not np.all(np.isfinite(H)):
        raise NotPositiveDefinite("Gram matrix has non-finite entries")
    m = H.shape[0]
    # Reversing the C-ordered buffer makes it P H P; its Fortran view is
    # P HT P, whose lower triangle is H's lower triangle reversed. LAPACK
    # factors and inverts that view in place. The factorization reads only
    # the lower triangle and zeroes the one above it (clean=1), whatever H
    # held there, so U comes out upper-triangular.
    _reverse_in_place(H.ravel())
    reversed_a = H.T
    reversed_a[np.diag_indices(m)] += damping
    lower, info = scipy.linalg.lapack.dpotrf(reversed_a, lower=1, clean=1, overwrite_a=1)
    if info != 0:
        raise NotPositiveDefinite(f"damped Gram matrix is not PD (dpotrf info {info})")
    lower_inv, info = scipy.linalg.lapack.dtrtri(lower, lower=1, overwrite_c=1)
    if info != 0:
        raise NotPositiveDefinite(f"Cholesky factor is singular (dtrtri info {info})")
    h_inv_diag = np.einsum("ij,ij->j", lower_inv, lower_inv)[::-1].copy()
    # P L^-1 P: reversing both axes of a Fortran-ordered array reverses its
    # flat buffer, and the result is Fortran-ordered again
    _reverse_in_place(lower_inv.ravel(order="F"))
    return HessianState(damping=damping, H_inv_diag=h_inv_diag, chol_inv=lower_inv)


def _reverse_in_place(flat: np.ndarray) -> None:
    """flat[:] = flat[::-1] for a contiguous 1-D array, swapping mirrored
    chunks through one _REVERSE_CHUNK-element buffer."""
    size = flat.shape[0]
    half = size // 2
    buf = np.empty(min(_REVERSE_CHUNK, half), dtype=flat.dtype)
    for lo in range(0, half, _REVERSE_CHUNK):
        hi = min(lo + _REVERSE_CHUNK, half)
        front, back, tmp = flat[lo:hi], flat[size - hi : size - lo], buf[: hi - lo]
        np.copyto(tmp, front)
        np.copyto(front, back[::-1])
        np.copyto(back, tmp[::-1])


def salience(w: np.ndarray, hs: HessianState) -> np.ndarray:
    """Element salience w^2 / d^2, (n, m) float64 and >= 0, with d the
    inverse diagonal of hs. The one n x m array it allocates is the map."""
    w = np.asarray(w)
    if w.ndim != 2:
        raise ShapeMismatch(f"weights must be 2-D, got {w.shape}")
    m = w.shape[1]
    if m != hs.H_inv_diag.shape[0]:
        raise ShapeMismatch(f"weights have {m} channels, Gram matrix has {hs.H_inv_diag.shape[0]}")
    delta = np.square(w, dtype=np.float64)
    delta /= np.square(hs.H_inv_diag)
    return delta


def salience_map(w: np.ndarray, hs: HessianState, beta: int) -> SalienceMap:
    """Per-group and per-channel means of the element salience."""
    return salience_means(salience(w, hs), beta)


def salience_means(delta: np.ndarray, beta: int) -> SalienceMap:
    """Per-group and per-channel means of an element salience map delta
    (n, m), in groups of beta channels."""
    n, m = delta.shape
    if beta < 1 or m % beta != 0:
        raise BadGroupSize(f"group size {beta} does not divide {m} channels")
    k = m // beta
    group_mean = delta.reshape(n, k, beta).mean(axis=(0, 2))
    channel_mean = delta.mean(axis=0)
    return SalienceMap(group_mean=group_mean, channel_mean=channel_mean)


def salient_mask_3sigma(delta_block: np.ndarray) -> np.ndarray:
    """True where salience exceeds mean + 3 population standard deviations
    of its own block."""
    d = np.asarray(delta_block, dtype=np.float64)
    if d.size == 0:
        raise ShapeMismatch("empty salience block")
    return d > d.mean() + 3.0 * d.std()
