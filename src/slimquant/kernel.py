"""Reference compute path over packed models.

packed_matmul walks the groups left to right, dequantizes each one into a
scratch block and accumulates its contribution in float32. dense_reference
is the deliberately boring oracle: unpack everything, one dense multiply.
Both paths accept mixed and uniform bit widths identically.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from .errors import InvalidConfig, ShapeMismatch
from .packfmt import PackedModel, packed_size_report
from .quant_core import dequantize


def _check_input(pm: PackedModel, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float32)
    if x.ndim != 2 or x.shape[1] != pm.m:
        raise ShapeMismatch(f"input {x.shape} does not match {pm.m} channels")
    return x


def packed_matmul(pm: PackedModel, x: np.ndarray) -> np.ndarray:
    """x @ dequantized-weightsT, accumulated group by group in float32."""
    x = _check_input(pm, x)
    out = np.zeros((x.shape[0], pm.n), dtype=np.float32)
    for g in range(pm.k):
        block = dequantize(pm.group_block(g))
        out += x[:, g * pm.beta : (g + 1) * pm.beta] @ block.T
    return out


def dense_reference(pm: PackedModel, x: np.ndarray) -> np.ndarray:
    """Fully dequantize, then one dense float32 multiply."""
    x = _check_input(pm, x)
    if pm.k == 0:
        return np.zeros((x.shape[0], pm.n), dtype=np.float32)
    w = np.concatenate([dequantize(pm.group_block(g)) for g in range(pm.k)], axis=1)
    return x @ w.T


def matmul_tolerance(pm: PackedModel, x: np.ndarray) -> float:
    """Accumulation-error budget for comparing the two paths."""
    x = _check_input(pm, x)
    w_inf = max(
        (float(np.abs(dequantize(pm.group_block(g))).max(initial=0.0)) for g in range(pm.k)),
        default=0.0,
    )
    x_inf = float(np.abs(x).max(initial=0.0))
    return 1e-4 * x_inf * w_inf * pm.m


def bench(pm: PackedModel, x: np.ndarray, repeats: int = 5) -> dict:
    """Median wall time and effective bytes touched for both paths."""
    if repeats < 1:
        raise InvalidConfig(f"repeats must be >= 1, got {repeats}")
    x = _check_input(pm, x)
    t, n, m = x.shape[0], pm.n, pm.m

    def timed(fn) -> list[float]:
        samples = []
        for _ in range(repeats):
            start = time.perf_counter()
            fn(pm, x)
            samples.append(time.perf_counter() - start)
        return samples

    packed_samples = timed(packed_matmul)
    dense_samples = timed(dense_reference)

    size = packed_size_report(pm)
    x_io = 4 * t * m + 4 * t * n
    packed_bytes = size.total_bits // 8 + x_io
    dense_bytes = 4 * n * m + x_io
    return {
        "repeats": repeats,
        "shape": {"tokens": t, "rows": n, "channels": m, "groups": pm.k},
        "packed": {
            "samples_s": packed_samples,
            "median_s": statistics.median(packed_samples),
            "bytes_touched": packed_bytes,
        },
        "dense": {
            "samples_s": dense_samples,
            "median_s": statistics.median(dense_samples),
            "bytes_touched": dense_bytes,
        },
    }
