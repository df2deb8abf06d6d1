"""Shared fixture builders for the test suite.

Everything here is seeded and deterministic so tests can freeze expected
values against specific RNG draws.
"""

from __future__ import annotations

import ast
import inspect
import sys
import textwrap

import numpy as np

from slimquant.quant_core import GroupQuantParams, QuantizedBlock, encode
from slimquant.salience import accumulate_hessian, damp_and_invert


def random_layer(rng, n, m, scale=1.0):
    """A plain Gaussian weight matrix in float32."""
    return (rng.standard_normal((n, m)) * scale).astype(np.float32)


def random_calib(rng, t, m, scale=1.0):
    """A single activation batch with t token rows and m channels."""
    return (rng.standard_normal((t, m)) * scale).astype(np.float32)


def identity_calib(m):
    """Activations whose Gram matrix is exactly the identity.

    m one-hot rows scaled by sqrt(m) give (1/m) * sum x x^T = I.
    """
    return (np.eye(m) * np.sqrt(m)).astype(np.float32)


def hessian_state(x, percdamp=0.01):
    return damp_and_invert(accumulate_hessian(x), percdamp)


def clustered_layer(seed, n=64, m=512, t=1024, n_clusters=3, base=0.08,
                    w_boost=8.0, x_boost=2.0):
    """Weight matrix with a few adjacent runs of high-variance channels.

    Returns (w, x): each cluster is 2 to 5 adjacent channels whose weights
    and activations both have inflated variance, so their salience dominates
    and quantization order matters. t is kept well above m so the empirical
    Gram matrix is comfortably full rank.
    """
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((n, m)) * base
    x = rng.standard_normal((t, m))
    starts = rng.choice(m - 6, size=n_clusters, replace=False)
    for start in starts:
        width = int(rng.integers(2, 6))
        w[:, start:start + width] *= w_boost
        x[:, start:start + width] *= x_boost
    return w.astype(np.float32), x.astype(np.float32)


def encode_block(block, params):
    """The block under explicit params, coded by the package's one rule
    (quant_core.encode)."""
    scale = params.scale.astype(np.float64)[:, None]
    zero = params.zero.astype(np.float64)[:, None]
    codes = encode(np.asarray(block), scale, zero, params.bit_width)
    return QuantizedBlock(codes=codes, params=params)


def random_blocks(rng, n, m, beta, widths=None, shared=()):
    """Hand-built list of quantized blocks with valid codes and params. A
    block's scale and zero-point are drawn per row, or once for all its
    rows if its index is in shared. A 1-bit block's zero-points are drawn
    too, though decode never reads them."""
    k = m // beta
    if widths is None:
        widths = rng.integers(1, 5, size=k)
    blocks = []
    for g in range(k):
        bits = int(widths[g])
        maxq = (1 << bits) - 1
        rows = 1 if g in shared else n
        codes = rng.integers(0, maxq + 1, size=(n, beta)).astype(np.uint8)
        scale = np.resize(rng.uniform(0.01, 2.0, size=rows).astype(np.float32), n)
        zero = np.resize(rng.integers(0, maxq + 1, size=rows).astype(np.uint8), n)
        params = GroupQuantParams(bits, scale, zero)
        blocks.append(QuantizedBlock(codes=codes, params=params))
    return blocks, np.asarray(widths, dtype=np.int64)


def raise_lines(fn):
    """Line numbers of fn's raise statements."""
    lines, start = inspect.getsourcelines(fn)
    tree = ast.parse(textwrap.dedent("".join(lines)))
    return {start + node.lineno - 1 for node in ast.walk(tree) if isinstance(node, ast.Raise)}


def missed_raises(fns, run):
    """Each raise statement of the functions fns that run() does not
    execute, as name:line, seen by a line tracer (there is no coverage
    tool)."""
    watched = {f.__code__: f for f in fns}
    ran = set()

    def line(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code, frame.f_lineno))
        return line

    def call(frame, event, arg):
        return line if frame.f_code in watched else None

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        run()
    finally:
        sys.settrace(previous)
    return [f"{f.__name__}:{n}" for code, f in watched.items() for n in sorted(raise_lines(f))
            if (code, n) not in ran]
