"""Property test of the whole chain on tiny random layers.

quantize_layer, then pack, to_bytes and from_bytes, then what `slimquant
eval` and the kernel do with the read model. Layers are tiny (up to 8 rows,
groups of 1-16 channels, 1-6 groups, 1-2 samples of 1-5 tokens), over wide
weight and activation scales, with zero weights, a zero group, and zero and
rank-1 activations, under every switch combination. Small products are
where BLAS sums in another order for another memory layout, so this is
where a score that depended on the weights' layout showed.
"""

import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st

from slimquant.errors import SlimQuantError
from slimquant.kernel import dense_reference, matmul_tolerance, packed_matmul
from slimquant.packfmt import from_bytes, pack, packed_size_report
from slimquant.pipeline import PipelineConfig, quantize_layer, reconstruct, score
from slimquant.salience import accumulate_hessian, damp_and_invert
from slimquant.sba import kl_reference


@st.composite
def layers(draw):
    """(w, x, cfg): a tiny layer, its calibration rows (its 1-2 samples
    joined) and its switches."""
    n = draw(st.integers(1, 8))
    beta = draw(st.integers(1, 16))
    m = beta * draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.standard_normal((n, m)) * 10.0 ** draw(st.floats(-30, 15))
    weights = draw(st.sampled_from(["gaussian", "zero", "zero-group"]))
    if weights == "zero":
        w[:] = 0.0
    elif weights == "zero-group":
        g = draw(st.integers(0, m // beta - 1))
        w[:, g * beta : (g + 1) * beta] = 0.0
    x_scale = 10.0 ** draw(st.floats(-15, 12))
    activations = draw(st.sampled_from(["gaussian", "zero", "rank-1"]))
    samples = []
    for t in draw(st.lists(st.integers(1, 5), min_size=1, max_size=2)):
        if activations == "gaussian":
            x = rng.standard_normal((t, m))
        elif activations == "zero":
            x = np.zeros((t, m))
        else:
            x = np.outer(rng.standard_normal(t), rng.standard_normal(m))
        samples.append((x * x_scale).astype(np.float32))
    cfg = PipelineConfig(
        beta=beta,
        bits=draw(st.sampled_from([2, 3])),
        sba_enabled=draw(st.booleans()),
        sqc_enabled=draw(st.booleans()),
        compensation_enabled=draw(st.booleans()),
    )
    return w.astype(np.float32), np.concatenate(samples), cfg


def bits_of(values):
    return np.array(values, dtype=np.float64).tobytes()


@settings(max_examples=300)
@given(layers())
def test_quantize_pack_read_eval_and_serve(layer):
    w, x, cfg = layer
    n, m = w.shape
    try:
        result = quantize_layer(w, x, cfg)
        raw = pack(result.blocks, n, m, cfg.beta, target_bits=cfg.bits).to_bytes()
        pm = from_bytes(raw)
        # what slimquant eval computes from the read model
        hs = damp_and_invert(accumulate_hessian(x))
        ref = kl_reference(x, w)
        scored = score(w, reconstruct(pm.blocks), hs, ref)
        served, dense = packed_matmul(pm, x), dense_reference(pm, x)
        tolerance = matmul_tolerance(pm, x)
    except SlimQuantError as exc:  # a rejected input; any other error fails
        event(type(exc).__name__)
        return
    assert pm.to_bytes() == raw
    k = m // cfg.beta
    assert np.array_equal(pm.widths, result.plan.bits)
    assert int(pm.widths.sum()) == cfg.bits * k
    assert packed_size_report(pm).payload_bits == n * m * cfg.bits
    assert bits_of(scored) == bits_of((result.proxy_loss, result.recon_mse, result.recon_kl))
    assert np.abs(served.astype(np.float64) - dense).max() <= tolerance
