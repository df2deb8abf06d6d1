"""Same outputs, pinned.

Two small layers are quantized end to end and their outputs compared with
values recorded from the library as it stood before a change that claims
the same outputs: the .slmq file's sha256, the plan, p_star and recon_kl
exactly, and proxy_loss to 1e-12 relative (its Cholesky factor may move in
its last bit between BLAS thread counts, test_blas_threads.py). The first
layer's plan has a 1-bit group.

The values hold on one numpy/scipy/OpenBLAS build, the one they were
recorded on: another BLAS, or another version of it, may tile its
products differently and move the low bits of the error compensation,
and with them a code (the README's determinism paragraph). A change that
fails here on the build that recorded them has changed the outputs.
"""

import hashlib

import pytest

from fixtures import clustered_layer
from slimquant.packfmt import pack
from slimquant.pipeline import PipelineConfig, quantize_layer

# (seed, n, bits) -> (sha256 of the .slmq bytes, plan, p_star, recon_kl, proxy_loss)
GOLDEN = {
    (0, 64, 2): (
        "b9f496a63a462bf07ba226136908e96e9f6e7062338dd340df5a9c124d870b25",
        [2, 3, 2, 1],
        1,
        0.48296270377294953,
        111.06897432989825,
    ),
    (1, 100, 3): (
        "469b676d25ec3ab3e2b8e089e7071a9b07e7cebd074b3880f4716e9476a3c344",
        [2, 4, 2, 4],
        2,
        0.11806034043873105,
        41.9823557311104,
    ),
}


@pytest.mark.parametrize("seed, n, bits", list(GOLDEN))
def test_outputs_are_the_recorded_ones(seed, n, bits):
    digest, plan, p_star, recon_kl, loss = GOLDEN[(seed, n, bits)]
    w, x = clustered_layer(seed, n=n, m=512, t=1024)
    res = quantize_layer(w, x, PipelineConfig(beta=128, bits=bits))
    raw = pack(res.blocks, n, 512, 128, bits).to_bytes()
    assert hashlib.sha256(raw).hexdigest() == digest
    assert res.plan.bits.tolist() == plan
    assert res.plan.p_star == p_star
    assert res.recon_kl == recon_kl
    assert res.proxy_loss == pytest.approx(loss, rel=1e-12, abs=0.0)
