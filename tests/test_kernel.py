"""Tests for the packed matmul reference kernel."""

import math
import tracemalloc

import numpy as np
import pytest

from fixtures import random_blocks, random_calib, random_layer
from slimquant import kernel
from slimquant.errors import ShapeMismatch
from slimquant.kernel import dense_reference, matmul_tolerance, packed_matmul
from slimquant.packfmt import pack
from slimquant.pipeline import PipelineConfig, quantize_layer, reconstruct
from slimquant.quant_core import GroupQuantParams, QuantizedBlock, dequantize, int_levels
from slimquant.tensor_store import CalibrationSet


def test_identity_probe_returns_weight_columns():
    rng = np.random.default_rng(1)
    blocks, _ = random_blocks(rng, 8, 32, 8)
    pm = pack(blocks, 8, 32, 8, target_bits=2)
    y = packed_matmul(pm, np.eye(32, dtype=np.float32))
    w = np.concatenate([dequantize(b) for b in blocks], axis=1)
    assert np.array_equal(y, w.T)


def test_matches_dense_reference_within_budget():
    rng = np.random.default_rng(2)
    for trial in range(100):
        n = int(rng.integers(1, 17))
        beta = int(rng.choice([4, 8, 16]))
        k = int(rng.integers(1, 6))
        blocks, _ = random_blocks(rng, n, k * beta, beta)
        pm = pack(blocks, n, k * beta, beta, target_bits=2)
        x = random_calib(rng, int(rng.integers(1, 12)), k * beta)
        got = packed_matmul(pm, x)
        ref = dense_reference(pm, x)
        budget = matmul_tolerance(pm, x)
        assert float(np.abs(got - ref).max(initial=0.0)) <= budget


def test_single_group_equals_plain_gemm():
    rng = np.random.default_rng(3)
    blocks, _ = random_blocks(rng, 6, 8, 8)
    pm = pack(blocks, 6, 8, 8, target_bits=2)
    x = random_calib(rng, 5, 8)
    qb = pm.group_block(0)
    levels = qb.codes.astype(np.float32) - qb.params.zero.astype(np.float32)[:, None]
    assert np.array_equal(packed_matmul(pm, x), (x @ levels.T) * qb.params.scale)


def group_kinds_blocks(rng, n, beta, kinds):
    """One block per (bits, kind): "low" and "high" put every zero-point at
    0 or at maxq, "random" draws them. A 1-bit block is sign/magnitude
    whatever its zero-points; the quantizer's have them at 0."""
    blocks = []
    for bits, kind in kinds:
        maxq = (1 << bits) - 1
        codes = rng.integers(0, maxq + 1, size=(n, beta)).astype(np.uint8)
        scale = rng.uniform(0.01, 2.0, size=n).astype(np.float32)
        zero = {
            "low": np.zeros(n),
            "high": np.full(n, maxq),
            "random": rng.integers(0, maxq + 1, size=n),
        }[kind].astype(np.uint8)
        params = GroupQuantParams(bits, scale, zero)
        blocks.append(QuantizedBlock(codes=codes, params=params))
    return blocks


GROUP_KIND_CASES = {
    "sign_magnitude": [(1, "low"), (2, "random"), (1, "random"), (4, "high")],
    "zero_points_at_0": [(1, "low"), (2, "low"), (3, "low"), (4, "low")],
    "zero_points_at_maxq": [(1, "high"), (2, "high"), (3, "high"), (4, "high")],
}


# decode-buffer budgets in groups of the tests' layers: the default, runs
# of 3 groups (so 4 groups end in a partial chunk), and less than one
# group, which must still get one group per chunk
CHUNK_GROUPS = [None, 3, 0.5]


def set_chunk_groups(monkeypatch, groups, n, beta):
    budget = kernel._CHUNK_ELEMENTS if groups is None else int(groups * n * beta)
    monkeypatch.setattr(kernel, "_CHUNK_ELEMENTS", budget)


@pytest.mark.parametrize("case", sorted(GROUP_KIND_CASES))
@pytest.mark.parametrize("beta", [16, 32])
def test_group_kinds_at_every_token_count(case, beta, monkeypatch):
    rng = np.random.default_rng(9)
    n, kinds = 12, GROUP_KIND_CASES[case]
    m = beta * len(kinds)
    blocks = group_kinds_blocks(rng, n, beta, kinds)
    pm = pack(blocks, n, m, beta, target_bits=2)
    w = np.concatenate([dequantize(b) for b in blocks], axis=1)
    # the same model with every affine (2- to 4-bit) group's codes at its
    # zero-points
    at_zero = [
        QuantizedBlock(codes=np.repeat(b.params.zero[:, None], beta, axis=1), params=b.params)
        for b in blocks if b.params.bit_width > 1
    ]
    pm_zero = pack(at_zero, n, beta * len(at_zero), beta, target_bits=2)
    for chunk_groups in CHUNK_GROUPS:
        set_chunk_groups(monkeypatch, chunk_groups, n, beta)
        for t in (1, beta - 1, beta, 2 * beta):
            x = random_calib(rng, t, m)
            got = packed_matmul(pm, x)
            assert float(np.abs(got - dense_reference(pm, x)).max()) <= matmul_tolerance(pm, x)
            rows = rng.choice(m, size=t, replace=False)
            probe = np.eye(m, dtype=np.float32)[rows]
            assert np.array_equal(packed_matmul(pm, probe), w[:, rows].T)
            zero_out = packed_matmul(pm_zero, x[:, : pm_zero.m])
            assert np.array_equal(zero_out, np.zeros((t, n), np.float32))


@pytest.mark.parametrize("chunk_groups", CHUNK_GROUPS)
def test_decode_form_adds_one_product_per_chunk(chunk_groups, monkeypatch):
    # from beta tokens on: each run of groups decoded side by side, one
    # product per run added into the output in order
    rng = np.random.default_rng(10)
    n, beta, k = 12, 8, 7
    blocks, _ = random_blocks(rng, n, k * beta, beta)
    pm = pack(blocks, n, k * beta, beta, target_bits=2)
    set_chunk_groups(monkeypatch, chunk_groups, n, beta)
    per_chunk = max(1, kernel._CHUNK_ELEMENTS // (n * beta))
    for t in (beta, 2 * beta):
        x = random_calib(rng, t, k * beta)
        want = np.zeros((t, n), dtype=np.float32)
        for g0 in range(0, k, per_chunk):
            run = pm.blocks[g0 : g0 + per_chunk]
            w = np.asfortranarray(np.concatenate([dequantize(b) for b in run], axis=1))
            want += x[:, g0 * beta : (g0 + len(run)) * beta] @ w.T
        assert np.array_equal(packed_matmul(pm, x), want)


def test_zero_codes_at_zero_point_give_zero_output():
    n, beta = 4, 8
    zero = np.full(n, 2, dtype=np.uint8)
    params = GroupQuantParams(2, np.ones(n, dtype=np.float32), zero)
    codes = np.full((n, beta), 2, dtype=np.uint8)  # everything at the zero
    pm = pack([QuantizedBlock(codes=codes, params=params)], n, beta, beta, target_bits=2)
    x = np.random.default_rng(4).standard_normal((3, beta)).astype(np.float32)
    assert np.array_equal(packed_matmul(pm, x), np.zeros((3, n), np.float32))


def test_empty_token_batch():
    # no tokens; then no groups or no rows at beta and 2 beta tokens
    rng = np.random.default_rng(5)
    for n, k, t in [(4, 2, 0), (4, 0, 8), (4, 0, 16), (0, 2, 8), (0, 2, 16)]:
        blocks, _ = random_blocks(rng, n, k * 8, 8)
        pm = pack(blocks, n, k * 8, 8, target_bits=2)
        x = random_calib(rng, t, k * 8)
        y = packed_matmul(pm, x)
        assert y.dtype == np.float32
        assert np.array_equal(y, np.zeros((t, n), dtype=np.float32))
        assert np.array_equal(dense_reference(pm, x), y)
        assert 0.0 <= matmul_tolerance(pm, x) < 1e-30


def test_budget_is_infinite_from_2_to_the_23_channels():
    # (m + 1) 2^-24 passes 1/2 at m = 2^23, where the error bound stops
    # holding; a layer of no rows and a batch of no tokens make that m
    # without a large array
    for m, finite in ((2**23 - 1, True), (2**23, False)):
        params = GroupQuantParams(2, np.zeros(0, dtype=np.float32), np.zeros(0, dtype=np.uint8))
        block = QuantizedBlock(codes=np.zeros((0, m), dtype=np.uint8), params=params)
        tracemalloc.start()
        try:
            pm = pack([block], 0, m, m, target_bits=2)
            bound = matmul_tolerance(pm, np.zeros((0, m), dtype=np.float32))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert math.isfinite(bound) == finite
        assert peak < 64 * 1024


def test_budget_holds_on_all_positive_inputs_at_m_4096():
    # every term of one sign, so nothing cancels and |x| @ |W|^T, which the
    # budget scales, is the product itself; at 1 and beta - 1 tokens the
    # scale-after form runs, at beta and 2 beta the decode form
    rng = np.random.default_rng(11)
    n, beta, k = 8, 128, 32
    blocks = []
    for g in range(k):
        bits = 1 + g % 4
        maxq = (1 << bits) - 1
        codes = rng.integers(1, maxq + 1, size=(n, beta)).astype(np.uint8)
        scale = rng.uniform(0.5, 2.0, size=n).astype(np.float32)
        params = GroupQuantParams(bits, scale, np.zeros(n, dtype=np.uint8))
        blocks.append(QuantizedBlock(codes=codes, params=params))
    pm = pack(blocks, n, k * beta, beta, target_bits=2)
    w = np.concatenate(
        [int_levels(b) * b.params.scale.astype(np.float64)[:, None] for b in pm.blocks], axis=1
    )
    assert (w > 0).all()
    for t in (1, beta - 1, beta, 2 * beta):
        x = rng.uniform(0.5, 1.0, size=(t, k * beta)).astype(np.float32)
        exact = x.astype(np.float64) @ w.T
        budget = matmul_tolerance(pm, x)
        got, ref = packed_matmul(pm, x), dense_reference(pm, x)
        # each path within its half of the budget of the exact product
        assert float(np.abs(got - exact).max()) <= budget / 2
        assert float(np.abs(ref - exact).max()) <= budget / 2
        assert float(np.abs(got - ref).max()) <= budget


def test_linearity_within_budget():
    rng = np.random.default_rng(6)
    blocks, _ = random_blocks(rng, 8, 32, 16)
    pm = pack(blocks, 8, 32, 16, target_bits=2)
    x1 = random_calib(rng, 6, 32)
    x2 = random_calib(rng, 6, 32)
    combined = packed_matmul(pm, 2.0 * x1 + x2)
    parts = 2.0 * packed_matmul(pm, x1) + packed_matmul(pm, x2)
    budget = matmul_tolerance(pm, 2.0 * x1 + x2) + 3.0 * matmul_tolerance(pm, x1)
    assert float(np.abs(combined - parts).max()) <= budget


def test_pipeline_output_flows_through_kernel():
    rng = np.random.default_rng(7)
    w = random_layer(rng, 16, 128)
    x = random_calib(rng, 256, 128)
    res = quantize_layer(w, CalibrationSet([x]), PipelineConfig(beta=32, bits=2))
    pm = pack(res.blocks, 16, 128, 32, target_bits=2)
    probe = random_calib(rng, 8, 128)
    got = packed_matmul(pm, probe)
    direct = probe @ reconstruct(res.blocks).T
    assert float(np.abs(got - direct).max()) <= matmul_tolerance(pm, probe)


def test_input_shape_validation():
    rng = np.random.default_rng(8)
    blocks, _ = random_blocks(rng, 4, 16, 8)
    pm = pack(blocks, 4, 16, 8, target_bits=2)
    with pytest.raises(ShapeMismatch):
        packed_matmul(pm, np.zeros((3, 15), dtype=np.float32))
    with pytest.raises(ShapeMismatch):
        dense_reference(pm, np.zeros(16, dtype=np.float32))

