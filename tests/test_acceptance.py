"""Acceptance suite: one test per shipping criterion.

Each test prints a single PASS/FAIL line (bypassing capture) so the
suite's verdict is readable straight off a pytest run. Frozen values
below were measured once on the reference implementation and pinned:

    STRICT_SQC_WINS = 500   strict-improvement count for criterion 4
    CLUSTER_SEEDS   = 0..19 fixture seeds for criterion 5
"""

import json
import time

import numpy as np
import pytest

from fixtures import clustered_layer, random_blocks, random_calib, random_layer
from slimquant.cli import main as cli_main
from slimquant.kernel import dense_reference, matmul_tolerance, packed_matmul
from slimquant.packfmt import from_bytes, pack
from slimquant.pipeline import PipelineConfig, proxy_loss, quantize_layer
from slimquant.quant_core import (
    GroupQuantParams,
    QuantizedBlock,
    block_mse,
    dequantize,
    quantize_uniform,
)
from slimquant.salience import accumulate_hessian, damp_and_invert, salience_map
from slimquant.sba import EPSILON, allocate_bits, kl_reference, output_kl
from slimquant.sqc import calibrate_group
from slimquant.tensor_store import CalibrationSet, write_tensor

STRICT_SQC_WINS = 500  # frozen: measured strict-improvement count, criterion 4


def verdict(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"acceptance {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_acceptance_1_format_soundness(capsys):
    shapes = [(8, 256), (64, 512), (128, 1024)]
    start = time.perf_counter()
    worst_rel = 0.0
    for trial in range(200):
        rng = np.random.default_rng(10_000 + trial)
        n, m = shapes[trial % 3]
        beta = (64, 128)[(trial // 3) % 2]
        target = (2, 3)[(trial // 6) % 2]
        k = m // beta
        p = int(rng.integers(0, k // 2 + 1))
        order = rng.permutation(k)
        widths = np.full(k, target)
        widths[order[:p]] = target - 1
        widths[order[p : 2 * p]] = target + 1
        blocks = []
        for g in range(k):
            bits = int(widths[g])
            maxq = (1 << bits) - 1
            codes = rng.integers(0, maxq + 1, size=(n, beta)).astype(np.uint8)
            scale = rng.uniform(0.001, 2.0, size=n).astype(np.float32)
            zero = rng.integers(0, maxq + 1, size=n).astype(np.uint8)
            blocks.append(
                QuantizedBlock(codes=codes, params=GroupQuantParams(bits, scale, zero))
            )
        pm = pack(blocks, n, m, beta, target_bits=target)
        back = from_bytes(pm.to_bytes())
        got, widths_back = back.blocks, back.widths
        assert np.array_equal(widths_back, widths)
        for a, b in zip(got, blocks):
            assert np.array_equal(a.codes, b.codes)
            assert np.array_equal(a.params.scale, b.params.scale)
            assert np.array_equal(a.params.zero, b.params.zero)
        x = rng.standard_normal((8, m)).astype(np.float32)
        dev = float(np.abs(packed_matmul(back, x) - dense_reference(back, x)).max())
        tol = matmul_tolerance(back, x)
        assert dev <= tol
        worst_rel = max(worst_rel, dev / tol if tol else 0.0)
    elapsed = time.perf_counter() - start
    verdict(
        capsys, 1, elapsed < 120.0,
        f"200 layers round-trip exact, kernel within budget "
        f"(worst {worst_rel:.2e} of tolerance), {elapsed:.1f}s < 120s",
    )


def test_acceptance_2_bit_budget_conservation(capsys):
    start = time.perf_counter()
    checked = 0
    for seed in range(500):
        rng = np.random.default_rng(20_000 + seed)
        target = 2 if seed % 2 == 0 else 3
        k = int(rng.integers(2, 9))
        beta = 8
        n, m, t = 8, k * beta, 16
        w = random_layer(rng, n, m)
        x = random_calib(rng, t, m)
        hs = damp_and_invert(accumulate_hessian(CalibrationSet([x])))
        sal = salience_map(w, hs, beta)
        plan = allocate_bits(w, kl_reference(x, w), sal, beta, target)
        assert plan.bits.sum() == target * k
        assert float(plan.bits.mean()) == float(target)
        assert np.sum(plan.bits == target - 1) == np.sum(plan.bits == target + 1)
        checked += 1
    elapsed = time.perf_counter() - start
    verdict(
        capsys, 2, checked == 500 and elapsed < 60.0,
        f"{checked}/500 plans conserve the bit budget exactly, "
        f"{elapsed:.1f}s < 60s",
    )


def test_acceptance_3_allocation_matches_exhaustive_search(capsys):
    import scipy.special

    def oracle_kl(x, w, w_hat):
        y = x.astype(np.float64) @ w.astype(np.float64).T
        z = x.astype(np.float64) @ w_hat.astype(np.float64).T
        p = scipy.special.softmax(y, axis=1)
        q = scipy.special.softmax(z, axis=1)
        p = np.maximum(p, EPSILON)
        p /= p.sum(axis=1, keepdims=True)
        q = np.maximum(q, EPSILON)
        q /= q.sum(axis=1, keepdims=True)
        return float(np.mean(np.sum(scipy.special.rel_entr(p, q), axis=1)))

    start = time.perf_counter()
    for seed in range(100):
        rng = np.random.default_rng(30_000 + seed)
        k = int(rng.integers(2, 9))
        beta, n, t = 8, 6, 12
        m = k * beta
        w = random_layer(rng, n, m)
        x = random_calib(rng, t, m)
        hs = damp_and_invert(accumulate_hessian(CalibrationSet([x])))
        sal = salience_map(w, hs, beta)
        plan = allocate_bits(w, kl_reference(x, w), sal, beta, 2)

        curve = []
        for p in range(k // 2 + 1):
            order = sorted(range(k), key=lambda g: (sal.group_mean[g], g))
            low = order[:p]
            rest = [g for g in order if g not in low]
            high = sorted(rest, key=lambda g: (-sal.group_mean[g], g))[:p]
            bits = [2] * k
            for g in low:
                bits[g] = 1
            for g in high:
                bits[g] = 3
            w_hat = np.empty_like(w)
            for g in range(k):
                sl = slice(g * beta, (g + 1) * beta)
                w_hat[:, sl] = dequantize(quantize_uniform(w[:, sl], bits[g]))
            curve.append(oracle_kl(x, w, w_hat))
        assert plan.p_star == int(np.argmin(curve))
        np.testing.assert_allclose(plan.kl_curve, curve, rtol=1e-10)
    elapsed = time.perf_counter() - start
    verdict(
        capsys, 3, elapsed < 120.0,
        f"100 seeds: search argmin and KL curve match the exhaustive oracle "
        f"to 1e-10 relative, {elapsed:.1f}s < 120s",
    )


def test_acceptance_4_calibration_dominance(capsys):
    start = time.perf_counter()
    dominated = 0
    strict = 0
    for seed in range(500):
        rng = np.random.default_rng(4_000 + seed)
        block = (rng.standard_normal((16, 64)) * rng.uniform(0.1, 3.0)).astype(
            np.float32
        )
        qb, _ = calibrate_group(block, 2)
        tuned = block_mse(block, dequantize(qb))
        plain = block_mse(block, dequantize(quantize_uniform(block, 2)))
        dominated += tuned <= plain
        strict += tuned < plain
    elapsed = time.perf_counter() - start
    verdict(
        capsys, 4, dominated == 500 and strict == STRICT_SQC_WINS and elapsed < 120.0,
        f"calibrated quantizer dominated on {dominated}/500 blocks, "
        f"strictly improved on {strict} (frozen {STRICT_SQC_WINS}), "
        f"{elapsed:.1f}s < 120s",
    )


def test_acceptance_5_pipeline_ordering(capsys):
    start = time.perf_counter()
    chain = 0
    for seed in range(20):
        w, x = clustered_layer(seed)
        calib = CalibrationSet([x])
        rtn = quantize_layer(
            w, calib,
            PipelineConfig(beta=128, bits=2, sba_enabled=False,
                           sqc_enabled=False, compensation_enabled=False),
        )
        comp = quantize_layer(
            w, calib,
            PipelineConfig(beta=128, bits=2, sba_enabled=False,
                           sqc_enabled=False, compensation_enabled=True),
        )
        full = quantize_layer(w, calib, PipelineConfig(beta=128, bits=2))
        if full.proxy_loss < comp.proxy_loss < rtn.proxy_loss:
            chain += 1
    elapsed = time.perf_counter() - start
    verdict(
        capsys, 5, chain >= 18 and elapsed < 300.0,
        f"full < compensation-only < plain on {chain}/20 clustered layers "
        f"(need 18), {elapsed:.1f}s < 300s",
    )


def test_acceptance_6_outlier_channel_salience(capsys):
    start = time.perf_counter()
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(6_000 + seed)
        m = 64
        x = random_calib(rng, 256, m)
        target = int(rng.integers(0, m))
        x[:, target] *= 100.0
        w = random_layer(rng, 8, m)
        hs = damp_and_invert(accumulate_hessian(CalibrationSet([x])))
        sal = salience_map(w, hs, 8)
        hits += int(np.argmax(sal.channel_mean)) == target
    elapsed = time.perf_counter() - start
    verdict(
        capsys, 6, hits == 100 and elapsed < 30.0,
        f"dominant-salience channel matched the injected outlier on "
        f"{hits}/100 seeds, {elapsed:.1f}s < 30s",
    )


def test_acceptance_7_search_cost(capsys):
    rng = np.random.default_rng(70_000)
    m, beta = 4096, 128
    w = random_layer(rng, 4, m)
    x = random_calib(rng, 16, m)
    hs = damp_and_invert(accumulate_hessian(CalibrationSet([x])))
    sal = salience_map(w, hs, beta)
    plan = allocate_bits(w, kl_reference(x, w), sal, beta, 2)
    verdict(
        capsys, 7, plan.evaluations == 17,
        f"m=4096, group size 128: search evaluated {plan.evaluations} "
        f"candidates (expected 17)",
    )


def test_acceptance_8_quadratic_form_identity(capsys):
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(80_000 + seed)
        n, m, t = 6, 24, 96
        w = random_layer(rng, n, m)
        x = random_calib(rng, t, m)
        hs = damp_and_invert(accumulate_hessian(CalibrationSet([x])), percdamp=1e-12)
        w_hat = w + rng.normal(0, 0.05, w.shape).astype(np.float32)
        d = w.astype(np.float64) - w_hat.astype(np.float64)
        direct = float(np.sum((x.astype(np.float64) @ d.T) ** 2)) / t
        got = proxy_loss(w, w_hat, hs)
        worst = max(worst, abs(got - direct) / direct)
    verdict(
        capsys, 8, worst <= 1e-4,
        f"quadratic form matches mean squared output error on 50 seeds, "
        f"worst relative deviation {worst:.2e} <= 1e-4",
    )


def test_acceptance_9_cli_determinism(capsys, tmp_path):
    rng = np.random.default_rng(90_000)
    w = random_layer(rng, 16, 256)
    x = random_calib(rng, 512, 256)
    wpath, xpath = tmp_path / "w.slmt", tmp_path / "x.slmt"
    write_tensor(wpath, w)
    write_tensor(xpath, x)
    reports = []
    blobs = []
    for run_dir in ("one", "two"):
        out = tmp_path / run_dir
        out.mkdir()
        model = out / "m.slmq"
        code = cli_main([
            "quantize", "--weights", str(wpath), "--calib", str(xpath),
            "--out", str(model), "--group-size", "64", "--threads", "2",
        ])
        assert code == 0
        blobs.append(model.read_bytes())
        report = json.loads((out / "m.slmq.json").read_text())
        reports.append({k: v for k, v in report.items() if k != "timing"})
    verdict(
        capsys, 9,
        blobs[0] == blobs[1] and reports[0] == reports[1],
        "repeated quantize runs are byte-identical (model) and "
        "field-identical (report minus timing)",
    )
