"""Tests for the end-to-end layer quantization orchestration."""

import time

import numpy as np
import pytest
import scipy.linalg.blas

from fixtures import (
    clustered_layer,
    hessian_state,
    identity_calib,
    missed_raises,
    random_calib,
    random_layer,
)
from slimquant import pipeline, sba
from slimquant.errors import (
    BadGroupSize,
    EmptyCalibration,
    InvalidConfig,
    NonFiniteIntermediate,
    NonFiniteValue,
    ShapeMismatch,
    require_rows,
)
from slimquant.pipeline import (
    STAGES,
    PipelineConfig,
    QuantizationResult,
    check_layer,
    proxy_loss,
    quantize_layer,
    reconstruct,
)
from slimquant.quant_core import (
    QuantizedBlock,
    binarize_block,
    block_mse,
    dequantize,
    quantize_uniform,
)
from slimquant.salience import HessianState, accumulate_hessian, damp_and_invert
from slimquant.sba import kl_reference, output_kl, stride_subsample
from slimquant.sqc import calibrate_group
from slimquant.sqc import _walk as sqc_walk


def blocks_equal(a, b):
    if len(a) != len(b):
        return False
    for qa, qb in zip(a, b):
        if not np.array_equal(qa.codes, qb.codes):
            return False
        if not np.array_equal(qa.params.scale, qb.params.scale):
            return False
        if not np.array_equal(qa.params.zero, qb.params.zero):
            return False
        if qa.params.bit_width != qb.params.bit_width:
            return False
    return True


def test_ablation_floor_is_plain_rtn():
    rng = np.random.default_rng(1)
    w = random_layer(rng, 8, 64)
    calib = random_calib(rng, 32, 64)
    cfg = PipelineConfig(beta=16, bits=2, sba_enabled=False, sqc_enabled=False,
                         compensation_enabled=False)
    res = quantize_layer(w, calib, cfg)
    assert len(res.blocks) == 4
    for g, qb in enumerate(res.blocks):
        ref = quantize_uniform(w[:, g * 16:(g + 1) * 16], 2)
        assert np.array_equal(qb.codes, ref.codes)
        assert np.array_equal(qb.params.scale, ref.params.scale)
        assert np.array_equal(qb.params.zero, ref.params.zero)
    assert np.all(res.gammas == 1.0)
    assert res.plan.evaluations == 0
    assert np.all(res.plan.bits == 2)


def test_identity_gram_makes_compensation_a_noop():
    rng = np.random.default_rng(2)
    w = random_layer(rng, 8, 32)
    calib = identity_calib(32)
    on = quantize_layer(w, calib, PipelineConfig(
        beta=8, bits=2, sba_enabled=False, compensation_enabled=True))
    off = quantize_layer(w, calib, PipelineConfig(
        beta=8, bits=2, sba_enabled=False, compensation_enabled=False))
    assert blocks_equal(on.blocks, off.blocks)
    assert on.proxy_loss == off.proxy_loss
    assert on.recon_mse == off.recon_mse


def test_reconstruct_concatenates_groups():
    rng = np.random.default_rng(3)
    w = random_layer(rng, 4, 32)
    calib = random_calib(rng, 16, 32)
    res = quantize_layer(w, calib, PipelineConfig(beta=8, bits=2,
                                                  sba_enabled=False))
    recon = reconstruct(res.blocks)
    assert recon.shape == w.shape
    assert recon.dtype == np.float32
    for g, qb in enumerate(res.blocks):
        assert np.array_equal(recon[:, g * 8:(g + 1) * 8], dequantize(qb))


def test_metrics_reference_original_weights():
    rng = np.random.default_rng(4)
    w = random_layer(rng, 8, 64)
    calib = random_calib(rng, 128, 64)
    res = quantize_layer(w, calib, PipelineConfig(beta=16, bits=2,
                                                  sba_enabled=False))
    recon = reconstruct(res.blocks)
    assert res.recon_mse == block_mse(w, recon)
    hs = hessian_state(calib)
    assert res.proxy_loss == proxy_loss(w, recon, hs)


def test_proxy_loss_rejects_mismatched_shapes():
    rng = np.random.default_rng(5)
    w = random_layer(rng, 4, 8)
    hs = hessian_state(random_calib(rng, 16, 8))
    with pytest.raises(ShapeMismatch, match="weight shapes differ"):
        proxy_loss(w, w[:3], hs)
    # weights whose channels, or whose rank, do not fit the factor
    narrow = hessian_state(random_calib(rng, 16, 6))
    with pytest.raises(ShapeMismatch, match="Gram matrix of 6 channels"):
        proxy_loss(w, w.copy(), narrow)
    with pytest.raises(ShapeMismatch, match="Gram matrix of 8 channels"):
        proxy_loss(w[0], w[0].copy(), hs)


def test_proxy_loss_zero_for_exact_reconstruction():
    rng = np.random.default_rng(5)
    w = random_layer(rng, 4, 8)
    hs = hessian_state(random_calib(rng, 16, 8))
    assert proxy_loss(w, w.copy(), hs) == 0.0


def test_proxy_loss_identity_gram_is_frobenius():
    rng = np.random.default_rng(6)
    w = random_layer(rng, 4, 8)
    w_hat = w + rng.normal(0, 0.1, w.shape).astype(np.float32)
    hs = HessianState(damping=0.0, H_inv_diag=np.ones(8), chol_inv=np.eye(8))
    d = w_hat.astype(np.float64) - w.astype(np.float64)
    assert proxy_loss(w, w_hat, hs) == pytest.approx(float((d * d).sum()),
                                                     rel=1e-12)
    # H = I damped by 0.5: (1.5 I)^-1 = UT U with U = I / sqrt(1.5)
    damped = HessianState(damping=0.5, H_inv_diag=np.full(8, 1.0 / 1.5),
                          chol_inv=np.asfortranarray(np.eye(8) / np.sqrt(1.5)))
    assert proxy_loss(w, w_hat, damped) == pytest.approx(
        1.5 * float((d * d).sum()), rel=1e-12)


def test_proxy_loss_matches_damped_gram_form():
    # the triangular solve against the inverse factor against the
    # quadratic form with the damped Gram matrix written out
    cases = [clustered_layer(seed) for seed in range(3)]
    rng = np.random.default_rng(12)
    cases.append((random_layer(rng, 64, 512), random_calib(rng, 1024, 512)))
    for w, x in cases:
        H = accumulate_hessian(x)
        H = np.tril(H) + np.tril(H, -1).T  # the symmetric matrix H stands for
        hs = damp_and_invert(H.copy())
        w_hat = reconstruct([quantize_uniform(w[:, lo:lo + 128], 2)
                             for lo in range(0, 512, 128)])
        d = w_hat.astype(np.float64) - w.astype(np.float64)
        ref = float(np.trace(d @ (H + hs.damping * np.eye(512)) @ d.T))
        assert proxy_loss(w, w_hat, hs) == pytest.approx(ref, rel=1e-12)


def test_proxy_loss_equals_output_error_mean():
    # with negligible damping the quadratic form equals the mean squared
    # output error over the calibration tokens
    for seed in range(10):
        rng = np.random.default_rng(700 + seed)
        w = random_layer(rng, 6, 24)
        x = random_calib(rng, 96, 24)
        hs = hessian_state(x, percdamp=1e-12)
        w_hat = w + rng.normal(0, 0.05, w.shape).astype(np.float32)
        x64 = x.astype(np.float64)
        direct = float(np.sum((x64 @ (w - w_hat).astype(np.float64).T) ** 2))
        direct /= x.shape[0]
        assert proxy_loss(w, w_hat, hs) == pytest.approx(direct, rel=1e-4)


def test_compensation_usually_improves_proxy_loss():
    wins = 0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        w = random_layer(rng, 8, 64)
        calib = random_calib(rng, 128, 64)
        base = PipelineConfig(beta=16, bits=2, sba_enabled=False,
                              sqc_enabled=False, compensation_enabled=False)
        comp = PipelineConfig(beta=16, bits=2, sba_enabled=False,
                              sqc_enabled=False, compensation_enabled=True)
        r0 = quantize_layer(w, calib, base)
        r1 = quantize_layer(w, calib, comp)
        if r1.proxy_loss <= r0.proxy_loss:
            wins += 1
    assert wins >= 95


def test_cluster_fixture_ordering():
    # on the first few seeds: compensation beats plain rounding, and the
    # column order beats quantizing each group at once; the acceptance
    # suite gates the full < compensation-only < plain chain on twenty
    for seed in range(3):
        w, x = clustered_layer(seed)
        rtn = quantize_layer(w, x, PipelineConfig(
            beta=128, bits=2, sba_enabled=False, sqc_enabled=False,
            compensation_enabled=False))
        comp_cfg = PipelineConfig(beta=128, bits=2, sba_enabled=False,
                                  sqc_enabled=False)
        comp = quantize_layer(w, x, comp_cfg)
        full_cfg = PipelineConfig(beta=128, bits=2)
        full = quantize_layer(w, x, full_cfg)
        assert comp.proxy_loss < rtn.proxy_loss
        assert full.proxy_loss < rtn.proxy_loss
        assert comp.proxy_loss < group_at_once_loss(w, x, comp_cfg, comp.plan.bits)
        assert full.proxy_loss < group_at_once_loss(w, x, full_cfg, full.plan.bits)


def test_run_is_deterministic():
    w, x = clustered_layer(7, n=16, m=256, t=512)
    cfg = PipelineConfig(beta=64, bits=2)
    a = quantize_layer(w, x, cfg)
    b = quantize_layer(w, x, cfg)
    assert blocks_equal(a.blocks, b.blocks)
    assert a.proxy_loss == b.proxy_loss
    assert a.recon_mse == b.recon_mse
    assert a.recon_kl == b.recon_kl
    assert np.array_equal(a.gammas, b.gammas)
    assert np.array_equal(a.plan.bits, b.plan.bits)


@pytest.mark.parametrize("sba_enabled", [True, False])
def test_recon_kl_is_output_kl_of_the_strided_rows(monkeypatch, sba_enabled):
    # the final score reads the exact side from the reference the width
    # search built; it must be the score against a reference built afresh
    # from the strided rows of both samples, and not that of every row
    w, x = clustered_layer(3, n=16, m=256, t=4200)
    calib = np.concatenate([x[:2100], x[2100:]])
    res = quantize_layer(w, calib, PipelineConfig(beta=64, bits=2, sba_enabled=sba_enabled))
    recon = reconstruct(res.blocks)
    xs = stride_subsample(calib, sba.MAX_TOKENS)
    assert len(xs) < len(x)
    assert res.recon_kl == output_kl(kl_reference(xs, w), recon)
    monkeypatch.setattr(sba, "MAX_TOKENS", len(x))
    every_row = kl_reference(x, w)
    assert res.recon_kl != output_kl(every_row, recon)


def test_stage_times_cover_every_step():
    w, x = clustered_layer(4, n=16, m=256, t=512)
    for compensation in (True, False):
        cfg = PipelineConfig(beta=64, bits=2, compensation_enabled=compensation)
        start = time.perf_counter()
        res = quantize_layer(w, x, cfg)
        wall = time.perf_counter() - start
        assert tuple(res.stage_s) == STAGES
        assert all(isinstance(v, float) and v >= 0.0 for v in res.stage_s.values())
        if compensation:
            assert res.stage_s["compensation"] > 0.0
        else:
            assert res.stage_s["compensation"] == 0.0
        assert sum(res.stage_s.values()) <= wall


def test_gammas_cover_groups_and_default_to_unity():
    rng = np.random.default_rng(8)
    w = random_layer(rng, 8, 64)
    calib = random_calib(rng, 64, 64)
    tuned = quantize_layer(w, calib, PipelineConfig(beta=16, bits=2,
                                                    sba_enabled=False))
    assert tuned.gammas.shape == (4,)
    assert np.all((tuned.gammas >= 0.65) & (tuned.gammas <= 1.05))
    plain = quantize_layer(w, calib, PipelineConfig(
        beta=16, bits=2, sba_enabled=False, sqc_enabled=False))
    assert np.all(plain.gammas == 1.0)


@pytest.mark.parametrize("sqc, compensation", [
    (True, True), (False, True), (True, False), (False, False),
])
def test_one_bit_groups_take_sign_form(sqc, compensation):
    w, x = clustered_layer(0)
    res = quantize_layer(w, x, PipelineConfig(
        beta=128, bits=2, sqc_enabled=sqc, compensation_enabled=compensation))
    assert res.plan.p_star >= 1  # fixture reliably demotes at least one group
    for g, (qb, bits) in enumerate(zip(res.blocks, res.plan.bits)):
        assert qb.params.bit_width == int(bits)
        if bits == 1:
            assert np.all(qb.params.zero == 0)
            assert np.all(qb.params.scale == qb.params.scale[0])  # one shared alpha
            assert res.gammas[g] == 1.0  # no range calibration at 1 bit
            if not compensation:
                ref = binarize_block(w[:, g * 128:(g + 1) * 128])
                assert blocks_equal([qb], [ref])


def test_full_pipeline_runs_and_beats_rtn():
    w, x = clustered_layer(1)
    full = quantize_layer(w, x, PipelineConfig(beta=128, bits=2))
    rtn = quantize_layer(w, x, PipelineConfig(
        beta=128, bits=2, sba_enabled=False, sqc_enabled=False,
        compensation_enabled=False))
    assert full.proxy_loss < rtn.proxy_loss
    for qb, bits in zip(full.blocks, full.plan.bits):
        assert qb.params.bit_width == int(bits)
        assert qb.codes.max() <= (1 << int(bits)) - 1


def test_identity_gram_columnwise_matches_blockwise():
    # identity Gram: compensation changes nothing. A diagonal inverse factor
    # leaves nothing to spread, so requantizing each column under the
    # group's parameters gives the blocks of rounding the group at once
    rng = np.random.default_rng(11)
    w = random_layer(rng, 8, 64)
    calib = identity_calib(64)
    blockwise, columnwise = [
        quantize_layer(w, calib, PipelineConfig(beta=16, bits=2, compensation_enabled=enabled))
        for enabled in (False, True)
    ]
    assert blockwise.plan.p_star >= 1  # sign/magnitude groups are compared too
    assert blocks_equal(blockwise.blocks, columnwise.blocks)
    assert blockwise.proxy_loss == columnwise.proxy_loss


def columnwise_reference(w, calib, cfg, blocks):
    """The walk written out one column at a time under the parameters of
    quantize_layer's blocks, with its own requantization and float32 decode
    of each column and a rank-1 update of every later column of the group,
    then the spread onto later groups. Returns the blocks quantize_layer
    should return under those parameters, the Gram state, and per group
    the columns the walk found and its E."""
    hs = hessian_state(calib)
    u = hs.chol_inv
    work = w.astype(np.float64)
    out, walked = [], []
    for g, params in enumerate(qb.params for qb in blocks):
        lo, hi = g * cfg.beta, (g + 1) * cfg.beta
        found = work[:, lo:hi].copy()
        scale64 = params.scale.astype(np.float64)
        scale32 = params.scale.astype(np.float32)
        codes = np.empty((w.shape[0], cfg.beta), dtype=np.uint8)
        err = np.empty((w.shape[0], cfg.beta))
        for j in range(cfg.beta):
            c = lo + j
            col = work[:, c].copy()
            if params.bit_width == 1:
                codes[:, j] = col >= 0.0
                deq = (codes[:, j].astype(np.float32) * 2 - 1) * scale32
            else:
                q = np.rint(col / scale64) + params.zero.astype(np.float64)
                codes[:, j] = np.clip(q, 0, (1 << params.bit_width) - 1)
                deq = (codes[:, j].astype(np.float32) - params.zero.astype(np.float32)) * scale32
            err[:, j] = (col - deq) / u[c, c]
            work[:, c + 1 : hi] -= np.outer(err[:, j], u[c, c + 1 : hi])
        work[:, hi:] -= err @ u[lo:hi, hi:]
        out.append(QuantizedBlock(codes=codes, params=params))
        walked.append((found, err))
    return out, hs, walked


def group_at_once_loss(w, calib, cfg, plan_bits):
    """proxy_loss of the compensation that quantizes each group at once and
    only then spreads its error onto the columns right of it."""
    hs = hessian_state(calib)
    u = hs.chol_inv
    work = w.astype(np.float64)
    blocks = []
    for g, bits in enumerate(int(b) for b in plan_bits):
        lo, hi = g * cfg.beta, (g + 1) * cfg.beta
        if cfg.sqc_enabled and bits > 1:
            qb = calibrate_group(work[:, lo:hi].copy(), bits)[0]
        else:
            qb = quantize_uniform(work[:, lo:hi], bits)
        err = (work[:, lo:hi] - dequantize(qb)) / np.diag(u)[lo:hi]
        work[:, hi:] -= err @ u[lo:hi, hi:]
        blocks.append(qb)
    return proxy_loss(w, reconstruct(blocks), hs)


def test_columnwise_matches_per_column_reference():
    for seed in range(3):
        w, x = clustered_layer(seed, n=32, m=256, t=512)
        for sqc in (True, False):
            cfg = PipelineConfig(beta=64, bits=2, sqc_enabled=sqc)
            res = quantize_layer(w, x, cfg)
            assert res.plan.p_star >= 1  # some group runs at 1 bit
            ref, hs, _ = columnwise_reference(w, x, cfg, res.blocks)
            assert blocks_equal(res.blocks, ref)
            assert res.proxy_loss == proxy_loss(w, reconstruct(ref), hs)


def test_solved_errors_are_the_walks():
    # the spread onto later groups takes E from one triangular solve; it
    # must be the E the walk formed column by column, and its rows' squares
    # the losses the walk scored
    w, x = clustered_layer(5, n=32, m=256, t=512)
    cfg = PipelineConfig(beta=64, bits=2)
    res = quantize_layer(w, x, cfg)
    ref, hs, walked = columnwise_reference(w, x, cfg, res.blocks)
    for g, (qb, (found, err)) in enumerate(zip(ref, walked)):
        u = hs.chol_inv[g * 64:(g + 1) * 64, g * 64:(g + 1) * 64]
        # a copy of the working columns, the group its last one
        solved = pipeline._spread(np.asfortranarray(found), qb, u, 0, 64)
        assert np.linalg.norm(solved - err) <= 1e-12 * np.linalg.norm(err)
        p = qb.params
        _, loss = sqc_walk(found, p.scale[None], p.zero, p.bit_width, u)
        np.testing.assert_allclose(loss[0], (solved ** 2).sum(axis=1), rtol=1e-12)


@pytest.mark.parametrize("n", [1, 7, 64, 100, 300])
@pytest.mark.parametrize("beta", [16, 64, 128])
def test_spread_is_the_update_and_its_subtraction(n, beta):
    # the in-place accumulating update against the product of E and the
    # later rows of U, formed on its own and then subtracted; the two sum
    # in different orders, so the low bits may differ
    rng = np.random.default_rng(n * beta)
    m = 4 * beta
    U = hessian_state(random_calib(rng, 2 * m, m)).chol_inv
    w = rng.standard_normal((n, m))
    for g in range(4):
        lo, hi = g * beta, (g + 1) * beta
        qb = quantize_uniform(w[:, lo:hi], 2)
        work = np.array(w, order="F")
        err = pipeline._spread(work, qb, U, lo, hi)
        if hi == m:
            assert np.array_equal(work, w)
            continue
        product = scipy.linalg.blas.dgemm(1.0, U[lo:hi, hi:], err.T, trans_a=1).T
        want = w.copy()
        want[:, hi:] -= product
        assert np.abs(work - want).max() <= 1e-13 * np.abs(product).max()


@pytest.mark.parametrize("row, col", [(0, 5), (3, 20)])
def test_non_finite_factor_raises(monkeypatch, row, col):
    # (0, 5) spreads inside group 0, (3, 20) from group 0 into group 1
    rng = np.random.default_rng(13)
    w = random_layer(rng, 8, 64)
    calib = random_calib(rng, 128, 64)

    def with_inf(H):
        hs = damp_and_invert(H)
        hs.chol_inv[row, col] = np.inf
        return hs

    monkeypatch.setattr(pipeline, "damp_and_invert", with_inf)
    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteIntermediate):
        quantize_layer(w, calib, PipelineConfig(beta=16, bits=2, sba_enabled=False))


def test_one_sample_calibration_is_not_copied_or_written(monkeypatch):
    # float32 rows reach the Gram matrix and the divergence reference as given
    rng = np.random.default_rng(14)
    w = random_layer(rng, 8, 64)
    x = random_calib(rng, 128, 64)
    before = x.copy()
    seen = []

    def recording(fn):
        return lambda rows, *rest: seen.append(rows) or fn(rows, *rest)

    monkeypatch.setattr(pipeline, "accumulate_hessian", recording(accumulate_hessian))
    monkeypatch.setattr(pipeline, "kl_reference", recording(kl_reference))
    quantize_layer(w, x, PipelineConfig(beta=16, bits=2))
    assert len(seen) == 2 and all(rows is x for rows in seen)
    assert x.tobytes() == before.tobytes()


def test_float64_calibration_gives_the_results_of_its_float32_rounding():
    rng = np.random.default_rng(15)
    w = random_layer(rng, 8, 64)
    x = rng.standard_normal((128, 64))
    a = quantize_layer(w, x, PipelineConfig(beta=16, bits=2))
    b = quantize_layer(w, x.astype(np.float32), PipelineConfig(beta=16, bits=2))
    assert blocks_equal(a.blocks, b.blocks)
    assert np.array_equal(a.plan.bits, b.plan.bits)
    assert np.array_equal(a.plan.kl_curve, b.plan.kl_curve)
    assert np.array_equal(a.gammas, b.gammas)
    assert (a.proxy_loss, a.recon_mse, a.recon_kl) == (b.proxy_loss, b.recon_mse, b.recon_kl)


def test_plan_widths_match_blocks():
    w, x = clustered_layer(2, n=16, m=256, t=512)
    res = quantize_layer(w, x, PipelineConfig(beta=64, bits=3))
    assert len(res.blocks) == 4
    for qb, bits in zip(res.blocks, res.plan.bits):
        assert qb.params.bit_width == int(bits)
    assert res.plan.bits.sum() == 12


def test_input_validation():
    rng = np.random.default_rng(9)
    w = random_layer(rng, 4, 32)
    calib = random_calib(rng, 8, 32)
    with pytest.raises(BadGroupSize):
        quantize_layer(w, calib, PipelineConfig(beta=7, bits=2))
    with pytest.raises(ShapeMismatch):
        quantize_layer(w, random_calib(rng, 8, 16),
                       PipelineConfig(beta=8, bits=2))
    bad = w.copy()
    bad[0, 0] = np.nan
    with pytest.raises(NonFiniteValue):
        quantize_layer(bad, calib, PipelineConfig(beta=8, bits=2))
    with pytest.raises(ShapeMismatch):
        quantize_layer(w[0], calib, PipelineConfig(beta=8, bits=2))


def test_check_layer_raises_the_first_failing_check():
    # each case mends the previous one's first failure and keeps the rest,
    # so every check is reached with all the later ones failing too
    rng = np.random.default_rng(9)
    w = random_layer(rng, 4, 32)
    nan = w.copy()
    nan[0, 0] = np.nan
    wide = random_calib(rng, 8, 48)
    cases = [
        (w[0], wide, 0, InvalidConfig, "group size must be >= 1"),
        (w[0], wide, 7, ShapeMismatch, "must be 2-D"),
        (w[:0], wide, 7, ShapeMismatch, "at least one row"),
        (nan.astype(np.complex64), wide, 7, InvalidConfig, "real numbers"),
        (nan, wide, 7, NonFiniteValue, "NaN"),
        (w, wide, 7, BadGroupSize, "does not divide"),
        (w, wide.astype(str)[0], 8, ShapeMismatch, "2-D array"),
        (w, wide.astype(str), 8, InvalidConfig, "real numbers"),
        (w, wide, 8, ShapeMismatch, "calibration has 48 channels"),
    ]
    for weights, calib, beta, error, message in cases:
        with pytest.raises(error, match=message):
            check_layer(weights, calib, beta)
    check_layer(w, random_calib(rng, 8, 32), 8)


# calibration rows a layer of 32 channels refuses, and the error each raises;
# the Gram matrix used to read complex rows as their real part, cast object
# rows and parse string rows
MALFORMED_CALIBRATION = [
    ([[1.0] * 32], ShapeMismatch),
    (np.float32(1.0), ShapeMismatch),
    (np.ones(32, dtype=np.float32), ShapeMismatch),
    (np.ones((2, 4, 32), dtype=np.float32), ShapeMismatch),
    (np.ones((0, 32), dtype=np.float32), EmptyCalibration),
    *[(np.ones((8, 32), dtype=dtype), InvalidConfig) for dtype in (np.complex128, object, np.str_)],
]


@pytest.mark.filterwarnings("error")  # no ComplexWarning before the error
@pytest.mark.parametrize("stage", ["quantize_layer", "check_layer", "accumulate_hessian"])
def test_malformed_calibration_raises_typed_errors(stage):
    # calibration is a (T, m) real array; anything else is refused with the
    # error it calls for, never a stray AttributeError or ValueError
    rng = np.random.default_rng(16)
    w = random_layer(rng, 4, 32)
    run = {
        "quantize_layer": lambda x: quantize_layer(w, x, PipelineConfig(beta=8, bits=2)),
        "check_layer": lambda x: check_layer(w, x, 8),
        "accumulate_hessian": accumulate_hessian,
    }[stage]
    run(random_calib(rng, 8, 32))
    cases = list(MALFORMED_CALIBRATION)
    if stage != "accumulate_hessian":  # the Gram matrix alone has no weights to match
        cases.append((np.ones((8, 16), dtype=np.float32), ShapeMismatch))
    for x, error in cases:
        with pytest.raises(error):
            run(x)


def test_calibration_cases_reach_every_raise_of_the_row_check():
    def run():
        w = np.ones((4, 32), dtype=np.float32)
        for x, error in [*MALFORMED_CALIBRATION, (np.ones((8, 16)), ShapeMismatch)]:
            with pytest.raises(error):
                check_layer(w, x, 8)

    assert not missed_raises((require_rows,), run)


@pytest.mark.parametrize("rows, channels", [(0, 8), (8, 0)])
def test_empty_layer_rejected(rows, channels):
    # the calibration matches the layer's width, so only the empty shape is wrong
    calib = np.ones((4, channels), dtype=np.float32)
    with pytest.raises(ShapeMismatch):
        quantize_layer(np.ones((rows, channels), dtype=np.float32), calib,
                       PipelineConfig(beta=8, bits=2))


@pytest.mark.parametrize("bits", [0, 1, 4, 5])
@pytest.mark.parametrize("sba", [True, False])
def test_bits_outside_two_and_three_rejected(bits, sba):
    with pytest.raises(InvalidConfig):
        PipelineConfig(bits=bits, sba_enabled=sba)


@pytest.mark.parametrize("name, value", [
    ("beta", 0),
    ("beta", -8),
])
def test_bad_group_size_and_damping_rejected(name, value):
    # the damping is fixed; test_salience covers damp_and_invert's own check
    with pytest.raises(InvalidConfig):
        PipelineConfig(**{name: value})


@pytest.mark.parametrize("name", ["beta", "bits"])
@pytest.mark.parametrize("value", [None, 2.0, 2.5, "2"])
def test_group_size_and_width_that_are_not_integers_rejected(name, value):
    with pytest.raises(InvalidConfig, match=f"{name} must be an integer"):
        PipelineConfig(**{name: value})


def test_numpy_integer_settings_accepted():
    cfg = PipelineConfig(beta=np.int64(8), bits=np.int32(3))
    assert (cfg.beta, cfg.bits) == (8, 3)


def test_weights_past_float32_range_are_non_finite():
    # finite in float64, infinite once rounded to the float32 the layer is
    # quantized in
    rng = np.random.default_rng(9)
    w = random_layer(rng, 4, 16).astype(np.float64)
    w[1, 2] = 1e39
    with pytest.warns(RuntimeWarning), pytest.raises(NonFiniteValue):
        quantize_layer(w, random_calib(rng, 8, 16), PipelineConfig(beta=8, bits=2))


def test_result_shapes_and_finiteness():
    rng = np.random.default_rng(10)
    w = random_layer(rng, 8, 128)
    calib = random_calib(rng, 256, 128)
    res = quantize_layer(w, calib, PipelineConfig(beta=32, bits=2))
    assert isinstance(res, QuantizationResult)
    assert res.proxy_loss >= 0.0 and np.isfinite(res.proxy_loss)
    assert res.recon_mse > 0.0 and np.isfinite(res.recon_mse)
    assert res.recon_kl >= 0.0 and np.isfinite(res.recon_kl)
    assert res.gammas.shape == (4,)
