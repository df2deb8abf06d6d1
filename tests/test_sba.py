"""Tests for output-divergence scoring and paired bit allocation.

The oracle reimplements the whole search independently: scipy softmax and
rel_entr for the divergence, a plain exhaustive loop over pairing counts,
and Python sorting for the rank sets.
"""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.special

from fixtures import hessian_state, random_calib, random_layer
from slimquant import sba
from slimquant.errors import BadGroupSize, EmptyCalibration, ShapeMismatch
from slimquant.quant_core import (
    binarize_block,
    dequantize,
    params_from_range,
    quantize_uniform,
)
from slimquant.salience import SalienceMap, salience_map
from slimquant.sba import (
    _COLUMNS,
    _TOKEN_OUTPUTS,
    BitPlan,
    allocate_bits,
    kl_reference,
    _outputs,
    _spans,
    _token_blocks,
    output_kl,
    stride_subsample,
)
from slimquant.tensor_store import CalibrationSet


def oracle_kl(x, w, w_hat):
    """Independent divergence computation via scipy."""
    y = x.astype(np.float64) @ w.astype(np.float64).T
    z = x.astype(np.float64) @ w_hat.astype(np.float64).T
    p = scipy.special.softmax(y, axis=1)
    q = scipy.special.softmax(z, axis=1)
    p = np.maximum(p, sba.EPSILON)
    p /= p.sum(axis=1, keepdims=True)
    q = np.maximum(q, sba.EPSILON)
    q /= q.sum(axis=1, keepdims=True)
    return float(np.mean(np.sum(scipy.special.rel_entr(p, q), axis=1)))


def oracle_plans(group_mean, target):
    """Every candidate plan, with its own ranking and assembly logic."""
    k = len(group_mean)
    plans = []
    for p in range(k // 2 + 1):
        order = sorted(range(k), key=lambda g: (group_mean[g], g))
        low = order[:p]
        rest = [g for g in order if g not in low]
        high = sorted(rest, key=lambda g: (-group_mean[g], g))[:p]
        bits = [target] * k
        for g in low:
            bits[g] = target - 1
        for g in high:
            bits[g] = target + 1
        plans.append(bits)
    return plans


def fake_quantize(w, bits, beta, one_bit=None):
    """Plain quantize_uniform fake quantization per group; 1-bit groups are
    decoded by one_bit instead when it is given."""
    w_hat = np.empty_like(w, dtype=np.float32)
    for g, b in enumerate(bits):
        sl = slice(g * beta, (g + 1) * beta)
        if b == 1 and one_bit is not None:
            w_hat[:, sl] = one_bit(w[:, sl])
        else:
            w_hat[:, sl] = dequantize(quantize_uniform(w[:, sl], b))
    return w_hat


def oracle_allocation(w, x, group_mean, beta, target):
    """Exhaustive search scored with the scipy divergence."""
    plans = oracle_plans(group_mean, target)
    curve = [oracle_kl(x, w, fake_quantize(w, bits, beta)) for bits in plans]
    best = int(np.argmin(curve))
    return plans, curve, best


def test_identical_outputs_give_zero():
    rng = np.random.default_rng(1)
    w = random_layer(rng, 4, 8)
    x = random_calib(rng, 6, 8)
    assert output_kl(kl_reference(x, w), w.copy()) == 0.0


def test_divergence_nonnegative():
    rng = np.random.default_rng(2)
    for _ in range(100):
        w = random_layer(rng, 3, 6)
        w_hat = w + rng.normal(0, 0.1, w.shape).astype(np.float32)
        x = random_calib(rng, 5, 6)
        assert output_kl(kl_reference(x, w), w_hat) >= 0.0


def test_two_way_closed_form():
    # outputs [0, log 3] vs [0, 0]: P = (1/4, 3/4), Q = (1/2, 1/2)
    x = np.array([[1.0]])
    w = np.array([[0.0], [math.log(3.0)]])
    w_hat = np.zeros((2, 1))
    expected = 0.25 * math.log(0.5) + 0.75 * math.log(1.5)
    got = output_kl(kl_reference(x, w), w_hat)
    assert got == pytest.approx(expected, rel=1e-9)
    assert got == pytest.approx(0.13081, abs=1e-5)


def test_matches_scipy_oracle():
    rng = np.random.default_rng(3)
    for _ in range(25):
        w = random_layer(rng, 6, 10)
        w_hat = w + rng.normal(0, 0.2, w.shape).astype(np.float32)
        x = random_calib(rng, 12, 10)
        assert output_kl(kl_reference(x, w), w_hat) == pytest.approx(
            oracle_kl(x, w, w_hat), rel=1e-10)


def test_epsilon_floor_keeps_logs_finite():
    x = np.array([[1.0]], dtype=np.float32)
    w = np.array([[0.0], [200.0]], dtype=np.float32)  # saturated softmax
    w_hat = np.array([[200.0], [0.0]], dtype=np.float32)
    got = output_kl(kl_reference(x, w), w_hat)
    assert math.isfinite(got)
    assert got > 0.0


# malformed divergence inputs made from a valid (w, x) pair, and the error
# kl_reference, the one check of them, must raise
MALFORMED = {
    "0d-activations": (lambda w, x: (w, x[0, 0]), ShapeMismatch),
    "1d-activations": (lambda w, x: (w, x[:, 0]), ShapeMismatch),
    "wrong-channel-count": (lambda w, x: (w, x[:, :-1]), ShapeMismatch),
    "no-token-rows": (lambda w, x: (w, x[:0]), EmptyCalibration),
    "1d-weights": (lambda w, x: (w[0], x), ShapeMismatch),
    "no-weight-rows": (lambda w, x: (w[:0], x), ShapeMismatch),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_kl_reference_rejects_malformed_inputs(case):
    rng = np.random.default_rng(5)
    malform, error = MALFORMED[case]
    w, x = malform(random_layer(rng, 2, 4), random_calib(rng, 3, 4))
    with pytest.raises(error):
        kl_reference(x, w)


@pytest.mark.parametrize("shape", [(2, 5), (3, 4), (8,), (4, 2)],
                         ids=lambda shape: "x".join(map(str, shape)))
def test_output_kl_rejects_other_weight_shapes(shape):
    rng = np.random.default_rng(5)
    ref = kl_reference(random_calib(rng, 6, 4), random_layer(rng, 2, 4))
    with pytest.raises(ShapeMismatch):
        output_kl(ref, np.zeros(shape, dtype=np.float32))


def test_stride_subsample():
    x = np.arange(20, dtype=np.float32).reshape(10, 2)
    sub = stride_subsample(x, 4)
    assert sub.shape[0] == 4  # ceil(10/4) = 3 -> rows 0, 3, 6, 9
    assert np.array_equal(sub[:, 0], [0.0, 6.0, 12.0, 18.0])
    assert stride_subsample(x, 100) is x


@pytest.mark.parametrize("t, max_tokens", [(10, 4), (10, 3), (9, 9), (9, 100), (7, 1)])
def test_kl_reference_strides_its_rows(monkeypatch, t, max_tokens):
    monkeypatch.setattr(sba, "MAX_TOKENS", max_tokens)
    rng = np.random.default_rng(t + max_tokens)
    w, x = random_layer(rng, 3, 4), random_calib(rng, t, 4)
    ref = kl_reference(x, w)
    assert np.array_equal(ref.xs, x[::math.ceil(t / max_tokens)])
    assert ref.xs.dtype == np.float32  # kept as given, not widened
    # unstrided rows are the caller's own; strided ones a compact copy
    # that does not keep the caller's rows alive
    assert np.shares_memory(ref.xs, x) == (t <= max_tokens)
    assert ref.xs.flags.c_contiguous
    want = output_kl(kl_reference(x[::math.ceil(t / max_tokens)], w), w * 0.5)
    assert output_kl(ref, w * 0.5) == want


def test_references_and_plans_compare_by_identity():
    # == on dataclasses of arrays would raise numpy's ambiguous truth value
    w, x, sal = plan_inputs(3)
    a, b = kl_reference(x, w), kl_reference(x, w)
    assert a == a and a != b
    plan = allocate_bits(w, a, sal, 8, 2)
    same = BitPlan(bits=plan.bits.copy(), p_star=plan.p_star, kl_curve=plan.kl_curve.copy())
    assert plan == plan and plan != same


def plan_inputs(seed, n=8, m=48, beta=8, t=20):
    rng = np.random.default_rng(seed)
    w = random_layer(rng, n, m)
    x = random_calib(rng, t, m)
    hs = hessian_state(CalibrationSet([x]))
    sal = salience_map(w, hs, beta)
    return w, x, sal


@pytest.mark.parametrize("target", [2, 3])
def test_plan_constraints(target):
    for seed in range(20):
        w, x, sal = plan_inputs(seed)
        plan = allocate_bits(w, kl_reference(x, w), sal, 8, target)
        k = 6
        assert plan.bits.shape == (k,)
        assert set(np.unique(plan.bits)) <= {target - 1, target, target + 1}
        assert plan.bits.sum() == target * k  # mean width is exact
        assert np.sum(plan.bits == target - 1) == np.sum(plan.bits == target + 1)
        assert plan.kl_curve.shape == (k // 2 + 1,)
        assert plan.evaluations == k // 2 + 1
        assert plan.kl_curve[plan.p_star] <= plan.kl_curve.min() + 1e-18


def test_promotions_follow_salience_rank():
    for seed in range(10):
        w, x, sal = plan_inputs(seed, m=64, beta=8)
        plan = allocate_bits(w, kl_reference(x, w), sal, 8, 2)
        gm = sal.group_mean
        lows = np.flatnonzero(plan.bits == 1)
        highs = np.flatnonzero(plan.bits == 3)
        mids = np.flatnonzero(plan.bits == 2)
        if len(lows) and len(mids):
            assert gm[lows].max() <= gm[mids].min()
        if len(highs) and len(mids):
            assert gm[highs].min() >= gm[mids].max()


def test_matches_exhaustive_oracle():
    for seed in range(12):
        w, x, sal = plan_inputs(seed + 60, n=6, m=48, beta=8, t=16)
        plan = allocate_bits(w, kl_reference(x, w), sal, 8, 2)
        plans, curve, best = oracle_allocation(w, x, sal.group_mean, 8, 2)
        assert plan.p_star == best
        np.testing.assert_allclose(plan.kl_curve, curve, rtol=1e-10)
        assert list(plan.bits) == plans[best]


def test_uniform_candidate_is_plain_fakequant():
    w, x, sal = plan_inputs(99)
    ref = kl_reference(x, w)
    plan = allocate_bits(w, ref, sal, 8, 2)
    w_hat = np.empty_like(w)
    for g in range(6):
        sl = slice(g * 8, (g + 1) * 8)
        w_hat[:, sl] = dequantize(quantize_uniform(w[:, sl], 2))
    want = output_kl(ref, w_hat)
    assert plan.kl_curve[0] == pytest.approx(want, rel=1e-12)


def test_reference_reuse_changes_no_bits(monkeypatch):
    # one KlReference serves the search and the final score: it holds the
    # rows strided at sba.MAX_TOKENS, gives the curve, to the bit, of a
    # reference built on rows strided beforehand, and no score writes it
    for seed, max_tokens in ((70, 4096), (71, 7)):
        monkeypatch.setattr(sba, "MAX_TOKENS", max_tokens)
        w, x, sal = plan_inputs(seed, t=20)
        ref = kl_reference(x, w)
        assert np.array_equal(ref.xs, stride_subsample(x, max_tokens))
        p_before = ref.p.copy()
        plan = allocate_bits(w, ref, sal, 8, 2)
        again = allocate_bits(w, kl_reference(stride_subsample(x, max_tokens), w), sal, 8, 2)
        assert plan.kl_curve.tobytes() == again.kl_curve.tobytes()
        assert np.array_equal(plan.bits, again.bits)
        output_kl(ref, fake_quantize(w, list(plan.bits), 8))
        assert np.array_equal(ref.p, p_before)


def test_monotone_salience_relabel_keeps_plan():
    w, x, sal = plan_inputs(42)
    relabeled = SalienceMap(
        group_mean=np.exp(sal.group_mean / sal.group_mean.max()),
        channel_mean=sal.channel_mean,
    )
    ref = kl_reference(x, w)
    a = allocate_bits(w, ref, sal, 8, 2)
    b = allocate_bits(w, ref, relabeled, 8, 2)
    assert np.array_equal(a.bits, b.bits)
    assert a.p_star == b.p_star


def test_duplicate_groups_tie_to_lower_index():
    rng = np.random.default_rng(77)
    half = random_layer(rng, 4, 8)
    w = np.concatenate([half, half], axis=1)  # two identical groups
    x = random_calib(rng, 10, 16)
    hs = hessian_state(CalibrationSet([x]))
    # force exactly equal group salience with a hand-built map
    delta = np.tile((half.astype(np.float64) ** 2), (1, 2))
    sal = SalienceMap(
        group_mean=np.array([1.0, 1.0]),
        channel_mean=delta.mean(axis=0),
    )
    plan = allocate_bits(w, kl_reference(x, w), sal, 8, 2)
    assert plan.evaluations == 2
    if plan.p_star == 1:
        assert plan.bits[0] == 1  # demotion takes the lower index on ties
        assert plan.bits[1] == 3


def test_incremental_search_matches_full_recompute():
    # the search updates one running layer output from candidate to
    # candidate; rebuilding and multiplying every candidate from scratch
    # must give the same curve up to summation order, and the same plan
    cases = [(*plan_inputs(seed, m=64), target)
             for seed, target in [(5, 2), (6, 2), (7, 3), (8, 3), (9, 2),
                                  (31, 2), (32, 2), (33, 2)]]
    # all means tied: ranks fall back to group index, so a group promoted
    # at one pairing count is demoted at the next
    w, x, sal = plan_inputs(10, m=64)
    tied = SalienceMap(group_mean=np.ones(8),
                       channel_mean=sal.channel_mean)
    cases += [(w, x, tied, 2), (w, x, tied, 3)]
    for w, x, sal, target in cases:
        plan = allocate_bits(w, kl_reference(x, w), sal, 8, target)
        plans = oracle_plans(sal.group_mean, target)
        ref = kl_reference(stride_subsample(x, sba.MAX_TOKENS), w)
        curve = np.array([output_kl(ref, fake_quantize(w, bits, 8)) for bits in plans])
        np.testing.assert_allclose(plan.kl_curve, curve, rtol=1e-12, atol=0.0)
        assert plan.p_star == int(np.argmin(curve))
        assert list(plan.bits) == plans[plan.p_star]


def column_sum(xs, w, width=_COLUMNS):
    """xs @ wT in float64 as zero plus the numpy product of each block of
    width channels, added left to right. The weights are Fortran-ordered,
    as the dgemm wrapper hands them to BLAS, so that numpy takes small
    products to the kernel dgemm takes them to."""
    xs, w = xs.astype(np.float64), np.asfortranarray(w, dtype=np.float64)
    y = np.zeros((xs.shape[0], w.shape[0]))
    for c0 in range(0, xs.shape[1], width):
        y += xs[:, c0:c0 + width] @ w[:, c0:c0 + width].T
    return y


def full_array_distributions(y):
    """The softmax of every row of y at once, floored and renormalized."""
    q = y - y.max(axis=1, keepdims=True)
    np.exp(q, out=q)
    q /= q.sum(axis=1, keepdims=True)
    np.maximum(q, sba.EPSILON, out=q)
    q /= q.sum(axis=1, keepdims=True)
    return q


def full_array_kl(p, log_p, y):
    """Mean over rows of KL(p || softmax(y)), over the whole arrays."""
    return float(((log_p - np.log(full_array_distributions(y))) * p).sum(axis=1).mean())


def full_array_curve(w, x, group_mean, beta, target):
    """The width search's curve with every softmax and divergence taken
    over the whole (t, n) output, the layer output formed as the search
    forms it: the first candidate one group of columns at a time, then
    updated group by group."""
    xs = stride_subsample(x, sba.MAX_TOKENS).astype(np.float64)
    p = full_array_distributions(column_sum(xs, w))
    log_p = np.log(p)

    def fake(g, bits):
        return dequantize(quantize_uniform(w[:, g * beta:(g + 1) * beta], bits)).astype(np.float64)

    plans = [np.array(b) for b in oracle_plans(group_mean, target)]
    prev = plans[0]
    y = column_sum(xs, np.concatenate([fake(g, b) for g, b in enumerate(prev)], axis=1), beta)
    curve = []
    for bits in plans:
        for g in np.flatnonzero(bits != prev):
            y += xs[:, g * beta:(g + 1) * beta] @ (fake(g, bits[g]) - fake(g, prev[g])).T
        curve.append(full_array_kl(p, log_p, y))
        prev = bits
    return np.array(curve)


# scale divides the weights, and so the outputs: at 0.7 the softmax is
# sharper than at 1
@pytest.mark.parametrize("n, m, beta, t, scale", [
    (4096, 16, 4, 50, 1.0),  # 16 rows per block, a ragged last block of 2
    (70_000, 8, 4, 3, 1.0),  # rows longer than a block: one row per block
    (64, 32, 8, 200, 0.7),
    # the benchmark's group size over 64-row blocks, the last one ragged:
    # the accumulating update rounds as a separate product plus an add
    (1024, 512, 128, 200, 1.0),
])
def test_row_blocks_match_full_array_scoring(n, m, beta, t, scale):
    rng = np.random.default_rng(n + t)
    w = random_layer(rng, n, m) / np.float32(scale)
    x = random_calib(rng, t, m)
    w_hat = fake_quantize(w, [2] * (m // beta), beta)
    p = full_array_distributions(column_sum(x, w))
    want = full_array_kl(p, np.log(p), column_sum(x, w_hat))
    got = output_kl(kl_reference(x, w), w_hat)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
    sal = salience_map(w, hessian_state(CalibrationSet([x])), beta)
    plan = allocate_bits(w, kl_reference(x, w), sal, beta, 2)
    want_curve = full_array_curve(w, x, sal.group_mean, beta, 2)
    assert plan.kl_curve.tobytes() == want_curve.tobytes()


def test_wide_groups_match_full_array_scoring_closely():
    # groups wider than the BLAS K block: the accumulating update adds
    # partial sums into the running output, so only the low bits may move
    rng = np.random.default_rng(512)
    n, m, beta, t = 256, 2048, 512, 300
    w = random_layer(rng, n, m)
    x = random_calib(rng, t, m)
    sal = salience_map(w, hessian_state(CalibrationSet([x])), beta)
    plan = allocate_bits(w, kl_reference(x, w), sal, beta, 2)
    want_curve = full_array_curve(w, x, sal.group_mean, beta, 2)
    np.testing.assert_allclose(plan.kl_curve, want_curve, rtol=1e-10, atol=0.0)
    assert plan.p_star == int(np.argmin(want_curve))


def two_token_block_layer(t_rows):
    """A 4096-row layer with 8-channel groups whose outputs over t_rows
    token rows span two token blocks."""
    rng = np.random.default_rng(21)
    n, m, beta = 4096, 32, 8
    w = random_layer(rng, n, m)
    x = random_calib(rng, t_rows, m)
    sal = salience_map(w, hessian_state(CalibrationSet([x])), beta)
    return w, x, sal, beta


def test_two_token_blocks_match_full_array_scoring():
    # the search and a whole-layer score over two token blocks give the
    # bits of one pass over the full arrays
    w, x, sal, beta = two_token_block_layer(1032)
    ref = kl_reference(x, w)
    assert [(r0, r1) for r0, r1, _ in _token_blocks(ref)] == [(0, 516), (516, 1032)]
    w_hat = fake_quantize(w, [2] * 4, beta)
    p = full_array_distributions(column_sum(x, w))
    want = full_array_kl(p, np.log(p), column_sum(x, w_hat))
    assert np.float64(output_kl(ref, w_hat)).tobytes() == np.float64(want).tobytes()
    plan = allocate_bits(w, ref, sal, beta, 2)
    want_curve = full_array_curve(w, x, sal.group_mean, beta, 2)
    assert plan.kl_curve.tobytes() == want_curve.tobytes()


def test_search_and_score_hold_one_token_block_of_outputs():
    # over two token blocks the width search and a whole-layer score each
    # hold one block of outputs beside the reference distribution: no
    # output array of all the rows and no float64 copy of the weights
    w, x, sal, beta = two_token_block_layer(2 * _TOKEN_OUTPUTS // 4096)
    t, n = x.shape[0], w.shape[0]
    ref = kl_reference(x, w)
    assert len(list(_token_blocks(ref))) == 2
    w_hat = fake_quantize(w, [2] * 4, beta)
    calls = {
        "allocate_bits": lambda: allocate_bits(w, ref, sal, beta, 2),
        "output_kl": lambda: output_kl(ref, w_hat),
    }
    for name, call in calls.items():
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.75 * t * n * 8, name


@pytest.mark.parametrize("total, size", [(1, 4), (2, 4), (5, 4), (7, 4), (2048, 1024), (2049, 1024)])
def test_spans_cover_the_range_in_nearly_equal_runs(total, size):
    spans = _spans(total, size)
    assert len(spans) == math.ceil(total / size)
    assert spans[0][0] == 0 and spans[-1][1] == total
    assert all(a1 == b0 for (_, a1), (b0, _) in zip(spans, spans[1:]))
    lengths = [b - a for a, b in spans]
    assert max(lengths) <= size
    assert min(lengths) >= 2 or total == 1  # no single-row product


def test_scores_do_not_depend_on_the_weights_layout():
    # products this small are where BLAS sums in another order for the
    # other transpose flag; the dgemm wrapper copies weights that are not
    # Fortran-ordered float64 into a buffer that is, so a C and a Fortran
    # copy score the same bits
    rng = np.random.default_rng(23)
    for _ in range(200):
        n, m, t = (int(v) for v in rng.integers(1, [40, 300, 64]))
        w = random_layer(rng, n, m)
        w_hat = w + rng.normal(0, 0.1, w.shape).astype(np.float32)
        ref = kl_reference(random_calib(rng, t, m), w)
        got = [output_kl(ref, order(w_hat)) for order in (np.ascontiguousarray, np.asfortranarray)]
        assert np.float64(got[0]).tobytes() == np.float64(got[1]).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("t", [1, 255, 256, 257, 2048])
def test_outputs_match_column_block_sum(t, dtype):
    # a layer output is zero plus each block of _COLUMNS channels' product,
    # to the bit, whatever the rows' dtype and the weights' layout; the
    # last block of 4160 channels is ragged. numpy takes a single row to
    # gemv, which sums in another order than gemm, so one row's sum is
    # taken as the first row of two
    m = 4160
    assert m % _COLUMNS != 0
    rng = np.random.default_rng(t)
    w = random_layer(rng, 64, m)
    xs = rng.standard_normal((t, m)).astype(dtype)
    want = column_sum(np.concatenate([xs, xs]) if t == 1 else xs, w)[:t].tobytes()
    for order in (np.ascontiguousarray, np.asfortranarray):
        assert _outputs(xs, order(w)).tobytes() == want, order.__name__


def test_products_make_no_float64_copy_of_the_rows():
    # the exact outputs and a whole-layer score widen float32 rows a block
    # of columns at a time: no (t, m) float64 array is allocated
    rng = np.random.default_rng(22)
    t, m = 2048, 1024
    w = random_layer(rng, 64, m)
    x = random_calib(rng, t, m)
    w_hat = fake_quantize(w, [2] * 8, 128)
    tracemalloc.start()
    try:
        ref = kl_reference(x, w)
        output_kl(ref, w_hat)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ref.xs is x
    assert peak < t * m * 8
    # nor a float64 copy of the whole weights: beside what a call must hold
    # (one block of outputs, and in the search its float32 decode of every
    # group at both widths it takes), each allocates less than one
    n = m = t = 1024
    w = random_layer(rng, n, m)
    x = random_calib(rng, t, m)
    w_hat = fake_quantize(w, [2] * 8, 128)
    ref = kl_reference(x, w)
    sal = salience_map(w, hessian_state(CalibrationSet([x])), 128)
    outputs, decodes = t * n * 8, 2 * n * m * 4
    calls = {
        "kl_reference": (lambda: kl_reference(x, w), outputs),
        "output_kl": (lambda: output_kl(ref, w_hat), outputs),
        "allocate_bits": (
            lambda: allocate_bits(w, ref, sal, 128, 2), outputs + decodes
        ),
    }
    for name, (call, held) in calls.items():
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < held + n * m * 8, name


def test_evaluation_count_matches_group_count():
    rng = np.random.default_rng(6)
    w = random_layer(rng, 4, 4096)
    x = random_calib(rng, 16, 4096)
    hs = hessian_state(CalibrationSet([x]))
    sal = salience_map(w, hs, 128)
    plan = allocate_bits(w, kl_reference(x, w), sal, 128, 2)
    assert plan.evaluations == 17
    assert len(plan.kl_curve) == 17


def sign_one_bit(block):
    return dequantize(binarize_block(block))


def affine_one_bit(block):
    """The zero-inclusive min/max grid at 1 bit, decoded: a form the search
    does not use and the package has no rule for."""
    b = np.asarray(block, dtype=np.float64)
    lo, hi = np.minimum(b.min(axis=1), 0.0), np.maximum(b.max(axis=1), 0.0)
    p = params_from_range(lo, hi, 1)
    s, z = p.scale.astype(np.float64)[:, None], p.zero.astype(np.float64)[:, None]
    return ((np.clip(np.rint(b / s) + z, 0, 1) - z) * s).astype(np.float32)


def test_one_bit_candidates_are_sign_magnitude():
    for seed in (31, 32, 33):
        w, x, sal = plan_inputs(seed)
        ref = kl_reference(x, w)
        plan = allocate_bits(w, ref, sal, 8, 2)
        plans = oracle_plans(sal.group_mean, 2)
        signed = [output_kl(ref, fake_quantize(w, b, 8, sign_one_bit)) for b in plans]
        affine = [output_kl(ref, fake_quantize(w, b, 8, affine_one_bit)) for b in plans]
        np.testing.assert_allclose(plan.kl_curve, signed, rtol=1e-12, atol=0.0)
        assert affine[0] == signed[0]  # p=0 has no 1-bit groups
        assert np.all(np.array(affine[1:]) != np.array(signed[1:]))


def test_allocation_input_validation():
    w, x, sal = plan_inputs(1)
    with pytest.raises(ValueError):
        allocate_bits(w, kl_reference(x, w), sal, 8, 4)
    with pytest.raises(BadGroupSize):
        allocate_bits(w, kl_reference(x, w), sal, 7, 2)
    with pytest.raises(ShapeMismatch):
        allocate_bits(w[:, :40], kl_reference(x[:, :40], w[:, :40]), sal, 8, 2)
    # a reference of another layer's weights
    with pytest.raises(ShapeMismatch):
        allocate_bits(w[:4], kl_reference(x, w), sal, 8, 2)


@pytest.mark.parametrize("case", MALFORMED)
def test_allocation_rejects_malformed_divergence_inputs(case):
    # malformed inputs make no reference, and malformed weights do not
    # match the reference of the layer's own
    w, x, sal = plan_inputs(1)
    malform, error = MALFORMED[case]
    bad_w, bad_x = malform(w, x)
    with pytest.raises(error):
        allocate_bits(bad_w, kl_reference(bad_x, bad_w), sal, 8, 2)
    if bad_w is not w:
        with pytest.raises(error):
            allocate_bits(bad_w, kl_reference(x, w), sal, 8, 2)
