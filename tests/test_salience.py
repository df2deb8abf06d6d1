"""Tests for Gram accumulation, damped inversion and salience scoring."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack

from fixtures import identity_calib, random_calib
from slimquant import salience as salience_module
from slimquant.errors import (
    BadGroupSize,
    EmptyCalibration,
    InvalidConfig,
    NotPositiveDefinite,
    ShapeMismatch,
)
from slimquant.salience import (
    _REVERSE_CHUNK,
    DAMPING_FLOOR,
    HessianState,
    _reverse_in_place,
    accumulate_hessian,
    damp_and_invert,
    salience,
    salience_map,
    salient_mask_3sigma,
)
from slimquant.tensor_store import read_rows, write_tensor


def row_blocks(x, rows_per_block):
    """x's rows rounded to float32, in blocks of rows_per_block rows."""
    x = np.asarray(x, dtype=np.float32)
    return [x[lo : lo + rows_per_block] for lo in range(0, len(x), rows_per_block)]


def numpy_gram(blocks):
    """numpy's x.T @ x per block, summed from the first product and
    divided by the token count: the exactly symmetric Gram matrix whose
    lower triangle accumulate_hessian must hold."""
    xs = [np.asarray(b, dtype=np.float64) for b in blocks]
    acc = xs[0].T @ xs[0]
    for x in xs[1:]:
        acc += x.T @ x
    return acc / float(sum(len(x) for x in xs))


def assert_lower_gram(H, ref):
    """H holds ref's lower triangle and diagonal, bit for bit, and zeros
    above the diagonal."""
    assert H.flags.c_contiguous and H.dtype == np.float64
    assert np.tril(H).tobytes() == np.tril(ref).tobytes()
    assert not np.triu(H, 1).any()


def unit_state(m):
    """HessianState for an exactly-identity inverse (no damping applied)."""
    return HessianState(
        damping=0.0,
        H_inv_diag=np.ones(m),
        chol_inv=np.eye(m),
    )


def test_one_hot_token_gram():
    x = np.zeros((1, 3), dtype=np.float32)
    x[0, 0] = 1.0
    H = accumulate_hessian(x)
    assert np.array_equal(H, np.diag([1.0, 0.0, 0.0]))


def test_orthogonal_tokens_average():
    x = np.eye(2, dtype=np.float32)
    H = accumulate_hessian(x)
    assert np.array_equal(H, 0.5 * np.eye(2))


def test_gram_matches_outer_product_loop():
    rng = np.random.default_rng(2)
    x = random_calib(rng, 64, 12)
    H = accumulate_hessian(x)
    ref = np.zeros((12, 12))
    for t in range(64):
        v = x[t].astype(np.float64)
        ref += np.outer(v, v)
    ref /= 64.0
    assert np.allclose(np.tril(H), np.tril(ref), rtol=1e-12, atol=1e-12)
    assert not np.triu(H, 1).any()


def test_gram_splits_across_samples(tmp_path):
    # the same rows written as 1, 2, 4 or 8 samples of a 3-D file give the
    # bits of the 2-D file
    rng = np.random.default_rng(8)
    x = random_calib(rng, 1000, 300)
    write_tensor(tmp_path / "x.slmt", x)
    whole = accumulate_hessian(read_rows(tmp_path / "x.slmt"))
    for parts in (2, 4, 8):
        write_tensor(tmp_path / "s.slmt", x.reshape(parts, 1000 // parts, 300))
        split = accumulate_hessian(read_rows(tmp_path / "s.slmt"))
        assert split.tobytes() == whole.tobytes()


def test_gram_bit_identical_to_sum_from_zero(monkeypatch):
    # starting from the first block's product and dividing in place gives
    # the same bits as summing onto a zero matrix and dividing after
    rng = np.random.default_rng(9)
    x = random_calib(rng, 40, 7)
    for rows_per_block in (40, 13):
        monkeypatch.setattr(salience_module, "_GRAM_BLOCK", rows_per_block * 7)
        ref = np.zeros((7, 7))
        for b in row_blocks(x, rows_per_block):
            ref += b.astype(np.float64).T @ b.astype(np.float64)
        ref = ref / 40.0
        assert_lower_gram(accumulate_hessian(x), ref)


@pytest.mark.parametrize("m", [1, 7, 1024])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n_blocks", [1, 3])
def test_gram_is_exactly_symmetric(monkeypatch, m, dtype, n_blocks):
    # the matrix the Gram stands for is numpy's exactly symmetric x.T @ x
    # sum over the same row blocks: its lower triangle, to the bit, is what
    # damp_and_invert reads; float64 rows are rounded to float32 first, as
    # quantize_layer does
    monkeypatch.setattr(salience_module, "_GRAM_BLOCK", 24 * m)
    rng = np.random.default_rng(m + n_blocks)
    x = rng.standard_normal((24 * n_blocks, m)).astype(dtype)
    assert_lower_gram(accumulate_hessian(x.astype(np.float32)), numpy_gram(row_blocks(x, 24)))
    # a non-contiguous view: every third token row of every other channel
    wide = rng.standard_normal((72 * n_blocks, 2 * m)).astype(dtype).astype(np.float32)
    view = wide[::3, ::2]
    assert not view.flags.c_contiguous
    assert_lower_gram(accumulate_hessian(view),
                      numpy_gram(row_blocks(view, 24)))


def test_gram_adds_each_block_product(monkeypatch):
    # each block's product is made on its own and then added: letting
    # dsyrk accumulate into the running sum (beta = 1) moves the low bits
    # once a block has more rows than OpenBLAS's K block (384)
    monkeypatch.setattr(salience_module, "_GRAM_BLOCK", 1024 * 512)
    x = random_calib(np.random.default_rng(29), 3072, 512)
    assert_lower_gram(accumulate_hessian(x), numpy_gram(row_blocks(x, 1024)))


def test_gram_blocks_are_the_stage_transient(monkeypatch):
    # with several blocks, the stage holds the running sum, one block's
    # product and one block widened to float64 (and under 4 KiB of Python
    # objects), however many rows there are: a tenth of the rows widened
    t, m, rows_per_block = 4096, 64, 16
    monkeypatch.setattr(salience_module, "_GRAM_BLOCK", rows_per_block * m)
    calib = random_calib(np.random.default_rng(33), t, m)
    _, peak = traced_peak(accumulate_hessian, calib)
    assert peak < 2 * m * m * 8 + rows_per_block * m * 8 + 4096
    assert t * m * 8 > 10 * peak


def test_empty_calibration_rejected():
    with pytest.raises(EmptyCalibration):
        accumulate_hessian(np.zeros((0, 4), dtype=np.float32))


@pytest.mark.filterwarnings("error")  # numpy's warnings on empty means fail the test
def test_zero_channel_gram_is_rejected_before_blas(capfd):
    # capfd, not capsys: BLAS and LAPACK write their argument errors to the
    # process's stderr, which capsys does not see
    with pytest.raises(ShapeMismatch):
        accumulate_hessian(np.zeros((4, 0), dtype=np.float32))
    with pytest.raises(ShapeMismatch):
        damp_and_invert(np.zeros((0, 0)))
    assert capfd.readouterr() == ("", "")


def test_damping_is_proportional_to_mean_diagonal():
    H = np.eye(4)
    hs = damp_and_invert(H, percdamp=0.01)
    assert hs.damping == pytest.approx(0.01)
    assert np.allclose(hs.H_inv_diag, np.full(4, 1.0 / 1.01), rtol=1e-14)


def test_damping_floor_applies():
    H = np.diag([4.0, 1.0])
    hs = damp_and_invert(H, percdamp=0.0)
    assert hs.damping == DAMPING_FLOOR
    assert np.allclose(hs.H_inv_diag, [0.25, 1.0], atol=1e-6)


def test_inverse_factor_convention():
    rng = np.random.default_rng(14)
    b = rng.standard_normal((40, 16))
    H = b.T @ b / 40.0
    hs = damp_and_invert(H.copy(), percdamp=0.01)
    A = H + hs.damping * np.eye(16)
    inv = np.linalg.inv(A)
    assert np.allclose(hs.H_inv_diag, np.diag(inv), rtol=1e-9, atol=1e-12)
    # chol_inv is upper-triangular and UT U reproduces the full inverse
    assert np.allclose(hs.chol_inv, np.triu(hs.chol_inv))
    assert np.allclose(hs.chol_inv.T @ hs.chol_inv, inv, rtol=1e-8, atol=1e-12)
    assert np.all(np.diag(hs.chol_inv) > 0.0)


def three_step_inverse(H, percdamp):
    """Reference factor: Cholesky of the damped matrix, a solve against the
    identity, then the upper Cholesky factor of the symmetrized inverse."""
    H = (H + H.T) * 0.5
    damping = max(percdamp * float(np.mean(np.diag(H))), DAMPING_FLOOR)
    A = H + damping * np.eye(H.shape[0])
    lower = scipy.linalg.cholesky(A, lower=True)
    inv = scipy.linalg.cho_solve((lower, True), np.eye(H.shape[0]))
    inv = (inv + inv.T) * 0.5
    return np.diag(inv).copy(), scipy.linalg.cholesky(inv, lower=False)


def test_inverse_factor_matches_three_step_reference():
    # the two factorizations round differently, by about cond(A) * eps, so
    # the ill-conditioned cases stay near cond 1e4: what the default
    # damping leaves of a rank-deficient Gram matrix, and a spectrum over
    # four decades under the damping floor
    rng = np.random.default_rng(19)
    cases = [(np.array([[2.5]]), 0.01), (np.array([[1e-12]]), 0.0)]
    for m in (2, 7, 33, 96):
        b = rng.standard_normal((3 * m, m))
        cases.append((b.T @ b / (3 * m), 0.01))
    for t, m in ((20, 64), (48, 96)):
        b = rng.standard_normal((t, m))  # fewer tokens than channels
        cases += [(b.T @ b / t, 0.01), (b.T @ b / t, 1e-3)]
    q, _ = np.linalg.qr(rng.standard_normal((48, 48)))
    cases.append(((q * np.logspace(0, -4, 48)) @ q.T, 0.0))
    for H, percdamp in cases:
        hs = damp_and_invert(H.copy(), percdamp)
        diag, upper = three_step_inverse(H, percdamp)
        np.testing.assert_allclose(hs.H_inv_diag, diag, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(hs.chol_inv, upper, rtol=1e-12,
                                   atol=1e-12 * np.abs(upper).max())
        assert np.array_equal(hs.chol_inv, np.triu(hs.chol_inv))


@pytest.mark.parametrize("m", [1, 2, 33])
def test_damp_and_invert_leaves_caller_array_alone(m):
    # an H that is not a C-ordered, writeable float64 array is copied to
    # one first: the caller's array is not written and the factor is that
    # of the copy, to the bit
    rng = np.random.default_rng(m)
    b = rng.standard_normal((2 * m, m))
    H = b.T @ b / (2 * m)
    wide = np.zeros((m, 2 * m))
    wide[:, ::2] = H
    read_only = H.copy()
    read_only.flags.writeable = False
    inputs = {
        "float32": H.astype(np.float32),
        "fortran": np.asfortranarray(H),
        "strided": wide[:, ::2],
        "reversed": H[::-1, ::-1].copy()[::-1, ::-1],
        "read-only": read_only,
    }
    for name, given in inputs.items():
        if given.dtype == np.float64 and given.flags.c_contiguous and given.flags.writeable:
            assert m == 1  # a 1 x 1 array is C-ordered in every layout: consumed
            continue
        before = given.copy(order="K")
        hs = damp_and_invert(given, percdamp=0.01)
        ref = damp_and_invert(np.array(given, dtype=np.float64, order="C"), percdamp=0.01)
        assert given.tobytes(order="A") == before.tobytes(order="A"), name
        assert hs.chol_inv.tobytes(order="F") == ref.chol_inv.tobytes(order="F"), name
        assert hs.H_inv_diag.tobytes() == ref.H_inv_diag.tobytes(), name
        for out in (hs.H_inv_diag, hs.chol_inv):
            assert not np.shares_memory(out, given), name


@pytest.mark.parametrize("m", [1, 2, 33, 400])
def test_inverse_factor_is_reversed_inverse_cholesky(m):
    # U = P L^-1 P with P A P = L LT, in Fortran order; at m = 400 the
    # flat buffer spans several reversal chunks
    rng = np.random.default_rng(40 + m)
    b = rng.standard_normal((2 * m, m))
    H = b.T @ b / (2 * m)
    hs = damp_and_invert(H.copy(), percdamp=0.01)
    lower = scipy.linalg.cholesky((H + hs.damping * np.eye(m))[::-1, ::-1], lower=True)
    lower_inv, info = scipy.linalg.lapack.dtrtri(lower, lower=1)
    assert info == 0
    ref = np.asfortranarray(lower_inv[::-1, ::-1])
    assert hs.chol_inv.flags.f_contiguous
    assert hs.chol_inv.tobytes(order="F") == ref.tobytes(order="F")


@pytest.mark.parametrize("size", [0, 1, _REVERSE_CHUNK - 1, _REVERSE_CHUNK,
                                  2 * _REVERSE_CHUNK, 2 * _REVERSE_CHUNK + 1])
def test_chunked_reversal_matches_slice_reversal(size):
    a = np.arange(size, dtype=np.float64)
    _reverse_in_place(a)
    assert np.array_equal(a, np.arange(size, dtype=np.float64)[::-1])


def traced_peak(fn, *args):
    """fn(*args) and the peak of the memory it allocated, in bytes."""
    tracemalloc.start()
    try:
        out = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def test_damp_and_invert_factors_in_place():
    # a C-ordered float64 H is consumed: LAPACK factors and inverts it in
    # its own buffer, which becomes the inverse factor, and no other m x m
    # array is allocated
    m = 1024
    rng = np.random.default_rng(31)
    H = accumulate_hessian(random_calib(rng, 2 * m, m))
    ref = damp_and_invert(H.copy())
    hs, peak = traced_peak(damp_and_invert, H)
    assert np.shares_memory(hs.chol_inv, H)
    assert hs.chol_inv.tobytes(order="F") == ref.chol_inv.tobytes(order="F")
    assert peak < 0.25 * m * m * 8


def test_gram_and_factor_peak_at_one_matrix():
    # the Gram matrix, the float64 widening of one sample and the check's
    # transients: no second m x m array at any point
    t, m = 2048, 1024
    calib = random_calib(np.random.default_rng(32), t, m)
    _, peak = traced_peak(lambda: damp_and_invert(accumulate_hessian(calib)))
    assert peak < m * m * 8 + t * m * 8 + 0.25 * m * m * 8


def test_asymmetric_gram_reads_lower_triangle():
    # the factor of an asymmetric H is the factor of the symmetric matrix
    # that H's lower triangle and diagonal define, bit for bit, and is
    # upper-triangular whatever H held above its diagonal
    rng = np.random.default_rng(23)
    cases = [np.array([[2.5]])]
    for m in (2, 7, 33, 96):
        b = rng.standard_normal((3 * m, m))
        H = b.T @ b / (3 * m)
        H[np.triu_indices(m, 1)] += rng.standard_normal(m * (m - 1) // 2)
        cases.append(H)
    q, _ = np.linalg.qr(rng.standard_normal((48, 48)))
    cases.append((q * np.logspace(0, -4, 48)) @ q.T)  # asymmetric by rounding
    for H in cases:
        lower = np.tril(H) + np.tril(H, -1).T
        for percdamp in (0.01, 0.0):
            hs = damp_and_invert(H.copy(), percdamp)
            ref = damp_and_invert(lower.copy(), percdamp)
            assert not np.tril(hs.chol_inv, -1).any()
            assert hs.damping == ref.damping
            assert hs.chol_inv.tobytes() == ref.chol_inv.tobytes()
            assert hs.H_inv_diag.tobytes() == ref.H_inv_diag.tobytes()


def test_singular_factor_rejected(monkeypatch):
    def singular(c, lower=0, unitdiag=0, overwrite_c=0):
        return c, 1

    monkeypatch.setattr(scipy.linalg.lapack, "dtrtri", singular)
    with pytest.raises(NotPositiveDefinite):
        damp_and_invert(np.eye(3))


@pytest.mark.parametrize("percdamp", [-3.0, -1e-12, np.inf, np.nan])
def test_invalid_percdamp_rejected(percdamp):
    # a negative value was floored silently, an infinite one surfaced as a
    # failed factorization
    with pytest.raises(InvalidConfig):
        damp_and_invert(np.eye(3), percdamp)


def test_indefinite_matrix_rejected():
    with pytest.raises(NotPositiveDefinite):
        damp_and_invert(np.diag([1.0, -5.0]), percdamp=0.0)


def test_non_finite_matrix_rejected():
    H = np.eye(3)
    H[0, 0] = np.nan
    with pytest.raises(NotPositiveDefinite):
        damp_and_invert(H)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [(2, 0), (0, 2)], ids=["lower", "upper"])
def test_non_finite_off_diagonal_rejected(value, where):
    # a non-finite entry in either triangle fails, although only the lower
    # one is factored
    H = np.eye(3) + 0.1
    H[where] = value
    with pytest.raises(NotPositiveDefinite):
        damp_and_invert(H)


def test_non_square_rejected():
    with pytest.raises(ShapeMismatch):
        damp_and_invert(np.zeros((2, 3)))


def test_identity_inverse_gives_squared_weights():
    rng = np.random.default_rng(5)
    w = rng.standard_normal((4, 8)).astype(np.float32)
    sal = salience_map(w, unit_state(8), beta=4)
    delta = salience(w, unit_state(8))
    assert np.array_equal(delta, w.astype(np.float64) ** 2)
    assert delta.shape == (4, 8)
    assert sal.group_mean.shape == (2,)
    assert sal.channel_mean.shape == (8,)


def test_group_and_channel_means():
    w = np.array([[1.0, 2.0, 3.0, 4.0], [0.0, 1.0, 2.0, 2.0]])
    sal = salience_map(w, unit_state(4), beta=2)
    # delta: [[1,4,9,16],[0,1,4,4]]
    assert np.allclose(sal.group_mean, [(1 + 4 + 0 + 1) / 4.0, (9 + 16 + 4 + 4) / 4.0])
    assert np.allclose(sal.channel_mean, [0.5, 2.5, 6.5, 10.0])


def test_scaling_weights_scales_salience():
    rng = np.random.default_rng(6)
    w = rng.standard_normal((3, 8)).astype(np.float32)
    s1 = salience(w, unit_state(8))
    s2 = salience(np.float32(2.0) * w, unit_state(8))
    assert np.array_equal(s2, 4.0 * s1)


def test_group_ranking_invariant_to_row_permutation():
    rng = np.random.default_rng(15)
    w = rng.standard_normal((16, 32)).astype(np.float32)
    x = random_calib(rng, 64, 32)
    hs = damp_and_invert(accumulate_hessian(x))
    base = salience_map(w, hs, beta=8)
    perm = salience_map(w[rng.permutation(16)], hs, beta=8)
    assert np.array_equal(np.argsort(base.group_mean), np.argsort(perm.group_mean))
    assert np.allclose(base.group_mean, perm.group_mean, rtol=1e-12)


def test_scaled_identity_gram_preserves_magnitude_order():
    rng = np.random.default_rng(16)
    w = rng.standard_normal((2, 6)).astype(np.float32)
    hs = damp_and_invert(3.0 * np.eye(6), percdamp=1e-6)
    order = np.argsort(salience(w, hs).ravel())
    ref = np.argsort(np.abs(w.astype(np.float64)).ravel() ** 2)
    assert np.array_equal(order, ref)


def test_outlier_channel_dominates_channel_mean():
    for seed in range(10):
        rng = np.random.default_rng(400 + seed)
        m = 32
        x = random_calib(rng, 128, m)
        target = int(rng.integers(0, m))
        x[:, target] *= 100.0
        w = rng.standard_normal((8, m)).astype(np.float32)
        hs = damp_and_invert(accumulate_hessian(x))
        sal = salience_map(w, hs, beta=8)
        assert int(np.argmax(sal.channel_mean)) == target


def test_mask_constant_block_is_empty():
    assert not salient_mask_3sigma(np.full((4, 4), 2.5)).any()


def test_mask_flags_single_spike():
    d = np.ones((2, 8))
    d[1, 3] = 1000.0
    mask = salient_mask_3sigma(d)
    assert mask.sum() == 1
    assert mask[1, 3]


def test_mask_fraction_small_on_gaussian_salience():
    rng = np.random.default_rng(18)
    flagged = 0
    total = 0
    for _ in range(100):
        w = rng.standard_normal((16, 64))
        delta = w * w  # identity-Gram salience
        mask = salient_mask_3sigma(delta)
        flagged += int(mask.sum())
        total += mask.size
    assert flagged / total < 0.05


def test_mask_empty_rejected():
    with pytest.raises(ShapeMismatch):
        salient_mask_3sigma(np.zeros((0, 4)))


def test_salience_shape_checks():
    hs = unit_state(8)
    with pytest.raises(ShapeMismatch):
        salience_map(np.zeros(8), hs, beta=4)
    with pytest.raises(ShapeMismatch):
        salience_map(np.zeros((2, 6)), hs, beta=3)
    with pytest.raises(BadGroupSize):
        salience_map(np.zeros((2, 8)), hs, beta=3)
    with pytest.raises(BadGroupSize):
        salience_map(np.zeros((2, 8)), hs, beta=0)
