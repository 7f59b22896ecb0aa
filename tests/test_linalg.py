import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from delq import (
    PSD_TOL,
    ConsistencyError,
    ValidationError,
    is_pd,
    is_psd,
    pinv,
    range_residual,
    schur_block_psd,
    symmetrize,
)
from delq import linalg
from delq.linalg import (
    _pivot_pinv,
    _schur_block,
    _schur_blocks,
    eig_margin,
    rel_deviation,
    scale_floor,
    spectral_factors,
)
from delq.model import _ASYM_TOL
from delq.worked_example import REFERENCE_W, benchmark_report

finite_entries = st.floats(min_value=-10.0, max_value=10.0,
                           allow_nan=False, allow_infinity=False)


@st.composite
def small_matrices(draw):
    rows = draw(st.integers(min_value=1, max_value=4))
    cols = draw(st.integers(min_value=1, max_value=4))
    return draw(arrays(np.float64, (rows, cols), elements=finite_entries))


def _decently_conditioned(M):
    """Exactly-singular is fine (truncation handles it); singular values in
    the band just above the cutoff amplify float error past the assertion
    tolerances, so skip those draws. Likewise skip near-subnormal magnitudes
    whose reciprocals overflow (numpy's pinv shares that behavior)."""
    sv = np.linalg.svd(M, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return True
    if sv[0] < 1e-150:
        return False
    return not np.any((sv > 1e-12 * sv[0]) & (sv < 1e-4 * sv[0]))


@given(small_matrices())
@settings(max_examples=200, deadline=None)
def test_pinv_penrose_identities(M):
    assume(_decently_conditioned(M))
    Md = pinv(M)
    scale = max(1.0, float(np.max(np.abs(M))))
    assert np.max(np.abs(M @ Md @ M - M)) <= 1e-10 * scale
    assert np.max(np.abs(Md @ M @ Md - Md)) <= 1e-10 * max(1.0, float(np.max(np.abs(Md))))
    assert np.max(np.abs((M @ Md) - (M @ Md).T)) <= 1e-10
    assert np.max(np.abs((Md @ M) - (Md @ M).T)) <= 1e-10


@given(small_matrices())
@settings(max_examples=100, deadline=None)
def test_pinv_is_an_involution(M):
    assume(_decently_conditioned(M))
    assert np.allclose(pinv(pinv(M)), M, atol=1e-8 * max(1.0, float(np.max(np.abs(M)))))


def test_pinv_frozen_examples():
    assert np.allclose(pinv(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]))
    assert np.allclose(pinv(np.zeros((2, 3))), np.zeros((3, 2)))
    # the cutoff is relative: a tiny-but-dominant singular value is kept
    assert np.allclose(pinv(np.array([[1e-30]])), np.array([[1e30]]))


def test_pinv_rejects_nonfinite():
    with pytest.raises(ValidationError):
        pinv(np.array([[np.nan]]))


def test_symmetrize_and_symmetry_guard():
    S = symmetrize(np.array([[1.0, 2.0], [0.0, 1.0]]))
    assert np.array_equal(S, S.T)
    # genuinely asymmetric input to the symmetric-only routines is refused
    with pytest.raises(ValidationError):
        is_psd(np.array([[0.0, 1.0], [-1.0, 0.0]]))


def _counting_symmetrize(monkeypatch):
    calls = []

    def counted(S):
        calls.append(S)
        return symmetrize(S)
    monkeypatch.setattr(linalg, "symmetrize", counted)
    return calls


def test_pivot_pinv_takes_an_exactly_symmetric_pivot_as_it_is(monkeypatch):
    """P + P^T would overflow to inf near 1e308; the symmetric pivot goes to
    eigh as it is, so its spectrum and pseudo-inverse stay finite."""
    P = np.array([[1e308, 1e307], [1e307, 1e308]])
    calls = _counting_symmetrize(monkeypatch)
    lam, kernel, Pinv = _pivot_pinv(P, scale_floor(P))
    assert calls == []
    assert lam == np.linalg.eigh(P)[0][0] and np.isfinite(lam)
    assert kernel is None
    assert np.all(np.isfinite(Pinv)) and np.all(Pinv != 0.0)


def test_pivot_pinv_symmetrizes_a_nearly_symmetric_pivot(monkeypatch):
    rng = np.random.default_rng(4)
    F = rng.normal(size=(3, 3))
    P = F @ F.T + np.eye(3)
    P[0, 1] += 0.5 * _ASYM_TOL
    calls = _counting_symmetrize(monkeypatch)
    got = _pivot_pinv(P, scale_floor(P))
    assert len(calls) == 1
    want = _pivot_pinv(symmetrize(P), scale_floor(P))
    assert got[0] == want[0]
    assert got[1] is None and want[1] is None and np.array_equal(got[2], want[2])


def test_pivot_pinv_splits_kernel_from_range():
    """Eigenvalues at or below rel_tol * scale, tiny negative ones
    included, span the kernel and are left out of the pseudo-inverse."""
    basis = np.linalg.qr(np.random.default_rng(5).normal(size=(3, 3)))[0]
    P = symmetrize(basis @ np.diag([-2e-10, 1e-13, 4.0]) @ basis.T)
    lam, kernel, Pinv = _pivot_pinv(P, 10.0)
    assert lam == pytest.approx(-2e-10, rel=1e-4)
    K = basis[:, :2] @ basis[:, :2].T
    np.testing.assert_allclose(kernel, K, atol=1e-12)
    np.testing.assert_allclose(Pinv, np.outer(basis[:, 2], basis[:, 2]) / 4.0, atol=1e-12)


def test_psd_pd_frozen_examples():
    assert is_psd(np.diag([1.0, 0.0]))
    assert not is_pd(np.diag([1.0, 0.0]))
    assert is_pd(np.eye(3))
    assert not is_psd(np.diag([1.0, -1.0]))
    # within-tolerance negativity counts as PSD
    assert is_psd(np.diag([1.0, -1e-12]))


def test_range_residual_frozen_examples():
    W = np.diag([1.0, 0.0])
    inside = np.array([[2.0], [0.0]])
    outside = np.array([[0.0], [1.0]])
    assert range_residual(inside, W) <= 1e-14
    assert range_residual(outside, W) == pytest.approx(1.0)
    assert range_residual(inside, W) <= PSD_TOL
    assert not range_residual(outside, W) <= PSD_TOL
    with pytest.raises(ValidationError):
        range_residual(np.ones((3, 1)), W)


def test_schur_block_frozen_examples():
    assert schur_block_psd(np.eye(2), np.zeros((1, 2)), np.eye(1))
    assert schur_block_psd(np.array([[1.0]]), np.array([[1.0]]), np.array([[1.0]]))
    # Schur complement 0.5 - 1 < 0
    assert not schur_block_psd(np.array([[0.5]]), np.array([[1.0]]), np.array([[1.0]]))
    # W = 0 with H nonzero: block indefinite regardless of S
    assert not schur_block_psd(np.array([[5.0]]), np.array([[1.0]]), np.array([[0.0]]))
    with pytest.raises(ValidationError):
        schur_block_psd(np.eye(2), np.zeros((2, 3)), np.eye(2))


def test_schur_block_dual_paths_agree_on_random_triples():
    """The direct block-eigenvalue route and the extended-Schur-complement
    route are computed independently inside schur_block_psd; a boolean
    disagreement outside the borderline band raises ConsistencyError.
    1000 random triples, half biased toward genuinely PSD blocks."""
    rng = np.random.default_rng(42)
    for _ in range(1000):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        if rng.random() < 0.5:
            F = rng.normal(size=(n + m, n + m))
            block = F @ F.T
            S, H, W = block[:n, :n], block[n:, :n], block[n:, n:]
        else:
            S = symmetrize(rng.normal(size=(n, n)))
            H = rng.normal(size=(m, n))
            W = symmetrize(rng.normal(size=(m, m)))
        result = schur_block_psd(S, H, W)  # raises on confident disagreement
        assert result == is_psd(np.block([[S, H.T], [H, W]]))


def test_schur_block_gray_band_and_confident_split():
    """W = diag(1, 1e-13): pinv drops the small direction, so a component h
    of H along it leaves a range residual h that the direct route does not
    see. Between tol and 100 tol the routes may split (gray band); beyond,
    the split raises. The stacked test decides each block alone."""
    S, W = np.array([[1.0]]), np.diag([1.0, 1e-13])
    gray, split = np.array([[0.0], [5e-9]]), np.array([[0.0], [1e-6]])
    assert schur_block_psd(S, gray, W)
    with pytest.raises(ConsistencyError, match=r"direct=True, triple=False"):
        schur_block_psd(S, split, W)
    Ss, Ws = np.stack([S, S, S]), np.stack([W, W, W])
    ok, margin = _schur_blocks(Ss, np.stack([gray, np.zeros((2, 1)), gray]), Ws, 1e-9)
    assert ok.tolist() == [True, True, True]
    assert margin.tolist() == [_schur_block(S, H, W, 1e-9)[1]
                               for H in (gray, np.zeros((2, 1)), gray)]
    with pytest.raises(ConsistencyError, match=r"direct=True, triple=False"):
        _schur_blocks(Ss, np.stack([gray, split, gray]), Ws, 1e-9)


def test_schur_complement_is_graded_at_the_block_scale():
    """[[1 + h, h], [h, 1 + h]] with h = 1.25e300 is PSD (eigenvalues 1 and
    1 + 2h), but S - H^T W^+ H cancels to rounding noise of order 1e284.
    Graded against its own spectrum that noise reads -1, a confident split;
    graded at the block's scale it is about -1e-16, and both routes agree."""
    h = 1.25e300
    S, H, W = np.array([[1.0 + h]]), np.array([[h]]), np.array([[1.0 + h]])
    assert schur_block_psd(S, H, W)
    ok, _ = _schur_blocks(np.stack([S, S]), np.stack([H, -H]), np.stack([W, W]), 1e-9)
    assert ok.tolist() == [True, True]
    # Still not PSD once the complement is negative at the block's scale.
    assert not schur_block_psd(S - 1e-6 * h, H, W)


def test_schur_block_near_singular_w():
    """Tiny-but-nonzero W with H far outside its scale: both routes must
    settle on 'not PSD' (Schur complement hugely negative, block indefinite)."""
    S = np.array([[1.0]])
    H = np.array([[1.0]])
    for w in (1e-7, 1e-10, 0.0):
        assert not schur_block_psd(S, H, np.array([[w]]))
    # and the degenerate-but-PSD corner: W = 0 with H = 0
    assert schur_block_psd(S, np.array([[0.0]]), np.array([[0.0]]))


def test_benchmark_w3_positive_definite_and_reference_w0_inconsistent():
    report = benchmark_report()
    assert all(row.w_positive_definite for row in report.rows)
    # the bundled k=0 reference row cannot equal any PSD matrix
    assert float(np.linalg.det(REFERENCE_W[0])) < 0
    assert not is_psd(REFERENCE_W[0])
    assert is_psd(REFERENCE_W[3])


def _stacks(rng, count, m, n):
    """Stacks of symmetric m x m (PSD, indefinite, singular, zero and
    sub-unit scale) and of m x n matrices, some inside the range."""
    W, H = [], []
    for j in range(count):
        F = rng.normal(size=(m, m)) * 10.0 ** rng.integers(-3, 4)
        kind = j % 4
        if kind == 0:
            Wj = F @ F.T
        elif kind == 1:
            Wj = symmetrize(F)
        elif kind == 2:
            Wj = F[:, :1] @ F[:, :1].T
        else:
            Wj = np.zeros((m, m))
        W.append(Wj)
        H.append(Wj @ rng.normal(size=(m, n)) if j % 3 else rng.normal(size=(m, n)))
    return np.stack(W), np.stack(H)


@pytest.mark.parametrize("m, n", [(1, 1), (2, 3), (4, 2)])
def test_stacked_verdicts_equal_per_slice_verdicts(m, n):
    """A leading batch axis gives each slice exactly its 2-d float."""
    W, H = _stacks(np.random.default_rng(m * 10 + n), 24, m, n)
    lam, margin = eig_margin(W)
    resid = range_residual(H, W)
    floors = scale_floor(H)
    devs = rel_deviation(W - np.swapaxes(W, -1, -2) + H[..., :1], H)
    for j in range(len(W)):
        assert (float(lam[j]), float(margin[j])) == eig_margin(W[j])
        assert float(resid[j]) == range_residual(H[j], W[j])
        assert float(floors[j]) == scale_floor(H[j])
        assert float(devs[j]) == rel_deviation(W[j] - W[j].T + H[j][:, :1], H[j])
        assert np.array_equal(symmetrize(W)[j], symmetrize(W[j]))
    assert np.array_equal(pinv(W), np.stack([pinv(Wj) for Wj in W]))
    assert isinstance(eig_margin(W[0])[0], float)
    assert isinstance(range_residual(H[0], W[0]), float)


def test_spectral_factors_keep_the_signs_of_indefinite_weights():
    """x^T S x = sum_i vals_i (V^T x)_i^2 for every matrix of a stack,
    indefinite ones included, with V orthogonal."""
    rng = np.random.default_rng(3)
    S = symmetrize(rng.normal(size=(12, 4, 4)))
    vals, V = spectral_factors(S)
    assert (vals.min(axis=-1) < 0).all() and (vals.max(axis=-1) > 0).any()
    eye = np.broadcast_to(np.eye(4), S.shape)
    assert np.max(np.abs(np.swapaxes(V, -1, -2) @ V - eye)) <= 1e-14
    x = rng.normal(size=(12, 4))
    direct = np.einsum("ki,kij,kj->k", x, S, x)
    coords = np.einsum("kij,ki->kj", V, x)
    assert np.max(np.abs(np.sum(vals * coords**2, axis=-1) - direct)) <= 1e-13
    vals0, V0 = spectral_factors(S[0])
    assert np.array_equal(vals0, vals[0]) and np.array_equal(V0, V[0])
    with pytest.raises(ValidationError, match="non-finite"):
        spectral_factors(np.full((2, 2), np.inf))


def test_stacked_inputs_are_checked_like_matrices():
    with pytest.raises(ValidationError, match="non-finite"):
        range_residual(np.full((3, 2, 1), np.nan), np.ones((3, 2, 2)))
    with pytest.raises(ValidationError, match="row counts"):
        range_residual(np.ones((3, 3, 1)), np.ones((3, 2, 2)))
    with pytest.raises(ValidationError, match="2-d"):
        range_residual(np.ones(3), np.ones((3, 3)))
