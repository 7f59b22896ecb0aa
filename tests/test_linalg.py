import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from delq import (
    PSD_TOL,
    ValidationError,
    is_pd,
    is_psd,
    pinv,
    range_residual,
    schur_block_psd,
    symmetrize,
)
from delq.linalg import eig_margin, rel_deviation, scale_floor
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


def test_stacked_inputs_are_checked_like_matrices():
    with pytest.raises(ValidationError, match="non-finite"):
        range_residual(np.full((3, 2, 1), np.nan), np.ones((3, 2, 2)))
    with pytest.raises(ValidationError, match="row counts"):
        range_residual(np.ones((3, 3, 1)), np.ones((3, 2, 2)))
    with pytest.raises(ValidationError, match="2-d"):
        range_residual(np.ones(3), np.ones((3, 3)))
