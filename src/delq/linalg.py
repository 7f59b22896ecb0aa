"""Dense symmetric linear algebra, and the one module that turns a matrix
into a numerical verdict.

SVD pseudo-inverse with a relative cutoff, (semi)definiteness tests, the
range-inclusion residual, the extended Schur block test (two independent
routes) and, for the quadratic oracle, the spectrum, kernel and
pseudo-inverse of each m x m elimination pivot from one symmetric
eigendecomposition (``_pivot_pinv``), and the spectral factors of a stack
of symmetric weights (``spectral_factors``, the cost coordinates of a
Monte-Carlo step). Every verdict is scaled by one floor, ``scale_floor(X)
= max(1, max|X|)``, through ``eig_margin`` (lambda_min,
and lambda_min over the floor of the spectrum) and ``rel_deviation``
(max|err| over the floor of a reference). Below scale 1 the floor makes a
relative tolerance absolute.

``scale_floor``, ``eig_margin``, ``rel_deviation``, ``range_residual`` and
``pinv`` also take a stack of matrices (a leading batch axis) and then
return one number per matrix: exactly the floats the 2-d call gives for
each slice, so a caller can grade every step of a recursion in one call.
So do the symmetry check ``_is_symmetric`` (one verdict per matrix, False
for a non-finite one) and the Schur block test ``_schur_blocks`` (one
verdict and one direct-route margin per block; each route is one stacked
call, and the gray-band check runs per block), on which ``schur_block_psd``
is the one-block case.

Tolerances (value: where used; why):

- ``PINV_RTOL`` 1e-12: ``pinv`` cutoff as a fraction of sigma_max, so of
  every W^+ and range residual (``--pinv-tol``); it drops only directions
  that rounding left nonzero. The oracle's elimination applies it to each
  pivot's eigenvalues at the form's scale_floor (max |table entry|, floored
  at 1): those at or below rtol * scale span the pivot's kernel and are
  left out of its pseudo-inverse (``_pivot_pinv``).
- ``PSD_TOL`` 1e-9: margin tolerance of every semidefinite, range and
  equality verdict: ``classify``, ``is_psd``/``is_pd``, the Schur block
  test, the ``lmei`` constraints, the oracle's boundedness test and the
  fixed-pair probe (``--psd-tol``); above rounding, below the margin of a
  genuinely indefinite step. The Schur test grades lambda_min(S - H^T W^+ H)
  over the assembled block's scale_floor, as the direct route does. The
  oracle calls a form Unbounded at the latest pivot whose lambda_min is
  below -tol * scale, or whose coupling rows have a kernel component above
  tol * scale (the quadratic term is then not PSD); otherwise at the latest
  pivot where the linear term's kernel component exceeds
  tol * scale_floor(b).
- ``_GRAY_BAND`` 100 (times the margin tolerance): a margin within
  100 * tol of the threshold is not a confident verdict. The Schur test
  re-tests both routes at 100 * tol before it calls a split an error.
- ``_SYM_CHECK_TOL`` 1e-8: symmetry of matrix arguments here and of
  ``lmei`` candidates, which are computed or read back from JSON.
- ``model._ASYM_TOL`` 1e-9: symmetry of the problem weights Q, R, G.
- ``lmei._CONSTRUCT_CONSISTENCY_TOL`` 1e-8: deviation of a constructed
  solution's W/H from its auxiliary recursion, two passes apart; 100x it
  bounds the PSD and range checks of the constructed W_k.
- CLI ``oracle --tol`` 1e-6: oracle minimum vs recursion value, relative to
  ``scale_floor(value)``; the oracle's value comes from a block elimination
  over the stacked controls, whose rounding grows with the form's
  conditioning.
"""
from __future__ import annotations

import numpy as np

from .errors import ConsistencyError, ValidationError

PINV_RTOL = 1e-12
PSD_TOL = 1e-9
_SYM_CHECK_TOL = 1e-8
_GRAY_BAND = 100.0


def _as_matrix(M, name: str, stack: bool = False) -> np.ndarray:
    """M as a float matrix (or, with stack=True, also a stack of matrices)
    with finite entries."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 and not (stack and M.ndim == 3):
        raise ValidationError(f"{name} must be a 2-d matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValidationError(f"{name} contains non-finite entries")
    return M


def symmetrize(S, out: np.ndarray | None = None) -> np.ndarray:
    """Return (S + S^T)/2 (of each matrix of a stack), written into `out`
    when given; used after every backward step to stop drift."""
    S = np.asarray(S, dtype=float)
    out = np.add(S, np.swapaxes(S, -1, -2), out=out)
    out *= 0.5
    return out


def _floor(X: np.ndarray, axis) -> np.ndarray:
    """max(1, max|X|) over `axis`: an empty X, or a NaN max, floors to 1."""
    return np.fmax(1.0, np.max(np.abs(X), axis=axis, initial=0.0))


def scale_floor(X):
    """max(1, max|X|), and 1 for an empty X; for a stack of matrices, one
    floor per matrix."""
    X = np.asarray(X, dtype=float)
    if X.ndim <= 2:
        return float(_floor(X, None))
    return _floor(X, (-2, -1))


def eig_margin(S):
    """(lambda_min, lambda_min / scale_floor(spectrum)) of symmetrize(S);
    for a stack, two arrays with one entry per matrix."""
    vals = np.linalg.eigvalsh(symmetrize(S))
    lam = vals[..., 0]
    margin = lam / _floor(vals, -1)
    if vals.ndim == 1:
        return float(lam), float(margin)
    return lam, margin


def rel_deviation(err, ref):
    """max|err| / scale_floor(ref); for a stack of errors, one ratio per
    matrix."""
    err = np.asarray(err, dtype=float)
    if err.ndim <= 2:
        return float(np.max(np.abs(err))) / scale_floor(ref)
    return np.max(np.abs(err), axis=(-2, -1)) / scale_floor(ref)


def _is_symmetric(S):
    """rel_deviation(S - S^T, S) <= _SYM_CHECK_TOL; for a stack, one verdict
    per matrix. A non-finite matrix is not symmetric (and raises no warning)."""
    with np.errstate(invalid="ignore", over="ignore"):
        return rel_deviation(S - np.swapaxes(S, -1, -2), S) <= _SYM_CHECK_TOL


def _require_symmetric(S, name: str) -> np.ndarray:
    S = _as_matrix(S, name)
    if S.shape[0] != S.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {S.shape}")
    if not _is_symmetric(S):
        raise ValidationError(f"{name} is not symmetric within tolerance")
    return symmetrize(S)


def pinv(M, rel_tol: float = PINV_RTOL) -> np.ndarray:
    """Moore-Penrose pseudo-inverse via SVD.

    Singular values ≤ rel_tol * sigma_max are truncated to zero. The zero
    matrix maps to the (transposed-shape) zero matrix. A stack of matrices
    is inverted matrix by matrix.
    """
    return _pinv(_as_matrix(M, "M", stack=True), rel_tol)


def _pinv(M: np.ndarray, rel_tol: float) -> np.ndarray:
    """``pinv`` without the argument checks, for a caller that has just
    checked M is a finite float matrix (the backward kernel's W_k)."""
    return np.linalg.pinv(M, rcond=rel_tol)


def spectral_factors(S) -> tuple[np.ndarray, np.ndarray]:
    """(vals, V) with symmetrize(S) = V diag(vals) V^T, V orthogonal, for a
    matrix or for each matrix of a stack: x^T S x = sum_i vals_i (V^T x)_i^2.
    The weights keep their signs, so an indefinite S is factored too."""
    return np.linalg.eigh(symmetrize(_as_matrix(S, "S", stack=True)))


def is_psd(S, tol: float = PSD_TOL) -> bool:
    """True iff the relative eig_margin of S is ≥ -tol."""
    return eig_margin(_require_symmetric(S, "S"))[1] >= -tol


def is_pd(S, tol: float = PSD_TOL) -> bool:
    """True iff the relative eig_margin of S is > tol."""
    return eig_margin(_require_symmetric(S, "S"))[1] > tol


def range_residual(N, L, rel_tol: float = PINV_RTOL):
    """rel_deviation of L·L†·N from N: zero iff Ran(N) ⊂ Ran(L) up to the
    pseudo-inverse cutoff. Stacks of N and L give one residual per pair."""
    N = _as_matrix(N, "N", stack=True)
    L = _as_matrix(L, "L", stack=True)
    if L.shape[-2] != N.shape[-2]:
        raise ValidationError(
            f"row counts differ: L has {L.shape[-2]}, N has {N.shape[-2]}"
        )
    return _range_residual(N, L, pinv(L, rel_tol))


def _range_residual(N: np.ndarray, L: np.ndarray, Ldag: np.ndarray):
    """``range_residual`` given L's pseudo-inverse Ldag."""
    return rel_deviation(L @ Ldag @ N - N, N)


def _pivot_pinv(P: np.ndarray, scale: float,
                rel_tol: float = PINV_RTOL) -> tuple[float, np.ndarray | None, np.ndarray]:
    """(lambda_min, kernel projector, pseudo-inverse) of one finite m x m
    pivot of the oracle's elimination, from one eigh of symmetrize(P).
    Eigenvalues at or below rel_tol * scale (the form's scale_floor), tiny
    negative ones included, span the kernel (projector None when it is
    empty) and are dropped from the pseudo-inverse. An exactly symmetric P
    is its own symmetric part, so it goes to eigh as it is: no overflow of
    P + P^T for entries near the float maximum."""
    vals, V = np.linalg.eigh(P if (P == P.T).all() else symmetrize(P))
    r = int(np.count_nonzero(vals <= rel_tol * scale))    # eigh sorts ascending
    kernel, kept = V[:, :r], V[:, r:]
    return float(vals[0]), kernel @ kernel.T if r else None, (kept / vals[r:]) @ kept.T


def _schur_block(S, H, W, tol: float) -> tuple[bool, float]:
    """schur_block_psd's verdict and the relative eig_margin of the
    assembled block (the direct route's number)."""
    S = _require_symmetric(S, "S")
    W = _require_symmetric(W, "W")
    H = _as_matrix(H, "H")
    if H.shape != (W.shape[0], S.shape[0]):
        raise ValidationError(
            f"H must be {W.shape[0]}x{S.shape[0]}, got {H.shape}"
        )
    ok, margin = _schur_blocks(S[None], H[None], W[None], tol)
    return bool(ok[0]), float(margin[0])


def _schur_blocks(S: np.ndarray, H: np.ndarray, W: np.ndarray,
                  tol: float) -> tuple[np.ndarray, np.ndarray]:
    """_schur_block over stacks of finite, exactly symmetric S (K, n, n) and
    W (K, m, m) and of H (K, m, n): per block, the verdict and the relative
    eig_margin of the assembled block. Each route is one stacked call; the
    first block whose routes split beyond the gray band raises."""
    n, m = S.shape[-1], W.shape[-1]
    Ht = np.swapaxes(H, -1, -2)
    block = np.empty(S.shape[:-2] + (n + m, n + m))
    block[..., :n, :n], block[..., :n, n:] = S, Ht
    block[..., n:, :n], block[..., n:, n:] = H, W
    margin = eig_margin(block)[1]
    w_min = eig_margin(W)[1]
    Wdag = pinv(W)
    resid = _range_residual(H, W, Wdag)
    comp = eig_margin(S - Ht @ Wdag @ H)[0] / scale_floor(block)

    def _triple(t: float) -> np.ndarray:
        return (w_min >= -t) & (resid <= t) & (comp >= -t)

    direct, triple = margin >= -tol, _triple(tol)
    # Mathematically equivalent routes can straddle the threshold when a
    # margin sits at the boundary; only a confident split is an error.
    split = (direct != triple) & ~((margin >= -_GRAY_BAND * tol) & _triple(_GRAY_BAND * tol))
    if split.any():
        j = int(np.argmax(split))
        raise ConsistencyError(
            "schur_block_psd: direct block test and Schur-complement "
            f"triple disagree (direct={bool(direct[j])}, triple={bool(triple[j])})"
        )
    return direct, margin


def schur_block_psd(S, H, W, tol: float = PSD_TOL) -> bool:
    """Positive semidefiniteness of the block matrix [[S, H^T], [H, W]].

    Computed two independent ways, per the extended Schur characterization:

    1. direct eigenvalue test on the assembled block;
    2. the triple condition W ⪰ 0, W·W†·H = H, and S − H^T·W†·H ⪰ 0.

    The routes must agree. A disagreement beyond the numerical gray band
    (both routes re-tested at 100x the tolerance) raises ConsistencyError.
    """
    return _schur_block(S, H, W, tol)[0]
