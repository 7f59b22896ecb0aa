"""Dense symmetric linear algebra, and the one module that turns a matrix
into a numerical verdict.

SVD pseudo-inverse with a relative cutoff, (semi)definiteness tests, the
range-inclusion residual and the extended Schur block test (two independent
routes). Every verdict is scaled by one floor, ``scale_floor(X) =
max(1, max|X|)``, through ``eig_margin`` (lambda_min, and lambda_min over
the floor of the spectrum) and ``rel_deviation`` (max|err| over the floor
of a reference). Below scale 1 the floor makes a relative tolerance absolute.

``scale_floor``, ``eig_margin``, ``rel_deviation``, ``range_residual`` and
``pinv`` also take a stack of matrices (a leading batch axis) and then
return one number per matrix: exactly the floats the 2-d call gives for
each slice, so a caller can grade every step of a recursion in one call.

Tolerances (value: where used; why):

- ``PINV_RTOL`` 1e-12: ``pinv`` cutoff as a fraction of sigma_max, so of
  every W^+, range residual and oracle minimizer (``--pinv-tol``); it drops
  only directions that rounding left nonzero.
- ``PSD_TOL`` 1e-9: margin tolerance of every semidefinite, range and
  equality verdict: ``classify``, ``is_psd``/``is_pd``, the Schur block
  test, the ``lmei`` constraints, the oracle's boundedness test and the
  fixed-pair probe (``--psd-tol``); above rounding, below the margin of a
  genuinely indefinite step.
- ``_SYM_CHECK_TOL`` 1e-8: symmetry of matrix arguments here and of
  ``lmei`` candidates, which are computed or read back from JSON.
- ``model._ASYM_TOL`` 1e-9: symmetry of the problem weights Q, R, G.
- ``lmei._CONSTRUCT_CONSISTENCY_TOL`` 1e-8: deviation of a constructed
  solution's W/H from its auxiliary recursion, two passes apart; 100x it
  bounds the PSD and range checks of the constructed W_k.
- CLI ``oracle --tol`` 1e-6: oracle minimum vs recursion value, relative to
  ``scale_floor(value)``; the oracle solves a dense system of dimension up
  to a few thousand.
"""
from __future__ import annotations

import numpy as np

from .errors import ConsistencyError, ValidationError

PINV_RTOL = 1e-12
PSD_TOL = 1e-9
_SYM_CHECK_TOL = 1e-8


def _as_matrix(M, name: str, stack: bool = False) -> np.ndarray:
    """M as a float matrix (or, with stack=True, also a stack of matrices)
    with finite entries."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 and not (stack and M.ndim == 3):
        raise ValidationError(f"{name} must be a 2-d matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValidationError(f"{name} contains non-finite entries")
    return M


def symmetrize(S) -> np.ndarray:
    """Return (S + S^T)/2 (of each matrix of a stack); used after every
    backward step to stop drift."""
    S = np.asarray(S, dtype=float)
    return 0.5 * (S + np.swapaxes(S, -1, -2))


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


def _require_symmetric(S, name: str) -> np.ndarray:
    S = _as_matrix(S, name)
    if S.shape[0] != S.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {S.shape}")
    if rel_deviation(S - S.T, S) > _SYM_CHECK_TOL:
        raise ValidationError(f"{name} is not symmetric within tolerance")
    return symmetrize(S)


def pinv(M, rel_tol: float = PINV_RTOL) -> np.ndarray:
    """Moore-Penrose pseudo-inverse via SVD.

    Singular values ≤ rel_tol * sigma_max are truncated to zero. The zero
    matrix maps to the (transposed-shape) zero matrix. A stack of matrices
    is inverted matrix by matrix.
    """
    M = _as_matrix(M, "M", stack=True)
    return np.linalg.pinv(M, rcond=rel_tol)


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
    return rel_deviation(L @ pinv(L, rel_tol) @ N - N, N)


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
    block = eig_margin(np.block([[S, H.T], [H, W]]))[1]
    w_min = eig_margin(W)[1]
    resid = range_residual(H, W)
    comp = eig_margin(S - H.T @ pinv(W) @ H)[1]

    def _triple(t: float) -> bool:
        return w_min >= -t and resid <= t and comp >= -t

    direct, triple = block >= -tol, _triple(tol)
    if direct != triple:
        # Mathematically equivalent routes can straddle the threshold when a
        # margin sits at the boundary; only a confident split is an error.
        if not (block >= -100.0 * tol and _triple(100.0 * tol)):
            raise ConsistencyError(
                "schur_block_psd: direct block test and Schur-complement "
                f"triple disagree (direct={direct}, triple={triple})"
            )
    return direct, block


def schur_block_psd(S, H, W, tol: float = PSD_TOL) -> bool:
    """Positive semidefiniteness of the block matrix [[S, H^T], [H, W]].

    Computed two independent ways, per the extended Schur characterization:

    1. direct eigenvalue test on the assembled block;
    2. the triple condition W ⪰ 0, W·W†·H = H, and S − H^T·W†·H ⪰ 0.

    The routes must agree. A disagreement beyond the numerical gray band
    (both routes re-tested at 100x the tolerance) raises ConsistencyError.
    """
    return _schur_block(S, H, W, tol)[0]
