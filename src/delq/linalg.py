"""Dense symmetric linear algebra used by the solvers.

Thin, contract-bearing wrappers around numpy: SVD pseudo-inverse with a
relative truncation threshold, tolerance-aware (semi)definiteness tests,
the range-inclusion residual, and the extended Schur block test (computed
two independent ways).

All tolerance arguments are relative: a matrix S passes ``is_psd`` when its
minimum eigenvalue is ≥ -tol * max(1, ||S||_2).
"""
from __future__ import annotations

import numpy as np

from .errors import ConsistencyError, ValidationError

#: Default relative truncation for pseudo-inversion (fraction of sigma_max).
PINV_RTOL = 1e-12
#: Default relative tolerance for semidefiniteness tests.
PSD_TOL = 1e-9
#: Default feasibility tolerance for constraint margins (shared with lmei).
FEAS_TOL = 1e-9

_SYM_CHECK_TOL = 1e-8


def _as_matrix(M, name: str) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValidationError(f"{name} must be a 2-d matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValidationError(f"{name} contains non-finite entries")
    return M


def symmetrize(S) -> np.ndarray:
    """Return (S + S^T)/2; used after every backward step to stop drift."""
    S = np.asarray(S, dtype=float)
    return 0.5 * (S + S.T)


def _require_symmetric(S, name: str) -> np.ndarray:
    S = _as_matrix(S, name)
    if S.shape[0] != S.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {S.shape}")
    scale = max(1.0, float(np.max(np.abs(S))) if S.size else 0.0)
    if float(np.max(np.abs(S - S.T))) > _SYM_CHECK_TOL * scale:
        raise ValidationError(f"{name} is not symmetric within tolerance")
    return symmetrize(S)


def pinv(M, rel_tol: float = PINV_RTOL) -> np.ndarray:
    """Moore-Penrose pseudo-inverse via SVD.

    Singular values ≤ rel_tol * sigma_max are truncated to zero. The zero
    matrix maps to the (transposed-shape) zero matrix.
    """
    M = _as_matrix(M, "M")
    return np.linalg.pinv(M, rcond=rel_tol)


def _min_eig_rel(S: np.ndarray) -> float:
    """Minimum eigenvalue divided by max(1, spectral norm)."""
    vals = np.linalg.eigvalsh(symmetrize(S))
    scale = max(1.0, float(np.max(np.abs(vals))) if vals.size else 0.0)
    return float(vals[0]) / scale


def is_psd(S, tol: float = PSD_TOL) -> bool:
    """True iff the minimum eigenvalue of S is ≥ -tol * max(1, ||S||)."""
    S = _require_symmetric(S, "S")
    return _min_eig_rel(S) >= -tol


def is_pd(S, tol: float = PSD_TOL) -> bool:
    """True iff the minimum eigenvalue of S is > tol * max(1, ||S||)."""
    S = _require_symmetric(S, "S")
    return _min_eig_rel(S) > tol


def range_residual(N, L, rel_tol: float = PINV_RTOL) -> float:
    """Max-entry norm of L·L†·N − N, scaled by max(1, max-entry of N)."""
    N = _as_matrix(N, "N")
    L = _as_matrix(L, "L")
    if L.shape[0] != N.shape[0]:
        raise ValidationError(
            f"row counts differ: L has {L.shape[0]}, N has {N.shape[0]}"
        )
    resid = L @ pinv(L, rel_tol) @ N - N
    scale = max(1.0, float(np.max(np.abs(N))) if N.size else 0.0)
    return float(np.max(np.abs(resid))) / scale


def schur_block_psd(S, H, W, tol: float = PSD_TOL) -> bool:
    """Positive semidefiniteness of the block matrix [[S, H^T], [H, W]].

    Computed two independent ways, per the extended Schur characterization:

    1. direct eigenvalue test on the assembled block;
    2. the triple condition W ⪰ 0, W·W†·H = H, and S − H^T·W†·H ⪰ 0.

    The routes must agree. A disagreement beyond the numerical gray band
    (both routes re-tested at 100x the tolerance) raises ConsistencyError.
    """
    S = _require_symmetric(S, "S")
    W = _require_symmetric(W, "W")
    H = _as_matrix(H, "H")
    if H.shape != (W.shape[0], S.shape[0]):
        raise ValidationError(
            f"H must be {W.shape[0]}x{S.shape[0]}, got {H.shape}"
        )

    block = np.block([[S, H.T], [H, W]])

    def _direct(t: float) -> bool:
        return _min_eig_rel(block) >= -t

    comp = symmetrize(S - H.T @ pinv(W) @ H)

    def _triple(t: float) -> bool:
        return (
            _min_eig_rel(W) >= -t
            and range_residual(H, W) <= t
            and _min_eig_rel(comp) >= -t
        )

    direct, triple = _direct(tol), _triple(tol)
    if direct != triple:
        # Mathematically equivalent routes can straddle the threshold when a
        # margin sits at the boundary; only a confident split is an error.
        if not (_direct(100.0 * tol) and _triple(100.0 * tol)):
            raise ConsistencyError(
                "schur_block_psd: direct block test and Schur-complement "
                f"triple disagree (direct={direct}, triple={triple})"
            )
    return direct

