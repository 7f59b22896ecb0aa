"""Backward solution of the coupled Riccati-like recursions under delay.

With a d-step input delay the single Riccati recursion splits into d+1
coupled matrices P^(0)..P^(d). At time k only the indices 0..min(k-t, d) are
defined, and the recursion changes shape at the region boundary k = t+d:

* k >= t+d: all d+1 indices; the top one is P^(d)_k = -H_k^T W_k^+ H_k.
* t < k < t+d: indices 0..k-t; the top one absorbs an extra propagation
  term, P^(k-t)_k = A_k^T P^(k+1-t)_{k+1} A_k - H_k^T W_k^+ H_k.
* k = t: only P^(0), which absorbs the -H^T W^+ H fold-in directly.

Both boundary pieces, the W_k/H_k summation-limit switch at k = t+d
(limit min(k+1-t, d)), and short horizons N - t <= d are handled by one
loop over the top index r_k = min(k-t, d); empty regions skip naturally.
The delay-free problem d = 0 is the same loop: r_k = 0 at every step, so
only P^(0) exists and it absorbs the fold-in, which is the classical
recursion. The loop also serves the auxiliary problem of the feasibility
construction (lmei), which adds a cross weight to H_k and a correction to
the top index. The module further provides the single-region variant (all
indices defined at every time, an independent cross-check with its own
loop), value evaluation, solvability classification, and JSON
round-tripping of solutions.

The kernel holds the matrices of one time as a stack: P^(0..r)_k is one
(r+1, n, n) array, so the middle indices P^(1..r-1)_k = A^T P^(2..r)_{k+1} A
are one batched product and the W/H weight sum_{i<=limit} P^(i)_{k+1} is one
running sum in index order, whatever d is. The products and sums are the
per-matrix ones, bit for bit. The stacks of all times are consecutive slices
of one buffer, allocated once per solve.

Solutions store only the defined (i, k) pairs. The kernel's solutions read
them through a mapping over the per-time stacks that returns a view per
lookup, rather than holding one array object per pair (about 10^5 of them at
N = 1000, d = 100). Reading an undefined pair is an error rather than a
silent zero, since zero-filling would mask indexing mistakes in the
piecewise structure.
"""
from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, UnsolvableError, ValidationError
from .linalg import PINV_RTOL, PSD_TOL, eig_margin, pinv, range_residual, symmetrize
from .model import FeedbackPolicy, ProblemData, ensure_valid

UNIQUELY_SOLVABLE = "UniquelySolvable"
SOLVABLE_ALL_PAIRS = "SolvableAllPairs"
CONVEX_CANDIDATE = "ConvexCandidate"
NOT_CONVEX = "NotConvex"

#: Order of decreasing strength, for "at least as strong as" comparisons.
CLASSIFICATION_ORDER = (NOT_CONVEX, CONVEX_CANDIDATE, SOLVABLE_ALL_PAIRS, UNIQUELY_SOLVABLE)


def classification_rank(classification: str) -> int:
    try:
        return CLASSIFICATION_ORDER.index(classification)
    except ValueError:
        raise ValidationError(f"unknown classification {classification!r}") from None


@dataclass(frozen=True)
class RiccatiSolution:
    """Output of the backward pass.

    P maps (i, k) to a symmetric n x n matrix for the defined pairs only
    (at d = 0 that is P^(0) alone), as a dict or a read-only mapping; W/H/K
    are indexed by k - t for k = t..N-1. `single_region` marks the variant
    that carries every index 0..d at every time (solve_riccati_bar); the
    piecewise form tops out at min(k - t, d).
    """

    t: int
    N: int
    d: int
    n: int
    m: int
    P: Mapping[tuple[int, int], np.ndarray]
    W: tuple[np.ndarray, ...]
    H: tuple[np.ndarray, ...]
    K: tuple[np.ndarray, ...]
    single_region: bool = False

    def top_index(self, k: int) -> int:
        self._check_time(k, self.N)
        if self.single_region:
            return self.d
        return min(k - self.t, self.d)

    def P_at(self, i: int, k: int) -> np.ndarray:
        try:
            return self.P[(i, k)]
        except KeyError:
            pass
        raise ValidationError(
            f"P^({i})_{k} is not defined (defined indices at time {k}: "
            f"0..{self.top_index(k)})"
        )

    def P_sum(self, k: int) -> np.ndarray:
        """Sum of all defined P^(i)_k; the value-function weight at time k."""
        total = np.zeros((self.n, self.n))
        for i in range(self.top_index(k) + 1):
            total = total + self.P_at(i, k)
        return total

    def W_at(self, k: int) -> np.ndarray:
        self._check_time(k, self.N - 1)
        return self.W[k - self.t]

    def H_at(self, k: int) -> np.ndarray:
        self._check_time(k, self.N - 1)
        return self.H[k - self.t]

    def K_at(self, k: int) -> np.ndarray:
        self._check_time(k, self.N - 1)
        return self.K[k - self.t]

    def _check_time(self, k: int, last: int) -> None:
        if not self.t <= k <= last:
            raise ValidationError(f"time {k} outside solution range [{self.t}, {last}]")


def _wh_from_stack(problem: ProblemData, Pn: np.ndarray, k: int,
                   R: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """W_k and H_k from the stack Pn = P^(0..limit)_{k+1} with control
    weight R (the summation limit is min(k+1-t, d) in the piecewise system,
    d in the single-region one). The one W/H formula of the package."""
    A, B = problem.A[k], problem.B[k]
    C, D = problem.C[k], problem.D[k]
    # accumulate adds the blocks in index order, as a loop would (reduce may
    # sum pairwise); the trailing + 0.0 makes the sum start from zero, which
    # only turns an all -0.0 entry into 0.0.
    Psum = np.add.accumulate(Pn, axis=0)[-1] + 0.0
    P0 = Pn[0]
    W = symmetrize(R + B.T @ Psum @ B + D.T @ P0 @ D)
    H = B.T @ Psum @ A + D.T @ P0 @ C
    return W, H


def _wh_from_next(problem: ProblemData, P: Mapping, k: int, limit: int,
                  R: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_wh_from_stack on the blocks P^(0..limit)_{k+1} of a mapping keyed (i, k)."""
    Pn = np.stack([P[(i, k + 1)] for i in range(limit + 1)])
    return _wh_from_stack(problem, Pn, k, R)


def recompute_wh(problem: ProblemData, sol: RiccatiSolution, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Re-derive W_k, H_k from the stored P matrices (consistency check)."""
    return _wh_from_next(problem, sol.P, k, sol.top_index(k + 1), problem.R[k])


class _StackedBlocks(Mapping):
    """Read-only mapping (i, k) -> stacks[k][i] over per-time stacks
    P^(0..r)_k, in the order of `stacks` and then of i; each lookup returns
    a view into the stack."""

    __slots__ = ("_stacks",)

    def __init__(self, stacks: dict[int, np.ndarray]):
        self._stacks = stacks

    def __getitem__(self, key: tuple[int, int]) -> np.ndarray:
        try:
            i, k = key
            stack = self._stacks[k]
        except (KeyError, TypeError, ValueError):
            raise KeyError(key) from None
        if not 0 <= i < len(stack):
            raise KeyError(key)
        return stack[i]

    def __iter__(self):
        return ((i, k) for k, stack in self._stacks.items() for i in range(len(stack)))

    def __len__(self) -> int:
        return sum(len(stack) for stack in self._stacks.values())


def _check_solve_args(problem: ProblemData, t: int) -> None:
    ensure_valid(problem)
    if not 0 <= t <= problem.N - 1:
        raise ValidationError(f"initial time t={t} must satisfy 0 <= t <= N-1 = {problem.N - 1}")


def _backward(problem: ProblemData, t: int, Q, R, G: np.ndarray,
              pinv_rtol: float, S=None, delta=None) -> RiccatiSolution:
    """The piecewise backward pass (see module docstring) with per-step state
    weight Q[k], control weight R[k] and terminal weight G.

    Optional per-step terms: a cross weight S[k] added last to H_k, and a
    correction delta[k] added to the top index for k > t. Non-finite W/H
    (or a non-finite P^(0)_t) raise ConsistencyError naming the step.
    """
    n, N, d = problem.n, problem.N, problem.d
    # The stacks of times N, N-1, ..., t are consecutive slices of one buffer.
    # With one allocation per step, interleaved with the step's temporaries,
    # the peak memory of a process running many solves varied from one
    # process to the next by up to 8 MB.
    times = range(N, t - 1, -1)
    bounds = np.cumsum([0] + [min(k - t, d) + 1 for k in times]).tolist()
    buffer = np.empty((bounds[-1], n, n))
    stacks = {k: buffer[lo:hi] for k, lo, hi in zip(times, bounds, bounds[1:])}
    Pn = stacks[N]
    Pn.fill(0.0)
    Pn[0] = G

    W: list[np.ndarray] = [np.empty(0)] * (N - t)
    H: list[np.ndarray] = [np.empty(0)] * (N - t)
    K: list[np.ndarray] = [np.empty(0)] * (N - t)
    with np.errstate(all="ignore"):
        for k in range(N - 1, t - 1, -1):
            A, C = problem.A[k], problem.C[k]
            Wk, Hk = _wh_from_stack(problem, Pn, k, R[k])
            if S is not None:
                Hk = Hk + S[k]
            if not (np.isfinite(Wk).all() and np.isfinite(Hk).all()):
                raise ConsistencyError(f"numerical breakdown: non-finite W/H at k={k}")
            Wdag = pinv(Wk, pinv_rtol)
            fold = symmetrize(Hk.T @ Wdag @ Hk)
            W[k - t], H[k - t], K[k - t] = Wk, Hk, -Wdag @ Hk

            nxt = Pn[0] + Pn[1] if d else Pn[0]
            state_part = Q[k] + A.T @ nxt @ A + C.T @ Pn[0] @ C
            r = min(k - t, d)
            Pk = stacks[k]
            if r == 0:
                Pk[0] = symmetrize(state_part - fold)
            else:
                Pk[0] = symmetrize(state_part)
                if r > 1:
                    Pk[1:r] = symmetrize(A.T @ Pn[2:r + 1] @ A)
                if r == d:
                    top = -fold if delta is None else delta[k] - fold
                else:
                    top = A.T @ Pn[r + 1] @ A
                    top = (top if delta is None else delta[k] + top) - fold
                Pk[r] = symmetrize(top)
            Pn = Pk
    if not np.isfinite(Pn[0]).all():
        raise ConsistencyError(f"numerical breakdown: non-finite P^(0) at k={t}")

    return RiccatiSolution(t=t, N=N, d=d, n=n, m=problem.m, P=_StackedBlocks(stacks),
                           W=tuple(W), H=tuple(H), K=tuple(K))


def solve_riccati(problem: ProblemData, t: int,
                  pinv_rtol: float = PINV_RTOL) -> RiccatiSolution:
    """Backward pass of the piecewise-coupled recursion (see module docstring)."""
    _check_solve_args(problem, t)
    return _backward(problem, t, problem.Q, problem.R, symmetrize(problem.G), pinv_rtol)


def solve_riccati_bar(problem: ProblemData, t: int,
                      pinv_rtol: float = PINV_RTOL) -> RiccatiSolution:
    """Single-region variant: every index 0..d defined at every time, the
    W/H sums always run to d, and the top line is -H^T W^+ H throughout.
    Used as an independent cross-check of the piecewise pass; at d = 0 the
    two coincide and the piecewise pass is returned."""
    if problem.d == 0:
        return solve_riccati(problem, t, pinv_rtol)
    _check_solve_args(problem, t)

    n, N, d = problem.n, problem.N, problem.d
    P: dict[tuple[int, int], np.ndarray] = {(0, N): symmetrize(problem.G)}
    for j in range(1, d + 1):
        P[(j, N)] = np.zeros((n, n))

    W: list[np.ndarray] = [np.empty(0)] * (N - t)
    H: list[np.ndarray] = [np.empty(0)] * (N - t)
    K: list[np.ndarray] = [np.empty(0)] * (N - t)
    for k in range(N - 1, t - 1, -1):
        A, C, Q = problem.A[k], problem.C[k], problem.Q[k]
        Wk, Hk = _wh_from_next(problem, P, k, d, problem.R[k])
        Wdag = pinv(Wk, pinv_rtol)
        W[k - t], H[k - t], K[k - t] = Wk, Hk, -Wdag @ Hk

        P[(0, k)] = symmetrize(
            Q + A.T @ (P[(0, k + 1)] + P[(1, k + 1)]) @ A + C.T @ P[(0, k + 1)] @ C
        )
        for i in range(1, d):
            P[(i, k)] = symmetrize(A.T @ P[(i + 1, k + 1)] @ A)
        P[(d, k)] = symmetrize(-(Hk.T @ Wdag @ Hk))

    return RiccatiSolution(t=t, N=N, d=d, n=n, m=problem.m, P=P,
                           W=tuple(W), H=tuple(H), K=tuple(K),
                           single_region=True)


# ---------------------------------------------------------------------------
# Classification and value

@dataclass(frozen=True)
class StepEvidence:
    k: int
    w_min_eig: float
    range_residual: float


@dataclass(frozen=True)
class SolvabilityReport:
    classification: str
    steps: tuple[StepEvidence, ...]
    note: str = ""

    def at_least(self, classification: str) -> bool:
        return classification_rank(self.classification) >= classification_rank(classification)


def classify(sol: RiccatiSolution, tol: float = PSD_TOL) -> SolvabilityReport:
    """Solvability classification from the per-step W_k evidence.

    UniquelySolvable: every W_k positive definite. SolvableAllPairs: every
    W_k PSD with H_k in its range (pseudo-inverse feedback well defined for
    every initial pair). ConvexCandidate: every W_k PSD but some range
    condition fails — solvability then depends on the initial pair and needs
    the oracle. NotConvex: some W_k has a genuinely negative eigenvalue.
    PD/PSD are read from the eig_margin of each step, as is_pd/is_psd
    decide; all steps are graded in one stacked eig_margin and one stacked
    range_residual.
    """
    W, H = np.stack(sol.W), np.stack(sol.H)
    lam, margin = eig_margin(W)
    resid = range_residual(H, W)
    steps = tuple(StepEvidence(k=sol.t + j, w_min_eig=lam_j, range_residual=resid_j)
                  for j, (lam_j, resid_j) in enumerate(zip(lam.tolist(), resid.tolist())))
    all_psd = bool(np.all(margin >= -tol))
    if np.all(margin > tol):
        cls, note = UNIQUELY_SOLVABLE, ""
    elif all_psd and np.all(resid <= tol):
        cls, note = SOLVABLE_ALL_PAIRS, ""
    elif all_psd:
        cls, note = CONVEX_CANDIDATE, "fixed-initial-pair solvability requires oracle check"
    else:
        cls, note = NOT_CONVEX, ""
    return SolvabilityReport(classification=cls, steps=steps, note=note)


def optimal_value(sol: RiccatiSolution, k: int, xi,
                  report: SolvabilityReport | None = None,
                  tol: float = PSD_TOL) -> float:
    """xi^T (sum of defined P^(i)_k) xi — the best achievable cost from
    (k, xi). Refuses when the classification does not guarantee solvability."""
    if not sol.t <= k <= sol.N - 1:
        raise ValidationError(f"time {k} outside [{sol.t}, {sol.N - 1}]")
    if report is None:
        report = classify(sol, tol)
    if not report.at_least(SOLVABLE_ALL_PAIRS):
        raise UnsolvableError(
            f"optimal value undefined: classification is {report.classification}"
            + (f" ({report.note})" if report.note else "")
        )
    xi = np.asarray(xi, dtype=float).reshape(-1)
    if xi.shape != (sol.n,):
        raise ValidationError(f"state must have length {sol.n}, got {xi.shape}")
    return float(xi @ sol.P_sum(k) @ xi)


def feedback_policy(sol: RiccatiSolution) -> FeedbackPolicy:
    """The gain policy u_k = K_k E_{max(t,k-d)}[X_k] as a simulable object."""
    return FeedbackPolicy(t=sol.t, d=sol.d, gains=sol.K)


# ---------------------------------------------------------------------------
# Serialization (consumed by the CLI)

def _blocks_to_dict(P: Mapping[tuple[int, int], np.ndarray]) -> dict:
    """Matrices keyed (i, k) as JSON: keys "i,k", matrices as nested lists."""
    return {f"{i},{k}": M.tolist() for (i, k), M in sorted(P.items())}


def _blocks_from_dict(raw: dict) -> dict[tuple[int, int], np.ndarray]:
    """Inverse of _blocks_to_dict; malformed input raises KeyError,
    ValueError, TypeError or AttributeError for the caller to report."""
    blocks = {}
    for key, M in raw.items():
        i_s, k_s = key.split(",")
        blocks[(int(i_s), int(k_s))] = np.asarray(M, dtype=float)
    return blocks


def solution_to_dict(sol: RiccatiSolution, report: SolvabilityReport | None = None) -> dict:
    if report is None:
        report = classify(sol)
    return {
        "t": sol.t,
        "d": sol.d,
        "N": sol.N,
        "P": _blocks_to_dict(sol.P),
        "W": [M.tolist() for M in sol.W],
        "H": [M.tolist() for M in sol.H],
        "K": [M.tolist() for M in sol.K],
        "classification": report.classification,
    }


def solution_from_dict(data: dict) -> tuple[RiccatiSolution, str]:
    try:
        t, d, N = int(data["t"]), int(data["d"]), int(data["N"])
        P = _blocks_from_dict(data["P"])
        W = tuple(np.asarray(M, dtype=float) for M in data["W"])
        H = tuple(np.asarray(M, dtype=float) for M in data["H"])
        K = tuple(np.asarray(M, dtype=float) for M in data["K"])
        classification = str(data["classification"])
        n = P[(0, N)].shape[0]
        m = W[0].shape[0] if W else 0
        if not len(W) == len(H) == len(K) == N - t:
            raise ValueError(f"W, H and K must hold N - t = {N - t} matrices each")
        if any(M.shape != (m, m) for M in W) or any(M.shape != (m, n) for M in H + K):
            raise ValueError(f"W must hold {m}x{m} matrices, H and K {m}x{n} ones")
    except (KeyError, IndexError, ValueError, TypeError, AttributeError) as exc:
        raise ValidationError(f"malformed solution JSON: {exc}") from exc
    # Only the single-region variant carries P^(d) at the initial time.
    sol = RiccatiSolution(t=t, N=N, d=d, n=n, m=m, P=P, W=W, H=H, K=K,
                          single_region=d >= 1 and (d, t) in P)
    return sol, classification
