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

Every per-step sequence is one stack indexed by the step j = k - t: the
kernel's inputs Q, R, S and delta, and the W/H/K of every solution, which
the passes write in place into (N - t, ., .) arrays. A caller hands the
kernel problem.Q[t:] and problem.R[t:], or the auxiliary problem's stacks,
as they are.

P is one rectangular (N - t + 1, w, n, n) array too (PBlocks): entry [j, i]
is P^(i)_{t+j}, with w = min(N - t, d) + 1 in the piecewise form and d + 1
in the single-region one. Row j is the stack of time t + j, so the middle
indices P^(1..r-1)_k = A^T P^(2..r)_{k+1} A are one batched product and the
W/H weight sum_{i<=limit} P^(i)_{k+1} is one running sum over the row in
index order, whatever d is. The undefined entries of the piecewise form
(i > j) hold +0.0, which leaves every such sum the same bytes, so whole-array
adds, symmetrization and finiteness checks need no mask. The products and
sums are the per-matrix ones, bit for bit. Solutions read P through a
mapping keyed (i, k) over the defined pairs only, which returns a view of
the array per lookup rather than holding one array object per pair (about
10^5 of them at N = 1000, d = 100). Reading an undefined pair is an error
rather than a silent zero, since zero-filling would mask indexing mistakes in
the piecewise structure.

Only the commands that print or embed P's blocks (solve, lmei ...
--certificate) need that array: the step of time k reads the row of k + 1
alone. So solve_riccati(..., blocks=False) writes the row of time t + j into
row j % 2 of a (2, w, n, n) ring of the same layout instead, re-zeroing the
entries of the ramp-up rows (j < w - 1) that the row of t + j + 2 left
behind, and returns a solution with P = None. The arithmetic is the same,
so W, H, K and the value weights are the same bytes; memory is O(d n^2)
instead of O(N d n^2). Every solution keeps the value weight sum_i P^(i)_k
of every time as one (N - t + 1, n, n) stack Psum, which the kernel forms
anyway for W/H; P_sum(k) reads it, so the value at any k needs no blocks.
"""
from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, ResourceLimitError, UnsolvableError, ValidationError
from .jsontext import KeyedStack
from .linalg import PINV_RTOL, PSD_TOL, _is_symmetric, _pinv, eig_margin, pinv, range_residual, \
    symmetrize
from .model import FeedbackPolicy, ProblemData, _check_solve_args, _check_state, _float_array, \
    _integer

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
    (at d = 0 that is P^(0) alone), a read-only PBlocks over the array
    P.array whose entry [j, i] is P^(i)_{t+j}; it is None for a solution
    computed without blocks (solve_riccati(..., blocks=False)), whose P_at
    and serialization refuse. Psum is the (N - t + 1, n, n) stack of the
    value weights: Psum[j] is the sum of the defined P^(i)_{t+j}, in index
    order, made read-only here, since P_sum(k) returns a view of it. W/H/K are (N - t, m, m), (N - t, m, n) and (N - t, m, n) stacks
    whose row j belongs to time k = t + j. `single_region` marks the variant
    that carries every index 0..d at every time (solve_riccati_bar); the
    piecewise form tops out at min(k - t, d).
    """

    t: int
    N: int
    d: int
    n: int
    m: int
    P: PBlocks | None
    Psum: np.ndarray
    W: np.ndarray
    H: np.ndarray
    K: np.ndarray
    single_region: bool = False

    def __post_init__(self):
        self.Psum.flags.writeable = False

    def top_index(self, k: int) -> int:
        self._check_time(k, self.N)
        if self.single_region:
            return self.d
        return min(k - self.t, self.d)

    def require_blocks(self, what: str) -> PBlocks:
        """P, or a ValidationError saying that `what` needs the blocks."""
        if self.P is None:
            raise ValidationError(
                f"{what} needs the P blocks: solve with solve_riccati(..., blocks=True)")
        return self.P

    def P_at(self, i: int, k: int) -> np.ndarray:
        try:
            return self.require_blocks(f"P^({i})_{k}")[(i, k)]
        except KeyError:
            pass
        raise ValidationError(
            f"P^({i})_{k} is not defined (defined indices at time {k}: "
            f"0..{self.top_index(k)})"
        )

    def P_sum(self, k: int) -> np.ndarray:
        """Sum of all defined P^(i)_k; the value-function weight at time k, a
        read-only view of Psum."""
        self._check_time(k, self.N)
        return self.Psum[k - self.t]

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


def _index_sum(Pn: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """P^(0) + P^(1) + ... along the index axis -3 of Pn (one time's row of
    P.array, or the rows of several), added in index order as a loop would
    (reduce may sum pairwise); the trailing + 0.0 makes the sum start from
    zero, which only turns an all -0.0 entry into 0.0, so the +0.0 padding
    of a row leaves the sum the same bytes. Written into `out` if given."""
    return np.add(np.add.accumulate(Pn, axis=-3)[..., -1, :, :], 0.0, out=out)


def _wh_into(A: np.ndarray, B: np.ndarray, C: np.ndarray, D: np.ndarray,
             Bt: np.ndarray, Dt: np.ndarray, Psum: np.ndarray, P0: np.ndarray,
             R: np.ndarray, W: np.ndarray, H: np.ndarray) -> None:
    """W_k = R + B^T Psum B + D^T P0 D (symmetrized) and H_k = B^T Psum A +
    D^T P0 C, written into W and H; Psum is sum_{i<=limit} P^(i)_{k+1} (the
    summation limit is min(k+1-t, d) in the piecewise system, d in the
    single-region one) and P0 = P^(0)_{k+1}. The one W/H formula of the
    package.

    Every argument may carry a leading step axis: then the row j of each
    belongs to one step, and W and H are (steps, m, m) and (steps, m, n).
    Bt and Dt are B and D with their last two axes swapped (B.T for one
    step), passed in because a stack's transpose is a call, not an
    attribute. Each row gets the floats of the one-step call."""
    # B^T Psum and D^T P0 serve both W and H; B^T Psum B evaluates left to
    # right, so the products are the same floats.
    BtP, DtP = Bt @ Psum, Dt @ P0
    symmetrize(R + BtP @ B + DtP @ D, out=W)
    np.add(BtP @ A, DtP @ C, out=H)


def _wh_from_next(problem: ProblemData, Pn: np.ndarray, k: int,
                  R: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """W_k and H_k (see _wh_into) from the stack Pn of P^(0..)_{k+1}, the row
    of P.array that belongs to time k + 1."""
    B, D = problem.B[k], problem.D[k]
    W, H = np.empty((problem.m, problem.m)), np.empty((problem.m, problem.n))
    _wh_into(problem.A[k], B, problem.C[k], D, B.T, D.T, _index_sum(Pn), Pn[0], R, W, H)
    return W, H


def _key_mismatch(want: set, have: set) -> str:
    """The pairs of `want` missing from `have`, then those beyond it; "" if none."""
    parts = []
    for label, keys in (("missing", want - have), ("unexpected", have - want)):
        keys = sorted(keys)
        if keys:
            parts.append(f"{label} entries {keys[:6]}{'...' if len(keys) > 6 else ''}")
    return "; ".join(parts)


def _p_rows(rows: int, width: int, n: int) -> np.ndarray:
    """A zero-filled (rows, width, n, n) array of P rows. An allocation that
    fails raises ResourceLimitError naming the block count and bytes."""
    try:
        return np.zeros((rows, width, n, n))
    except (MemoryError, ValueError):
        blocks = rows * width
        raise ResourceLimitError(
            f"cannot allocate the P array: {blocks} blocks of {n}x{n} "
            f"({blocks * n * n * 8} bytes)") from None


class PBlocks(Mapping):
    """Read-only mapping (i, k) -> P^(i)_k over one rectangular array, whose
    entry [j, i] is P^(i)_{t+j}: shape (N - t + 1, w, n, n) with w = d + 1 in
    the single-region layout and w = min(N - t, d) + 1 in the piecewise one,
    where only i <= j is defined. The array is allocated here, zero-filled,
    unless given; the undefined entries hold +0.0 and are not keys.
    Iteration runs over i, then k; each lookup returns a view into the array."""

    __slots__ = ("array", "t", "single_region")

    def __init__(self, t: int, N: int, d: int, n: int, single_region: bool = False,
                 array: np.ndarray | None = None):
        width = d + 1 if single_region else min(N - t, d) + 1
        self.t, self.single_region = t, single_region
        self.array = _p_rows(N - t + 1, width, n) if array is None else array

    def _first(self, i: int) -> int:
        """The first row j that defines P^(i)."""
        return 0 if self.single_region else i

    def __getitem__(self, key: tuple[int, int]) -> np.ndarray:
        try:
            i, k = key
            j = k - self.t
            if 0 <= i < self.array.shape[1] and self._first(i) <= j < len(self.array):
                return self.array[j, i]
        except (TypeError, ValueError, IndexError):
            pass
        raise KeyError(key)

    def __iter__(self):
        return ((i, self.t + j) for i in range(self.array.shape[1])
                for j in range(self._first(i), len(self.array)))

    def __len__(self) -> int:
        rows, width = self.array.shape[:2]
        return rows * width - (0 if self.single_region else width * (width - 1) // 2)

    def blocks(self) -> np.ndarray:
        """The defined P^(i)_k as one (len(self), n, n) stack, in iteration order."""
        return np.concatenate([self.array[self._first(i):, i]
                               for i in range(self.array.shape[1])])


def _backward(problem: ProblemData, t: int, Q, R, G: np.ndarray,
              pinv_rtol: float, S=None, delta=None, blocks: bool = True) -> RiccatiSolution:
    """The piecewise backward pass (see module docstring) with per-step state
    weight Q[j], control weight R[j] and terminal weight G, where step
    j = k - t (so Q and R hold N - t matrices, like W, H and K).

    Optional per-step terms: a cross weight S[j] added last to H_k, and a
    correction delta[j] added to the top index for k > t (delta[0] is not
    read). The terminal weight is symmetrized here. A non-finite symmetrized
    terminal weight, non-finite W/H (or a non-finite P^(0)_t) raise
    ConsistencyError naming the step. With blocks=False the rows go to a
    two-row ring and the solution's P is None (see module docstring).
    """
    n, m, N, d = problem.n, problem.m, problem.N, problem.d
    width = min(N - t, d) + 1
    # The stacks of all times are the rows of one array (with one allocation
    # per step, interleaved with the step's temporaries, the peak memory of a
    # process running many solves varied from one process to the next by up
    # to 8 MB), or of the two-row ring: in either, rows[j % len(rows)] is the
    # row of time t + j.
    P = PBlocks(t, N, d, n) if blocks else None
    rows = P.array if blocks else _p_rows(2, width, n)
    Pn = rows[(N - t) % len(rows)]

    W, H, K = np.empty((N - t, m, m)), np.empty((N - t, m, n)), np.empty((N - t, m, n))
    Psum = np.empty((N - t + 1, n, n))
    with np.errstate(all="ignore"):
        Pn[0] = symmetrize(G)
        if not np.isfinite(Pn[0]).all():
            raise ConsistencyError(
                f"numerical breakdown: non-finite symmetrized terminal weight at k={N}"
            )
        for k in range(N - 1, t - 1, -1):
            j = k - t
            A, B, C, D = problem.A[k], problem.B[k], problem.C[k], problem.D[k]
            Wk, Hk = W[j], H[j]
            _wh_into(A, B, C, D, B.T, D.T, _index_sum(Pn, out=Psum[j + 1]), Pn[0], R[j],
                     Wk, Hk)
            if S is not None:
                Hk += S[j]
            if not (np.isfinite(Wk).all() and np.isfinite(Hk).all()):
                raise ConsistencyError(f"numerical breakdown: non-finite W/H at k={k}")
            Wdag = _pinv(Wk, pinv_rtol)
            fold = symmetrize(Hk.T @ Wdag @ Hk)
            np.matmul(-Wdag, Hk, out=K[j])

            nxt = Pn[0] + Pn[1] if d else Pn[0]
            state_part = Q[j] + A.T @ nxt @ A + C.T @ Pn[0] @ C
            r = min(j, d)
            Pk = rows[j % len(rows)]
            if r + 1 < width:
                Pk[r + 1:] = 0.0    # in a ring, the row of t + j + 2 left these
            if r == 0:
                symmetrize(state_part - fold, out=Pk[0])
            else:
                symmetrize(state_part, out=Pk[0])
                if r > 1:
                    symmetrize(A.T @ Pn[2:r + 1] @ A, out=Pk[1:r])
                if r == d:
                    top = -fold if delta is None else delta[j] - fold
                else:
                    top = A.T @ Pn[r + 1] @ A
                    top = (top if delta is None else delta[j] + top) - fold
                symmetrize(top, out=Pk[r])
            Pn = Pk
    if not np.isfinite(Pn[0]).all():
        raise ConsistencyError(f"numerical breakdown: non-finite P^(0) at k={t}")
    _index_sum(Pn, out=Psum[0])

    return RiccatiSolution(t=t, N=N, d=d, n=n, m=m, P=P, Psum=Psum, W=W, H=H, K=K)


def solve_riccati(problem: ProblemData, t: int, pinv_rtol: float = PINV_RTOL,
                  blocks: bool = True) -> RiccatiSolution:
    """Backward pass of the piecewise-coupled recursion (see module
    docstring). With blocks=False only a two-row ring of P is held, and the
    solution's P is None: W, H, K and P_sum are the same bytes."""
    _check_solve_args(problem, t)
    return _backward(problem, t, problem.Q[t:], problem.R[t:], problem.G, pinv_rtol,
                     blocks=blocks)


def solve_riccati_bar(problem: ProblemData, t: int,
                      pinv_rtol: float = PINV_RTOL) -> RiccatiSolution:
    """Single-region variant: every index 0..d defined at every time, the
    W/H sums always run to d, and the top line is -H^T W^+ H throughout.
    Used as an independent cross-check of the piecewise pass; at d = 0 the
    two coincide and the piecewise pass is returned."""
    if problem.d == 0:
        return solve_riccati(problem, t, pinv_rtol)
    _check_solve_args(problem, t)

    n, m, N, d = problem.n, problem.m, problem.N, problem.d
    P = PBlocks(t, N, d, n, single_region=True)
    P.array[N - t, 0] = symmetrize(problem.G)

    W, H, K = np.empty((N - t, m, m)), np.empty((N - t, m, n)), np.empty((N - t, m, n))
    for k in range(N - 1, t - 1, -1):
        j = k - t
        A, C, Q = problem.A[k], problem.C[k], problem.Q[k]
        Pk, Pn = P.array[j], P.array[j + 1]
        Wk, Hk = _wh_from_next(problem, Pn, k, problem.R[k])
        Wdag = pinv(Wk, pinv_rtol)
        W[j], H[j], K[j] = Wk, Hk, -Wdag @ Hk

        Pk[0] = symmetrize(Q + A.T @ (Pn[0] + Pn[1]) @ A + C.T @ Pn[0] @ C)
        for i in range(1, d):
            Pk[i] = symmetrize(A.T @ Pn[i + 1] @ A)
        Pk[d] = symmetrize(-(Hk.T @ Wdag @ Hk))

    return RiccatiSolution(t=t, N=N, d=d, n=n, m=m, P=P, Psum=_index_sum(P.array),
                           W=W, H=H, K=K, single_region=True)


# ---------------------------------------------------------------------------
# Classification and value

@dataclass(frozen=True)
class SolvabilityReport:
    """The grade of a solution and its per-step evidence, as two (N - t,)
    columns indexed by the step j = k - t like W, H and K: w_min_eig[j] is
    the least eigenvalue of W_k and range_residual[j] the relative residual
    of H_k outside the range of W_k."""

    classification: str
    w_min_eig: np.ndarray
    range_residual: np.ndarray
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
    range_residual, whose columns the report keeps as they are.
    """
    lam, margin = eig_margin(sol.W)
    resid = range_residual(sol.H, sol.W)
    all_psd = bool(np.all(margin >= -tol))
    if np.all(margin > tol):
        cls, note = UNIQUELY_SOLVABLE, ""
    elif all_psd and np.all(resid <= tol):
        cls, note = SOLVABLE_ALL_PAIRS, ""
    elif all_psd:
        cls, note = CONVEX_CANDIDATE, "fixed-initial-pair solvability requires oracle check"
    else:
        cls, note = NOT_CONVEX, ""
    return SolvabilityReport(classification=cls, w_min_eig=lam, range_residual=resid,
                             note=note)


def optimal_value(sol: RiccatiSolution, k: int, xi,
                  report: SolvabilityReport | None = None,
                  tol: float = PSD_TOL) -> float:
    """xi^T (sum of defined P^(i)_k) xi — the best achievable cost from
    (k, xi). Refuses when the classification does not guarantee solvability;
    a value that overflows raises ConsistencyError."""
    if not sol.t <= k <= sol.N - 1:
        raise ValidationError(f"time {k} outside [{sol.t}, {sol.N - 1}]")
    if report is None:
        report = classify(sol, tol)
    if not report.at_least(SOLVABLE_ALL_PAIRS):
        raise UnsolvableError(
            f"optimal value undefined: classification is {report.classification}"
            + (f" ({report.note})" if report.note else "")
        )
    xi = _check_state(xi, sol.n)
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(xi @ sol.P_sum(k) @ xi)
    if not np.isfinite(value):
        raise ConsistencyError(f"numerical breakdown: non-finite value at k={k}")
    return value


def feedback_policy(sol: RiccatiSolution) -> FeedbackPolicy:
    """The gain policy u_k = K_k E_{max(t,k-d)}[X_k] as a simulable object."""
    return FeedbackPolicy(t=sol.t, d=sol.d, gains=sol.K)


# ---------------------------------------------------------------------------
# Serialization (consumed by the CLI)

def _blocks_to_dict(P: PBlocks) -> KeyedStack:
    """The blocks of P as a JSON object: keys "i,k" in (i, k) order, the
    matrices as one stack."""
    return KeyedStack([f"{i},{k}" for i, k in P], P.blocks())


def _blocks_from_dict(raw: dict) -> tuple[list[tuple[int, int]], list[np.ndarray]]:
    """Inverse of _blocks_to_dict: the pairs (i, k) in input order and their
    float matrices. Malformed input, including two keys that name the same
    pair ("0,1" and "00,1") and a boolean or string inside a matrix, raises
    KeyError, ValueError, TypeError or AttributeError for the caller to
    report."""
    pairs, mats, names = [], [], {}
    for key, M in raw.items():
        i_s, k_s = key.split(",")
        pair = (int(i_s), int(k_s))
        if pair in names:
            raise ValueError(f"keys {names[pair]!r} and {key!r} both name the pair {pair}")
        names[pair] = key
        pairs.append(pair)
        mats.append(_float_array(M, f"P entry {key!r}"))
    return pairs, mats


def solution_to_dict(sol: RiccatiSolution, report: SolvabilityReport | None = None) -> dict:
    P = _blocks_to_dict(sol.require_blocks("solution_to_dict"))
    if report is None:
        report = classify(sol)
    return {
        "t": sol.t,
        "d": sol.d,
        "N": sol.N,
        "P": P,
        "W": sol.W,
        "H": sol.H,
        "K": sol.K,
        "classification": report.classification,
    }


def solution_from_dict(data: dict) -> tuple[RiccatiSolution, str]:
    try:
        t, d, N = (_integer(name, data[name]) for name in "tdN")
        pairs, mats = _blocks_from_dict(data["P"])
        W, H, K = (_float_array(data[name], name) for name in "WHK")
        classification = str(data["classification"])
        n = mats[pairs.index((0, N))].shape[0]
        if not len(W) == len(H) == len(K) == N - t:
            raise ValueError(f"W, H and K must hold N - t = {N - t} matrices each")
        m = W.shape[-1]
        if W.shape != (N - t, m, m) or not H.shape == K.shape == (N - t, m, n):
            raise ValueError(f"W must hold {m}x{m} matrices, H and K {m}x{n} ones")
        # Only the single-region variant carries P^(d) at the initial time.
        single = d >= 1 and (d, t) in pairs
        P = PBlocks(t, N, d, n, single_region=single)
        mismatch = _key_mismatch(set(P), set(pairs))
        if mismatch:
            raise ValueError(f"P index structure is wrong: {mismatch}")
        for (i, k), M in zip(pairs, mats):
            if M.shape != (n, n) or not _is_symmetric(M):
                raise ValueError(f"P entry {(i, k)} is not a symmetric {n}x{n} matrix")
            P.array[k - t, i] = M
    except (KeyError, IndexError, ValueError, TypeError, AttributeError) as exc:
        raise ValidationError(f"malformed solution JSON: {exc}") from exc
    with np.errstate(over="ignore", invalid="ignore"):   # optimal_value refuses the inf
        Psum = _index_sum(P.array)
    sol = RiccatiSolution(t=t, N=N, d=d, n=n, m=m, P=P, Psum=Psum, W=W, H=H, K=K,
                          single_region=single)
    return sol, classification
