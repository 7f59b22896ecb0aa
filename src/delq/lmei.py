"""Feasibility system of coupled matrix equalities/inequalities and the
constructive map from a feasible candidate to a constrained-recursion
solution.

A candidate is a family P~^(i)_k with the same defined-index structure as a
recursion solution. Membership asks for: a relaxed state-cost inequality on
P~^(0) at every step, exact propagation equalities on the middle indices, a
2x2-block semidefiniteness constraint whose upper-left entry depends on the
region (k = t, t < k < t+d, k >= t+d), and terminal conditions P~^(0)_N <= G,
P~^(j)_N = 0. Feasibility of this system is equivalent to solvability of the
control problem for every initial pair, and the equivalence is constructive:
an auxiliary problem built from the candidate's slack turns any feasible
candidate into an exact solution of the constrained recursion (P = P~ + U).

A candidate holds its matrices as the backward kernel holds a piecewise
solution's (riccati.PBlocks): P~^(i)_k is entry [k - t, i] of one
(N - t + 1, min(N - t, d) + 1, n, n) array P, whose undefined entries
i > k - t hold +0.0, so a lookup by (i, k) returns a view. Finiteness and
symmetry of all entries are checked in one stacked call; a message still
names the first bad entry in input order. A finite entry whose symmetrized
value overflows raises ConsistencyError naming the earliest step.

One slack pass per candidate computes under np.errstate every per-step
quantity as an (N - t, ., .) stack indexed by step j = k - t. No quantity is
a recursion: each reads only the candidate's entries at k and k + 1, so the
pass is a few products batched over all steps, with no loop over k. Its
inputs are slices of P: P~^(i)_{k+1} of every step is P[1:, i], P~^(0)_k is
P[:-1, 0], the deep top index P~^(d)_k is P[d:steps, -1] and the ramp-up one
P~^(k-t)_k is the diagonal P[j, j]. The pass forms W~_k and H~_k by one
stacked call of the kernel's W/H formula (riccati._wh_into), after a running
sum over the index axis of P[1:]; then the state gaps, the block upper-left
entries (the ramp-up corrections t < k < t+d and the deep ones), the
middle-index residuals (one batched product per index i over the steps that
have it, scattered into (k, i) order) and the terminal gap. Every float is
the one the per-step formula gives. The earliest step with a non-finite quantity (k = N
for an overflowing symmetrized terminal gap) raises ConsistencyError.
check_membership then grades each family of constraints in one stacked
linalg call (eig_margin for the inequalities, rel_deviation for the
equalities, the stacked Schur test with both routes and the gray-band check
for the blocks) and lays the report out by index arithmetic: its kind, k, i,
margin and satisfied columns in report order, from which the non-finite
margin refusal and feasibility are read. The report keeps these columns as
they are, one list each in a jsontext.Records, with no object per
constraint. construct_from_candidate hands the pass's stacks to the backward
kernel as they are, forms P = P~ + U as one array add, re-derives W/H from P
by the same stacked call and verifies them in stacked calls.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, UnsolvableError, ValidationError
from .jsontext import Records
from .linalg import (
    PINV_RTOL,
    PSD_TOL,
    _is_symmetric,
    _range_residual,
    _schur_blocks,
    eig_margin,
    pinv,
    rel_deviation,
    symmetrize,
)
from .model import ProblemData, _check_solve_args
from .riccati import (
    SOLVABLE_ALL_PAIRS,
    PBlocks,
    RiccatiSolution,
    SolvabilityReport,
    _backward,
    _blocks_from_dict,
    _blocks_to_dict,
    _index_sum,
    _key_mismatch,
    _wh_into,
    classify,
)

_CONSTRUCT_CONSISTENCY_TOL = 1e-8


@dataclass(frozen=True)
class LmeiCandidate:
    """Symmetric matrices P~^(i)_k over the defined index ranges
    (i = 0..min(k-t, d) for t <= k <= N), read through the PBlocks P: entry
    [k - t, i] of the array P.array, as a piecewise solution holds them."""

    t: int
    N: int
    d: int
    n: int
    P: PBlocks

    def top_index(self, k: int) -> int:
        return min(k - self.t, self.d)

    def P_at(self, i: int, k: int) -> np.ndarray:
        try:
            return self.P[(i, k)]
        except KeyError:
            raise ValidationError(f"candidate entry P~^({i})_{k} is missing") from None


def _check_candidate_args(problem: ProblemData, t: int) -> None:
    _check_solve_args(problem, t)
    if problem.d < 1:
        raise ValidationError("the inequality system is defined for delay d >= 1")


def _check_entries(keys: list, stack: np.ndarray) -> None:
    """Raise for the first non-finite or asymmetric matrix of `stack`, named
    by the key at its position in `keys`."""
    finite = np.isfinite(stack).all(axis=(-2, -1))
    good = finite & _is_symmetric(stack)
    if good.all():
        return
    j = int(np.argmin(good))
    key = keys[j]
    if not finite[j]:
        raise ValidationError(f"candidate entry {key} contains non-finite entries")
    raise ValidationError(f"candidate entry {key} is not symmetric within tolerance")


def _candidate(problem: ProblemData, t: int, array: np.ndarray) -> LmeiCandidate:
    """The candidate over the symmetrized `array`, a piecewise P.array for
    (t, N, d, n). A finite entry whose symmetrization overflows raises
    ConsistencyError naming the earliest step."""
    n, N, d = problem.n, problem.N, problem.d
    with np.errstate(over="ignore"):
        array = symmetrize(array)
    bad = np.argwhere(~np.isfinite(array).all(axis=(2, 3)))
    if len(bad):
        j, i = bad[0]
        raise ConsistencyError(
            f"numerical breakdown: non-finite symmetrized candidate P~^({i}) at k={t + j}"
        )
    return LmeiCandidate(t=t, N=N, d=d, n=n, P=PBlocks(t, N, d, n, array=array))


def _candidate_from_pairs(problem: ProblemData, t: int, keys: list, mats) -> LmeiCandidate:
    """make_candidate over the keys and their matrices, in input order."""
    _check_candidate_args(problem, t)
    n, N, d = problem.n, problem.N, problem.d
    checked, misshapen = [], None
    for key, M in zip(keys, mats):
        M = np.asarray(M, dtype=float)
        if M.shape != (n, n):
            misshapen = f"candidate entry {key} must be {n}x{n}, got {M.shape}"
            break
        checked.append(M)
    stack = np.stack(checked) if checked else np.empty((0, n, n))
    _check_entries(keys, stack)  # the entries before a misshapen one
    if misshapen:
        raise ValidationError(misshapen)
    P = PBlocks(t, N, d, n)
    mismatch = _key_mismatch(set(P), set(keys))
    if mismatch:
        raise ValidationError(f"candidate index structure is wrong: {mismatch}")
    i, k = np.array(keys, dtype=int).T
    P.array[k - t, i] = stack
    return _candidate(problem, t, P.array)


def make_candidate(problem: ProblemData, t: int, entries: dict) -> LmeiCandidate:
    """Build and structurally validate a candidate for the given problem.

    Entries are checked in their order: the first one with the wrong shape,
    non-finite values or an asymmetry is reported; then the index structure.
    """
    return _candidate_from_pairs(problem, t, list(entries), entries.values())


def zero_candidate(problem: ProblemData, t: int) -> LmeiCandidate:
    """The all-zero candidate (feasible exactly when the data are pointwise
    nonnegative-definite)."""
    _check_candidate_args(problem, t)
    P = PBlocks(t, problem.N, problem.d, problem.n)
    return LmeiCandidate(t=t, N=problem.N, d=problem.d, n=problem.n, P=P)


def candidate_to_dict(cand: LmeiCandidate) -> dict:
    return {
        "t": cand.t,
        "d": cand.d,
        "N": cand.N,
        "P": _blocks_to_dict(cand.P),
    }


def candidate_from_dict(problem: ProblemData, data: dict) -> LmeiCandidate:
    try:
        t = data["t"]
        if isinstance(t, bool) or not isinstance(t, int):
            raise TypeError(f"t must be an integer, got {t!r}")
        pairs, mats = _blocks_from_dict(data["P"])
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
        raise ValidationError(f"malformed candidate JSON: {exc}") from exc
    return _candidate_from_pairs(problem, t, pairs, mats)


# ---------------------------------------------------------------------------
# Slack pass

@dataclass(frozen=True)
class _Slack:
    """Per-step quantities of a candidate; the leading axis is k - t for
    k = t..N-1, except for the middle-index equalities."""

    W: np.ndarray         # W~_k
    H: np.ndarray         # H~_k
    gap: np.ndarray       # state gap at k (see _slack)
    upper: np.ndarray     # block upper-left: the state gap at k = t, the correction after
    eq_err: np.ndarray    # P~^(i)_k - A_k^T P~^(i+1)_{k+1} A_k, t < k, 0 < i < r_k, in (k, i) order
    eq_rhs: np.ndarray    # A_k^T P~^(i+1)_{k+1} A_k, same order
    terminal: np.ndarray  # G - P~^(0)_N


def _middle_counts(steps: int, d: int) -> np.ndarray:
    """The number of middle indices 0 < i < min(k - t, d) of each step
    k - t = 0..steps-1: its equality constraints."""
    return np.maximum(np.minimum(np.arange(steps), d) - 1, 0)


def _wh_steps(problem: ProblemData, t: int, Psum: np.ndarray,
              P0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """W_k and H_k for k = t..N-1 from the stacks of sum_i P^(i)_{k+1} and
    P^(0)_{k+1}: one stacked call of the kernel's formula."""
    N, m, n = problem.N, problem.m, problem.n
    B, D = problem.B[t:N], problem.D[t:N]
    W, H = np.empty((N - t, m, m)), np.empty((N - t, m, n))
    _wh_into(problem.A[t:N], B, problem.C[t:N], D, np.swapaxes(B, 1, 2),
             np.swapaxes(D, 1, 2), Psum, P0, problem.R[t:N], W, H)
    return W, H


def _slack(cand: LmeiCandidate, problem: ProblemData) -> _Slack:
    """The one slack pass, stacked over the steps k = t..N-1 (see the module
    docstring). Overflow is not warned about: the earliest step with a
    non-finite quantity (k = N for the terminal gap) raises ConsistencyError.

    The state gap Q_k + A^T (P~^(0)+P~^(1))_{k+1} A + C^T P~^(0)_{k+1} C -
    P~^(0)_k is the slack of the relaxed P~^(0) recursion (PSD for k > t; at
    k = t the block's upper-left entry). After t that entry is the
    correction: A^T P~^(k+1-t)_{k+1} A - P~^(k-t)_k in the ramp-up region
    t < k < t+d, -P~^(d)_k deep in the horizon."""
    t, N, d, n = cand.t, cand.N, cand.d, cand.n
    steps, P = N - t, cand.P.array
    A, C = problem.A[t:N], problem.C[t:N]
    At, Ct = np.swapaxes(A, 1, 2), np.swapaxes(C, 1, 2)
    middle = _middle_counts(steps, d)
    offset = np.cumsum(middle) - middle
    size = int(middle.sum())
    eq_err, eq_rhs = np.empty((size, n, n)), np.empty((size, n, n))
    with np.errstate(all="ignore"):
        P0n = P[1:, 0]
        W, H = _wh_steps(problem, t, _index_sum(P[1:]), P0n)
        gap = symmetrize(problem.Q[t:N] + At @ (P0n + P[1:, 1]) @ A + Ct @ P0n @ C
                         - P[:-1, 0])
        upper = np.empty_like(gap)
        upper[0] = gap[0]
        ramp = np.arange(1, min(d, steps))                    # r = k - t < d
        symmetrize(At[ramp] @ P[ramp + 1, ramp + 1] @ A[ramp] - P[ramp, ramp],
                   out=upper[1:len(ramp) + 1])
        symmetrize(-P[d:steps, -1], out=upper[d:])  # where j >= d, index d is the last
        # One batched product per middle index i, over the steps that have it.
        for i in range(1, min(d, steps - 1)):
            first = i + 1
            rhs = At[first:] @ P[first + 1:, i + 1] @ A[first:]
            pos = offset[first:] + i - 1
            eq_rhs[pos] = rhs
            eq_err[pos] = P[first:-1, i] - rhs
        terminal = problem.G - P[-1, 0]
        finite = (np.isfinite(W).all(axis=(1, 2)) & np.isfinite(H).all(axis=(1, 2))
                  & np.isfinite(gap).all(axis=(1, 2)) & np.isfinite(upper).all(axis=(1, 2)))
        eq_step = np.repeat(np.arange(steps), middle)
        finite[eq_step[~np.isfinite(eq_err).all(axis=(1, 2))]] = False
        # Graded and run through the kernel symmetrized, which can overflow.
        terminal_finite = np.isfinite(symmetrize(terminal)).all()
    if not finite.all():
        k = t + int(np.argmin(finite))
    elif not terminal_finite:
        k = N
    else:
        return _Slack(W=W, H=H, gap=gap, upper=upper, eq_err=eq_err, eq_rhs=eq_rhs,
                      terminal=terminal)
    raise ConsistencyError(f"numerical breakdown: non-finite candidate slack at k={k}")


# ---------------------------------------------------------------------------
# Membership checking

@dataclass(frozen=True)
class LmeiReport:
    """Every constraint of the system with a signed margin, one row each in
    report order (see _grade), held as the columns kind, k, i, margin and
    satisfied of `constraints`.

    Inequalities (kind "inequality"/"block"/"terminal_gap") report the
    relative minimum eigenvalue; equalities (kind "equality"/"terminal_zero")
    report minus the relative residual. i is None for a block. Satisfied
    means margin >= -tol; a block is decided by the Schur test.
    """

    feasible: bool
    tol: float
    constraints: Records

    def worst(self) -> dict:
        """The first row of least margin."""
        _, _, _, margin, _ = self.constraints.columns
        return self.constraints[margin.index(min(margin))]


def _check_anchor(cand: LmeiCandidate, problem: ProblemData, t: int) -> None:
    if cand.t != t:
        raise ValidationError(f"candidate is anchored at t={cand.t}, not {t}")
    if (cand.N, cand.d, cand.n) != (problem.N, problem.d, problem.n):
        raise ValidationError("candidate dimensions do not match the problem")


def _grade(cand: LmeiCandidate, slack: _Slack, tol: float) -> LmeiReport:
    """Every constraint from the slack pass, in report order: the terminal
    conditions, then per step k the inequality, the equalities (i = 1..) and
    the block constraint. Each family is graded in one stacked call and
    scattered into the report's kind, k, i, margin and satisfied columns,
    which the report holds as lists. A non-finite margin (an eigenvalue of
    finite slack can overflow) raises ConsistencyError naming the earliest
    such step."""
    t, N, d = cand.t, cand.N, cand.d
    with np.errstate(all="ignore"):
        terminal = eig_margin(slack.terminal)[1]
        zero = -rel_deviation(cand.P.array[-1, 1:], 0.0)
        inequality = eig_margin(slack.gap[1:])[1]
        equality = -rel_deviation(slack.eq_err, slack.eq_rhs)
        block_ok, block = _schur_blocks(slack.upper, slack.H, slack.W, tol)
    # The rows of the report: 1 + len(zero) terminal rows, then per step
    # j = k - t its inequality (j > 0), its equalities and its block.
    middle = _middle_counts(N - t, d)
    count = middle + 2
    count[0] = 1
    first = 1 + len(zero) + np.cumsum(count) - count
    block_row, inequality_row = first + count - 1, first[1:]
    eq_i = np.arange(len(equality)) - np.repeat(np.cumsum(middle) - middle, middle) + 1
    eq_row = np.repeat(first, middle) + eq_i

    margin = np.empty(first[-1] + count[-1])
    margin[0], margin[1:first[0]] = terminal, zero
    margin[inequality_row], margin[eq_row], margin[block_row] = inequality, equality, block
    satisfied = margin >= -tol
    satisfied[block_row] = block_ok
    k = np.empty(len(margin), dtype=int)
    k[:first[0]] = N
    k[first[0]:] = np.repeat(np.arange(t, N), count)
    i = np.zeros(len(margin), dtype=int)
    i[1:first[0]] = np.arange(1, first[0])
    i[eq_row] = eq_i
    i = i.astype(object)
    i[block_row] = None
    kind = np.empty(len(margin), dtype=object)
    kind[0], kind[1:first[0]] = "terminal_gap", "terminal_zero"
    kind[inequality_row], kind[eq_row], kind[block_row] = "inequality", "equality", "block"

    broken = np.flatnonzero(~np.isfinite(margin))
    if broken.size:
        j = broken[np.argmin(k[broken])]            # the first row of the earliest step
        raise ConsistencyError(
            f"numerical breakdown: non-finite {kind[j]} margin at k={k[j]}")
    columns = kind.tolist(), k.tolist(), i.tolist(), margin.tolist(), satisfied.tolist()
    return LmeiReport(feasible=bool(satisfied.all()), tol=tol,
                      constraints=Records(("kind", "k", "i", "margin", "satisfied"), columns))


def check_membership(cand: LmeiCandidate, problem: ProblemData, t: int,
                     tol: float = PSD_TOL) -> LmeiReport:
    """Evaluate every constraint of the system on the candidate.

    Block constraints are decided by the dual-path extended-Schur test; all
    margins are reported signed so near-boundary candidates are diagnosable.
    """
    _check_anchor(cand, problem, t)
    return _grade(cand, _slack(cand, problem), tol)


# ---------------------------------------------------------------------------
# Construction (candidate -> exact constrained solution)

def certificate_from_riccati(sol: RiccatiSolution, problem: ProblemData,
                             tol: float = PSD_TOL,
                             report: SolvabilityReport | None = None) -> LmeiCandidate:
    """The identity embedding of a solvable recursion solution as a feasible
    candidate (the block constraints hold with Schur complement exactly 0):
    a symmetrized copy of the piecewise solution's P.array. A solution of the
    single-region variant, whose layout is not a candidate's, and one
    computed without blocks are refused."""
    if sol.d < 1:
        raise ValidationError("certificates require delay d >= 1")
    if sol.single_region:
        raise ValidationError(
            "certificates take the piecewise recursion's solution, not the "
            "single-region variant's (solve_riccati_bar)")
    blocks = sol.require_blocks("a certificate")
    if (sol.N, sol.d, sol.n) != (problem.N, problem.d, problem.n):
        raise ValidationError("solution dimensions do not match the problem")
    if report is None:
        report = classify(sol, tol)
    if not report.at_least(SOLVABLE_ALL_PAIRS):
        raise UnsolvableError(
            f"classification {report.classification} is too weak for a certificate"
        )
    _check_candidate_args(problem, sol.t)
    return _candidate(problem, sol.t, blocks.array)


def construct_from_candidate(cand: LmeiCandidate, problem: ProblemData, t: int,
                             tol: float = PSD_TOL,
                             pinv_rtol: float = PINV_RTOL) -> RiccatiSolution:
    """Turn a feasible candidate into an exact constrained-recursion solution.

    The candidate's slack defines an auxiliary problem (state weight =
    relaxed-recursion slack, cross weight H~, control weight W~, terminal
    weight G - P~^(0)_N, top-index correction Delta_k = the block
    constraint's upper-left entry). Its recursion U^(0)..U^(d) runs through
    the same backward kernel as solve_riccati and is always solvable with
    PSD step matrices; P = P~ + U then satisfies the original constrained
    recursion. The returned W/H are recomputed from P and verified against
    the auxiliary-recursion quantities; disagreement, a non-finite P, W or H,
    or a failed constrained check raises ConsistencyError (numerical
    breakdown) naming the earliest such step.
    """
    _check_anchor(cand, problem, t)
    slack = _slack(cand, problem)
    report = _grade(cand, slack, tol)
    if not report.feasible:
        worst = report.worst()
        raise UnsolvableError(
            "candidate is infeasible: worst constraint "
            f"{worst['kind']} at k={worst['k']} (margin {worst['margin']:.3e})"
        )

    n, m, N, d = cand.n, problem.m, cand.N, cand.d
    aux = _backward(problem, t, slack.gap, slack.W, slack.terminal, pinv_rtol,
                    S=slack.H, delta=slack.upper)

    with np.errstate(all="ignore"):
        P = symmetrize(cand.P.array + aux.P.array)
        bad = np.flatnonzero(~np.isfinite(P).all(axis=(1, 2, 3)))
        if bad.size:
            raise ConsistencyError(f"numerical breakdown: non-finite P at k={t + bad[0]}")
        # W/H recomputed from P (the defining sums), cross-checked against the
        # auxiliary quantities, which must coincide.
        Psum = _index_sum(P)
        W, H = _wh_steps(problem, t, Psum[1:], P[1:, 0])
        finite = np.isfinite(W).all(axis=(1, 2)) & np.isfinite(H).all(axis=(1, 2))
    if not finite.all():
        raise ConsistencyError(
            f"numerical breakdown: non-finite W/H at k={t + int(np.argmin(finite))}"
        )
    dW = rel_deviation(W - aux.W, W)
    dH = rel_deviation(H - aux.H, H)
    bound = max(tol, 100 * _CONSTRUCT_CONSISTENCY_TOL)
    psd = eig_margin(W)[1] >= -bound
    Wdag = pinv(W, pinv_rtol)
    rr = _range_residual(H, W, Wdag if pinv_rtol == PINV_RTOL else pinv(W))
    failed = np.flatnonzero((np.maximum(dW, dH) > _CONSTRUCT_CONSISTENCY_TOL)
                            | ~psd | (rr > bound))
    if failed.size:
        j = int(failed[0])
        k = t + j
        if max(dW[j], dH[j]) > _CONSTRUCT_CONSISTENCY_TOL:
            raise ConsistencyError(
                f"constructed solution disagrees with auxiliary recursion at k={k}: "
                f"W deviation {dW[j]:.3e}, H deviation {dH[j]:.3e}"
            )
        if not psd[j]:
            raise ConsistencyError(f"constructed W_{k} is not PSD (numerical breakdown)")
        raise ConsistencyError(
            f"constructed H_{k} leaves the range of W_{k} (residual {rr[j]:.3e})"
        )
    return RiccatiSolution(t=t, N=N, d=d, n=n, m=m, P=PBlocks(t, N, d, n, array=P),
                           Psum=Psum, W=W, H=H, K=-Wdag @ H)
