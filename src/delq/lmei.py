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

A candidate holds its matrices as the backward kernel holds a solution's:
P~^(0..r)_k, r = min(k-t, d), is one stack per time, and the stacks of times
N, N-1, ..., t are consecutive slices of one buffer (riccati._StackedBlocks),
so a lookup by (i, k) returns a view. Finiteness and symmetry of all entries
are checked in one stacked call; a message still names the first bad entry
in input order. A finite entry whose symmetrized value overflows raises
ConsistencyError naming the earliest step.

One slack pass per candidate computes under np.errstate every per-step
quantity, as (N - t, ., .) stacks indexed by step k - t: W~_k and H~_k (the
kernel's W/H formula on the stack of time k+1), the state gaps, the block
upper-left entries; also the middle-index residuals (one batched product
per step) and the terminal gap. The earliest step with a non-finite
quantity (k = N for an overflowing symmetrized terminal gap) raises
ConsistencyError. check_membership then grades each family of constraints
in one stacked linalg call (eig_margin for the inequalities, rel_deviation
for the equalities, the stacked Schur test with both routes and the
gray-band check for the blocks): the floats of a per-constraint loop, in
the same report order; a non-finite margin raises ConsistencyError.
construct_from_candidate hands the pass's stacks to the backward kernel as
they are, forms P = P~ + U as one buffer add and verifies the final W/H/K
in stacked calls. auxiliary_cost reads its weights from the same pass.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, UnsolvableError, ValidationError
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
from .model import ProblemData, _check_solve_args, block_mean, expand, expected_quadratic, \
    measurable_level, rollout
from .riccati import (
    SOLVABLE_ALL_PAIRS,
    RiccatiSolution,
    SolvabilityReport,
    _backward,
    _blocks_from_dict,
    _blocks_to_dict,
    _StackedBlocks,
    _key_mismatch,
    _stacked_keys,
    _wh_into,
    classify,
)

_CONSTRUCT_CONSISTENCY_TOL = 1e-8


@dataclass(frozen=True)
class LmeiCandidate:
    """Symmetric matrices P~^(i)_k over the defined index ranges
    (i = 0..min(k-t, d) for t <= k <= N), as per-time stacks in one buffer."""

    t: int
    N: int
    d: int
    n: int
    P: _StackedBlocks

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


def _candidate(problem: ProblemData, t: int, stack: np.ndarray) -> LmeiCandidate:
    """The candidate over the symmetrized `stack`, whose rows are in
    _StackedBlocks' layout for (t, N, d, n). A finite entry whose
    symmetrization overflows raises ConsistencyError naming the earliest step."""
    n, N, d = problem.n, problem.N, problem.d
    with np.errstate(over="ignore"):
        buffer = symmetrize(stack)
    finite = np.isfinite(buffer).all(axis=(1, 2))
    if not finite.all():
        bad = [key for key, ok in zip(_stacked_keys(t, N, d), finite.tolist()) if not ok]
        i, k = min(bad, key=lambda key: (key[1], key[0]))
        raise ConsistencyError(
            f"numerical breakdown: non-finite symmetrized candidate P~^({i}) at k={k}"
        )
    return LmeiCandidate(t=t, N=N, d=d, n=n, P=_StackedBlocks(t, N, d, n, buffer))


def make_candidate(problem: ProblemData, t: int, entries: dict) -> LmeiCandidate:
    """Build and structurally validate a candidate for the given problem.

    Entries are checked in their order: the first one with the wrong shape,
    non-finite values or an asymmetry is reported; then the index structure.
    """
    _check_candidate_args(problem, t)
    n, N, d = problem.n, problem.N, problem.d
    keys, mats, misshapen = list(entries), [], None
    for key, M in entries.items():
        M = np.asarray(M, dtype=float)
        if M.shape != (n, n):
            misshapen = f"candidate entry {key} must be {n}x{n}, got {M.shape}"
            break
        mats.append(M)
    stack = np.stack(mats) if mats else np.empty((0, n, n))
    _check_entries(keys, stack)  # the entries before a misshapen one
    if misshapen:
        raise ValidationError(misshapen)
    layout = _stacked_keys(t, N, d)
    mismatch = _key_mismatch(set(layout), set(keys))
    if mismatch:
        raise ValidationError(f"candidate index structure is wrong: {mismatch}")
    position = {key: j for j, key in enumerate(keys)}
    return _candidate(problem, t, stack[[position[key] for key in layout]])


def zero_candidate(problem: ProblemData, t: int) -> LmeiCandidate:
    """The all-zero candidate (feasible exactly when the data are pointwise
    nonnegative-definite)."""
    _check_candidate_args(problem, t)
    blocks = _StackedBlocks(t, problem.N, problem.d, problem.n)
    blocks.buffer.fill(0.0)
    return LmeiCandidate(t=t, N=problem.N, d=problem.d, n=problem.n, P=blocks)


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
        entries = _blocks_from_dict(data["P"])
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
        raise ValidationError(f"malformed candidate JSON: {exc}") from exc
    return make_candidate(problem, t, entries)


# ---------------------------------------------------------------------------
# Region table

def state_gap(cand: LmeiCandidate, problem: ProblemData, k: int) -> np.ndarray:
    """Q_k + A^T (P~^(0)+P~^(1))_{k+1} A + C^T P~^(0)_{k+1} C - P~^(0)_k:
    the slack of the relaxed P~^(0) recursion (must be PSD for k > t; at
    k = t it is the upper-left entry of the block constraint)."""
    A, C = problem.A[k], problem.C[k]
    inner = cand.P_at(0, k + 1) + cand.P_at(1, k + 1)
    return symmetrize(
        problem.Q[k] + A.T @ inner @ A + C.T @ cand.P_at(0, k + 1) @ C - cand.P_at(0, k)
    )


def correction_matrix(cand: LmeiCandidate, problem: ProblemData, k: int) -> np.ndarray:
    """Upper-left entry of the block constraint for k > t:
    -P~^(d)_k deep in the horizon, A^T P~^(k+1-t)_{k+1} A - P~^(k-t)_k in the
    ramp-up region t < k < t+d."""
    t, d = cand.t, cand.d
    if k <= t:
        raise ValidationError("no correction matrix at the initial time")
    r = min(k - t, d)
    if r == d:
        return symmetrize(-cand.P_at(d, k))
    A = problem.A[k]
    return symmetrize(A.T @ cand.P_at(r + 1, k + 1) @ A - cand.P_at(r, k))


@dataclass(frozen=True)
class _Slack:
    """Per-step quantities of a candidate; the leading axis is k - t for
    k = t..N-1, except for the middle-index equalities."""

    W: np.ndarray         # W~_k
    H: np.ndarray         # H~_k
    gap: np.ndarray       # state_gap at k
    upper: np.ndarray     # block upper-left: state_gap at k = t, correction_matrix after
    eq_err: np.ndarray    # P~^(i)_k - A_k^T P~^(i+1)_{k+1} A_k, t < k, 0 < i < r_k, in (k, i) order
    eq_rhs: np.ndarray    # A_k^T P~^(i+1)_{k+1} A_k, same order
    terminal: np.ndarray  # G - P~^(0)_N


def _slack(cand: LmeiCandidate, problem: ProblemData) -> _Slack:
    """The one slack pass. Overflow is not warned about: the earliest step
    with a non-finite quantity (k = N for the terminal gap) raises
    ConsistencyError."""
    t, N, d, n, m = cand.t, cand.N, cand.d, cand.n, problem.m
    stacks = cand.P.stacks
    middle = [max(min(k - t, d) - 1, 0) for k in range(t, N)]
    W, H = np.empty((N - t, m, m)), np.empty((N - t, m, n))
    gap, upper = np.empty((N - t, n, n)), np.empty((N - t, n, n))
    eq_err, eq_rhs = np.empty((sum(middle), n, n)), np.empty((sum(middle), n, n))
    pos = 0
    with np.errstate(all="ignore"):
        for j, k in enumerate(range(t, N)):
            _wh_into(problem, stacks[k + 1], k, problem.R[k], W[j], H[j])
            gap[j] = state_gap(cand, problem, k)
            upper[j] = gap[j] if k == t else correction_matrix(cand, problem, k)
            if middle[j]:
                A, end = problem.A[k], pos + middle[j]
                eq_rhs[pos:end] = A.T @ stacks[k + 1][2:middle[j] + 2] @ A
                eq_err[pos:end] = stacks[k][1:middle[j] + 1] - eq_rhs[pos:end]
                pos = end
        terminal = problem.G - stacks[N][0]
        finite = (np.isfinite(W).all(axis=(1, 2)) & np.isfinite(H).all(axis=(1, 2))
                  & np.isfinite(gap).all(axis=(1, 2)) & np.isfinite(upper).all(axis=(1, 2)))
        eq_step = np.repeat(np.arange(N - t), middle)
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
class ConstraintStatus:
    """One constraint with a signed margin.

    Inequalities (kind "inequality"/"block"/"terminal_gap") report the
    relative minimum eigenvalue; equalities (kind "equality"/"terminal_zero")
    report minus the relative residual. Satisfied means margin >= -tol.
    """

    kind: str
    k: int
    i: int | None
    margin: float
    satisfied: bool


@dataclass(frozen=True)
class LmeiReport:
    feasible: bool
    tol: float
    constraints: tuple[ConstraintStatus, ...]

    def worst(self) -> ConstraintStatus:
        return min(self.constraints, key=lambda c: c.margin)


def _check_anchor(cand: LmeiCandidate, problem: ProblemData, t: int) -> None:
    if cand.t != t:
        raise ValidationError(f"candidate is anchored at t={cand.t}, not {t}")
    if (cand.N, cand.d, cand.n) != (problem.N, problem.d, problem.n):
        raise ValidationError("candidate dimensions do not match the problem")


def _grade(cand: LmeiCandidate, slack: _Slack, tol: float) -> LmeiReport:
    """Every constraint from the slack pass, in report order: the terminal
    conditions, then per step k the inequality, the equalities (i = 1..) and
    the block constraint. A non-finite margin (an eigenvalue of finite slack
    can overflow) raises ConsistencyError naming the earliest such step."""
    t, N, d = cand.t, cand.N, cand.d

    def status(kind: str, k: int, i: int | None, margin: float) -> ConstraintStatus:
        return ConstraintStatus(kind=kind, k=k, i=i, margin=margin, satisfied=margin >= -tol)

    with np.errstate(all="ignore"):
        records = [status("terminal_gap", N, 0, eig_margin(slack.terminal)[1])]
        zero = (-rel_deviation(cand.P.stacks[N][1:], 0.0)).tolist()
        inequality = eig_margin(slack.gap[1:])[1].tolist()
        equality = iter((-rel_deviation(slack.eq_err, slack.eq_rhs)).tolist())
        block_ok, block = (x.tolist() for x in _schur_blocks(slack.upper, slack.H, slack.W, tol))
    records += [status("terminal_zero", N, j, margin) for j, margin in enumerate(zero, 1)]
    for j, k in enumerate(range(t, N)):
        if k > t:
            records.append(status("inequality", k, 0, inequality[j - 1]))
            records += [status("equality", k, i, next(equality))
                        for i in range(1, min(k - t, d))]
        records.append(ConstraintStatus(kind="block", k=k, i=None, margin=block[j],
                                        satisfied=block_ok[j]))
    broken = [c for c in records if not np.isfinite(c.margin)]
    if broken:
        c = min(broken, key=lambda c: c.k)
        raise ConsistencyError(f"numerical breakdown: non-finite {c.kind} margin at k={c.k}")
    feasible = all(c.satisfied for c in records)
    return LmeiReport(feasible=feasible, tol=tol, constraints=tuple(records))


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
    candidate (the block constraints hold with Schur complement exactly 0)."""
    if sol.d < 1:
        raise ValidationError("certificates require delay d >= 1")
    if report is None:
        report = classify(sol, tol)
    if not report.at_least(SOLVABLE_ALL_PAIRS):
        raise UnsolvableError(
            f"classification {report.classification} is too weak for a certificate"
        )
    return make_candidate(problem, sol.t, dict(sol.P))


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
            f"{worst.kind} at k={worst.k} (margin {worst.margin:.3e})"
        )

    n, m, N, d = cand.n, problem.m, cand.N, cand.d
    aux = _backward(problem, t, slack.gap, slack.W, slack.terminal, pinv_rtol,
                    S=slack.H, delta=slack.upper)

    with np.errstate(all="ignore"):
        P = _StackedBlocks(t, N, d, n, symmetrize(cand.P.buffer + aux.P.buffer))
        finite = np.isfinite(P.buffer).all(axis=(1, 2))
        if not finite.all():
            # The buffer runs from time N down to t: the last bad row is earliest.
            k = _stacked_keys(t, N, d)[int(np.flatnonzero(~finite)[-1])][1]
            raise ConsistencyError(f"numerical breakdown: non-finite P at k={k}")
        # W/H recomputed from P (the defining sums), cross-checked against the
        # auxiliary quantities, which must coincide.
        W, H = np.empty((N - t, m, m)), np.empty((N - t, m, n))
        for j, k in enumerate(range(t, N)):
            _wh_into(problem, P.stacks[k + 1], k, problem.R[k], W[j], H[j])
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
    return RiccatiSolution(t=t, N=N, d=d, n=n, m=m, P=P, W=W, H=H, K=-Wdag @ H)


# ---------------------------------------------------------------------------
# Auxiliary cost (used to validate the construction empirically)

def auxiliary_cost(cand: LmeiCandidate, problem: ProblemData, t: int, k: int,
                   xi, u) -> float:
    """Exact tree evaluation of the auxiliary cost from (k, xi) under u.

    Common part: state weight = relaxed-recursion slack, cross term
    2 (H~_l X_l)^T u_l, control weight W~_l, terminal weight G - P~^(0)_N.
    Region corrections add E[(E_{l-d} X)^T Delta_l (E_{l-d} X)] with Delta_l
    the block upper-left entry, for every l >= max(k, t+1). Feasibility of
    the candidate makes this cost nonnegative for every admissible control.
    Every weight is read from the candidate's slack pass.
    """
    _check_anchor(cand, problem, t)
    if not t <= k <= cand.N - 1:
        raise ValidationError(f"start time {k} outside [{t}, {cand.N - 1}]")
    slack = _slack(cand, problem)
    traj = rollout(problem, t, xi, u, start=k)
    total = 0.0
    for ell in range(k, cand.N):
        j = ell - t
        X = traj.states.at(ell)
        u_coarse = traj.control_at(ell)
        total += expected_quadratic(X, slack.gap[j])
        hx = X @ slack.H[j].T
        s = measurable_level(t, cand.d, ell)
        u_full = expand(u_coarse, ell - s)
        total += 2.0 * float(np.mean(np.sum(hx * u_full, axis=1)))
        total += expected_quadratic(u_coarse, slack.W[j])
        if ell >= t + 1:
            ex = block_mean(X, ell - s)
            total += expected_quadratic(ex, slack.upper[j])
    XN = traj.states.at(cand.N)
    total += expected_quadratic(XN, slack.terminal)
    return total
