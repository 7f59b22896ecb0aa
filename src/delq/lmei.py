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
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, UnsolvableError, ValidationError
from .linalg import (
    PINV_RTOL,
    PSD_TOL,
    _require_symmetric,
    _schur_block,
    eig_margin,
    is_psd,
    pinv,
    range_residual,
    rel_deviation,
    symmetrize,
)
from .model import ProblemData, ScenarioTree, block_mean, ensure_valid, expand, \
    measurable_level, quadratic_rows, rollout
from .riccati import (
    SOLVABLE_ALL_PAIRS,
    RiccatiSolution,
    SolvabilityReport,
    _backward,
    _blocks_from_dict,
    _blocks_to_dict,
    _wh_from_next,
    classify,
)

_CONSTRUCT_CONSISTENCY_TOL = 1e-8


@dataclass(frozen=True)
class LmeiCandidate:
    """Symmetric matrices P~^(i)_k over the defined index ranges
    (i = 0..min(k-t, d) for t <= k <= N)."""

    t: int
    N: int
    d: int
    n: int
    P: dict[tuple[int, int], np.ndarray]

    def top_index(self, k: int) -> int:
        return min(k - self.t, self.d)

    def P_at(self, i: int, k: int) -> np.ndarray:
        try:
            return self.P[(i, k)]
        except KeyError:
            raise ValidationError(f"candidate entry P~^({i})_{k} is missing") from None


def _expected_keys(t: int, N: int, d: int) -> set[tuple[int, int]]:
    return {(i, k) for k in range(t, N + 1) for i in range(min(k - t, d) + 1)}


def make_candidate(problem: ProblemData, t: int, entries: dict) -> LmeiCandidate:
    """Build and structurally validate a candidate for the given problem."""
    ensure_valid(problem)
    if problem.d < 1:
        raise ValidationError("the inequality system is defined for delay d >= 1")
    if not 0 <= t <= problem.N - 1:
        raise ValidationError(f"t={t} must satisfy 0 <= t <= N-1 = {problem.N - 1}")
    n, N, d = problem.n, problem.N, problem.d
    P: dict[tuple[int, int], np.ndarray] = {}
    for key, M in entries.items():
        M = np.asarray(M, dtype=float)
        if M.shape != (n, n):
            raise ValidationError(f"candidate entry {key} must be {n}x{n}, got {M.shape}")
        P[key] = _require_symmetric(M, f"candidate entry {key}")
    want = _expected_keys(t, N, d)
    have = set(P)
    if have != want:
        missing = sorted(want - have)
        extra = sorted(have - want)
        parts = []
        if missing:
            parts.append(f"missing entries {missing[:6]}{'...' if len(missing) > 6 else ''}")
        if extra:
            parts.append(f"unexpected entries {extra[:6]}{'...' if len(extra) > 6 else ''}")
        raise ValidationError("candidate index structure is wrong: " + "; ".join(parts))
    return LmeiCandidate(t=t, N=N, d=d, n=n, P=P)


def zero_candidate(problem: ProblemData, t: int) -> LmeiCandidate:
    """The all-zero candidate (feasible exactly when the data are pointwise
    nonnegative-definite)."""
    n = problem.n
    entries = {key: np.zeros((n, n)) for key in _expected_keys(t, problem.N, problem.d)}
    return make_candidate(problem, t, entries)


def candidate_to_dict(cand: LmeiCandidate) -> dict:
    return {
        "t": cand.t,
        "d": cand.d,
        "N": cand.N,
        "P": _blocks_to_dict(cand.P),
    }


def candidate_from_dict(problem: ProblemData, data: dict) -> LmeiCandidate:
    try:
        t = int(data["t"])
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


def check_membership(cand: LmeiCandidate, problem: ProblemData, t: int,
                     tol: float = PSD_TOL) -> LmeiReport:
    """Evaluate every constraint of the system on the candidate.

    Block constraints are decided by the dual-path extended-Schur test; all
    margins are reported signed so near-boundary candidates are diagnosable.
    """
    if cand.t != t:
        raise ValidationError(f"candidate is anchored at t={cand.t}, not {t}")
    if (cand.N, cand.d, cand.n) != (problem.N, problem.d, problem.n):
        raise ValidationError("candidate dimensions do not match the problem")
    records: list[ConstraintStatus] = []

    def add(kind: str, k: int, i: int | None, margin: float,
            satisfied: bool | None = None) -> None:
        ok = (margin >= -tol) if satisfied is None else satisfied
        records.append(ConstraintStatus(kind=kind, k=k, i=i, margin=margin, satisfied=ok))

    N, d = cand.N, cand.d
    # Terminal conditions.
    add("terminal_gap", N, 0, eig_margin(problem.G - cand.P_at(0, N))[1])
    for j in range(1, min(N - t, d) + 1):
        add("terminal_zero", N, j, -rel_deviation(cand.P_at(j, N), 0.0))

    for k in range(t, N):
        W, H = _wh_from_next(problem, cand.P, k, min(k + 1 - t, d), problem.R[k])
        if k == t:
            upper = state_gap(cand, problem, k)
        else:
            add("inequality", k, 0, eig_margin(state_gap(cand, problem, k))[1])
            r = min(k - t, d)
            for i in range(1, r):
                lhs = cand.P_at(i, k)
                rhs = problem.A[k].T @ cand.P_at(i + 1, k + 1) @ problem.A[k]
                add("equality", k, i, -rel_deviation(lhs - rhs, rhs))
            upper = correction_matrix(cand, problem, k)
        block_ok, margin = _schur_block(upper, H, W, tol)
        add("block", k, None, margin, satisfied=block_ok)

    feasible = all(c.satisfied for c in records)
    return LmeiReport(feasible=feasible, tol=tol, constraints=tuple(records))


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
    entries = {key: M.copy() for key, M in sol.P.items()}
    return make_candidate(problem, sol.t, entries)


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
    the auxiliary-recursion quantities; disagreement or a failed constrained
    check raises ConsistencyError (numerical breakdown).
    """
    report = check_membership(cand, problem, t, tol)
    if not report.feasible:
        worst = report.worst()
        raise UnsolvableError(
            "candidate is infeasible: worst constraint "
            f"{worst.kind} at k={worst.k} (margin {worst.margin:.3e})"
        )

    n, N, d = cand.n, cand.N, cand.d
    # Auxiliary weights from the candidate's slack.
    Q_aux = {k: state_gap(cand, problem, k) for k in range(t, N)}
    W_cand, H_cand = {}, {}
    for k in range(t, N):
        W_cand[k], H_cand[k] = _wh_from_next(problem, cand.P, k, min(k + 1 - t, d),
                                             problem.R[k])
    delta = {k: correction_matrix(cand, problem, k) for k in range(t + 1, N)}
    G_aux = symmetrize(problem.G - cand.P_at(0, N))
    aux = _backward(problem, t, Q_aux, W_cand, G_aux, pinv_rtol, S=H_cand, delta=delta)

    P = {key: symmetrize(cand.P[key] + aux.P[key]) for key in cand.P}

    # Assemble the solution with W/H recomputed from P (the defining sums)
    # and cross-check against the auxiliary quantities, which must coincide.
    W_fin, H_fin, K_fin = [], [], []
    for k in range(t, N):
        Wk, Hk = _wh_from_next(problem, P, k, min(k + 1 - t, d), problem.R[k])
        dW = rel_deviation(Wk - aux.W[k - t], Wk)
        dH = rel_deviation(Hk - aux.H[k - t], Hk)
        if max(dW, dH) > _CONSTRUCT_CONSISTENCY_TOL:
            raise ConsistencyError(
                f"constructed solution disagrees with auxiliary recursion at k={k}: "
                f"W deviation {dW:.3e}, H deviation {dH:.3e}"
            )
        if not is_psd(Wk, max(tol, 100 * _CONSTRUCT_CONSISTENCY_TOL)):
            raise ConsistencyError(f"constructed W_{k} is not PSD (numerical breakdown)")
        rr = range_residual(Hk, Wk)
        if rr > max(tol, 100 * _CONSTRUCT_CONSISTENCY_TOL):
            raise ConsistencyError(
                f"constructed H_{k} leaves the range of W_{k} (residual {rr:.3e})"
            )
        W_fin.append(Wk)
        H_fin.append(Hk)
        K_fin.append(-pinv(Wk, pinv_rtol) @ Hk)

    return RiccatiSolution(t=t, N=N, d=d, n=n, m=problem.m, P=P,
                           W=tuple(W_fin), H=tuple(H_fin), K=tuple(K_fin))


# ---------------------------------------------------------------------------
# Auxiliary cost (used to validate the construction empirically)

def auxiliary_cost(cand: LmeiCandidate, problem: ProblemData, t: int, k: int,
                   xi, u, tree: ScenarioTree) -> float:
    """Exact tree evaluation of the auxiliary cost from (k, xi) under u.

    Common part: state weight = relaxed-recursion slack, cross term
    2 (H~_l X_l)^T u_l, control weight W~_l, terminal weight G - P~^(0)_N.
    Region corrections add E[(E_{l-d} X)^T Delta_l (E_{l-d} X)] with Delta_l
    the block upper-left entry, for every l >= max(k, t+1). Feasibility of
    the candidate makes this cost nonnegative for every admissible control.
    """
    if not t <= k <= cand.N - 1:
        raise ValidationError(f"start time {k} outside [{t}, {cand.N - 1}]")
    traj = rollout(problem, tree, xi, u, start=k)
    total = 0.0
    for ell in range(k, cand.N):
        X = traj.states.at(ell)
        u_coarse = traj.control_at(ell)
        Wt, Ht = _wh_from_next(problem, cand.P, ell, min(ell + 1 - cand.t, cand.d),
                               problem.R[ell])
        Qt = state_gap(cand, problem, ell)
        total += float(np.mean(quadratic_rows(X, Qt)))
        hx = X @ Ht.T
        s = measurable_level(t, cand.d, ell)
        u_full = expand(u_coarse, ell - s)
        total += 2.0 * float(np.mean(np.sum(hx * u_full, axis=1)))
        total += float(np.mean(quadratic_rows(u_coarse, Wt)))
        if ell >= t + 1:
            delta = correction_matrix(cand, problem, ell)
            ex = block_mean(X, ell - s)
            total += float(np.mean(quadratic_rows(ex, delta)))
    XN = traj.states.at(cand.N)
    G_aux = problem.G - cand.P_at(0, cand.N)
    total += float(np.mean(quadratic_rows(XN, G_aux)))
    return total
