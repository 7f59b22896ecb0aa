"""Backward stochastic difference equations, system operators, and the
brute-force quadratic oracle.

Under the two-point noise the admissible control set is a finite-dimensional
Euclidean space (one m-vector per information atom per time), so the cost is
literally a quadratic form J(t,x;u) = u^T M u + 2 b^T u + c over stacked
control coordinates. This module materializes that form from one zero-state
response pattern per (time, control component), as per-time tables that
every information atom of a time shares. It minimizes the form by block
elimination on those tables in reverse time order, which creates no fill
on the information tree (Liu's elimination tree): one m x m pivot per time
level, and M itself is never formed. Each pivot decides its level by the
extended Schur lemma (Albert 1969): it must be PSD, and the rows coupling
it to earlier levels and the level's linear term must lie in its range.
The module also provides the backward-equation machinery (adjoint
operators, first-order stationarity residual, decoupling residual) used to
cross-check the Riccati route. The oracle never reads the recursion's W, H
or P. Everything here is exact up to floating point — no sampling.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConsistencyError, ValidationError
from .linalg import PINV_RTOL, PSD_TOL, _pivot_pinv, pinv, range_residual, rel_deviation, \
    scale_floor, symmetrize
from .model import (
    AdaptedProcess,
    FeedbackPolicy,
    OpenLoopPolicy,
    Policy,
    ProblemData,
    ScenarioTree,
    Trajectory,
    _check_solve_args,
    _check_state,
    block_mean,
    build_tree,
    expand,
    measurable_level,
    rollout,
    trajectory_cost,
    tree_step,
    zero_policy,
)


# ---------------------------------------------------------------------------
# Backward equation

def _driver_values(tree: ScenarioTree, driver, n: int) -> list[np.ndarray]:
    t, N = tree.start, tree.end
    if driver is None:
        return [np.zeros((tree.n_nodes(k), n)) for k in range(t, N)]
    if isinstance(driver, AdaptedProcess):
        if driver.first != t or driver.last < N - 1:
            raise ValidationError("driver must cover times t..N-1")
        vals = [driver.at(k) for k in range(t, N)]
    else:
        vals = [np.atleast_2d(np.asarray(v, dtype=float)) for v in driver]
        if len(vals) != N - t:
            raise ValidationError(f"driver must have {N - t} entries, got {len(vals)}")
    for k, v in zip(range(t, N), vals):
        if v.shape != (tree.n_nodes(k), n):
            raise ValidationError(
                f"driver at time {k} must have shape {(tree.n_nodes(k), n)}, got {v.shape}"
            )
    return vals


def solve_bsde(t: int, problem: ProblemData, terminal,
               driver=None) -> AdaptedProcess:
    """Solve V_k = A_k^T E_k[V_{k+1}] + C_k^T E_k[V_{k+1} w_k] + driver_k
    backward from V_N = terminal, on the tree of times t..N that build_tree
    makes here from (t, problem.N), under the DELQ_DEPTH_CAP depth cap.

    E_k[.] is the mean of the two children and E_k[. w_k] their signed
    half-difference, both exact. `terminal` is one row per leaf (a single
    row is broadcast); `driver` covers t..N-1 at full resolution, or None.
    """
    tree = build_tree(t, problem.N)
    N, n = tree.end, problem.n
    eta = np.atleast_2d(np.asarray(terminal, dtype=float))
    if eta.shape == (1, n) and tree.n_nodes(N) > 1:
        eta = np.tile(eta, (tree.n_nodes(N), 1))
    if eta.shape != (tree.n_nodes(N), n):
        raise ValidationError(
            f"terminal must have shape {(tree.n_nodes(N), n)}, got {eta.shape}"
        )
    xi = _driver_values(tree, driver, n)

    values: list[np.ndarray] = [np.empty(0)] * (N - t + 1)
    values[N - t] = eta
    V = eta
    for k in range(N - 1, t - 1, -1):
        mean = 0.5 * (V[0::2] + V[1::2])
        half_diff = 0.5 * (V[0::2] - V[1::2])
        V = mean @ problem.A[k] + half_diff @ problem.C[k] + xi[k - t]
        values[k - t] = V
    return AdaptedProcess(tree=tree, first=t, values=tuple(values))


# ---------------------------------------------------------------------------
# System operators and adjoints

def _adjoint_controls(problem: ProblemData, V: AdaptedProcess) -> tuple[np.ndarray, ...]:
    """The control-space projections B_k^T E_s[V_{k+1}] + D_k^T E_s[V_{k+1} w_k]
    at information level s = max(t, k-d), t = V.first, one coarse array per k."""
    t = V.first
    out = []
    for k in range(t, problem.N):
        s = measurable_level(t, problem.d, k)
        Vn = V.at(k + 1)
        ev = block_mean(Vn, k + 1 - s)
        evw = block_mean(0.5 * (Vn[0::2] - Vn[1::2]), k - s)
        out.append(ev @ problem.B[k] + evw @ problem.D[k])
    return tuple(out)


def apply_operators(problem: ProblemData, t: int,
                    x=None, u: Policy | None = None, xi=None, eta=None) -> dict:
    """Evaluate the four system operators and/or their adjoints.

    Forward (from x and/or u): the state block over t..N-1 and the terminal
    state of X^{x,0} (zero control) and of X^{0,u} (zero initial state).
    Adjoint (from a state-process xi and/or terminal eta): the initial
    covector and the coarse control-space process, i.e. the adjoints of
    those two maps applied to xi, and of x -> X_N and u -> X_N applied to
    eta. Each rollout and backward solve builds the tree of times t..N
    itself, under the DELQ_DEPTH_CAP depth cap.
    """
    out: dict = {}
    if x is not None:
        traj = rollout(problem, t, x, zero_policy(problem, t))
        out["homogeneous_states"] = traj.states
        out["homogeneous_terminal"] = traj.states.at(problem.N)
    if u is not None:
        traj = rollout(problem, t, np.zeros(problem.n), u)
        out["forced_states"] = traj.states
        out["forced_terminal"] = traj.states.at(problem.N)
    if xi is not None:
        V = solve_bsde(t, problem, terminal=np.zeros(problem.n), driver=xi)
        out["state_adjoint"] = V.at(t)[0]
        out["control_adjoint"] = _adjoint_controls(problem, V)
    if eta is not None:
        V = solve_bsde(t, problem, terminal=eta, driver=None)
        out["terminal_state_adjoint"] = V.at(t)[0]
        out["terminal_control_adjoint"] = _adjoint_controls(problem, V)
    return out


def process_inner(values_a: Sequence[np.ndarray], values_b: Sequence[np.ndarray]) -> float:
    """Sum over time of E[<a_k, b_k>] for node arrays at matching resolution
    (uniform node probabilities make each expectation a plain row mean)."""
    total = 0.0
    for a, b in zip(values_a, values_b, strict=True):
        if a.shape != b.shape:
            raise ValidationError(f"inner product shape mismatch: {a.shape} vs {b.shape}")
        total += float(np.mean(np.sum(a * b, axis=1)))
    return total


def terminal_inner(a: np.ndarray, b: np.ndarray) -> float:
    """E[<a, b>] for two terminal node arrays."""
    return process_inner([a], [b])


# ---------------------------------------------------------------------------
# Stacked controls and the quadratic form

@dataclass(frozen=True)
class StackedControlLayout:
    """Index map between admissible controls and flat coordinate vectors.

    Coordinate order: time-major, then information atom, then control
    component; the control at time k lives on 2^(max(t,k-d) - t) atoms.
    """

    t: int
    N: int
    d: int
    m: int
    atoms: tuple[int, ...]
    offsets: tuple[int, ...]
    size: int

    @classmethod
    def build(cls, problem: ProblemData, t: int) -> "StackedControlLayout":
        atoms, offsets = [], []
        size = 0
        for k in range(t, problem.N):
            s = measurable_level(t, problem.d, k)
            offsets.append(size)
            atoms.append(1 << (s - t))
            size += atoms[-1] * problem.m
        return cls(t=t, N=problem.N, d=problem.d, m=problem.m,
                   atoms=tuple(atoms), offsets=tuple(offsets), size=size)

    def stack(self, policy: OpenLoopPolicy) -> np.ndarray:
        if policy.start != self.t or len(policy.controls) != self.N - self.t:
            raise ValidationError("policy does not span t..N-1")
        vec = np.empty(self.size)
        for j, u in enumerate(policy.controls):
            if u.shape != (self.atoms[j], self.m):
                raise ValidationError(
                    f"control at time {self.t + j} must have shape "
                    f"{(self.atoms[j], self.m)}, got {u.shape}"
                )
            vec[self.offsets[j]:self.offsets[j] + u.size] = u.ravel()
        return vec

    def unstack(self, vec) -> OpenLoopPolicy:
        vec = np.asarray(vec, dtype=float).reshape(-1)
        if vec.shape != (self.size,):
            raise ValidationError(f"vector must have length {self.size}, got {vec.shape}")
        controls = []
        for j in range(self.N - self.t):
            chunk = vec[self.offsets[j]:self.offsets[j] + self.atoms[j] * self.m]
            controls.append(chunk.reshape(self.atoms[j], self.m))
        return OpenLoopPolicy(t=self.t, d=self.d, controls=controls)


@dataclass(frozen=True)
class QuadraticForm:
    """J(t,x;u) = u^T M u + 2 b^T u + c over stacked control coordinates,
    with M kept as its per-time `tables`: tables[j2] is the flat
    concatenation, over j1 = 0..j2, of the (m, a2/a1, m) coupling between
    the controls of one atom of time j1 (rows) and those of the a2/a1 atoms
    of time j2 beneath it, one table shared by every atom of j1; the last
    one (j1 = j2) is the diagonal block, R included. A b of the wrong length
    or a non-finite b or table is refused.
    """

    b: np.ndarray
    c: float
    layout: StackedControlLayout
    tables: tuple[np.ndarray, ...]

    def __post_init__(self):
        if np.shape(self.b) != (self.layout.size,):
            raise ValidationError(
                f"b has length {np.size(self.b)}, M has {self.layout.size} rows")
        if not all(np.all(np.isfinite(table)) for table in self.tables):
            raise ValidationError("M contains non-finite entries")
        if not np.all(np.isfinite(self.b)):
            raise ValidationError("b contains non-finite entries")


def assemble_quadratic(problem: ProblemData, t: int, x) -> QuadraticForm:
    """Materialize the cost as an explicit quadratic form, held as tables.

    Every atom's subtree runs the same dynamics, so the zero-state response
    to basis control (time j, atom a, component i) is one pattern per
    (j, i), placed on a's subtree. One sweep steps the response to x and the
    patterns together; per time and acted time j2, one Gram product against
    j2's weighted pattern accumulates b's j2 segment and, per j1 <= j2, a
    table over the position of j2's atom inside j1's (``QuadraticForm``);
    R joins the diagonal ones. A form with a non-finite entry (finite data
    that overflowed) raises ConsistencyError.
    """
    _check_solve_args(problem, t)
    layout = StackedControlLayout.build(problem, t)
    tree = build_tree(t, problem.N)

    n, m = problem.n, problem.m
    x = _check_state(x, n)

    atoms = layout.atoms
    # acc[j2]: b's j2 segment, then a table per j1 <= j2
    acc = [np.zeros((a2 + m * sum(a2 // a1 for a1 in atoms[:j2 + 1]), m))
           for j2, a2 in enumerate(atoms)]
    c = 0.0
    Z = x[None, :]      # response to x, then one pattern per acted time
    ends = [1]          # row end of each
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(problem.N - t + 1):
            k = t + j
            ZW = Z @ symmetrize(problem.Q[k] if k < problem.N else problem.G)
            prob = 1.0 / tree.n_nodes(k)
            c += prob * float(np.sum(ZW[:ends[0]] * Z[:ends[0]]))
            for j2 in range(j):
                lo, hi = ends[j2], ends[j2 + 1]
                width = (hi - lo) // m * n
                acc[j2] += prob * (Z[:hi].reshape(-1, width) @ ZW[lo:hi].reshape(m, width).T)
            if k == problem.N:
                break
            rows = tree.n_nodes(k) // atoms[j]   # time k's pattern, zero state
            U = np.zeros((ends[-1] + m * rows, m))
            U[ends[-1]:] = np.repeat(np.eye(m), rows, axis=0)
            Z = tree_step(problem, k, np.concatenate([Z, np.zeros((m * rows, n))]), U)
            ends = [2 * e for e in ends] + [2 * len(U)]

        b = np.concatenate([acc[j][:a].ravel() for j, a in enumerate(atoms)])
        tables = tuple(acc[j][a:].ravel() for j, a in enumerate(atoms))
        for j, table in enumerate(tables):
            diag = table[-m * m:].reshape(m, m)
            diag[...] = symmetrize(diag + problem.R[t + j] / atoms[j])
    if not (np.isfinite(c) and np.all(np.isfinite(b))
            and all(np.all(np.isfinite(table)) for table in tables)):
        raise ConsistencyError("numerical breakdown: non-finite oracle form")
    return QuadraticForm(b=b, c=c, layout=layout, tables=tables)


@dataclass(frozen=True)
class OracleOutcome:
    """Result of globally minimizing the stacked quadratic form."""

    bounded: bool
    value: float | None
    minimizer: np.ndarray | None
    reason: str

    @property
    def status(self) -> str:
        return "Bounded" if self.bounded else "Unbounded"


def _eliminate(q: QuadraticForm, psd_tol: float, pinv_rtol: float) -> OracleOutcome:
    """Minimize a form by block elimination in reverse time order.

    A latest-time atom couples only to its ancestors, which already couple
    to each other, so eliminating the times from last to first creates no
    fill (Liu's elimination tree). The atoms of one time are disjoint
    subtrees that share their tables, so a time level has a single m x m
    pivot P, and its Schur update of every ancestor table is one product
    that sums over the siblings; only b is per atom. By the extended Schur
    lemma the form is bounded iff at every level P is PSD and the coupling
    rows and the level's b lie in Ran(P); the update then uses P^+. Each
    pivot is graded at the form's scale_floor (``linalg._pivot_pinv``). The
    value is c - sum of b_L^T P_L^+ b_L over the levels, and the minimizer
    comes from back-substitution, earliest time first.
    """
    layout, m = q.layout, q.layout.m
    atoms = layout.atoms
    scale = max(scale_floor(table) for table in q.tables)
    b_scale = scale_floor(q.b)
    tabs = [table.copy() for table in q.tables]
    b = [q.b[off:off + a * m].reshape(a, m).copy()
         for a, off in zip(atoms, layout.offsets)]
    c = q.c
    inverses = [np.empty(0)] * len(atoms)
    outside = None      # latest time whose linear term leaves the range
    for L in range(len(atoms) - 1, -1, -1):
        k = layout.t + L
        P = tabs[L][-m * m:].reshape(m, m)
        coupling = tabs[L][:-m * m].reshape(-1, m)
        # a verdict reads only finite numbers: the pivot always, and the
        # coupling rows and b when the pivot has a kernel
        if not np.isfinite(P).all():
            raise ConsistencyError(f"numerical breakdown: non-finite oracle pivot at k={k}")
        lam, kernel, Pinv = _pivot_pinv(P, scale, pinv_rtol)
        if kernel is not None and not (np.isfinite(coupling).all() and np.isfinite(b[L]).all()):
            raise ConsistencyError(f"numerical breakdown: non-finite oracle pivot at k={k}")
        if lam < -psd_tol * scale or kernel is not None \
                and np.max(np.abs(coupling @ kernel), initial=0.0) > psd_tol * scale:
            return OracleOutcome(
                bounded=False, value=None, minimizer=None,
                reason=f"quadratic term has negative eigenvalue {lam:.3e} at k={k}",
            )
        if kernel is not None and outside is None \
                and np.max(np.abs(b[L] @ kernel)) > psd_tol * b_scale:
            outside = k
        inverses[L] = Pinv
        y = b[L] @ Pinv
        c -= float(np.sum(b[L] * y))
        scaled = (coupling @ Pinv).ravel()
        pos = 0
        for j in range(L):      # tables T_{j1,L} for j1 <= j fold into tabs[j]
            width = atoms[L] // atoms[j] * m
            end = pos + m * width
            tabs[j] -= (tabs[L][:end].reshape(-1, width)
                        @ scaled[pos:end].reshape(m, width).T).ravel()
            b[j] -= y.reshape(atoms[j], width) @ tabs[L][pos:end].reshape(m, width).T
            pos = end
    if outside is not None:
        return OracleOutcome(
            bounded=False, value=None, minimizer=None,
            reason="linear term has a component outside the range of the "
                   f"quadratic term at k={outside}",
        )
    u: list[np.ndarray] = []
    for L, aL in enumerate(atoms):
        rhs = b[L]
        pos = 0
        for j in range(L):
            width = aL // atoms[j] * m
            end = pos + m * width
            rhs = rhs + (u[j] @ tabs[L][pos:end].reshape(m, width)).reshape(aL, m)
            pos = end
        u.append(-(rhs @ inverses[L]))
    return OracleOutcome(bounded=True, value=c,
                         minimizer=np.concatenate([v.ravel() for v in u]), reason="")


def oracle_minimize(q: QuadraticForm, psd_tol: float = PSD_TOL,
                    pinv_rtol: float = PINV_RTOL) -> OracleOutcome:
    """Global infimum of u^T M u + 2 b^T u + c, by block elimination on the
    form's tables (``_eliminate``); M itself is never formed.

    Bounded iff M is PSD and b lies in the range of M; otherwise the form
    runs to minus infinity along a negative direction or along kernel
    directions with linear descent. Eliminating the levels latest first,
    one eigh of each m x m pivot P gives the verdict at its time k:
    lambda_min(P) < -psd_tol * scale, or a coupling row with a component
    above psd_tol * scale in P's kernel (eigenvalues ≤ pinv_rtol * scale),
    makes M not PSD, and the reason is "quadratic term has negative
    eigenvalue {lambda_min(P)} at k={k}" (near zero in the coupling case);
    `scale` is the form's scale_floor. When M is PSD but some level's b has
    a kernel component above psd_tol * scale_floor(b), the reason is
    "linear term has a component outside the range of the quadratic term
    at k={k}", at the latest such k. A Bounded value is c - b^T M^+ b. Its
    minimizer, from the per-level pseudo-inverses, solves M u = -b; when M
    is singular it need not be the least-norm -M^+ b. A non-finite pivot
    (finite data that overflowed in the elimination) or a non-finite
    Bounded answer raises ConsistencyError.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        outcome = _eliminate(q, psd_tol, pinv_rtol)
    if outcome.bounded and not (np.isfinite(outcome.value)
                                and np.all(np.isfinite(outcome.minimizer))):
        raise ConsistencyError("numerical breakdown: non-finite oracle minimum")
    return outcome


def oracle_cost(problem: ProblemData, t: int, x, vec) -> float:
    """Exact cost of a stacked control vector (direct simulation)."""
    layout = StackedControlLayout.build(problem, t)
    policy = layout.unstack(vec)
    return trajectory_cost(problem, rollout(problem, t, x, policy))


# ---------------------------------------------------------------------------
# First-order optimality and decoupling

def _costate(problem: ProblemData, traj: Trajectory) -> AdaptedProcess:
    """Backward costate driven by Q_k X_k with terminal G X_N."""
    driver = [traj.states.at(k) @ problem.Q[k] for k in range(traj.first, problem.N)]
    terminal = traj.states.at(problem.N) @ problem.G
    return solve_bsde(traj.first, problem, terminal=terminal, driver=driver)


def stationary_residual(problem: ProblemData, t: int, x, u: Policy) -> float:
    """Max norm over times and information atoms of the first-order condition
    R_k u_k + B_k^T E_{k-d}[Z_{k+1}] + D_k^T E_{k-d}[Z_{k+1} w_k], where Z is
    the costate of the trajectory under u. Zero (to tolerance) iff u is a
    stationary point of the cost."""
    traj = rollout(problem, t, x, u)
    adjoint = _adjoint_controls(problem, _costate(problem, traj))
    worst = 0.0
    for k in range(t, problem.N):
        rows = traj.control_at(k) @ problem.R[k] + adjoint[k - t]
        worst = max(worst, float(np.max(np.linalg.norm(rows, axis=1))))
    return worst


def decoupling_residual(problem: ProblemData, t: int, x, sol) -> float:
    """On the optimal trajectory, max deviation of the costate Z_k from the
    layered representation sum_i P^(i)_k E_{k-i}[X_k] (indices 0..min(k-t,d))."""
    policy = FeedbackPolicy(t=sol.t, d=sol.d, gains=sol.K)
    traj = rollout(problem, t, x, policy)
    Z = _costate(problem, traj)
    worst = 0.0
    for k in range(t, problem.N + 1):
        X = traj.states.at(k)
        predicted = np.zeros_like(X)
        for i in range(min(k - t, sol.d) + 1):
            lagged = expand(block_mean(X, i), i)
            predicted += lagged @ sol.P_at(i, k)
        rows = Z.at(k) - predicted
        worst = max(worst, float(np.max(np.linalg.norm(rows, axis=1))))
    return worst


@dataclass(frozen=True)
class FixedPairCheck:
    """Outcome of probing the initial-pair range condition: `sufficient` is
    the step-wise Ran(H_k) ⊂ Ran(W_k) test (a proof when true); `falsified`
    reports whether any sampled admissible control drove H_k E_{k-d}[X_k]
    out of the range of W_k. A pass is "not falsified", never a proof."""

    sufficient: bool
    falsified: bool
    worst_violation: float
    samples: int


def fixed_pair_check(problem: ProblemData, t: int, x, sol, samples: int = 200,
                     seed: int = 0, tol: float = PSD_TOL) -> FixedPairCheck:
    """Probe whether H_k E_{k-d}[X_k] stays in Ran(W_k) along closed-loop
    trajectories fed by random extra inputs (the quantifier runs over all
    admissible inputs, so sampling can only falsify)."""
    build_tree(t, problem.N)  # the sweeps below enumerate its nodes
    sufficient = bool(np.all(range_residual(sol.H, sol.W) <= tol))
    projectors = np.eye(problem.m) - sol.W @ pinv(sol.W)
    rng = np.random.default_rng(seed)
    x = _check_state(x, problem.n)
    worst = 0.0
    for _ in range(samples):
        extra = [rng.standard_normal((1 << (measurable_level(t, problem.d, k) - t),
                                      problem.m)) for k in range(t, problem.N)]
        X = x[None, :]
        for k in range(t, problem.N):
            s = measurable_level(t, problem.d, k)
            ex = block_mean(X, k - s)
            hx = ex @ sol.H[k - t].T
            out_of_range = hx @ projectors[k - t].T
            worst = max(worst, rel_deviation(out_of_range, hx))
            u = ex @ sol.K[k - t].T + extra[k - t]
            X = tree_step(problem, k, X, u)
    return FixedPairCheck(sufficient=sufficient, falsified=worst > tol,
                          worst_violation=worst, samples=samples)


def first_variation_inner(problem: ProblemData, t: int, traj: Trajectory,
                          Z: AdaptedProcess, v: OpenLoopPolicy) -> float:
    """sum_k E[(R_k u_k + B_k^T Z_{k+1} + D_k^T Z_{k+1} w_k)^T v_k]: the
    first-order term in the cost expansion around u in direction v."""
    total = 0.0
    for k in range(t, problem.N):
        s = measurable_level(t, problem.d, k)
        Zn = Z.at(k + 1)
        w = Z.tree.step_noise(k)
        grad = (
            expand(traj.control_at(k) @ problem.R[k], k + 1 - s)
            + Zn @ problem.B[k]
            + (Zn * w[:, None]) @ problem.D[k]
        )
        v_full = expand(v.controls[k - v.start], k + 1 - s)
        total += float(np.mean(np.sum(grad * v_full, axis=1)))
    return total


def cost_difference_residual(problem: ProblemData, t: int, x,
                             u: OpenLoopPolicy, v: OpenLoopPolicy, lam: float) -> float:
    """Absolute defect of the exact second-order expansion
    J(t,x;u+lam*v) - J(t,x;u) = lam^2 J(t,0;v) + 2 lam <gradient, v>."""
    traj_u = rollout(problem, t, x, u)
    Z = _costate(problem, traj_u)
    shifted = OpenLoopPolicy(
        t=t, d=problem.d,
        controls=[a + lam * b for a, b in zip(u.controls, v.controls, strict=True)],
    )
    lhs = trajectory_cost(problem, rollout(problem, t, x, shifted)) \
        - trajectory_cost(problem, traj_u)
    rhs = lam * lam * trajectory_cost(problem, rollout(problem, t, np.zeros(problem.n), v)) \
        + 2.0 * lam * first_variation_inner(problem, t, traj_u, Z, v)
    return abs(lhs - rhs)
