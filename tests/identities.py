"""The scenario-tree rollout engine and the identity suites built on it.

The library's commands evaluate feedback policies only, by second moments
or by Monte Carlo (``delq.simulate``). The tests keep an exact reference of
their own. Under the two-point (Rademacher) noise, the noise between times
t and N is a binary tree with 2^(N-t) leaves, and on it every expectation
is a finite probability-weighted sum, so policy costs and backward
equations evaluate exactly (up to floating point). On that tree this module
runs:

- open-loop policies, whose controls are indexed by tree atoms; feedback
  policies; and a gain plus an open-loop input (``GainPlusInput``);
- the backward equation and the four system operators with their adjoints;
- the identities that cross-check the Riccati route: first-order
  stationarity, decoupling, the initial-pair probe, the exact second-order
  cost expansion, the zero-state cost decomposition, the control shift and
  completion of squares, and the auxiliary cost of a feasibility
  candidate.

Node indexing: the 2^(k-t) nodes at time k are ordered so that node i has
children 2i (w=+1) and 2i+1 (w=-1) at time k+1. Conditional expectation onto
an earlier sigma-algebra is then a mean over consecutive blocks. Every route
that enumerates the tree checks the DELQ_DEPTH_CAP depth cap through
``delq.model._check_depth``, and steps it with ``delq.model.tree_step``
(looked up on the module, so that a test can swap the step).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from delq import model
from delq.bsde import StackedControlLayout
from delq.errors import ValidationError
from delq.linalg import PSD_TOL, pinv, range_residual, rel_deviation
from delq.lmei import LmeiCandidate, _check_anchor, _slack
from delq.model import FeedbackPolicy, ProblemData, _check_depth, _check_state, expand, \
    measurable_level
from delq.riccati import RiccatiSolution, _wh_from_next, solve_riccati


# ---------------------------------------------------------------------------
# Scenario tree

@dataclass(frozen=True)
class ScenarioTree:
    """Binary noise tree over times start..end (depth = end - start)."""

    start: int
    end: int

    def n_nodes(self, k: int) -> int:
        self._check_time(k)
        return 1 << (k - self.start)

    def noise_path(self, k: int, node: int) -> np.ndarray:
        """Realized (w_start, ..., w_{k-1}) leading to the given node."""
        depth = k - self.start
        if not 0 <= node < (1 << depth):
            raise ValidationError(f"node {node} out of range at time {k}")
        bits = (node >> np.arange(depth - 1, -1, -1)) & 1
        return 1.0 - 2.0 * bits

    def step_noise(self, k: int) -> np.ndarray:
        """w_k as seen by each node at time k+1 (alternating +1, -1)."""
        self._check_time(k)
        count = 1 << (k + 1 - self.start)
        return 1.0 - 2.0 * (np.arange(count) & 1)

    def _check_time(self, k: int) -> None:
        if not self.start <= k <= self.end:
            raise ValidationError(f"time {k} outside tree range [{self.start}, {self.end}]")


def build_tree(t: int, N: int) -> ScenarioTree:
    """Tree for the noise between times t and N (2^(N-t) leaves), under the
    DELQ_DEPTH_CAP depth cap."""
    _check_depth(t, N)
    return ScenarioTree(start=t, end=N)


def sign_patterns(steps: int) -> np.ndarray:
    """All 2^steps noise paths w_t..w_{N-1}, one per row, ordered like the
    tree leaves: row i holds the bits of i, most significant first, with
    bit 1 meaning w = -1."""
    idx = np.arange(1 << steps, dtype=np.int64)
    return 1.0 - 2.0 * ((idx[:, None] >> np.arange(steps - 1, -1, -1)) & 1)


def block_mean(values: np.ndarray, levels: int) -> np.ndarray:
    """Average consecutive blocks of 2^levels rows (condition down `levels`
    steps). Node i has children 2i and 2i+1, so the descendants of one node
    `levels` steps on are consecutive: row i of the result is the mean of
    rows i 2^levels .. (i + 1) 2^levels - 1, the nodes of atom i.

    One product: each block of rows, flattened to one row of 2^levels c
    entries (c entries per row of `values`), times the stacked averaging
    matrix of 2^levels copies of I_c / 2^levels."""
    if levels == 0:
        return values
    rows = values.shape[0] >> levels
    blocks = values.reshape(rows, -1)
    average = np.tile(np.eye(blocks.shape[1] >> levels) / (1 << levels), (1 << levels, 1))
    return (blocks @ average).reshape(rows, *values.shape[1:])


@dataclass(frozen=True)
class AdaptedProcess:
    """A vector process carried on the tree, one row per node per time.

    values[j] holds the process at time first+j with shape (2^(k-start), dim):
    adaptedness is structural (a value can only depend on the node it sits on).
    """

    tree: ScenarioTree
    first: int
    values: tuple[np.ndarray, ...]

    def __post_init__(self):
        if not self.tree.start <= self.first <= self.tree.end:
            raise ValidationError("process start outside tree range")
        if self.first + len(self.values) - 1 > self.tree.end:
            raise ValidationError("process extends past tree end")
        for j, v in enumerate(self.values):
            want = self.tree.n_nodes(self.first + j)
            if v.ndim != 2 or v.shape[0] != want:
                raise ValidationError(
                    f"process values at time {self.first + j} must have "
                    f"{want} rows, got shape {v.shape}"
                )

    @property
    def last(self) -> int:
        return self.first + len(self.values) - 1

    def at(self, k: int) -> np.ndarray:
        if not self.first <= k <= self.last:
            raise ValidationError(f"time {k} outside process range [{self.first}, {self.last}]")
        return self.values[k - self.first]


# ---------------------------------------------------------------------------
# Policies and the rollout

@dataclass(frozen=True)
class OpenLoopPolicy:
    """Explicit controls; controls[j] acts at time start+j and must be given
    at the coarse resolution of its information level max(t, k-d), i.e. with
    2^(max(t,k-d) - t) rows."""

    t: int
    d: int
    controls: tuple[np.ndarray, ...]
    start: int

    def __init__(self, t: int, d: int, controls, start: int | None = None):
        object.__setattr__(self, "t", int(t))
        object.__setattr__(self, "d", int(d))
        object.__setattr__(self, "controls", tuple(np.atleast_2d(np.asarray(u, dtype=float)) for u in controls))
        object.__setattr__(self, "start", int(t if start is None else start))


@dataclass(frozen=True)
class GainPlusInput:
    """u_k = K_k E_{max(t,k-d)}[X_k] + v_k: the gains of `feedback` plus the
    open-loop input v of `inputs`."""

    feedback: FeedbackPolicy
    inputs: OpenLoopPolicy


Policy = Union[FeedbackPolicy, OpenLoopPolicy, GainPlusInput]


@dataclass(frozen=True)
class Trajectory:
    """Simulated states (full resolution) plus the coarse controls applied."""

    states: AdaptedProcess
    controls: tuple[np.ndarray, ...]

    @property
    def first(self) -> int:
        return self.states.first

    def control_at(self, k: int) -> np.ndarray:
        if not self.first <= k < self.states.last:
            raise ValidationError(f"no control at time {k}")
        return self.controls[k - self.first]


def check_policy(policy: Policy, problem: ProblemData, t: int, start: int) -> None:
    """Raise ValidationError unless the policy acts at every time
    start..N-1 of the tree of times t..N: gains as the library checks them
    (``model._check_policy``), and per time k an open-loop control of shape
    (2^(max(t, k-d) - t), m)."""
    if isinstance(policy, FeedbackPolicy):
        model._check_policy(policy, problem, start)
        return
    if isinstance(policy, GainPlusInput):
        model._check_policy(policy.feedback, problem, start)
        policy = policy.inputs
    for k in range(start, problem.N):
        if not policy.start <= k < policy.start + len(policy.controls):
            raise ValidationError(f"policy has no control for time {k}")
        u = policy.controls[k - policy.start]
        want = 1 << (measurable_level(t, problem.d, k) - t)
        if u.shape != (want, problem.m):
            raise ValidationError(
                f"control at time {k} must have shape {(want, problem.m)}, got {u.shape}"
            )


def policy_control(policy: Policy, problem: ProblemData, t: int,
                   k: int, state_values: np.ndarray) -> np.ndarray:
    """Coarse control at time k (one row per information atom) of a policy
    that check_policy accepted."""
    if isinstance(policy, OpenLoopPolicy):
        return policy.controls[k - policy.start]
    feedback = policy.feedback if isinstance(policy, GainPlusInput) else policy
    s = measurable_level(t, problem.d, k)
    u = block_mean(state_values, k - s) @ feedback.gains[k - feedback.t].T
    if isinstance(policy, GainPlusInput):
        u += policy.inputs.controls[k - policy.inputs.start]
    return u


def rollout(problem: ProblemData, t: int, x, policy: Policy,
            start: int | None = None) -> Trajectory:
    """Run the dynamics from `start` (default t) on the tree of times t..N,
    under the DELQ_DEPTH_CAP depth cap: the states at full resolution, the
    controls at their information level.

    The initial vector is placed on every node at time `start`; controls are
    evaluated at their information level and broadcast to the nodes they act
    on. For start > t, controls at times k with max(t, k-d) < start are
    coarser than the state resolution, as the delayed information dictates."""
    tree = build_tree(t, problem.N)
    start = t if start is None else start
    if not t <= start <= tree.end:
        raise ValidationError(f"start {start} outside tree range")
    x = _check_state(x, problem.n)
    check_policy(policy, problem, t, start)
    states = [np.tile(x, (tree.n_nodes(start), 1))]
    controls = []
    for k in range(start, problem.N):
        controls.append(policy_control(policy, problem, t, k, states[-1]))
        states.append(model.tree_step(problem, k, states[-1], controls[-1]))
    return Trajectory(states=AdaptedProcess(tree=tree, first=start, values=tuple(states)),
                      controls=tuple(controls))


def expected_quadratic(X: np.ndarray, M: np.ndarray) -> float:
    """E[x^T M x] over the rows x of X, each equally likely: the Gram form
    sum((X^T X) * M) / rows, one product whatever the row count."""
    return float(np.sum((X.T @ X) * M) / X.shape[0])


def trajectory_cost(problem: ProblemData, traj: Trajectory) -> float:
    """Exact expected cost of a simulated trajectory: the probability-weighted
    sum of X^T Q X and u^T R u over all nodes, plus the terminal X^T G X.
    Controls contribute at their own (coarse) resolution; states at full."""
    N = problem.N
    total = 0.0
    for k in range(traj.first, N):
        total += expected_quadratic(traj.states.at(k), problem.Q[k])
        total += expected_quadratic(traj.control_at(k), problem.R[k])
    return total + expected_quadratic(traj.states.at(N), problem.G)


def zero_policy(problem: ProblemData, t: int, start: int | None = None) -> OpenLoopPolicy:
    """All-zero admissible controls from `start` (default t) to N-1."""
    start = t if start is None else start
    controls = []
    for k in range(start, problem.N):
        s = measurable_level(t, problem.d, k)
        controls.append(np.zeros((1 << (s - t), problem.m)))
    return OpenLoopPolicy(t=t, d=problem.d, controls=controls, start=start)


def random_open_loop(problem: ProblemData, t: int, rng: np.random.Generator,
                     scale: float = 1.0, start: int | None = None) -> OpenLoopPolicy:
    """Admissible controls with independent N(0, scale^2) entries on each
    information atom; used for randomized identity checks."""
    start = t if start is None else start
    controls = []
    for k in range(start, problem.N):
        s = measurable_level(t, problem.d, k)
        controls.append(scale * rng.standard_normal((1 << (s - t), problem.m)))
    return OpenLoopPolicy(t=t, d=problem.d, controls=controls, start=start)


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
    backward from V_N = terminal, on the tree of times t..N, under the
    DELQ_DEPTH_CAP depth cap.

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
# Stacked controls

def stack(layout: StackedControlLayout, policy: OpenLoopPolicy) -> np.ndarray:
    """The open-loop policy as one vector in the oracle's coordinates."""
    if policy.start != layout.t or len(policy.controls) != layout.N - layout.t:
        raise ValidationError("policy does not span t..N-1")
    vec = np.empty(layout.size)
    for j, u in enumerate(policy.controls):
        if u.shape != (layout.atoms[j], layout.m):
            raise ValidationError(
                f"control at time {layout.t + j} must have shape "
                f"{(layout.atoms[j], layout.m)}, got {u.shape}"
            )
        vec[layout.offsets[j]:layout.offsets[j] + u.size] = u.ravel()
    return vec


def unstack(layout: StackedControlLayout, vec) -> OpenLoopPolicy:
    """The open-loop policy of a vector in the oracle's coordinates."""
    vec = np.asarray(vec, dtype=float).reshape(-1)
    if vec.shape != (layout.size,):
        raise ValidationError(f"vector must have length {layout.size}, got {vec.shape}")
    controls = []
    for j in range(layout.N - layout.t):
        chunk = vec[layout.offsets[j]:layout.offsets[j] + layout.atoms[j] * layout.m]
        controls.append(chunk.reshape(layout.atoms[j], layout.m))
    return OpenLoopPolicy(t=layout.t, d=layout.d, controls=controls)


def oracle_cost(problem: ProblemData, t: int, x, vec) -> float:
    """Exact cost of a stacked control vector (direct simulation)."""
    policy = unstack(StackedControlLayout.build(problem, t), vec)
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


def decoupling_residual(problem: ProblemData, t: int, x, sol: RiccatiSolution) -> float:
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


def fixed_pair_check(problem: ProblemData, t: int, x, sol: RiccatiSolution,
                     samples: int = 200, seed: int = 0, tol: float = PSD_TOL) -> FixedPairCheck:
    """Probe whether H_k E_{k-d}[X_k] stays in Ran(W_k) along closed-loop
    trajectories fed by random extra inputs (the quantifier runs over all
    admissible inputs, so sampling can only falsify)."""
    sufficient = bool(np.all(range_residual(sol.H, sol.W) <= tol))
    projectors = np.eye(problem.m) - sol.W @ pinv(sol.W)
    gains = FeedbackPolicy(t=t, d=problem.d, gains=sol.K)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        traj = rollout(problem, t, x, GainPlusInput(gains, random_open_loop(problem, t, rng)))
        for k in range(t, problem.N):
            s = measurable_level(t, problem.d, k)
            hx = block_mean(traj.states.at(k), k - s) @ sol.H[k - t].T
            worst = max(worst, rel_deviation(hx @ projectors[k - t].T, hx))
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


# ---------------------------------------------------------------------------
# Cost decompositions and the control shift

def cost_decomposition_check(problem: ProblemData, t: int, u: Policy, sol=None) -> float:
    """Absolute defect of the zero-initial-state cost decomposition

    J(t,0;u) = sum_k E[(E_{k-d}X0)^T H^T W^+ H (E_{k-d}X0)
                       + 2 (H E_{k-d}X0)^T u + u^T W u],

    an algebraic identity in the recursion outputs W_k, H_k (no definiteness
    or range condition needed). Both sides evaluated exactly on the tree."""
    if sol is None:
        sol = solve_riccati(problem, t)
    traj = rollout(problem, t, np.zeros(problem.n), u)
    lhs = trajectory_cost(problem, traj)

    rhs = 0.0
    for k in range(t, problem.N):
        s = measurable_level(t, problem.d, k)
        ex = block_mean(traj.states.at(k), k - s)
        Wk, Hk = sol.W[k - t], sol.H[k - t]
        hx = ex @ Hk.T
        uk = traj.control_at(k)
        rhs += expected_quadratic(hx, pinv(Wk))
        rhs += 2.0 * float(np.mean(np.sum(hx * uk, axis=1)))
        rhs += expected_quadratic(uk, Wk)
    return abs(lhs - rhs)


def shifted_policy(problem: ProblemData, t: int, x, u: OpenLoopPolicy,
                   sol: RiccatiSolution) -> OpenLoopPolicy:
    """The control-shift map: v_k = u_k - W_k^+ H_k E_{k-d}[X_k], where X is
    the trajectory of the closed-loop-plus-input system driven by u. The map
    is onto the admissible set, and under the solvable classifications the
    cost of v decomposes as x^T P^(0)_t x + sum E[u^T W u]. v_k is the total
    control applied along the driven trajectory, so it is that rollout's
    record of controls."""
    if isinstance(u, FeedbackPolicy):
        raise ValidationError("shifted_policy expects explicit (open-loop) controls")
    gains = FeedbackPolicy(t=t, d=problem.d, gains=sol.K)
    traj = rollout(problem, t, x, GainPlusInput(gains, u))
    return OpenLoopPolicy(t=t, d=problem.d, controls=traj.controls)


def completion_of_squares_residual(problem: ProblemData, t: int, x,
                                   u: OpenLoopPolicy, sol: RiccatiSolution) -> float:
    """|J(t,x;v^u) - (x^T P^(0)_t x + sum_k E[u_k^T W_k u_k])| for the
    shifted control v^u; zero (to tolerance) whenever every H_k lies in the
    range of W_k."""
    x = _check_state(x, problem.n)
    v = shifted_policy(problem, t, x, u, sol)
    lhs = trajectory_cost(problem, rollout(problem, t, x, v))
    rhs = float(x @ sol.P_at(0, t) @ x)
    for k in range(t, problem.N):
        uk = u.controls[k - u.start]
        rhs += expected_quadratic(uk, sol.W[k - t])
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# The feasibility system and the recursion

def auxiliary_cost(cand: LmeiCandidate, problem: ProblemData, t: int, k: int,
                   xi, u: Policy) -> float:
    """Exact tree evaluation of the auxiliary cost from (k, xi) under u.

    Common part: state weight = relaxed-recursion slack, cross term
    2 (H~_l X_l)^T u_l, control weight W~_l, terminal weight G - P~^(0)_N.
    Region corrections add E[(E_{l-d} X)^T Delta_l (E_{l-d} X)] with Delta_l
    the block upper-left entry, for every l >= max(k, t+1). Feasibility of
    the candidate makes this cost nonnegative for every admissible control.
    Every weight is read from the candidate's slack pass (``lmei._slack``).
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


def recompute_wh(problem: ProblemData, sol: RiccatiSolution, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Re-derive W_k, H_k from the stored P matrices (consistency check)."""
    return _wh_from_next(problem, sol.P.array[k + 1 - sol.t], k, problem.R[k])
