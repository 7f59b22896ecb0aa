"""Problem data, the binary scenario tree, adapted processes, and policies.

The driving noise is realized as a Rademacher sequence (w = ±1, probability
1/2 each): the minimal-support distribution with the required conditional
moments E[w]=0, E[w^2]=1. On the resulting binary tree every expectation is
a finite probability-weighted sum, so policy costs and backward recursions
evaluate exactly (up to floating point), which is what the cross-check
oracles in the rest of the package rely on.

Node indexing: the 2^(k-t) nodes at time k are ordered so that node i has
children 2i (w=+1) and 2i+1 (w=-1) at time k+1. Conditional expectation onto
an earlier sigma-algebra is then a mean over consecutive blocks.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import ResourceLimitError, ValidationError
from .linalg import rel_deviation

#: Default cap on tree depth N - t (2^22 leaves is about the desk-scale limit).
DEFAULT_DEPTH_CAP = 22
DEPTH_CAP_ENV = "DELQ_DEPTH_CAP"

_ASYM_TOL = 1e-9


def depth_cap() -> int:
    """Tree depth cap; the DELQ_DEPTH_CAP environment variable overrides."""
    raw = os.environ.get(DEPTH_CAP_ENV)
    if raw is None:
        return DEFAULT_DEPTH_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValidationError(f"{DEPTH_CAP_ENV} must be an integer, got {raw!r}") from exc
    if cap < 0:
        raise ValidationError(f"{DEPTH_CAP_ENV} must be nonnegative, got {cap}")
    return cap


def measurable_level(t: int, d: int, k: int) -> int:
    """Information level of the controller acting at time k: max(t, k-d)."""
    return max(t, k - d)


def _matseq(seq, name: str) -> tuple[np.ndarray, ...]:
    try:
        return tuple(np.asarray(M, dtype=float) for M in seq)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} is not a sequence of numeric matrices") from exc


@dataclass(frozen=True)
class ProblemData:
    """Coefficients of one finite-horizon problem.

    Dynamics: X_{k+1} = (A_k X_k + B_k u_k) + (C_k X_k + D_k u_k) w_k for
    k = 0..N-1. Cost: sum of X^T Q_k X + u^T R_k u plus terminal X_N^T G X_N.
    The controller acting at time k only knows the noise up to time k-d.
    No definiteness is assumed of Q, R, G.
    """

    n: int
    m: int
    N: int
    d: int
    A: tuple[np.ndarray, ...]
    B: tuple[np.ndarray, ...]
    C: tuple[np.ndarray, ...]
    D: tuple[np.ndarray, ...]
    Q: tuple[np.ndarray, ...]
    R: tuple[np.ndarray, ...]
    G: np.ndarray

    def __init__(self, n, m, N, d, A, B, C, D, Q, R, G):
        for name, val in (("n", n), ("m", m), ("N", N), ("d", d)):
            try:
                object.__setattr__(self, name, int(val))
            except (TypeError, ValueError) as exc:
                raise ValidationError(f"{name} must be an integer, got {val!r}") from exc
        for name, seq in (("A", A), ("B", B), ("C", C), ("D", D), ("Q", Q), ("R", R)):
            object.__setattr__(self, name, _matseq(seq, name))
        try:
            object.__setattr__(self, "G", np.asarray(G, dtype=float))
        except (TypeError, ValueError) as exc:
            raise ValidationError("G is not a numeric matrix") from exc


def validate(problem: ProblemData) -> list[str]:
    """Every violated invariant as a message; empty list iff valid."""
    msgs: list[str] = []
    n, m, N, d = problem.n, problem.m, problem.N, problem.d
    if n < 1:
        msgs.append(f"state dimension n must be >= 1, got {n}")
    if m < 1:
        msgs.append(f"control dimension m must be >= 1, got {m}")
    if N < 1:
        msgs.append(f"horizon N must be >= 1, got {N}")
    if not 0 <= d <= N:
        msgs.append(f"delay d must satisfy 0 <= d <= N, got d={d}, N={N}")
    if msgs:
        return msgs

    shapes = {"A": (n, n), "B": (n, m), "C": (n, n), "D": (n, m), "Q": (n, n), "R": (m, m)}
    for name, want in shapes.items():
        seq = getattr(problem, name)
        if len(seq) != N:
            msgs.append(f"{name} must have length N={N}, got {len(seq)}")
            continue
        shaped = [M for M in seq if M.shape == want]
        finite = iter(np.isfinite(np.stack(shaped)).all(axis=(1, 2)).tolist() if shaped else [])
        for k, M in enumerate(seq):
            if M.shape != want:
                msgs.append(f"{name}[{k}] must have shape {want}, got {M.shape}")
            elif not next(finite):
                msgs.append(f"{name}[{k}] contains non-finite entries")
    if problem.G.shape != (n, n):
        msgs.append(f"G must have shape {(n, n)}, got {problem.G.shape}")
    elif not np.all(np.isfinite(problem.G)):
        msgs.append("G contains non-finite entries")
    if msgs:
        return msgs

    def _asym(M: np.ndarray):
        return rel_deviation(M - np.swapaxes(M, -1, -2), M) > _ASYM_TOL

    q_asym, r_asym = _asym(np.stack(problem.Q)), _asym(np.stack(problem.R))
    for k in np.flatnonzero(q_asym | r_asym).tolist():
        if q_asym[k]:
            msgs.append(f"Q[{k}] is not symmetric")
        if r_asym[k]:
            msgs.append(f"R[{k}] is not symmetric")
    if _asym(problem.G):
        msgs.append("G is not symmetric")
    return msgs


def ensure_valid(problem: ProblemData) -> None:
    msgs = validate(problem)
    if msgs:
        raise ValidationError("invalid problem: " + "; ".join(msgs))


# ---------------------------------------------------------------------------
# JSON round trip (schema consumed by the CLI)

def problem_to_dict(problem: ProblemData) -> dict:
    return {
        "n": problem.n,
        "m": problem.m,
        "N": problem.N,
        "d": problem.d,
        "A": [M.tolist() for M in problem.A],
        "B": [M.tolist() for M in problem.B],
        "C": [M.tolist() for M in problem.C],
        "D": [M.tolist() for M in problem.D],
        "Q": [M.tolist() for M in problem.Q],
        "R": [M.tolist() for M in problem.R],
        "G": problem.G.tolist(),
    }


def problem_from_dict(data: dict) -> ProblemData:
    if not isinstance(data, dict):
        raise ValidationError("problem JSON must be an object")
    missing = [k for k in ("n", "m", "N", "d", "A", "B", "C", "D", "Q", "R", "G") if k not in data]
    if missing:
        raise ValidationError(f"problem JSON is missing fields: {', '.join(missing)}")
    return ProblemData(
        n=data["n"], m=data["m"], N=data["N"], d=data["d"],
        A=data["A"], B=data["B"], C=data["C"], D=data["D"],
        Q=data["Q"], R=data["R"], G=data["G"],
    )


def load_problem(path) -> ProblemData:
    """Read a problem JSON file. File and JSON-syntax errors propagate."""
    with open(path, "r", encoding="utf-8") as fh:
        return problem_from_dict(json.load(fh))


def save_problem(problem: ProblemData, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(problem_to_dict(problem), fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Scenario tree

@dataclass(frozen=True)
class ScenarioTree:
    """Binary noise tree over times start..end (depth = end - start)."""

    start: int
    end: int

    @property
    def depth(self) -> int:
        return self.end - self.start

    def n_nodes(self, k: int) -> int:
        self._check_time(k)
        return 1 << (k - self.start)

    def probability(self, k: int) -> float:
        """Probability of each single node at time k (uniform)."""
        return 1.0 / self.n_nodes(k)

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


def build_tree(t: int, N: int, cap: int | None = None) -> ScenarioTree:
    """Tree for the noise between times t and N (2^(N-t) leaves)."""
    if t > N:
        raise ValidationError(f"tree start {t} exceeds end {N}")
    limit = depth_cap() if cap is None else cap
    if N - t > limit:
        raise ResourceLimitError(
            f"tree depth {N - t} exceeds cap {limit} (set {DEPTH_CAP_ENV} to raise it)"
        )
    return ScenarioTree(start=t, end=N)


def block_mean(values: np.ndarray, levels: int) -> np.ndarray:
    """Average consecutive blocks of 2^levels rows (condition down `levels` steps)."""
    if levels == 0:
        return values
    rows = values.shape[0] >> levels
    return values.reshape(rows, 1 << levels, *values.shape[1:]).mean(axis=1)


def expand(values: np.ndarray, levels: int) -> np.ndarray:
    """Repeat each row 2^levels times (lift to a finer level)."""
    if levels == 0:
        return values
    return np.repeat(values, 1 << levels, axis=0)


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


def cond_expect(proc: AdaptedProcess, k: int, j: int) -> np.ndarray:
    """E_j of the process at time k: one row per atom at level j."""
    if j > k:
        raise ValidationError(f"cannot condition time {k} on later time {j}")
    if j < proc.tree.start:
        raise ValidationError(f"level {j} precedes tree start {proc.tree.start}")
    return block_mean(proc.at(k), k - j)


# ---------------------------------------------------------------------------
# Policies and forward simulation

@dataclass(frozen=True)
class FeedbackPolicy:
    """u_k = K_k · E_{max(t, k-d)}[X_k]; gains[j] acts at time t+j."""

    t: int
    d: int
    gains: tuple[np.ndarray, ...]

    def __init__(self, t: int, d: int, gains):
        object.__setattr__(self, "t", int(t))
        object.__setattr__(self, "d", int(d))
        object.__setattr__(self, "gains", tuple(np.asarray(K, dtype=float) for K in gains))


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


Policy = Union[FeedbackPolicy, OpenLoopPolicy]


def open_loop_from_values(tree: ScenarioTree, t: int, d: int, values: Sequence,
                          start: int | None = None, tol: float = 1e-12) -> OpenLoopPolicy:
    """Build an open-loop policy from per-time control arrays, checking the
    delayed-measurability requirement.

    Each entry may be given at any node resolution between its information
    level max(t, k-d) and full; finer-grained input is accepted only when it
    is constant on each information atom (and is then compressed), otherwise
    the control would depend on noise the controller cannot have seen.
    """
    start = t if start is None else start
    out: list[np.ndarray] = []
    for j, raw in enumerate(values):
        k = start + j
        u = np.atleast_2d(np.asarray(raw, dtype=float))
        s = measurable_level(t, d, k)
        want = 1 << (s - tree.start)
        rows = u.shape[0]
        if rows < want or rows % want != 0 or (rows // want) & (rows // want - 1):
            raise ValidationError(
                f"control at time {k} has {rows} rows; expected {want} times a "
                f"power of two (atoms of the level-{s} information set)"
            )
        if u.shape[0] > want:
            levels = int(np.log2(u.shape[0] // want))
            coarse = block_mean(u, levels)
            if float(np.max(np.abs(expand(coarse, levels) - u))) > tol:
                raise ValidationError(
                    f"control at time {k} varies within information atoms of "
                    f"level {s}: delayed measurability violated"
                )
            u = coarse
        out.append(u)
    return OpenLoopPolicy(t=t, d=d, controls=out, start=start)


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


def policy_control(policy: Policy, problem: ProblemData, tree: ScenarioTree,
                   k: int, state_values: np.ndarray) -> np.ndarray:
    """Coarse control at time k (one row per information atom)."""
    t = tree.start
    s = measurable_level(t, problem.d, k)
    if isinstance(policy, FeedbackPolicy):
        if not policy.t <= k < policy.t + len(policy.gains):
            raise ValidationError(f"policy has no gain for time {k}")
        K = policy.gains[k - policy.t]
        return block_mean(state_values, k - s) @ K.T
    if not policy.start <= k < policy.start + len(policy.controls):
        raise ValidationError(f"policy has no control for time {k}")
    u = policy.controls[k - policy.start]
    want = 1 << (s - t)
    if u.shape != (want, problem.m):
        raise ValidationError(
            f"control at time {k} must have shape {(want, problem.m)}, got {u.shape}"
        )
    return u


def tree_step(problem: ProblemData, k: int, X: np.ndarray, u: np.ndarray) -> np.ndarray:
    """States at time k+1 from node states X and full-resolution controls u
    at time k: node i has children 2i (w_k = +1) and 2i+1 (w_k = -1)."""
    drift = X @ problem.A[k].T + u @ problem.B[k].T
    diff = X @ problem.C[k].T + u @ problem.D[k].T
    nxt = np.empty((2 * X.shape[0], problem.n))
    nxt[0::2] = drift + diff
    nxt[1::2] = drift - diff
    return nxt


def rollout(problem: ProblemData, tree: ScenarioTree, x, policy: Policy,
            start: int | None = None) -> Trajectory:
    """Run the dynamics on the tree from `start` (default: the root).

    The initial vector is placed on every node at time `start`; controls are
    evaluated at their information level and broadcast to the nodes they act
    on. For start > root, controls at times k with max(t, k-d) < start are
    coarser than the state resolution, exactly as the delayed information
    pattern dictates.
    """
    t = tree.start
    start = t if start is None else start
    if not t <= start <= tree.end:
        raise ValidationError(f"start {start} outside tree range")
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape != (problem.n,):
        raise ValidationError(f"initial state must have length {problem.n}, got {x.shape}")
    if tree.end != problem.N:
        raise ValidationError("tree end must equal the problem horizon N")

    X = np.tile(x, (tree.n_nodes(start), 1))
    states = [X]
    controls: list[np.ndarray] = []
    for k in range(start, problem.N):
        u = policy_control(policy, problem, tree, k, X)
        controls.append(u)
        X = tree_step(problem, k, X, expand(u, k - measurable_level(t, problem.d, k)))
        states.append(X)
    return Trajectory(
        states=AdaptedProcess(tree=tree, first=start, values=tuple(states)),
        controls=tuple(controls),
    )


def quadratic_rows(X: np.ndarray, M: np.ndarray) -> np.ndarray:
    """x_i^T M x_i for every row x_i of X; the mean over rows is the
    expectation of the quadratic form on a node (or sample) array."""
    return np.einsum("ij,jl,il->i", X, M, X)


def trajectory_cost(problem: ProblemData, traj: Trajectory) -> float:
    """Exact expected cost of a simulated trajectory: the probability-weighted
    sum of X^T Q X and u^T R u over all nodes, plus the terminal X^T G X.
    Controls contribute at their own (coarse) resolution; states at full."""
    total = 0.0
    for k in range(traj.first, problem.N):
        X = traj.states.at(k)
        total += float(np.mean(quadratic_rows(X, problem.Q[k])))
        u = traj.control_at(k)
        total += float(np.mean(quadratic_rows(u, problem.R[k])))
    XN = traj.states.at(problem.N)
    total += float(np.mean(quadratic_rows(XN, problem.G)))
    return total


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
