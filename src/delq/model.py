"""Problem data and its JSON form, feedback policies, and the binary tree step.

The driving noise of the scenario tree is a Rademacher sequence (w = ±1,
probability 1/2 each): the minimal-support distribution with the required
conditional moments E[w]=0, E[w^2]=1. On the resulting binary tree every
expectation is a finite probability-weighted sum, which the quadratic oracle
(``bsde.assemble_quadratic``) evaluates exactly (up to floating point) with
``tree_step``; every route that enumerates the tree checks its depth cap
with ``_check_depth``.

Node indexing: the 2^(k-t) nodes at time k are ordered so that node i has
children 2i (w=+1) and 2i+1 (w=-1) at time k+1. Conditional expectation onto
an earlier sigma-algebra is then a mean over consecutive blocks.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError, ValidationError
from .jsontext import dumps
from .linalg import rel_deviation

#: Default cap on tree depth N - t (2^22 leaves is about the desk-scale limit).
DEFAULT_DEPTH_CAP = 22
DEPTH_CAP_ENV = "DELQ_DEPTH_CAP"

_ASYM_TOL = 1e-9


def _env_cap(name: str, default: int) -> int:
    """A nonnegative integer resource cap that the environment variable
    `name` overrides: the one parser of every cap."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValidationError(f"{name} must be an integer, got {raw!r}") from exc
    if cap < 0:
        raise ValidationError(f"{name} must be nonnegative, got {cap}")
    return cap


def depth_cap() -> int:
    """Tree depth cap; the DELQ_DEPTH_CAP environment variable overrides."""
    return _env_cap(DEPTH_CAP_ENV, DEFAULT_DEPTH_CAP)


def measurable_level(t: int, d: int, k: int) -> int:
    """Information level of the controller acting at time k: max(t, k-d)."""
    return max(t, k - d)


_NUMBER = (int, float, np.integer, np.floating)


def _float_array(value, name: str) -> np.ndarray:
    """value as a float array: the one reader of a matrix from JSON. A
    boolean or a string at any depth raises ValueError naming `name`, where
    a float conversion would read true as 1.0 and "0.5" as 0.5; so does an
    integer beyond the float range."""
    entries = np.asarray(value, dtype=object)
    for kind in set(map(type, entries.ravel().tolist())):
        if kind is bool or not issubclass(kind, _NUMBER):
            raise ValueError(f"{name} holds a {kind.__name__} where a number belongs")
    try:
        return entries.astype(float)
    except OverflowError:
        raise ValueError(f"{name} holds an integer beyond the float range") from None


def _matseq(seq, name: str) -> np.ndarray | tuple[np.ndarray, ...]:
    """A sequence of equally shaped matrices as one (steps, rows, cols) float
    stack. Anything else (ragged, scalar or malformed) is converted matrix by
    matrix, so that validate() can name each misshapen matrix by its index."""
    try:
        stacked = _float_array(seq, name)
        if stacked.ndim == 3:
            return stacked
    except (TypeError, ValueError):
        pass
    try:
        return tuple(_float_array(M, name) for M in seq)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} is not a sequence of numeric matrices") from exc


def _integer(name: str, val) -> int:
    """val as an int: an integer, or an integral float such as 2.0. A
    boolean, a string, or a non-integral or non-finite number is refused
    rather than truncated."""
    if isinstance(val, (int, np.integer)) and not isinstance(val, bool):
        return int(val)
    if isinstance(val, (float, np.floating)) and float(val).is_integer():
        return int(val)
    raise ValidationError(f"{name} must be an integer, got {val!r}")


@dataclass(frozen=True)
class ProblemData:
    """Coefficients of one finite-horizon problem.

    Dynamics: X_{k+1} = (A_k X_k + B_k u_k) + (C_k X_k + D_k u_k) w_k for
    k = 0..N-1. Cost: sum of X^T Q_k X + u^T R_k u plus terminal X_N^T G X_N.
    The controller acting at time k only knows the noise up to time k-d.
    No definiteness is assumed of Q, R, G.

    Each per-step sequence A..R is stored as one float stack, A[k] being the
    matrix of time k (A has shape (N, n, n)). A ragged sequence is kept
    matrix by matrix, and validate() rejects it naming each misshapen
    matrix; so a validated problem holds stacks only.
    """

    n: int
    m: int
    N: int
    d: int
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    G: np.ndarray

    def __init__(self, n, m, N, d, A, B, C, D, Q, R, G):
        for name, val in (("n", n), ("m", m), ("N", N), ("d", d)):
            object.__setattr__(self, name, _integer(name, val))
        for name, seq in (("A", A), ("B", B), ("C", C), ("D", D), ("Q", Q), ("R", R)):
            object.__setattr__(self, name, _matseq(seq, name))
        try:
            object.__setattr__(self, "G", _float_array(G, "G"))
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
        if isinstance(seq, np.ndarray) and seq.shape[1:] == want:
            bad = np.flatnonzero(~np.isfinite(seq).all(axis=(1, 2))).tolist()
            msgs += [f"{name}[{k}] contains non-finite entries" for k in bad]
            continue
        for k, M in enumerate(seq):
            if M.shape != want:
                msgs.append(f"{name}[{k}] must have shape {want}, got {M.shape}")
            elif not np.isfinite(M).all():
                msgs.append(f"{name}[{k}] contains non-finite entries")
    if problem.G.shape != (n, n):
        msgs.append(f"G must have shape {(n, n)}, got {problem.G.shape}")
    elif not np.all(np.isfinite(problem.G)):
        msgs.append("G contains non-finite entries")
    if msgs:
        return msgs

    def _asym(M: np.ndarray):
        return rel_deviation(M - np.swapaxes(M, -1, -2), M) > _ASYM_TOL

    q_asym, r_asym = _asym(problem.Q), _asym(problem.R)
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


def _check_solve_args(problem: ProblemData, t: int) -> None:
    """ensure_valid, and an initial time t with at least one step to go."""
    ensure_valid(problem)
    if not 0 <= t <= problem.N - 1:
        raise ValidationError(f"initial time t={t} must satisfy 0 <= t <= N-1 = {problem.N - 1}")


def _check_state(x, n: int) -> np.ndarray:
    """x as a length-n float vector with finite entries: the one check of an
    initial state."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape != (n,):
        raise ValidationError(f"initial state must have length {n}, got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValidationError("initial state contains non-finite entries")
    return x


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
        fh.write(dumps(problem_to_dict(problem)) + "\n")


# ---------------------------------------------------------------------------
# Scenario tree

def _check_depth(t: int, N: int) -> None:
    """Raise unless 0 <= t <= N and the tree of times t..N (2^(N-t) leaves)
    is within the DELQ_DEPTH_CAP depth cap: the check of every route that
    enumerates that tree."""
    if not 0 <= t <= N:
        raise ValidationError(f"initial time t={t} must satisfy 0 <= t <= N = {N}")
    limit = depth_cap()
    if N - t > limit:
        raise ResourceLimitError(
            f"tree depth {N - t} exceeds cap {limit} (set {DEPTH_CAP_ENV} to raise it)"
        )


def expand(values: np.ndarray, levels: int) -> np.ndarray:
    """Repeat each row 2^levels times (lift to a finer level)."""
    if levels == 0:
        return values
    return np.repeat(values, 1 << levels, axis=0)


# ---------------------------------------------------------------------------
# Feedback policies and the tree step

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


def _check_policy(policy: FeedbackPolicy, problem: ProblemData, start: int) -> None:
    """Raise ValidationError unless the policy is a FeedbackPolicy with an
    (m, n) gain for every time start..N-1: the one policy check of both
    evaluation routes."""
    if not isinstance(policy, FeedbackPolicy):
        raise ValidationError(
            f"evaluation takes a feedback policy, got {type(policy).__name__}")
    n, m = problem.n, problem.m
    for k in range(start, problem.N):
        if not policy.t <= k < policy.t + len(policy.gains):
            raise ValidationError(f"policy has no gain for time {k}")
        K = policy.gains[k - policy.t]
        if K.shape != (m, n):
            raise ValidationError(f"gain at time {k} must have shape {(m, n)}, got {K.shape}")


def tree_step(problem: ProblemData, k: int, X: np.ndarray, u: np.ndarray) -> np.ndarray:
    """States at time k+1 from the node states X at time k, shape (rows, n),
    and the controls u at time k, one row per information atom: an atom is
    2^j consecutive nodes (rows = 2^j len(u)), and j = 0 is full resolution.
    Node i has children 2i (w_k = +1) and 2i+1 (w_k = -1).

    One product [A_k; C_k] X^T gives both state terms in column form; the
    control terms u B_k^T and u D_k^T are formed once per atom and broadcast
    over its nodes. Every entry is (X A_k^T + u B_k^T) ± (X C_k^T + u D_k^T),
    bit for bit what the four products on full-resolution controls give."""
    n, rows, atoms = problem.n, X.shape[0], u.shape[0]
    S = np.concatenate([problem.A[k], problem.C[k]]) @ X.T
    # numpy sends a one-row product through gemv or dot, which round unlike
    # the multi-row product the atom's nodes get at full resolution: a single
    # atom over several nodes is multiplied as two equal rows
    lifted = expand(u, 1) if atoms == 1 < rows else u
    drift, diff = S.reshape(2, n, atoms, rows // atoms)
    drift += (lifted @ problem.B[k].T)[:atoms].T[:, :, None]
    diff += (lifted @ problem.D[k].T)[:atoms].T[:, :, None]
    nxt = np.empty((rows, 2, n))
    np.add(S[:n], S[n:], out=nxt[:, 0].T)
    np.subtract(S[:n], S[n:], out=nxt[:, 1].T)
    return nxt.reshape(2 * rows, n)


def quadratic_columns(X: np.ndarray, M: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """x_i^T M x_i for every column x_i of X, an (n, rows) array: a column
    sum of (M X) * X. ``out``, an array shaped like X, receives that product
    instead of a new array."""
    MX = np.matmul(M, X, out=out)
    MX *= X
    return np.add.reduce(MX, axis=0)
