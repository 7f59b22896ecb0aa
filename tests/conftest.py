"""Shared fixtures and randomized-instance generators.

The generators are deliberately plain functions (not fixtures) so tests can
draw as many instances as they need with explicit seeds.
"""
import numpy as np
import pytest

from delq import ProblemData, classify, solve_riccati
from delq.model import expand
from delq.riccati import UNIQUELY_SOLVABLE

from identities import rollout, trajectory_cost


def sym_with_eigs(rng, size, lo, hi):
    """Random symmetric matrix with eigenvalues uniform in [lo, hi]."""
    basis = np.linalg.qr(rng.normal(size=(size, size)))[0]
    return basis @ np.diag(rng.uniform(lo, hi, size=size)) @ basis.T


def scalar_problem():
    """n = m = 1, N = 3, d = 2, A = B = 1, C = D = 0, Q = 0, R = 1, G = 1.

    Everything about this instance is known in closed form: values x^2/4 at
    k = 0 and xi^2/3 at k = 1, gains (-1/4, -1/3, -1/2), and the optimal
    control from x is the constant -x/4.
    """
    one = [[[1.0]]] * 3
    zero = [[[0.0]]] * 3
    return ProblemData(n=1, m=1, N=3, d=2, A=one, B=one, C=zero, D=zero,
                       Q=zero, R=one, G=[[1.0]])


def draw_mixed(seed):
    """One random instance with genuinely indefinite weight distributions
    (n, m in {1,2}; N - t in {2..6}; d in {1,2,3} clamped to N)."""
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 3)), int(rng.integers(1, 3))
    horizon = int(rng.integers(2, 7))
    t = int(rng.integers(0, 3))
    N = t + horizon
    d = min(int(rng.integers(1, 4)), N)
    problem = ProblemData(
        n=n, m=m, N=N, d=d,
        A=[rng.normal(scale=0.6, size=(n, n)) for _ in range(N)],
        B=[rng.normal(scale=0.8, size=(n, m)) for _ in range(N)],
        C=[rng.normal(scale=0.4, size=(n, n)) for _ in range(N)],
        D=[rng.normal(scale=0.4, size=(n, m)) for _ in range(N)],
        Q=[sym_with_eigs(rng, n, -0.3, 1.2) for _ in range(N)],
        R=[sym_with_eigs(rng, m, -0.15, 1.5) for _ in range(N)],
        G=sym_with_eigs(rng, n, -0.2, 1.2),
    )
    return problem, t


def reference_tree_step(problem, k, X, u):
    """The tree step as four products on full-resolution controls: u, one
    row per atom, is repeated over the atom's nodes first. model.tree_step
    must equal it bit for bit."""
    u = expand(u, (X.shape[0] // u.shape[0]).bit_length() - 1)
    drift = X @ problem.A[k].T + u @ problem.B[k].T
    diff = X @ problem.C[k].T + u @ problem.D[k].T
    nxt = np.empty((2 * X.shape[0], problem.n))
    nxt[0::2] = drift + diff
    nxt[1::2] = drift - diff
    return nxt


def tree_cost(problem, t, x, policy):
    """Exact expected cost by enumerating the 2^(N-t) Rademacher paths of
    the scenario tree (identities.rollout), under the DELQ_DEPTH_CAP depth
    cap: the small-depth reference for simulate.exact_cost, and the exact
    cost of an open-loop policy, whose controls are indexed by tree atoms."""
    return trajectory_cost(problem, rollout(problem, t, x, policy))


def has_negative_weight_eig(problem):
    mats = list(problem.Q) + list(problem.R) + [problem.G]
    return min(float(np.linalg.eigvalsh(M)[0]) for M in mats) < 0.0


def uniquely_solvable_instances(count, start_seed=0, require_mixed=True):
    """Draw-and-filter: (seed, problem, t, solution) tuples whose recursion
    classifies UniquelySolvable (and, optionally, whose weights really do
    have a negative eigenvalue somewhere)."""
    out = []
    seed = start_seed
    while len(out) < count:
        problem, t = draw_mixed(seed)
        sol = solve_riccati(problem, t)
        if classify(sol).classification == UNIQUELY_SOLVABLE and (
            not require_mixed or has_negative_weight_eig(problem)
        ):
            out.append((seed, problem, t, sol))
        seed += 1
        if seed - start_seed > 50 * count:
            raise RuntimeError("instance generator acceptance rate collapsed")
    return out


def nonneg_problem(seed, n=None, m=None, horizon=None, d=None):
    """Random instance with Q, R, G all PSD (eigenvalues in [0, upper])."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 3)) if n is None else n
    m = int(rng.integers(1, 3)) if m is None else m
    N = int(rng.integers(2, 6)) if horizon is None else horizon
    d = min(int(rng.integers(1, 4)) if d is None else d, N)
    return ProblemData(
        n=n, m=m, N=N, d=d,
        A=[rng.normal(scale=0.6, size=(n, n)) for _ in range(N)],
        B=[rng.normal(scale=0.8, size=(n, m)) for _ in range(N)],
        C=[rng.normal(scale=0.4, size=(n, n)) for _ in range(N)],
        D=[rng.normal(scale=0.4, size=(n, m)) for _ in range(N)],
        Q=[sym_with_eigs(rng, n, 0.0, 1.2) for _ in range(N)],
        R=[sym_with_eigs(rng, m, 0.0, 1.5) for _ in range(N)],
        G=sym_with_eigs(rng, n, 0.0, 1.2),
    )


def notconvex_problem(seed):
    """B = D = 0 with a strictly negative R block: the control enters only
    through its own cost, which can be driven to -infinity, and every W_k
    inherits a negative eigenvalue from R_k."""
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 3)), int(rng.integers(1, 3))
    N = int(rng.integers(2, 5))
    d = min(int(rng.integers(1, 3)), N)
    return ProblemData(
        n=n, m=m, N=N, d=d,
        A=[rng.normal(scale=0.6, size=(n, n)) for _ in range(N)],
        B=[np.zeros((n, m)) for _ in range(N)],
        C=[rng.normal(scale=0.4, size=(n, n)) for _ in range(N)],
        D=[np.zeros((n, m)) for _ in range(N)],
        Q=[sym_with_eigs(rng, n, 0.0, 1.0) for _ in range(N)],
        R=[sym_with_eigs(rng, m, -1.0, -0.2) for _ in range(N)],
        G=sym_with_eigs(rng, n, 0.0, 1.0),
    )


def range_deficient_problem():
    """n = m = 1, N = 1, d = 1, A = B = G = 1, C = D = 0, Q = 0, R = -1:
    W_0 = R + B^2 G = 0 (PSD) but H_0 = B G A = 1 is outside Ran(W_0), so the
    classification is ConvexCandidate and boundedness depends on x (the cost
    is x^2 + 2xu, linear in u unless x = 0)."""
    return ProblemData(n=1, m=1, N=1, d=1, A=[[[1.0]]], B=[[[1.0]]],
                       C=[[[0.0]]], D=[[[0.0]]], Q=[[[0.0]]], R=[[[-1.0]]],
                       G=[[1.0]])


@pytest.fixture(scope="session")
def scalar():
    return scalar_problem()


@pytest.fixture(scope="session")
def scalar_solution(scalar):
    return solve_riccati(scalar, 0)


@pytest.fixture(scope="session")
def benchmark_problem_fixture():
    from delq import benchmark_problem
    return benchmark_problem()


@pytest.fixture(scope="session")
def benchmark_solution(benchmark_problem_fixture):
    return solve_riccati(benchmark_problem_fixture, 0)
