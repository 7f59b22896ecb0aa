import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from delq import (
    OpenLoopPolicy,
    ProblemData,
    QuadraticForm,
    ResourceLimitError,
    StackedControlLayout,
    ValidationError,
    apply_operators,
    assemble_quadratic,
    build_tree,
    cost_difference_residual,
    decoupling_residual,
    feedback_policy,
    fixed_pair_check,
    optimal_value,
    oracle_cost,
    oracle_minimize,
    process_inner,
    rollout,
    solve_bsde,
    solve_riccati,
    stationary_residual,
    terminal_inner,
    trajectory_cost,
)
from delq.bsde import _eliminate
from delq.linalg import PSD_TOL, eig_margin, pinv, range_residual, scale_floor, symmetrize
from delq.model import measurable_level, random_open_loop, tree_step

from conftest import draw_mixed, range_deficient_problem, uniquely_solvable_instances


def _scalar_system(A, C, N):
    one = [[1.0]]
    zero = [[0.0]]
    return ProblemData(n=1, m=1, N=N, d=0,
                       A=[[[A]]] * N, B=[one] * N, C=[[[C]]] * N, D=[zero] * N,
                       Q=[zero] * N, R=[one] * N, G=zero)


# ---------------------------------------------------------------------------
# Backward equation on small trees

def test_bsde_recovers_noise_from_terminal():
    # V_0 = A E[w_0] + C E[w_0 * w_0] = C: the half-difference channel
    prob = _scalar_system(A=1.0, C=1.0, N=1)
    tree = build_tree(0, 1)
    V = solve_bsde(0, prob, terminal=tree.step_noise(0)[:, None])
    np.testing.assert_allclose(V.at(0), [[1.0]])
    np.testing.assert_allclose(V.at(1)[:, 0], tree.step_noise(0))


def test_bsde_accumulates_driver():
    prob = _scalar_system(A=1.0, C=0.0, N=2)
    driver = [np.ones((1 << k, 1)) for k in range(2)]
    V = solve_bsde(0, prob, terminal=[[0.0]], driver=driver)
    np.testing.assert_allclose(V.at(0), [[2.0]])
    np.testing.assert_allclose(V.at(1), np.ones((2, 1)))


def test_bsde_broadcasts_terminal_row():
    prob = _scalar_system(A=0.5, C=0.0, N=3)
    V = solve_bsde(0, prob, terminal=[[8.0]])
    np.testing.assert_allclose(V.at(0), [[1.0]])  # 8 * 0.5^3


def test_bsde_rejects_bad_shapes():
    prob = _scalar_system(A=1.0, C=0.0, N=2)
    with pytest.raises(ValidationError, match="terminal"):
        solve_bsde(0, prob, terminal=np.ones((3, 1)))
    with pytest.raises(ValidationError, match="driver"):
        solve_bsde(0, prob, terminal=[[0.0]], driver=[np.ones((1, 1))])
    with pytest.raises(ValidationError, match="shape"):
        solve_bsde(0, prob, terminal=[[0.0]],
                   driver=[np.ones((1, 1)), np.ones((3, 1))])


# ---------------------------------------------------------------------------
# Adjoint identities

@pytest.mark.parametrize("seed", range(10))
def test_all_four_operator_pairs_are_adjoint(seed):
    problem, t = draw_mixed(seed)
    rng = np.random.default_rng(seed + 1000)
    x = rng.normal(size=problem.n)
    u = random_open_loop(problem, t, rng)
    xi = [rng.normal(size=(1 << (k - t), problem.n))
          for k in range(t, problem.N)]
    eta = rng.normal(size=(1 << (problem.N - t), problem.n))

    out = apply_operators(problem, t, x=x, u=u, xi=xi, eta=eta)
    homog = [out["homogeneous_states"].at(k) for k in range(t, problem.N)]
    forced = [out["forced_states"].at(k) for k in range(t, problem.N)]

    pairs = [
        (process_inner(homog, xi), float(x @ out["state_adjoint"])),
        (process_inner(forced, xi),
         process_inner(u.controls, out["control_adjoint"])),
        (terminal_inner(out["homogeneous_terminal"], eta),
         float(x @ out["terminal_state_adjoint"])),
        (terminal_inner(out["forced_terminal"], eta),
         process_inner(u.controls, out["terminal_control_adjoint"])),
    ]
    for lhs, rhs in pairs:
        assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(lhs), abs(rhs))


def test_process_inner_rejects_mismatched_resolutions():
    with pytest.raises(ValidationError, match="mismatch"):
        process_inner([np.ones((2, 1))], [np.ones((4, 1))])
    with pytest.raises(ValueError):
        process_inner([np.ones((2, 1))], [np.ones((2, 1)), np.ones((2, 1))])


# ---------------------------------------------------------------------------
# Stacked coordinates and the explicit quadratic form

def test_stack_unstack_round_trip():
    problem, t = draw_mixed(3)
    layout = StackedControlLayout.build(problem, t)
    rng = np.random.default_rng(0)
    u = random_open_loop(problem, t, rng)
    vec = layout.stack(u)
    assert vec.shape == (layout.size,)
    back = layout.unstack(vec)
    for a, b in zip(back.controls, u.controls, strict=True):
        assert np.array_equal(a, b)
    with pytest.raises(ValidationError, match="length"):
        layout.unstack(np.zeros(layout.size + 1))


def test_layout_matches_information_atoms():
    problem, t = draw_mixed(3)
    layout = StackedControlLayout.build(problem, t)
    for j, k in enumerate(range(t, problem.N)):
        assert layout.atoms[j] == 1 << (measurable_level(t, problem.d, k) - t)
    assert layout.size == sum(a * problem.m for a in layout.atoms)


@pytest.mark.parametrize("seed", range(6))
def test_quadratic_form_reproduces_simulated_cost(seed):
    problem, t = draw_mixed(seed)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=problem.n)
    q = assemble_quadratic(problem, t, x)
    for _ in range(20):
        u = random_open_loop(problem, t, rng)
        direct = trajectory_cost(problem, rollout(problem, t, x, u))
        assert abs(q.evaluate(q.layout.stack(u)) - direct) \
            <= 1e-10 * max(1.0, abs(direct))


def _dense_quadratic(problem, t, x):
    """(M, b, c) from the dense joint sweep the pattern sweep replaced: the
    zero-state response of every stacked basis control over every node,
    stepped together, with full dim x dim Gram products."""
    layout = StackedControlLayout.build(problem, t)
    n, m, dim = problem.n, problem.m, layout.size
    M, b, c = np.zeros((dim, dim)), np.zeros(dim), 0.0
    X0 = np.asarray(x, dtype=float)[None, :]
    S = np.zeros((dim, 1, n))

    def accumulate(weight, prob):
        nonlocal c
        Sf = S.reshape(dim, -1)
        M[...] += prob * ((S @ weight).reshape(dim, -1) @ Sf.T)
        b[...] += prob * (Sf @ (X0 @ weight).ravel())
        c += prob * float(np.sum((X0 @ weight) * X0))

    for j, k in enumerate(range(t, problem.N)):
        nodes = 1 << j
        accumulate(problem.Q[k], 1.0 / nodes)
        atoms, off = layout.atoms[j], layout.offsets[j]
        U = np.zeros((dim, nodes, m))
        span = nodes // atoms
        for a in range(atoms):
            sl = slice(off + a * m, off + (a + 1) * m)
            M[sl, sl] += problem.R[k] / atoms
            for i in range(m):
                U[off + a * m + i, a * span:(a + 1) * span, i] = 1.0
        S = np.stack([tree_step(problem, k, S[r], U[r]) for r in range(dim)])
        X0 = tree_step(problem, k, X0, np.zeros((nodes, m)))
    accumulate(problem.G, 1.0 / (1 << (problem.N - t)))
    return symmetrize(M), b, c


def _parity_cases():
    for seed in range(60):
        problem, t = draw_mixed(seed)
        for d in sorted({0, problem.d, problem.N}):
            for start in sorted({t, problem.N - 1}):
                yield seed, replace(problem, d=d), start


def test_pattern_sweep_matches_dense_reference():
    cases = list(_parity_cases())
    ms = {p.m for _, p, _ in cases}
    spans = {p.N - start for _, p, start in cases}
    assert 1 in ms and 1 in spans
    for seed, problem, t in cases:
        x = np.random.default_rng(seed + 900).normal(size=problem.n)
        q = assemble_quadratic(problem, t, x)
        M, b, c = _dense_quadratic(problem, t, x)
        assert np.array_equal(q.M, q.M.T), seed
        assert np.max(np.abs(q.M - M)) <= 1e-13 * scale_floor(M), seed
        assert np.max(np.abs(q.b - b)) <= 1e-13 * scale_floor(b), seed
        assert abs(q.c - c) <= 1e-13 * scale_floor(c), seed


def _dim_1026_problem():
    """n = 3, m = 2, N = 11, d = 2 with positive definite weights: a stacked
    dimension of 1026."""
    n, m, N, d = 3, 2, 11, 2
    rng = np.random.default_rng(5)
    return ProblemData(n=n, m=m, N=N, d=d,
                       A=[rng.normal(scale=0.5, size=(n, n)) for _ in range(N)],
                       B=[rng.normal(size=(n, m)) for _ in range(N)],
                       C=[rng.normal(scale=0.3, size=(n, n)) for _ in range(N)],
                       D=[rng.normal(scale=0.3, size=(n, m)) for _ in range(N)],
                       Q=[np.eye(n)] * N, R=[np.eye(m)] * N, G=np.eye(n))


def test_assembly_memory_is_bounded_by_the_matrix():
    """The assembly holds its tables and small per-time patterns, never a
    response per basis control: its traced peak stays within 3 copies of M."""
    problem = _dim_1026_problem()
    n = problem.n
    dim = StackedControlLayout.build(problem, 0).size
    assert dim == 1026
    tracemalloc.start()
    try:
        q = assemble_quadratic(problem, 0, np.ones(n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert q.M.shape == (dim, dim)
    assert peak <= 3 * 8 * dim * dim


def test_assemble_quadratic_enforces_dimension_cap(scalar, monkeypatch):
    monkeypatch.setattr("delq.bsde.STACKED_DIM_CAP", 2)
    with pytest.raises(ResourceLimitError, match="exceeds cap 2"):
        assemble_quadratic(scalar, 0, [1.0])


# ---------------------------------------------------------------------------
# Oracle on hand-built forms

def _form(M, b, c=0.0):
    """A hand-built form over `len(b)` scalar controls, one per time."""
    size = len(b)
    layout = StackedControlLayout(t=0, N=size, d=0, m=1, atoms=(1,) * size,
                                  offsets=tuple(range(size)), size=size)
    return QuadraticForm(M=np.asarray(M, dtype=float), b=np.asarray(b, dtype=float),
                         c=c, layout=layout)


def test_oracle_minimizes_positive_definite_form():
    out = oracle_minimize(_form(np.eye(2), [1.0, 2.0], c=5.0))
    assert out.status == "Bounded"
    assert out.value == pytest.approx(0.0, abs=1e-12)
    assert out.minimizer == pytest.approx([-1.0, -2.0])


def test_oracle_detects_negative_directions():
    out = oracle_minimize(_form(np.diag([1.0, -1.0]), np.zeros(2)))
    assert not out.bounded and "negative eigenvalue" in out.reason

    out = oracle_minimize(_form(np.diag([1.0, 0.0]), [0.0, 1.0]))
    assert not out.bounded and "outside the range" in out.reason
    assert out.value is None and out.minimizer is None


def test_oracle_on_zero_and_one_by_one_forms():
    out = oracle_minimize(_form(np.zeros((3, 3)), np.zeros(3), c=2.5))
    assert out.bounded and out.value == 2.5
    assert np.array_equal(out.minimizer, np.zeros(3))

    out = oracle_minimize(_form(np.zeros((3, 3)), [0.0, 1e-3, 0.0], c=2.5))
    assert not out.bounded and "outside the range" in out.reason

    out = oracle_minimize(_form([[2.0]], [4.0], c=1.0))
    assert out.bounded
    assert out.value == pytest.approx(-7.0, abs=1e-14)
    assert out.minimizer == pytest.approx([-2.0], abs=1e-15)

    out = oracle_minimize(_form([[-2.0]], [0.0]))
    assert not out.bounded and out.reason == \
        "quadratic term has negative eigenvalue -2.000e+00"

    with pytest.raises(ValidationError, match="non-finite"):
        oracle_minimize(_form([[np.nan]], [0.0]))
    with pytest.raises(ValidationError, match="length 3"):
        oracle_minimize(_form(np.eye(2), np.zeros(3)))


def test_oracle_on_singular_psd_form():
    rng = np.random.default_rng(7)
    basis = np.linalg.qr(rng.normal(size=(5, 5)))[0]
    kernel = basis[:, 3:]
    M = basis @ np.diag([3.0, 2.0, 0.5, 0.0, 0.0]) @ basis.T
    y = rng.normal(size=5)
    b = M @ y

    out = oracle_minimize(_form(M, b, c=1.0))
    assert out.bounded
    assert out.value == pytest.approx(1.0 - y @ M @ y, abs=1e-12)
    # -M^+ b: it solves M u = -b and has no kernel component
    np.testing.assert_allclose(M @ out.minimizer, -b, atol=1e-12)
    np.testing.assert_allclose(kernel.T @ out.minimizer, 0.0, atol=1e-12)

    out = oracle_minimize(_form(M, b + 1e-3 * kernel[:, 0], c=1.0))
    assert not out.bounded and "outside the range" in out.reason


def _three_decomposition_oracle(q):
    """The oracle as three separate decompositions of M: eigenvalues, the
    range residual through an SVD pseudo-inverse, and that pseudo-inverse
    again for the value."""
    if eig_margin(q.M)[1] < -PSD_TOL:
        return "Unbounded", None
    if range_residual(q.b[:, None], q.M) > PSD_TOL:
        return "Unbounded", None
    return "Bounded", q.c - float(q.b @ pinv(q.M) @ q.b)


def test_oracle_matches_three_decomposition_route():
    statuses = set()
    for seed in range(60):
        problem, t = draw_mixed(seed)
        x = np.random.default_rng(seed + 500).normal(size=problem.n)
        q = assemble_quadratic(problem, t, x)
        out = oracle_minimize(q)
        status, value = _three_decomposition_oracle(q)
        assert out.status == status, seed
        statuses.add(status)
        if out.bounded:
            assert abs(out.value - value) <= 1e-12 * scale_floor(value), seed
            cost = oracle_cost(problem, t, x, out.minimizer)
            assert abs(cost - out.value) <= 1e-10 * scale_floor(out.value), seed
    assert statuses == {"Bounded", "Unbounded"}


def _count_decompositions(monkeypatch):
    """Count eigh, eigvalsh and svd calls, recording each call's argument
    shape."""
    calls = {"eigh": [], "eigvalsh": [], "svd": []}

    def counting(name, fn):
        def wrapper(a, *args, **kwargs):
            calls[name].append(np.shape(a))
            return fn(a, *args, **kwargs)
        return wrapper

    # np.linalg.pinv calls svd through numpy's own module, so patch both.
    for module in (np.linalg, getattr(np.linalg, "_linalg", None)):
        if module is not None:
            for name in calls:
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    return calls


def test_oracle_eliminates_a_confident_form_without_a_dense_decomposition(monkeypatch):
    """A confidently positive definite form is answered by the elimination:
    no eigh, no svd, and one eigvalsh of the stacked m x m level pivots. A
    not-convex form falls back to exactly one eigh of the dense M."""
    problem, t = draw_mixed(3)
    q = assemble_quadratic(problem, t, np.ones(problem.n))
    levels, m = len(q.layout.atoms), problem.m
    calls = _count_decompositions(monkeypatch)
    assert oracle_minimize(q).bounded
    assert calls == {"eigh": [], "eigvalsh": [(levels, m, m)], "svd": []}
    assert q.layout.size != m   # so no pivot is itself dim x dim

    problem, t = draw_mixed(51)
    q = assemble_quadratic(problem, t, np.ones(problem.n))
    for name in calls:
        calls[name].clear()
    out = oracle_minimize(q)
    assert not out.bounded and "negative eigenvalue" in out.reason
    assert calls["eigh"] == [(q.layout.size, q.layout.size)]
    assert calls["svd"] == []


def test_elimination_matches_the_dense_route():
    """The elimination and the dense eigh route (the same form handed over
    as M alone) give identical statuses and reasons, and values and
    minimizers within 1e-13 of their scale_floor; both routes are taken."""
    routes = set()
    for seed, problem, t in _parity_cases():
        x = np.random.default_rng(seed + 900).normal(size=problem.n)
        q = assemble_quadratic(problem, t, x)
        out = oracle_minimize(q)
        dense = oracle_minimize(QuadraticForm(M=q.M, b=q.b, c=q.c, layout=q.layout))
        routes.add(_eliminate(q, PSD_TOL) is not None)
        assert (out.status, out.reason) == (dense.status, dense.reason), seed
        if out.bounded:
            assert abs(out.value - dense.value) <= 1e-13 * scale_floor(dense.value), seed
            assert np.max(np.abs(out.minimizer - dense.minimizer)) \
                <= 1e-13 * scale_floor(dense.minimizer), seed
    assert routes == {True, False}


def test_oracle_memory_stays_below_one_dense_matrix():
    """Assembly and minimization of a positive definite form at dimension
    1026 never build the dense M: their traced peak stays below one copy."""
    problem = _dim_1026_problem()
    tracemalloc.start()
    try:
        q = assemble_quadratic(problem, 0, np.ones(problem.n))
        out = oracle_minimize(q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    dim = q.layout.size
    assert dim == 1026 and out.bounded
    assert peak < 8 * dim * dim


def test_oracle_agrees_with_backward_pass_on_scalar(scalar, scalar_solution):
    q = assemble_quadratic(scalar, 0, [1.0])
    out = oracle_minimize(q)
    assert out.bounded
    assert out.value == pytest.approx(0.25, abs=1e-12)
    # d = 2 >= N - 1 pins every control to the root atom; the optimal
    # open-loop plan is constant -1/4
    assert out.minimizer == pytest.approx([-0.25, -0.25, -0.25], abs=1e-12)
    assert oracle_cost(scalar, 0, [1.0], out.minimizer) \
        == pytest.approx(out.value, abs=1e-12)


def test_oracle_agrees_with_backward_pass_on_random_instances():
    for seed, problem, t, sol in uniquely_solvable_instances(8, start_seed=40):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=problem.n)
        out = oracle_minimize(assemble_quadratic(problem, t, x))
        val = optimal_value(sol, t, x)
        assert out.bounded
        assert abs(out.value - val) <= 1e-8 * max(1.0, abs(val))


# ---------------------------------------------------------------------------
# Stationarity and decoupling along the closed loop

def test_optimal_policy_is_stationary(scalar, scalar_solution):
    x = [1.0]
    res = stationary_residual(scalar, 0, x, feedback_policy(scalar_solution))
    assert res <= 1e-12


def test_stationary_residual_reads_off_plain_gradient():
    # With B = D = 0 and Q = G = 0 the costate vanishes, so the residual is
    # exactly the largest control row norm under R = I.
    prob = ProblemData(n=1, m=2, N=2, d=1,
                       A=[[[0.3]]] * 2, B=[np.zeros((1, 2))] * 2,
                       C=[[[0.1]]] * 2, D=[np.zeros((1, 2))] * 2,
                       Q=[[[0.0]]] * 2, R=[np.eye(2)] * 2, G=[[0.0]])
    u = OpenLoopPolicy(t=0, d=1, controls=[np.array([[3.0, 4.0]]),
                                           np.array([[0.6, 0.8]])])
    assert stationary_residual(prob, 0, [1.0], u) == pytest.approx(5.0)


def test_stationarity_and_decoupling_on_random_instances():
    for seed, problem, t, sol in uniquely_solvable_instances(6, start_seed=70):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=problem.n)
        assert stationary_residual(problem, t, x, feedback_policy(sol)) <= 1e-9
        assert decoupling_residual(problem, t, x, sol) <= 1e-8


def test_decoupling_on_benchmark(benchmark_problem_fixture, benchmark_solution):
    assert decoupling_residual(benchmark_problem_fixture, 0, [1.0, 0.0],
                               benchmark_solution) <= 1e-8


# ---------------------------------------------------------------------------
# Initial-pair probing

def test_fixed_pair_check_on_solvable_instance(benchmark_problem_fixture,
                                               benchmark_solution):
    check = fixed_pair_check(benchmark_problem_fixture, 0, [1.0, 0.0],
                             benchmark_solution, samples=50)
    assert check.sufficient
    assert not check.falsified
    assert check.worst_violation <= 1e-9


def test_fixed_pair_check_depends_on_initial_state():
    prob = range_deficient_problem()
    sol = solve_riccati(prob, 0)
    at_zero = fixed_pair_check(prob, 0, [0.0], sol, samples=20)
    assert not at_zero.sufficient      # Ran(H) is not inside Ran(W)
    assert not at_zero.falsified       # but from x = 0 nothing escapes
    at_one = fixed_pair_check(prob, 0, [1.0], sol, samples=20)
    assert at_one.falsified
    assert at_one.worst_violation > 0.5


# ---------------------------------------------------------------------------
# Exact second-order expansion

@pytest.mark.parametrize("seed", range(5))
def test_cost_difference_expansion_is_exact(seed):
    problem, t = draw_mixed(seed + 20)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=problem.n)
    u = random_open_loop(problem, t, rng)
    v = random_open_loop(problem, t, rng)
    lam = float(rng.normal())
    assert cost_difference_residual(problem, t, x, u, v, lam) <= 1e-10
