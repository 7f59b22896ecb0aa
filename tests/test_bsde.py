import importlib.util
import pathlib
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from delq import (
    ConsistencyError,
    ProblemData,
    QuadraticForm,
    StackedControlLayout,
    ValidationError,
    assemble_quadratic,
    classify,
    feedback_policy,
    load_problem,
    optimal_value,
    oracle_minimize,
    solve_riccati,
)
from delq.linalg import PINV_RTOL, PSD_TOL, eig_margin, pinv, range_residual, rel_deviation, \
    scale_floor, symmetrize
from delq.model import measurable_level, tree_step

from conftest import (
    draw_mixed,
    nonneg_problem,
    notconvex_problem,
    range_deficient_problem,
    reference_tree_step,
    uniquely_solvable_instances,
)
from identities import (
    OpenLoopPolicy,
    apply_operators,
    build_tree,
    cost_difference_residual,
    decoupling_residual,
    fixed_pair_check,
    oracle_cost,
    process_inner,
    random_open_loop,
    rollout,
    solve_bsde,
    stack,
    stationary_residual,
    terminal_inner,
    trajectory_cost,
    unstack,
)


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
    vec = stack(layout, u)
    assert vec.shape == (layout.size,)
    back = unstack(layout, vec)
    for a, b in zip(back.controls, u.controls, strict=True):
        assert np.array_equal(a, b)
    with pytest.raises(ValidationError, match="length"):
        unstack(layout, np.zeros(layout.size + 1))


def test_layout_matches_information_atoms():
    problem, t = draw_mixed(3)
    layout = StackedControlLayout.build(problem, t)
    for j, k in enumerate(range(t, problem.N)):
        assert layout.atoms[j] == 1 << (measurable_level(t, problem.d, k) - t)
    assert layout.size == sum(a * problem.m for a in layout.atoms)


def _dense_matrix(q):
    """M from the form's tables: each fills M along the ancestor diagonal
    (disjoint subtrees never meet), and the lower block triangle mirrors
    the upper."""
    layout = q.layout
    m, atoms, offsets = layout.m, layout.atoms, layout.offsets
    M = np.zeros((layout.size, layout.size))
    for j2, (a2, off2) in enumerate(zip(atoms, offsets)):
        pos = 0
        for j1 in range(j2 + 1):
            a1, off1 = atoms[j1], offsets[j1]
            span = a2 // a1 * m     # time j2's columns under one atom of j1
            table = q.tables[j2][pos:pos + m * span].reshape(m, span)
            pos += m * span
            r = off1 + np.arange(a1 * m).reshape(a1, m, 1)
            cols = off2 + np.arange(a1 * span).reshape(a1, 1, span)
            M[r, cols] = table
            if j1 < j2:
                M[cols.swapaxes(1, 2), r.swapaxes(1, 2)] = table.T
    return M


def _dense_oracle(q):
    """The dense reference: one eigh of M gives the status (Bounded, or the
    Unbounded reason's kind), and for a bounded form the value and the
    least-norm minimizer -M^+ b, together with M and its spectrum."""
    M = _dense_matrix(q)
    vals, V = np.linalg.eigh(M)
    if vals[0] / scale_floor(vals) < -PSD_TOL:
        return "negative eigenvalue", None, None, M, vals
    mags = np.abs(vals)
    keep = mags > PINV_RTOL * np.max(mags)
    coef = V.T @ q.b
    if rel_deviation(V @ np.where(keep, 0.0, coef), q.b) > PSD_TOL:
        return "outside the range", None, None, M, vals
    solve = V @ np.divide(coef, vals, out=np.zeros_like(coef), where=keep)
    return "Bounded", q.c - float(q.b @ solve), -solve, M, vals


@pytest.mark.parametrize("seed", range(6))
def test_quadratic_form_reproduces_simulated_cost(seed):
    problem, t = draw_mixed(seed)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=problem.n)
    q = assemble_quadratic(problem, t, x)
    M = _dense_matrix(q)
    for _ in range(20):
        u = random_open_loop(problem, t, rng)
        direct = trajectory_cost(problem, rollout(problem, t, x, u))
        vec = stack(q.layout, u)
        assert abs(vec @ M @ vec + 2.0 * (q.b @ vec) + q.c - direct) \
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
        qM = _dense_matrix(q)
        assert np.array_equal(qM, qM.T), seed
        assert np.max(np.abs(qM - M)) <= 1e-13 * scale_floor(M), seed
        assert np.max(np.abs(q.b - b)) <= 1e-13 * scale_floor(b), seed
        assert abs(q.c - c) <= 1e-13 * scale_floor(c), seed


@pytest.mark.parametrize("seed", range(12))
def test_assembly_is_bit_identical_under_the_four_product_step(seed, monkeypatch):
    """The stacked tree step keeps the arithmetic of every entry, so the
    form's b, c and tables, and the fixed-pair probe's sweeps on coarse
    controls, do not move by one bit."""
    problem, t = draw_mixed(seed)
    x = np.random.default_rng(seed + 900).normal(size=problem.n)
    sol = solve_riccati(problem, t)
    live = assemble_quadratic(problem, t, x)
    probe = fixed_pair_check(problem, t, x, sol, samples=3)
    monkeypatch.setattr("delq.bsde.tree_step", reference_tree_step)
    monkeypatch.setattr("delq.model.tree_step", reference_tree_step)
    ref = assemble_quadratic(problem, t, x)
    assert np.array_equal(live.b, ref.b) and live.c == ref.c
    assert len(live.tables) == len(ref.tables)
    assert all(np.array_equal(a, b) for a, b in zip(live.tables, ref.tables))
    assert fixed_pair_check(problem, t, x, sol, samples=3).worst_violation == probe.worst_violation


def _dim_1026_problem(R=None):
    """n = 3, m = 2, N = 11, d = 2 with positive definite weights (or the
    given R stack): a stacked dimension of 1026."""
    n, m, N, d = 3, 2, 11, 2
    rng = np.random.default_rng(5)
    return ProblemData(n=n, m=m, N=N, d=d,
                       A=[rng.normal(scale=0.5, size=(n, n)) for _ in range(N)],
                       B=[rng.normal(size=(n, m)) for _ in range(N)],
                       C=[rng.normal(scale=0.3, size=(n, n)) for _ in range(N)],
                       D=[rng.normal(scale=0.3, size=(n, m)) for _ in range(N)],
                       Q=[np.eye(n)] * N, R=[np.eye(m)] * N if R is None else R,
                       G=np.eye(n))


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
    assert q.layout.size == dim and len(q.tables) == problem.N
    assert peak <= 3 * 8 * dim * dim


# ---------------------------------------------------------------------------
# Oracle on hand-built forms

def _form(M, b, c=0.0):
    """A hand-built form over `len(M)` scalar controls, one atom per time,
    so every time couples to every earlier one: the chain tables
    tables[j] = M[:j+1, j] (M's upper triangle)."""
    M = np.asarray(M, dtype=float)
    size = len(M)
    layout = StackedControlLayout(t=0, N=size, d=0, m=1, atoms=(1,) * size,
                                  offsets=tuple(range(size)), size=size)
    return QuadraticForm(b=np.asarray(b, dtype=float), c=c, layout=layout,
                         tables=tuple(M[:j + 1, j].copy() for j in range(size)))


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
        "quadratic term has negative eigenvalue -2.000e+00 at k=0"

    with pytest.raises(ValidationError, match="non-finite"):
        oracle_minimize(_form([[np.nan]], [0.0]))
    with pytest.raises(ValidationError, match="non-finite"):
        oracle_minimize(_form([[1.0]], [np.inf]))
    with pytest.raises(ValidationError, match="length 3"):
        oracle_minimize(_form(np.eye(2), np.zeros(3)))


def test_oracle_reasons_name_the_pivot_time():
    """The latest time whose pivot is negative, or whose coupling rows
    leave the pivot's range, is named; a linear term outside the range is
    named only when the quadratic term is PSD."""
    out = oracle_minimize(_form(np.diag([-1.0, 1.0, -3.0, 1.0]), np.zeros(4)))
    assert out.reason == "quadratic term has negative eigenvalue -3.000e+00 at k=2"
    # a zero pivot at k=1 coupled to k=0: [[1, 1], [1, 0]] is indefinite
    out = oracle_minimize(_form([[1.0, 1.0], [1.0, 0.0]], np.zeros(2)))
    assert not out.bounded and out.reason.startswith("quadratic term has negative eigenvalue")
    assert out.reason.endswith(" at k=1")
    out = oracle_minimize(_form(np.diag([0.0, 1.0, 0.0]), [1.0, 0.0, 1.0]))
    assert out.reason == ("linear term has a component outside the range of the "
                          "quadratic term at k=2")
    out = oracle_minimize(_form(np.diag([-1.0, 1.0, 0.0]), [0.0, 0.0, 1.0]))
    assert out.reason == "quadratic term has negative eigenvalue -1.000e+00 at k=0"


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
    # the per-level pseudo-inverses solve M u = -b, and the form takes its
    # value there, but u may have a kernel component (it is not -M^+ b)
    u = out.minimizer
    np.testing.assert_allclose(M @ u, -b, atol=1e-12)
    assert u @ M @ u + 2.0 * (b @ u) + 1.0 == pytest.approx(out.value, abs=1e-12)

    out = oracle_minimize(_form(M, b + 1e-3 * kernel[:, 0], c=1.0))
    assert not out.bounded and "outside the range" in out.reason


def test_oracle_chain_form_near_the_float_maximum():
    """Entries near 1e308 stay finite: an exactly symmetric pivot goes to
    eigh as it is. A Schur update that overflows is a numerical breakdown
    that names the pivot's time."""
    out = oracle_minimize(_form([[1e308, 0.0], [0.0, 1.0]], np.zeros(2), c=3.0))
    assert out.bounded and out.value == 3.0
    assert np.array_equal(out.minimizer, np.zeros(2))

    # 1e308^2 / 1e297 overflows the k=0 pivot
    with pytest.raises(ConsistencyError, match="non-finite oracle pivot at k=0"):
        oracle_minimize(_form([[1.0, 1e308], [1e308, 1e297]], np.zeros(2)))
    # eliminating k=2 leaves the k=1 pivot exactly zero (a kernel) but
    # overflows its coupling to k=0, which the kernel test would then read
    with pytest.raises(ConsistencyError, match="non-finite oracle pivot at k=1"):
        oracle_minimize(_form([[1.0, 0.0, 1e308], [0.0, 5e303, 1e300],
                               [1e308, 1e300, 2e296]], np.zeros(3)))


def _three_decomposition_oracle(q):
    """The oracle as three separate decompositions of M: eigenvalues, the
    range residual through an SVD pseudo-inverse, and that pseudo-inverse
    again for the value."""
    M = _dense_matrix(q)
    if eig_margin(M)[1] < -PSD_TOL:
        return "Unbounded", None
    if range_residual(q.b[:, None], M) > PSD_TOL:
        return "Unbounded", None
    return "Bounded", q.c - float(q.b @ pinv(M) @ q.b)


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
    """Every form, positive definite or not convex, is answered by the
    elimination: one eigh per level pivot, none larger than m x m, and no
    eigvalsh or svd. The not-convex form stops at its first negative pivot."""
    for seed, bounded in [(3, True), (51, False)]:
        problem, t = draw_mixed(seed)
        q = assemble_quadratic(problem, t, np.ones(problem.n))
        levels, m = len(q.layout.atoms), problem.m
        assert q.layout.size > m    # so no pivot is itself dim x dim
        calls = _count_decompositions(monkeypatch)
        out = oracle_minimize(q)
        monkeypatch.undo()
        assert out.bounded == bounded, seed
        assert calls["eigvalsh"] == [] and calls["svd"] == [], seed
        assert set(calls["eigh"]) == {(m, m)}, seed
        assert len(calls["eigh"]) == levels if bounded else len(calls["eigh"]) < levels


def _perfbench_workloads():
    """The benchmark's workload generator, loaded from its file."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def _tree_oracles(seeds, tmp_path):
    """(name, problem, t, x) of every oracle command of the benchmark's
    `tree` workload at the given seeds (stacked dimensions 130-1026)."""
    workloads = _perfbench_workloads()
    for seed in seeds:
        workdir = tmp_path / f"tree-{seed}"
        workdir.mkdir()
        for command in workloads.build("tree", seed, str(workdir)):
            if command.kind == "oracle":
                yield (f"tree seed {seed} {pathlib.Path(command.problem).name}",
                       load_problem(command.problem), 0, np.array(command.x))


def _oracle_grid(tmp_path):
    """(name, problem, t, x): the parity cases, the range-deficient problem
    at five initial states, notconvex_problem 0-5, nonneg_problem
    40000-40005 and the `tree` oracles of seeds 1-3."""
    for seed, problem, t in _parity_cases():
        yield seed, problem, t, np.random.default_rng(seed + 900).normal(size=problem.n)
    for x in (0.0, 1.0, -1.0, 0.5, -2.0):
        yield f"range-deficient x={x}", range_deficient_problem(), 0, np.array([x])
    for seed in range(6):
        problem = notconvex_problem(seed)
        yield f"notconvex {seed}", problem, 0, np.ones(problem.n)
    for seed in range(40000, 40006):
        problem = nonneg_problem(seed)
        yield f"nonneg {seed}", problem, 0, np.ones(problem.n)
    yield from _tree_oracles((1, 2, 3), tmp_path)


def test_elimination_matches_the_dense_route(tmp_path):
    """Against one eigh of the dense M: equal statuses and reason kinds;
    Bounded values within 1e-13 of their scale_floor; minimizers within
    1e-13 where M is nonsingular, and elsewhere a solution of M u = -b at
    which the simulated cost is the value. The reasons name the latest
    step whose W_k has a negative eigenvalue on every not-convex case."""
    kinds, named = set(), 0
    for name, problem, t, x in _oracle_grid(tmp_path):
        q = assemble_quadratic(problem, t, x)
        out = oracle_minimize(q)
        status, value, minimizer, M, vals = _dense_oracle(q)
        kind = "Bounded" if out.bounded else next(
            k for k in ("negative eigenvalue", "outside the range") if k in out.reason)
        assert kind == status, name
        kinds.add(kind)
        report = classify(solve_riccati(problem, t))
        if report.classification == "NotConvex":
            latest = t + int(np.flatnonzero(report.w_min_eig < 0.0)[-1])
            assert out.reason.endswith(f" at k={latest}"), name
            named += 1
        if not out.bounded:
            continue
        assert abs(out.value - value) <= 1e-13 * scale_floor(value), name
        mags = np.abs(vals)
        if np.min(mags) > PINV_RTOL * np.max(mags):
            assert np.max(np.abs(out.minimizer - minimizer)) \
                <= 1e-13 * scale_floor(minimizer), name
        else:
            assert np.max(np.abs(M @ out.minimizer + q.b)) \
                <= 1e-13 * max(scale_floor(M), scale_floor(q.b)), name
            cost = oracle_cost(problem, t, x, out.minimizer)
            assert abs(cost - out.value) <= 1e-10 * scale_floor(out.value), name
    assert kinds == {"Bounded", "negative eigenvalue", "outside the range"}
    assert named >= 40


def test_oracle_memory_stays_below_one_dense_matrix():
    """Assembly and minimization at dimension 1026, of a positive definite
    form and of a not-convex one, never build the dense M: their traced
    peak stays below one copy."""
    R = [np.eye(2)] * 11
    R[7] = -20.0 * np.eye(2)
    for problem, bounded in [(_dim_1026_problem(), True), (_dim_1026_problem(R), False)]:
        tracemalloc.start()
        try:
            q = assemble_quadratic(problem, 0, np.ones(problem.n))
            out = oracle_minimize(q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        dim = q.layout.size
        assert dim == 1026 and out.bounded == bounded
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
