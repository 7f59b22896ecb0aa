import dataclasses
import importlib.util
import pathlib
import sys
import tracemalloc

import numpy as np
import pytest

from delq import (
    FeedbackPolicy,
    ProblemData,
    ResourceLimitError,
    ValidationError,
    classify,
    exact_cost,
    feedback_policy,
    monte_carlo_cost,
    optimal_value,
    predictor,
    problem_from_dict,
    solve_riccati,
)
from delq.linalg import scale_floor
from delq.model import DEPTH_CAP_ENV, measurable_level
from delq.riccati import SOLVABLE_ALL_PAIRS
from delq.simulate import (
    MC_CHUNK,
    PATH_STEP_CAP_ENV,
    _chunk_costs,
    _noise_chunks,
    _phis,
    _chunk_operands,
)

from delq.worked_example import benchmark_problem

from conftest import draw_mixed, tree_cost, uniquely_solvable_instances
from identities import (
    OpenLoopPolicy,
    block_mean,
    build_tree,
    completion_of_squares_residual,
    cost_decomposition_check,
    fixed_pair_check,
    random_open_loop,
    rollout,
    shifted_policy,
    sign_patterns,
    zero_policy,
)


# ---------------------------------------------------------------------------
# Exact evaluation

def test_exact_cost_of_scalar_policies(scalar, scalar_solution):
    idle = tree_cost(scalar, 0, [1.0], zero_policy(scalar, 0))
    assert idle == pytest.approx(1.0)      # state parks at 1, pay G

    best = exact_cost(scalar, 0, [1.0], feedback_policy(scalar_solution))
    assert best.mean == pytest.approx(0.25, abs=1e-12)
    assert best.std_error == 0.0
    assert best.samples is None and best.mode == "Exact" and best.seed is None


def test_exact_cost_checks_initial_time(scalar):
    # t < 0 would read A[-1], the last step
    idle = FeedbackPolicy(t=-1, d=2, gains=[[[0.0]]] * 5)
    with pytest.raises(ValidationError, match=r"initial time t=-1 must satisfy 0 <= t <= N = 3"):
        exact_cost(scalar, -1, [1.0], idle)
    with pytest.raises(ValidationError, match="initial time t=4"):
        exact_cost(scalar, 4, [1.0], idle)
    # t = N has no control left: the cost is x^T G x
    terminal = exact_cost(scalar, scalar.N, [2.0], FeedbackPolicy(t=scalar.N, d=2, gains=()))
    assert terminal.mean == 4.0 * scalar.G[0, 0] and terminal.samples is None


@pytest.mark.parametrize("delay", ["zero", "drawn"])
def test_exact_cost_matches_the_tree(delay):
    """The moment pass against the 2^(N-t) paths of the tree, at d = 0 and
    at the drawn d, from t = 0 and from t > 0."""
    starts = set()
    for seed in range(300):
        problem, t = draw_mixed(seed)
        problem = dataclasses.replace(problem, d=0 if delay == "zero" else problem.d)
        starts.add(t > 0)
        policy = feedback_policy(solve_riccati(problem, t))
        x = np.random.default_rng(seed).normal(size=problem.n)
        want = tree_cost(problem, t, x, policy)
        got = exact_cost(problem, t, x, policy).mean
        assert abs(got - want) <= 1e-13 * scale_floor(want), seed
    assert starts == {False, True}


def _perfbench_workloads():
    """The benchmark's instance generator, perfbench/workloads.py."""
    path = pathlib.Path(__file__).parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses look the module up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["recursion", "certify", "tree", "montecarlo"])
def test_exact_cost_is_the_value_on_the_workload_grids(workload):
    """On every solvable instance the benchmark draws (N up to 1000, d up
    to 100) at seeds 1 and 2, the gain policy's exact cost from the slot's
    initial state is x^T P x. The instances and states are drawn in the
    order of workloads.build, without writing the problem files."""
    workloads = _perfbench_workloads()
    checked = 0
    for seed in (1, 2):
        rng = np.random.default_rng([workloads.WORKLOADS.index(workload), seed])
        for j, slot in enumerate(workloads._GRIDS[workload]):
            problem = problem_from_dict(workloads._draw(rng, slot))
            x = rng.uniform(-1.0, 1.0, size=slot.n)
            rng.integers(0, 2**31)   # the slot's Monte-Carlo seed
            sol = solve_riccati(problem, 0)
            report = classify(sol)
            if not report.at_least(SOLVABLE_ALL_PAIRS):
                continue
            want = optimal_value(sol, 0, x, report)
            got = exact_cost(problem, 0, x, feedback_policy(sol)).mean
            assert abs(got - want) <= 1e-10 * scale_floor(want), (seed, j)
            checked += 1
    assert checked > 0


def test_exact_cost_runs_past_the_depth_cap(monkeypatch):
    """No tree: N = 400 runs under a depth cap of 2, and gives the value."""
    monkeypatch.setenv(DEPTH_CAP_ENV, "2")
    n, m, N, d = 2, 1, 400, 7
    rng = np.random.default_rng(400)
    problem = ProblemData(n=n, m=m, N=N, d=d,
                          A=[0.6 * np.eye(n)] * N, B=[rng.normal(size=(n, m))] * N,
                          C=[rng.normal(scale=0.3, size=(n, n))] * N,
                          D=[rng.normal(scale=0.3, size=(n, m))] * N,
                          Q=[np.eye(n)] * N, R=[np.eye(m)] * N, G=np.eye(n))
    sol = solve_riccati(problem, 0)
    want = optimal_value(sol, 0, np.ones(n))
    got = exact_cost(problem, 0, np.ones(n), feedback_policy(sol)).mean
    assert abs(got - want) <= 1e-10 * scale_floor(want)


def test_exact_cost_refuses_open_loop_policies(scalar):
    """Only a feedback policy is evaluated; the CLI maps the
    ValidationError to exit 2."""
    with pytest.raises(ValidationError,
                       match="evaluation takes a feedback policy, got OpenLoopPolicy"):
        exact_cost(scalar, 0, [1.0], zero_policy(scalar, 0))


def _malformed_policy(case):
    """One malformed policy for benchmark_problem() (n = m = 2, N = 4,
    d = 2) and the message that must name it. The evaluation routes take
    feedback policies only, so an open-loop one, well formed or not, is
    refused as such."""
    problem = benchmark_problem()
    gains = feedback_policy(solve_riccati(problem, 0)).gains
    controls = random_open_loop(problem, 0, np.random.default_rng(0)).controls
    if case == "gain too wide":
        wide = [np.hstack([K, np.zeros((2, 1))]) for K in gains]
        return FeedbackPolicy(t=0, d=2, gains=wide), r"gain at time 0 must have shape \(2, 2\), got \(2, 3\)"
    if case == "gain one short":
        return FeedbackPolicy(t=0, d=2, gains=gains[:-1]), "policy has no gain for time 3"
    refused = "evaluation takes a feedback policy, got OpenLoopPolicy"
    if case == "control one short":
        return OpenLoopPolicy(t=0, d=2, controls=controls[:-1]), refused
    wide = [np.hstack([u, np.zeros((len(u), 1))]) for u in controls]
    return OpenLoopPolicy(t=0, d=2, controls=wide), refused


@pytest.mark.parametrize("route", ["exact", "monte carlo"])
@pytest.mark.parametrize("case", ["gain too wide", "gain one short", "control one short",
                                  "control too wide"])
def test_every_route_checks_the_policy(route, case):
    """A gain of the wrong shape, a policy a step short, or an open-loop
    policy is an input error on both evaluation routes, named before any
    work."""
    problem = benchmark_problem()
    policy, message = _malformed_policy(case)
    with pytest.raises(ValidationError, match=message):
        if route == "exact":
            exact_cost(problem, 0, [1.0, 1.0], policy)
        else:
            monte_carlo_cost(problem, 0, [1.0, 1.0], policy, samples=64, seed=0)


def _enumerated_mean(problem, t, x, policy):
    """The mean of the Monte-Carlo chunk loop over all 2^(N-t) sign
    patterns: under Rademacher noise, the exact expected cost."""
    patterns = sign_patterns(problem.N - t)
    costs = _chunk_costs(problem, t, np.asarray(x, dtype=float), patterns,
                         _chunk_operands(problem, t, policy))
    return float(np.mean(costs))


@pytest.mark.parametrize("seed", range(5))
def test_full_enumeration_reproduces_exact_mean(seed):
    # gains drawn at random, not the recursion's
    problem, t = draw_mixed(seed)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=problem.n)
    policy = FeedbackPolicy(t=t, d=problem.d, gains=[
        rng.normal(size=(problem.m, problem.n)) for _ in range(problem.N - t)])
    exact = tree_cost(problem, t, x, policy)
    enum = _enumerated_mean(problem, t, x, policy)
    assert abs(enum - exact) <= 1e-12 * max(1.0, abs(exact))


@pytest.mark.parametrize("delay", ["zero", "drawn", "whole horizon"])
def test_full_enumeration_of_feedback_policy_matches_tree(delay):
    # The chunk predictor (innovation form) against the tree's block means,
    # at d = 0, the drawn d, and d >= N - t (the predictor never updates).
    starts = set()
    for seed in range(12):
        problem, t = draw_mixed(seed)
        d = {"zero": 0, "drawn": problem.d, "whole horizon": problem.N}[delay]
        problem = dataclasses.replace(problem, d=d)
        starts.add(t > 0)
        policy = feedback_policy(solve_riccati(problem, t))
        x = np.random.default_rng(seed).normal(size=problem.n)
        exact = tree_cost(problem, t, x, policy)
        enum = _enumerated_mean(problem, t, x, policy)
        assert abs(enum - exact) <= 1e-12 * max(1.0, abs(exact)), (seed, d)
    assert starts == {False, True}


def _unstable_problem(seed, d, N=11, n=2, m=1, indefinite=False):
    """Every A_k has spectral radius 1.3. With `indefinite`, Q_k and R_k are
    rotations of diagonals with both signs (R_k < 0 at m = 1), so the cost
    coordinates of a Monte-Carlo step carry weights of mixed signs."""
    rng = np.random.default_rng(seed)
    A = []
    for _ in range(N):
        basis = np.linalg.qr(rng.normal(size=(n, n)))[0]
        A.append(basis @ np.diag([1.3, *rng.uniform(-1.0, 1.0, size=n - 1)]) @ basis.T)
    B = [rng.normal(size=(n, m)) for _ in range(N)]
    C = [rng.normal(scale=0.4, size=(n, n)) for _ in range(N)]
    D = [rng.normal(scale=0.4, size=(n, m)) for _ in range(N)]
    Q, R = [np.eye(n)] * N, [np.eye(m)] * N
    if indefinite:
        def rotated(spectrum):
            basis = np.linalg.qr(rng.normal(size=(len(spectrum),) * 2))[0]
            return basis @ np.diag(spectrum) @ basis.T
        Q = [rotated([1.0, -0.6, 0.8, -0.3][:n]) for _ in range(N)]
        R = [rotated([-0.7, 0.9, -0.4, 0.5][:m]) for _ in range(N)]
    return ProblemData(n=n, m=m, N=N, d=d, A=A, B=B, C=C, D=D, Q=Q, R=R, G=np.eye(n))


def _path_cost(problem, t, x, w, control):
    """One path's cost, X_k and u_k = control(k) stepped one by one."""
    X, cost = x, 0.0
    for k in range(t, problem.N):
        u = control(k)
        cost += X @ problem.Q[k] @ X + u @ problem.R[k] @ u
        X = problem.A[k] @ X + problem.B[k] @ u \
            + (problem.C[k] @ X + problem.D[k] @ u) * w[k - t]
    return cost + X @ problem.G @ X


#: (n, m, indefinite) of the path-by-path tests: m in {1, 2, n}, and Q, R
#: positive definite or indefinite.
_SHAPES = [(2, 1, False)] + [(3, m, indefinite) for m in (1, 2, 3)
                             for indefinite in (False, True)]


@pytest.mark.parametrize("t, d", [(0, 5), (2, 6), (1, 9), (0, 0), (3, 0), (0, 11), (4, 7)])
def test_chunk_predictor_matches_direct_predictor_path_by_path(t, d):
    """The stacked step against the direct per-path predictor, on both noise
    models, at d = 0, 0 < d < N - t and d >= N - t (no innovation is ever
    revealed), from t = 0 and t > 0."""
    for n, m, indefinite in _SHAPES:
        problem = _unstable_problem(t + d, d, n=n, m=m, indefinite=indefinite)
        rng = np.random.default_rng(d)
        gains = [rng.normal(scale=0.5, size=(m, n)) for _ in range(problem.N - t)]
        policy = FeedbackPolicy(t=t, d=d, gains=gains)
        x = np.array([1.0, -0.5, 0.25][:n])
        steps = problem.N - t
        noises = np.vstack([1.0 - 2.0 * rng.integers(0, 2, size=(8, steps)),
                            rng.standard_normal((8, steps))])
        got = _chunk_costs(problem, t, x, noises, _chunk_operands(problem, t, policy))
        for path, w in enumerate(noises):
            # Reference cost of the same path, with every control from the
            # direct per-path predictor.
            def control(k):
                s = measurable_level(t, d, k)
                return gains[k - t] @ predictor(problem, t, x, gains, k, noises=w[:s - t])
            cost = _path_cost(problem, t, x, w, control)
            assert abs(got[path] - cost) <= 1e-12 * max(1.0, abs(cost)), (n, m, path)


@pytest.mark.parametrize("d", [0, 5, 20])
def test_chunk_step_makes_a_fixed_number_of_products(d, monkeypatch):
    """Each step of a feedback chunk makes two np.matmul calls, plus one
    once an innovation is revealed (k >= t + d), whatever n, m and d are;
    the terminal cost makes one more."""
    t, counts = 2, {}
    for n, m in ((2, 1), (3, 2), (4, 2)):
        for steps in (30, 31):
            problem = _unstable_problem(d, d, N=t + steps, n=n, m=m)
            policy = FeedbackPolicy(t=t, d=d, gains=[np.zeros((m, n))] * steps)
            operands = _chunk_operands(problem, t, policy)
            noises = np.random.default_rng(d).standard_normal((64, steps))
            calls = 0
            matmul = np.matmul

            def counting(*args, **kwargs):
                nonlocal calls
                calls += 1
                return matmul(*args, **kwargs)

            with monkeypatch.context() as patch:
                patch.setattr(np, "matmul", counting)
                _chunk_costs(problem, t, np.ones(n), noises, operands)
            counts[n, m, steps] = calls
    for (n, m, steps), calls in counts.items():
        assert calls == 2 * steps + (steps - d) + 1, (n, m, steps)
        if steps == 31:
            assert calls - counts[n, m, 30] == 3, (n, m)


@pytest.mark.parametrize("delay", ["zero", "one", "drawn", "whole horizon"])
def test_step_operands_phi_matches_direct_products(delay):
    # Phi_{k+1} = A_k ... A_{k-d+1} from sliding-window blocks against the
    # product formed from scratch, on horizons of several blocks.
    for seed in range(6):
        rng = np.random.default_rng(seed)
        t, N = int(rng.integers(0, 4)), int(rng.integers(20, 41))
        d = {"zero": 0, "one": 1, "drawn": int(rng.integers(2, 13)),
             "whole horizon": N}[delay]
        problem = _unstable_problem(seed, d, N=N)
        phis = _phis(problem, t)
        assert len(phis) == N - t
        for k, Phi in enumerate(phis, start=t):
            if k < t + d:
                assert Phi is None, (seed, k)
                continue
            direct = np.eye(problem.n)
            for j in range(k - d + 1, k + 1):
                direct = problem.A[j] @ direct
            err = np.max(np.abs(Phi - direct))
            assert err <= 1e-13 * np.max(np.abs(direct)), (seed, d, k)


# ---------------------------------------------------------------------------
# Monte Carlo sampling

def test_monte_carlo_is_reproducible_and_seed_sensitive():
    problem, t = draw_mixed(4)
    policy = feedback_policy(solve_riccati(problem, t))
    x = np.ones(problem.n)
    a = monte_carlo_cost(problem, t, x, policy, samples=5000, seed=7)
    b = monte_carlo_cost(problem, t, x, policy, samples=5000, seed=7)
    assert a.mean == b.mean and a.std_error == b.std_error  # bit-identical
    c = monte_carlo_cost(problem, t, x, policy, samples=5000, seed=8)
    assert c.mean != a.mean


@pytest.mark.parametrize("noise", ["Rademacher", "Gaussian"])
@pytest.mark.parametrize("steps", [1, 7, 51])
def test_noise_chunks_match_one_up_front_draw(noise, steps):
    for samples in (2, 4095, 4097, 9001):
        rng = np.random.Generator(np.random.Philox(key=5))
        if noise == "Rademacher":
            block = 1.0 - 2.0 * rng.integers(0, 2, size=(samples, steps)).astype(float)
        else:
            block = rng.standard_normal((samples, steps))
        # Each chunk is a view of one reused buffer, valid until the next
        # draw, so it is copied before the generator moves on.
        chunks, buffers = [], set()
        for c in _noise_chunks(noise, samples, steps, 5):
            chunks.append(c.copy())
            buffers.add(id(c.base))
        assert len(buffers) == 1
        assert all(c.shape[0] <= MC_CHUNK for c in chunks)
        assert np.array_equal(np.vstack(chunks), block), samples


@pytest.mark.parametrize("steps", [1, 3, 13])
def test_enumerated_chunks_are_the_tree_leaves_in_order(steps):
    leaves = np.array([[1.0 - 2.0 * ((i >> (steps - 1 - j)) & 1) for j in range(steps)]
                       for i in range(1 << steps)])
    assert np.array_equal(sign_patterns(steps), leaves)


def test_monte_carlo_memory_does_not_grow_with_samples():
    problem, t = draw_mixed(11)
    policy = feedback_policy(solve_riccati(problem, t))
    x = np.ones(problem.n)

    def peak(samples):
        tracemalloc.start()
        try:
            monte_carlo_cost(problem, t, x, policy, noise="gaussian",
                             samples=samples, seed=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(50 * MC_CHUNK) <= 1.5 * peak(2 * MC_CHUNK)


def test_monte_carlo_matches_exact_within_error_bars():
    problem, t = draw_mixed(2)
    sol = solve_riccati(problem, t)
    policy = feedback_policy(sol)
    rng = np.random.default_rng(0)
    x = rng.normal(size=problem.n)
    exact = exact_cost(problem, t, x, policy).mean
    mc = monte_carlo_cost(problem, t, x, policy, samples=20000, seed=3)
    assert mc.noise == "Rademacher" and mc.samples == 20000
    assert abs(mc.mean - exact) <= 5.0 * max(mc.std_error, 1e-12)


def test_monte_carlo_gaussian_needs_feedback(scalar, scalar_solution):
    with pytest.raises(ValidationError, match="evaluation takes a feedback policy"):
        monte_carlo_cost(scalar, 0, [1.0], zero_policy(scalar, 0),
                         noise="gaussian", samples=100)
    out = monte_carlo_cost(scalar, 0, [1.0], feedback_policy(scalar_solution),
                           noise="gaussian", samples=2000, seed=1)
    assert out.noise == "Gaussian"
    assert np.isfinite(out.mean)


def test_monte_carlo_argument_validation(scalar):
    u = zero_policy(scalar, 0)
    with pytest.raises(ValidationError, match="at least 2"):
        monte_carlo_cost(scalar, 0, [1.0], u, samples=1)
    with pytest.raises(ValidationError, match="noise model"):
        monte_carlo_cost(scalar, 0, [1.0], u, noise="uniform")


def test_monte_carlo_work_is_capped(scalar, scalar_solution, monkeypatch):
    """samples x (N - t) above DELQ_PATH_STEP_CAP is refused before a draw;
    the cap is read like DELQ_DEPTH_CAP."""
    policy = feedback_policy(scalar_solution)
    monkeypatch.setenv(PATH_STEP_CAP_ENV, "30")
    assert monte_carlo_cost(scalar, 0, [1.0], policy, samples=10).samples == 10
    with pytest.raises(ResourceLimitError,
                       match=r"11 samples x 3 steps exceeds cap 30 path-steps"):
        monte_carlo_cost(scalar, 0, [1.0], policy, samples=11)
    with pytest.raises(ResourceLimitError, match="exceeds cap 30"):
        monte_carlo_cost(scalar, 0, [1.0], policy, samples=10**14)
    monkeypatch.setenv(PATH_STEP_CAP_ENV, "lots")
    with pytest.raises(ValidationError, match="DELQ_PATH_STEP_CAP must be an integer"):
        monte_carlo_cost(scalar, 0, [1.0], policy, samples=10)


def test_deterministic_system_has_zero_standard_error():
    # C = D = 0 makes every path cost identical, whatever the noise draw
    prob = ProblemData(n=1, m=1, N=3, d=1,
                       A=[[[0.9]]] * 3, B=[[[1.0]]] * 3,
                       C=[[[0.0]]] * 3, D=[[[0.0]]] * 3,
                       Q=[[[1.0]]] * 3, R=[[[1.0]]] * 3, G=[[1.0]])
    policy = feedback_policy(solve_riccati(prob, 0))
    for noise in ("rademacher", "gaussian"):
        out = monte_carlo_cost(prob, 0, [1.0], policy, noise=noise,
                               samples=500, seed=2)
        assert out.std_error == pytest.approx(0.0, abs=1e-13)
        assert out.mean == pytest.approx(optimal_value(solve_riccati(prob, 0), 0, [1.0]))


# ---------------------------------------------------------------------------
# Delayed-information predictor

def test_predictor_on_scalar_closed_loop(scalar, scalar_solution):
    # deterministic dynamics: u_0 = -1/4, X_1 = 3/4, u_1 = -1/3 * 3/4, X_2 = 1/2
    K = scalar_solution.K
    assert predictor(scalar, 0, [1.0], K, 0) == pytest.approx([1.0])
    assert predictor(scalar, 0, [1.0], K, 1) == pytest.approx([0.75])
    assert predictor(scalar, 0, [1.0], K, 2) == pytest.approx([0.5])
    with pytest.raises(ValidationError, match="outside"):
        predictor(scalar, 0, [1.0], K, 4)


def test_predictor_requires_enough_noises():
    prob, t = draw_mixed(0)
    sol = solve_riccati(prob, t)
    k = prob.N
    s = measurable_level(t, prob.d, k)
    if s > t:
        with pytest.raises(ValidationError, match="realized noises"):
            predictor(prob, t, np.zeros(prob.n), sol.K, k, noises=[1.0] * (s - t - 1))


@pytest.mark.parametrize("seed", range(4))
def test_predictor_agrees_with_tree_conditional_mean(seed):
    problem, t = draw_mixed(seed + 10)
    sol = solve_riccati(problem, t)
    tree = build_tree(t, problem.N)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=problem.n)
    traj = rollout(problem, t, x, feedback_policy(sol))
    for k in range(t, problem.N + 1):
        s = measurable_level(t, problem.d, k)
        expected = block_mean(traj.states.at(k), k - s)
        for atom in range(tree.n_nodes(s)):
            got = predictor(problem, t, x, sol.K, k,
                            noises=tree.noise_path(s, atom))
            assert np.max(np.abs(got - expected[atom])) <= 1e-12 * max(
                1.0, float(np.max(np.abs(expected))))


# ---------------------------------------------------------------------------
# Cost decompositions and the control shift

def test_decomposition_defect_vanishes_for_zero_control(scalar):
    assert cost_decomposition_check(scalar, 0, zero_policy(scalar, 0)) == 0.0


@pytest.mark.parametrize("seed", range(6))
def test_zero_state_cost_decomposition(seed):
    problem, t = draw_mixed(seed + 30)
    rng = np.random.default_rng(seed)
    u = random_open_loop(problem, t, rng)
    assert cost_decomposition_check(problem, t, u) <= 1e-10


def test_zero_state_cost_decomposition_on_benchmark(benchmark_problem_fixture):
    rng = np.random.default_rng(5)
    u = random_open_loop(benchmark_problem_fixture, 0, rng)
    assert cost_decomposition_check(benchmark_problem_fixture, 0, u) <= 1e-8


def test_shifted_policy_rejects_feedback(scalar, scalar_solution):
    with pytest.raises(ValidationError, match="open-loop"):
        shifted_policy(scalar, 0, [1.0], feedback_policy(scalar_solution),
                       scalar_solution)


def test_shift_of_zero_input_is_the_optimal_plan(scalar, scalar_solution):
    v = shifted_policy(scalar, 0, [1.0], zero_policy(scalar, 0), scalar_solution)
    for vk in v.controls:
        assert vk == pytest.approx(np.full((1, 1), -0.25), abs=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_completion_of_squares_along_shifted_controls(seed):
    seeds = uniquely_solvable_instances(1, start_seed=500 + 17 * seed)
    _, problem, t, sol = seeds[0]
    rng = np.random.default_rng(seed)
    x = rng.normal(size=problem.n)
    u = random_open_loop(problem, t, rng)
    assert completion_of_squares_residual(problem, t, x, u, sol) <= 1e-10


def test_completion_of_squares_on_benchmark(benchmark_problem_fixture,
                                            benchmark_solution):
    rng = np.random.default_rng(11)
    u = random_open_loop(benchmark_problem_fixture, 0, rng)
    assert completion_of_squares_residual(
        benchmark_problem_fixture, 0, [1.0, 0.0], u, benchmark_solution) <= 1e-8


_STATE_ROUTES = {
    "predictor": lambda p, sol, x: predictor(p, 0, x, sol.K, 1),
    "shifted_policy": lambda p, sol, x: shifted_policy(p, 0, x, zero_policy(p, 0), sol),
    "completion_of_squares_residual": lambda p, sol, x: completion_of_squares_residual(
        p, 0, x, zero_policy(p, 0), sol),
    "fixed_pair_check": lambda p, sol, x: fixed_pair_check(p, 0, x, sol, samples=1),
}


@pytest.mark.parametrize("route", sorted(_STATE_ROUTES))
def test_every_route_checks_its_initial_state(route, scalar, scalar_solution):
    """A wrong-length or non-finite x is an input error, not numpy's
    ValueError or a NaN result."""
    with pytest.raises(ValidationError, match="must have length 1"):
        _STATE_ROUTES[route](scalar, scalar_solution, [1.0, 2.0])
    with pytest.raises(ValidationError, match="non-finite"):
        _STATE_ROUTES[route](scalar, scalar_solution, [np.nan])
