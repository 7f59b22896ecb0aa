import json

import numpy as np
import pytest

from delq import (
    CONVEX_CANDIDATE,
    ConsistencyError,
    PSD_TOL,
    NOT_CONVEX,
    SOLVABLE_ALL_PAIRS,
    UNIQUELY_SOLVABLE,
    ProblemData,
    UnsolvableError,
    ValidationError,
    classify,
    exact_cost,
    feedback_policy,
    is_pd,
    is_psd,
    optimal_value,
    range_residual,
    recompute_wh,
    solution_from_dict,
    solution_to_dict,
    solve_riccati,
    solve_riccati_bar,
)
from delq import lmei
from delq.linalg import PINV_RTOL, pinv, symmetrize
from delq.model import random_open_loop
from delq.riccati import RiccatiSolution, classification_rank
from delq.worked_example import REFERENCE_GAINS

from conftest import (
    draw_mixed,
    nonneg_problem,
    notconvex_problem,
    range_deficient_problem,
    scalar_problem,
    sym_with_eigs,
    uniquely_solvable_instances,
)


# ---------------------------------------------------------------------------
# Frozen closed-form table for the scalar delayed instance

def test_scalar_backward_table(scalar, scalar_solution):
    sol = scalar_solution
    expected_P = {
        (0, 3): 1.0, (1, 3): 0.0, (2, 3): 0.0,
        (0, 2): 1.0, (1, 2): 0.0, (2, 2): -0.5,
        (0, 1): 1.0, (1, 1): -2.0 / 3.0,
        (0, 0): 0.25,
    }
    assert set(sol.P) == set(expected_P)
    for key, val in expected_P.items():
        assert sol.P[key][0, 0] == pytest.approx(val, abs=1e-12), key
    assert [W[0, 0] for W in sol.W] == pytest.approx([4 / 3, 3 / 2, 2.0], abs=1e-12)
    assert [H[0, 0] for H in sol.H] == pytest.approx([1 / 3, 1 / 2, 1.0], abs=1e-12)
    assert [K[0, 0] for K in sol.K] == pytest.approx([-1 / 4, -1 / 3, -1 / 2], abs=1e-12)


def test_scalar_values_and_gains(scalar, scalar_solution):
    report = classify(scalar_solution)
    assert report.classification == UNIQUELY_SOLVABLE
    assert optimal_value(scalar_solution, 0, [1.0], report) == pytest.approx(0.25, abs=1e-12)
    assert optimal_value(scalar_solution, 1, [1.0], report) == pytest.approx(1 / 3, abs=1e-12)
    assert optimal_value(scalar_solution, 0, [0.0], report) == 0.0
    assert optimal_value(scalar_solution, 0, [-2.0], report) == pytest.approx(1.0, abs=1e-12)
    assert len(scalar_solution.K) == 3
    with pytest.raises(ValidationError):
        optimal_value(scalar_solution, 3, [1.0], report)  # no value stored at N


def test_zero_weights_give_zero_solution():
    prob = ProblemData(n=2, m=1, N=3, d=1,
                       A=[np.eye(2)] * 3, B=[np.ones((2, 1))] * 3,
                       C=[np.zeros((2, 2))] * 3, D=[np.zeros((2, 1))] * 3,
                       Q=[np.zeros((2, 2))] * 3, R=[np.eye(1)] * 3,
                       G=np.zeros((2, 2)))
    sol = solve_riccati(prob, 0)
    for M in sol.P.values():
        assert np.array_equal(M, np.zeros((2, 2)))
    for j in range(3):
        assert np.array_equal(sol.W[j], np.eye(1))
        assert np.array_equal(sol.H[j], np.zeros((1, 2)))
        assert np.array_equal(sol.K[j], np.zeros((1, 2)))


def test_undefined_index_is_an_error(scalar_solution):
    with pytest.raises(ValidationError, match="not defined"):
        scalar_solution.P_at(1, 0)
    with pytest.raises(ValidationError, match="not defined"):
        scalar_solution.P_at(3, 3)


def test_solution_blocks_are_a_read_only_view_of_one_buffer():
    """The kernel's P holds exactly the defined pairs, rejects any other key
    like a dict, cannot be assigned to, and reads every block from one
    buffer."""
    problem, t = draw_mixed(3)
    sol = solve_riccati(problem, t)
    defined = {(i, k) for k in range(t, problem.N + 1)
               for i in range(min(k - t, problem.d) + 1)}
    assert set(sol.P) == defined and len(sol.P) == len(defined)
    for key in [(problem.d + 1, problem.N), (-1, problem.N), (0, t - 1),
                (0, problem.N + 1), (0,), "0,0", None]:
        assert key not in sol.P
        with pytest.raises(KeyError):
            sol.P[key]
    with pytest.raises(TypeError):
        sol.P[(0, t)] = np.zeros((problem.n, problem.n))
    buffer = sol.P[(0, problem.N)].base
    assert buffer is not None
    assert all(M.base is buffer for M in sol.P.values())


# ---------------------------------------------------------------------------
# Piecewise vs single-region consistency

def _relative_dev(A, B):
    return float(np.max(np.abs(A - B))) / max(1.0, float(np.max(np.abs(B))))


@pytest.mark.parametrize("seed", range(12))
def test_piecewise_matches_single_region_variant(seed):
    problem, t = draw_mixed(seed)
    sol = solve_riccati(problem, t)
    bar = solve_riccati_bar(problem, t)
    N, d = problem.N, problem.d
    for j in range(N - t):
        assert _relative_dev(sol.W[j], bar.W[j]) <= 1e-10
        assert _relative_dev(sol.H[j], bar.H[j]) <= 1e-10
    for k in range(t, N + 1):
        r = min(k - t, d)
        # below the top index the two systems carry identical matrices
        for i in range(r):
            assert _relative_dev(sol.P[(i, k)], bar.P[(i, k)]) <= 1e-10
        # the piecewise top index absorbs the single-region tail
        tail = sum(bar.P[(j_, k)] for j_ in range(r, d + 1))
        assert _relative_dev(sol.P[(r, k)], tail) <= 1e-10
        # and the value-function weights agree
        assert _relative_dev(sol.P_sum(k), bar.P_sum(k)) <= 1e-10


@pytest.mark.parametrize("seed", range(8))
def test_recompute_wh_matches_stored(seed):
    problem, t = draw_mixed(seed)
    for sol in (solve_riccati(problem, t), solve_riccati_bar(problem, t)):
        for k in range(t, problem.N):
            Wk, Hk = recompute_wh(problem, sol, k)
            assert np.array_equal(Wk, sol.W_at(k))
            assert np.array_equal(Hk, sol.H_at(k))


def test_classify_evidence_matches_per_step_tests():
    """classify reads PD/PSD from one eigenvalue solve per step; its evidence
    and grade equal those of the per-step is_pd/is_psd/range_residual route."""
    instances = [draw_mixed(seed) for seed in range(30)]
    instances += [(range_deficient_problem(), 0), (notconvex_problem(0), 0)]
    for problem, t in instances:
        sol = solve_riccati(problem, t)
        report = classify(sol)
        for step, Wk, Hk in zip(report.steps, sol.W, sol.H, strict=True):
            assert step.w_min_eig == np.linalg.eigvalsh(Wk)[0]
            assert step.range_residual == range_residual(Hk, Wk)
        psd = all(is_psd(Wk) for Wk in sol.W)
        if all(is_pd(Wk) for Wk in sol.W):
            expected = UNIQUELY_SOLVABLE
        elif psd and all(range_residual(Hk, Wk) <= PSD_TOL for Hk, Wk in zip(sol.H, sol.W)):
            expected = SOLVABLE_ALL_PAIRS
        else:
            expected = CONVEX_CANDIDATE if psd else NOT_CONVEX
        assert report.classification == expected


def test_stored_matrices_are_exactly_symmetric():
    problem, t = draw_mixed(99)
    sol = solve_riccati(problem, t)
    for M in sol.P.values():
        assert np.array_equal(M, M.T)
    for W in sol.W:
        assert np.array_equal(W, W.T)


# ---------------------------------------------------------------------------
# The stacked kernel against a plain per-index loop

def _reference_backward(problem, t, Q, R, G, pinv_rtol, S=None, delta=None):
    """The backward pass as one matrix per (i, k) and one product per index:
    the arithmetic the stacked kernel must reproduce bit for bit."""
    n, N, d = problem.n, problem.N, problem.d
    P = {(0, N): G}
    for j in range(1, min(N - t, d) + 1):
        P[(j, N)] = np.zeros((n, n))
    W, H, K = [None] * (N - t), [None] * (N - t), [None] * (N - t)
    with np.errstate(all="ignore"):
        for k in range(N - 1, t - 1, -1):
            A, B, C, D = problem.A[k], problem.B[k], problem.C[k], problem.D[k]
            Psum = np.zeros((n, n))
            for i in range(min(k + 1 - t, d) + 1):
                Psum = Psum + P[(i, k + 1)]
            P0 = P[(0, k + 1)]
            Wk = symmetrize(R[k] + B.T @ Psum @ B + D.T @ P0 @ D)
            Hk = B.T @ Psum @ A + D.T @ P0 @ C
            if S is not None:
                Hk = Hk + S[k]
            Wdag = pinv(Wk, pinv_rtol)
            fold = symmetrize(Hk.T @ Wdag @ Hk)
            W[k - t], H[k - t], K[k - t] = Wk, Hk, -Wdag @ Hk
            nxt = P[(0, k + 1)] + P[(1, k + 1)] if d else P[(0, k + 1)]
            state_part = Q[k] + A.T @ nxt @ A + C.T @ P[(0, k + 1)] @ C
            r = min(k - t, d)
            if r == 0:
                P[(0, k)] = symmetrize(state_part - fold)
                continue
            P[(0, k)] = symmetrize(state_part)
            for i in range(1, r):
                P[(i, k)] = symmetrize(A.T @ P[(i + 1, k + 1)] @ A)
            if r == d:
                top = -fold if delta is None else delta[k] - fold
            else:
                top = A.T @ P[(r + 1, k + 1)] @ A
                top = (top if delta is None else delta[k] + top) - fold
            P[(r, k)] = symmetrize(top)
    return RiccatiSolution(t=t, N=N, d=d, n=n, m=problem.m, P=P,
                           W=tuple(W), H=tuple(H), K=tuple(K))


def _with_delay(problem, d):
    return ProblemData(n=problem.n, m=problem.m, N=problem.N, d=d, A=problem.A,
                       B=problem.B, C=problem.C, D=problem.D, Q=problem.Q,
                       R=problem.R, G=problem.G)


def _assert_identical(got, want):
    assert list(got.P) == list(want.P)
    for key in want.P:
        assert np.array_equal(got.P[key], want.P[key]), key
    for name in "WHK":
        pairs = zip(getattr(got, name), getattr(want, name), strict=True)
        assert all(np.array_equal(a, b) for a, b in pairs), name


def _long_delay_problem(seed, n, N, d, m=1):
    """A longer horizon than draw_mixed's, so that more than eight blocks
    enter one W/H sum."""
    rng = np.random.default_rng(seed)
    return ProblemData(
        n=n, m=m, N=N, d=d,
        A=[rng.normal(scale=0.6, size=(n, n)) for _ in range(N)],
        B=[rng.normal(scale=0.8, size=(n, m)) for _ in range(N)],
        C=[rng.normal(scale=0.4, size=(n, n)) for _ in range(N)],
        D=[rng.normal(scale=0.4, size=(n, m)) for _ in range(N)],
        Q=[sym_with_eigs(rng, n, -0.3, 1.2) for _ in range(N)],
        R=[sym_with_eigs(rng, m, 0.2, 1.5) for _ in range(N)],
        G=sym_with_eigs(rng, n, -0.2, 1.2),
    )


def _kernel_cases():
    for seed in range(20):
        problem, t = draw_mixed(seed)
        for d in sorted({0, 1, 2, problem.N}):
            yield _with_delay(problem, d), t
    for n in (1, 3):
        yield _long_delay_problem(n, n, 20, 12), 0
        yield _long_delay_problem(n, n, 20, 12), 3


def test_stacked_kernel_matches_per_index_loop():
    """Every P/W/H/K of solve_riccati equals the per-index loop's exactly,
    at d in {0, 1, 2, N}, at t > 0, and with more than eight blocks summed
    into W/H (n = 1 included)."""
    cases = list(_kernel_cases())
    assert any(t > 0 for _, t in cases)
    for problem, t in cases:
        want = _reference_backward(problem, t, problem.Q, problem.R,
                                   symmetrize(problem.G), PINV_RTOL)
        _assert_identical(solve_riccati(problem, t), want)


def _construct_with(backward, cand, problem, t, monkeypatch):
    """construct_from_candidate with lmei's kernel replaced by `backward`;
    returns the auxiliary recursion and the constructed solution."""
    aux = []

    def recording(*args, **kwargs):
        aux.append(backward(*args, **kwargs))
        return aux[-1]

    with monkeypatch.context() as patch:
        patch.setattr(lmei, "_backward", recording)
        sol = lmei.construct_from_candidate(cand, problem, t)
    return aux[0], sol


def test_stacked_kernel_matches_per_index_loop_on_construct(monkeypatch):
    """The cross-weight and top-correction path (construct_from_candidate's
    auxiliary recursion) with zero and certificate candidates."""
    from delq.riccati import _backward

    candidates = []
    for seed in range(6):
        problem = nonneg_problem(seed)
        candidates.append((problem, 0, lmei.zero_candidate(problem, 0)))
    for _, problem, t, sol in uniquely_solvable_instances(6, start_seed=40):
        candidates.append((problem, t, lmei.certificate_from_riccati(sol, problem)))
    problem = _long_delay_problem(5, 2, 20, 12)
    candidates.append((problem, 2, lmei.certificate_from_riccati(
        solve_riccati(problem, 2), problem)))
    assert any(t > 0 for _, t, _ in candidates)
    for problem, t, cand in candidates:
        aux, sol = _construct_with(_backward, cand, problem, t, monkeypatch)
        ref_aux, ref_sol = _construct_with(_reference_backward, cand, problem, t,
                                           monkeypatch)
        _assert_identical(aux, ref_aux)
        _assert_identical(sol, ref_sol)


# ---------------------------------------------------------------------------
# Delay-free case (d = 0): the same recursion with P^(0) only

def test_delay_free_frozen_example():
    prob = ProblemData(n=1, m=1, N=1, d=0, A=[[[1.0]]], B=[[[1.0]]],
                       C=[[[0.0]]], D=[[[0.0]]], Q=[[[0.0]]], R=[[[1.0]]],
                       G=[[1.0]])
    sol = solve_riccati(prob, 0)
    assert sol.d == 0
    assert set(sol.P) == {(0, 0), (0, 1)}
    assert sol.P_at(0, 1)[0, 0] == pytest.approx(1.0)
    assert sol.W[0][0, 0] == pytest.approx(2.0)
    assert sol.H[0][0, 0] == pytest.approx(1.0)
    assert sol.P_at(0, 0)[0, 0] == pytest.approx(0.5)
    steps = classify(sol).steps
    assert all(step.w_min_eig >= -PSD_TOL for step in steps)  # every W_k PSD
    assert all(step.range_residual <= PSD_TOL for step in steps)  # H_k in Ran(W_k)
    assert optimal_value(sol, 0, [1.0]) == pytest.approx(0.5)


def test_overflow_of_the_final_state_weight_is_a_breakdown():
    """W_0 and H_0 stay finite (B = 0) but P^(0)_0 = A^2 G overflows."""
    prob = ProblemData(n=1, m=1, N=1, d=0, A=[[[1e200]]], B=[[[0.0]]],
                       C=[[[0.0]]], D=[[[0.0]]], Q=[[[0.0]]], R=[[[1.0]]],
                       G=[[1.0]])
    with pytest.raises(ConsistencyError, match=r"non-finite P\^\(0\) at k=0"):
        solve_riccati(prob, 0)


def test_single_region_variant_at_zero_delay_is_the_piecewise_pass():
    problem, t = draw_mixed(5)
    problem = ProblemData(n=problem.n, m=problem.m, N=problem.N, d=0,
                          A=problem.A, B=problem.B, C=problem.C, D=problem.D,
                          Q=problem.Q, R=problem.R, G=problem.G)
    bar, sol = solve_riccati_bar(problem, t), solve_riccati(problem, t)
    assert bar.d == 0 and not bar.single_region
    assert set(bar.P) == {(0, k) for k in range(t, problem.N + 1)}
    for key in sol.P:
        assert np.array_equal(bar.P[key], sol.P[key])
    for name in "WHK":
        assert all(np.array_equal(a, b) for a, b in zip(getattr(bar, name), getattr(sol, name)))


def test_deterministic_system_value_is_delay_invariant():
    """With C = D = 0 the state is a deterministic function of the controls,
    so delayed information costs nothing: the optimal value from the root
    must agree with the delay-free value."""
    rng = np.random.default_rng(17)
    for _ in range(5):
        n, m, N = 2, 1, 4
        base = dict(
            A=[rng.normal(scale=0.7, size=(n, n)) for _ in range(N)],
            B=[rng.normal(size=(n, m)) for _ in range(N)],
            C=[np.zeros((n, n))] * N, D=[np.zeros((n, m))] * N,
            Q=[np.eye(n) * 0.5] * N, R=[np.eye(m)] * N, G=np.eye(n),
        )
        delayed = ProblemData(n=n, m=m, N=N, d=2, **base)
        free = ProblemData(n=n, m=m, N=N, d=0, **base)
        x = rng.normal(size=n)
        v1 = optimal_value(solve_riccati(delayed, 0), 0, x)
        v2 = optimal_value(solve_riccati(free, 0), 0, x)
        assert abs(v1 - v2) <= 1e-10 * max(1.0, abs(v2))


# ---------------------------------------------------------------------------
# Classification

def test_classification_ladder_ordering():
    assert classification_rank(UNIQUELY_SOLVABLE) > classification_rank(SOLVABLE_ALL_PAIRS)
    assert classification_rank(SOLVABLE_ALL_PAIRS) > classification_rank(CONVEX_CANDIDATE)
    assert classification_rank(CONVEX_CANDIDATE) > classification_rank(NOT_CONVEX)
    with pytest.raises(ValidationError):
        classification_rank("Sideways")


def test_classify_uniquely_solvable(benchmark_solution):
    report = classify(benchmark_solution)
    assert report.classification == UNIQUELY_SOLVABLE
    assert all(step.w_min_eig > 0 for step in report.steps)
    assert report.at_least(SOLVABLE_ALL_PAIRS)


def test_classify_zero_problem_is_solvable_all_pairs():
    prob = ProblemData(n=1, m=1, N=2, d=1, A=[[[0.0]]] * 2, B=[[[0.0]]] * 2,
                       C=[[[0.0]]] * 2, D=[[[0.0]]] * 2, Q=[[[0.0]]] * 2,
                       R=[[[0.0]]] * 2, G=[[0.0]])
    sol = solve_riccati(prob, 0)
    report = classify(sol)
    assert report.classification == SOLVABLE_ALL_PAIRS
    assert optimal_value(sol, 0, [3.0], report) == 0.0


def test_classify_not_convex_and_value_refusal():
    prob = notconvex_problem(0)
    sol = solve_riccati(prob, 0)
    report = classify(sol)
    assert report.classification == NOT_CONVEX
    assert min(step.w_min_eig for step in report.steps) < 0
    with pytest.raises(UnsolvableError, match="NotConvex"):
        optimal_value(sol, 0, np.ones(prob.n), report)


def test_classify_convex_candidate_range_failure():
    prob = range_deficient_problem()
    sol = solve_riccati(prob, 0)
    report = classify(sol)
    assert report.classification == CONVEX_CANDIDATE
    assert "oracle" in report.note
    assert report.steps[0].w_min_eig == pytest.approx(0.0, abs=1e-12)
    assert report.steps[0].range_residual == pytest.approx(1.0)
    with pytest.raises(UnsolvableError):
        optimal_value(sol, 0, [1.0], report)


# ---------------------------------------------------------------------------
# Benchmark gains

def test_benchmark_gains_match_reference_tables(benchmark_solution):
    for j in range(4):
        assert np.max(np.abs(benchmark_solution.K[j] - REFERENCE_GAINS[j])) <= 1e-3


# ---------------------------------------------------------------------------
# Serialization

def test_solution_json_round_trip(scalar, scalar_solution):
    report = classify(scalar_solution)
    data = json.loads(json.dumps(solution_to_dict(scalar_solution, report)))
    back, classification = solution_from_dict(data)
    assert classification == UNIQUELY_SOLVABLE
    assert set(back.P) == set(scalar_solution.P)
    for key in scalar_solution.P:
        assert np.array_equal(back.P[key], scalar_solution.P[key])
    # identical numbers end to end, not merely close
    assert optimal_value(back, 0, [1.0]) == optimal_value(scalar_solution, 0, [1.0])


def test_single_region_solution_json_round_trip():
    """The single-region flag is read back from the index set, so every
    block still enters P_sum after a round trip."""
    problem = _long_delay_problem(8, 2, 12, 3, m=2)
    for sol in (solve_riccati_bar(problem, 0), solve_riccati(problem, 2)):
        back, _ = solution_from_dict(json.loads(json.dumps(solution_to_dict(sol))))
        assert back.single_region == sol.single_region
        for k in range(sol.t, sol.N + 1):
            assert back.top_index(k) == sol.top_index(k)
            assert np.array_equal(back.P_sum(k), sol.P_sum(k))
    assert solve_riccati_bar(problem, 0).single_region


def test_undefined_index_message_names_the_defined_range():
    problem = _long_delay_problem(8, 2, 12, 3)
    with pytest.raises(ValidationError, match=r"at time 3: 0\.\.1\)"):
        solve_riccati(problem, 2).P_at(2, 3)
    with pytest.raises(ValidationError, match=r"at time 3: 0\.\.3\)"):
        solve_riccati_bar(problem, 2).P_at(4, 3)


def test_solution_from_dict_rejects_malformed():
    with pytest.raises(ValidationError, match="malformed"):
        solution_from_dict({"t": 0})
    with pytest.raises(ValidationError, match="malformed"):
        solution_from_dict({"t": 0, "d": 1, "N": 1, "P": {"zero,1": [[1.0]]},
                            "W": [], "H": [], "K": [], "classification": "x"})
    # no terminal block P^(0)_N, and a 0-d W entry
    with pytest.raises(ValidationError, match="malformed"):
        solution_from_dict({"t": 0, "d": 1, "N": 1, "P": {},
                            "W": [], "H": [], "K": [], "classification": "x"})
    with pytest.raises(ValidationError, match="malformed"):
        solution_from_dict({"t": 0, "d": 1, "N": 1, "P": {"0,1": [[1.0]]},
                            "W": [1.0], "H": [], "K": [], "classification": "x"})
    with pytest.raises(ValidationError, match="N - t = 2"):
        solution_from_dict({"t": 0, "d": 1, "N": 2, "P": {"0,2": [[1.0]]},
                            "W": [[[1.0]]], "H": [[[1.0]]], "K": [[[1.0]]],
                            "classification": "x"})
    with pytest.raises(ValidationError, match="H and K 1x1"):
        solution_from_dict({"t": 0, "d": 1, "N": 1, "P": {"0,1": [[1.0]]},
                            "W": [[[1.0]]], "H": [[[1.0, 2.0]]], "K": [[[1.0]]],
                            "classification": "x"})


# ---------------------------------------------------------------------------
# Optimality of the gains

def test_gain_policy_beats_random_perturbations(scalar, scalar_solution):
    """The pseudo-inverse gain policy attains the optimal value; every
    perturbed admissible policy costs at least as much (strictly convex
    here, so noticeably more)."""
    opt = exact_cost(scalar, 0, [1.0], feedback_policy(scalar_solution)).mean
    assert opt == pytest.approx(0.25, abs=1e-12)
    rng = np.random.default_rng(1)
    # the admissible set from x is spanned by open-loop controls here
    # (d = 2 >= N - 1 makes every control deterministic)
    for _ in range(100):
        pert = random_open_loop(scalar, 0, rng, scale=0.5)
        controls = [np.array([[-0.25]]) + p for p in pert.controls]
        from delq import OpenLoopPolicy
        cost = exact_cost(scalar, 0, [1.0], OpenLoopPolicy(t=0, d=2, controls=controls)).mean
        assert cost >= opt - 1e-10


def test_gain_policy_cost_matches_value_on_random_instances():
    for seed, problem, t, sol in uniquely_solvable_instances(6, start_seed=300):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=problem.n)
        val = optimal_value(sol, t, x)
        cost = exact_cost(problem, t, x, feedback_policy(sol)).mean
        assert abs(cost - val) <= 1e-10 * max(1.0, abs(val))
