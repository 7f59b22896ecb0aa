import json

import numpy as np
import pytest

from delq import (
    ProblemData,
    UnsolvableError,
    ValidationError,
    auxiliary_cost,
    build_tree,
    candidate_from_dict,
    candidate_to_dict,
    certificate_from_riccati,
    check_membership,
    construct_from_candidate,
    make_candidate,
    rollout,
    solve_riccati,
    trajectory_cost,
    zero_candidate,
)
from delq.lmei import correction_matrix, state_gap
from delq.riccati import _wh_from_next
from delq.model import random_open_loop

from conftest import (
    nonneg_problem,
    notconvex_problem,
    uniquely_solvable_instances,
)


def _max_rel_dev(got, want):
    scale = max(1.0, float(np.max(np.abs(want))))
    return float(np.max(np.abs(got - want))) / scale


# ---------------------------------------------------------------------------
# Candidate construction and validation

def test_candidate_key_lattice(scalar):
    cand = zero_candidate(scalar, 0)
    # indices 0..min(k - t, d) at each k = t..N
    assert set(cand.P) == {(0, 0), (0, 1), (1, 1), (0, 2), (1, 2), (2, 2),
                           (0, 3), (1, 3), (2, 3)}
    assert cand.top_index(0) == 0 and cand.top_index(2) == 2
    with pytest.raises(ValidationError, match="missing"):
        cand.P_at(1, 0)


def test_make_candidate_rejects_structural_defects(scalar):
    good = {key: np.zeros((1, 1)) for key in zero_candidate(scalar, 0).P}
    make_candidate(scalar, 0, good)

    missing = dict(good)
    del missing[(2, 2)]
    with pytest.raises(ValidationError, match="missing"):
        make_candidate(scalar, 0, missing)

    extra = dict(good)
    extra[(3, 2)] = np.zeros((1, 1))
    with pytest.raises(ValidationError, match="structure"):
        make_candidate(scalar, 0, extra)

    bad_shape = dict(good)
    bad_shape[(0, 1)] = np.zeros((2, 2))
    with pytest.raises(ValidationError, match="must be 1x1"):
        make_candidate(scalar, 0, bad_shape)

    bad_value = dict(good)
    bad_value[(0, 1)] = np.array([[np.nan]])
    with pytest.raises(ValidationError, match="finite"):
        make_candidate(scalar, 0, bad_value)


def test_make_candidate_rejects_asymmetry():
    prob = nonneg_problem(0, n=2)
    entries = {key: np.zeros((2, 2)) for key in zero_candidate(prob, 0).P}
    entries[(0, prob.N)] = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValidationError, match="symmetric"):
        make_candidate(prob, 0, entries)


def test_candidates_need_a_delay():
    prob = ProblemData(n=1, m=1, N=1, d=0, A=[[[1.0]]], B=[[[1.0]]],
                       C=[[[0.0]]], D=[[[0.0]]], Q=[[[0.0]]], R=[[[1.0]]],
                       G=[[1.0]])
    with pytest.raises(ValidationError, match="d"):
        zero_candidate(prob, 0)


def test_candidate_json_round_trip(scalar, scalar_solution):
    cand = certificate_from_riccati(scalar_solution, scalar)
    data = json.loads(json.dumps(candidate_to_dict(cand)))
    back = candidate_from_dict(scalar, data)
    assert set(back.P) == set(cand.P)
    for key in cand.P:
        assert np.array_equal(back.P[key], cand.P[key])
    with pytest.raises(ValidationError, match="malformed"):
        candidate_from_dict(scalar, {"t": 0, "P": {"x": [[1.0]]}})
    with pytest.raises(ValidationError, match="malformed"):
        candidate_from_dict(scalar, {"P": {}})
    with pytest.raises(ValidationError, match="malformed"):  # ragged matrix
        candidate_from_dict(scalar, {"t": 0, "P": {"0,0": [[1.0], [1.0, 2.0]]}})


# ---------------------------------------------------------------------------
# Membership checking

def test_certificate_is_feasible(scalar, scalar_solution):
    cand = certificate_from_riccati(scalar_solution, scalar)
    report = check_membership(cand, scalar, 0)
    assert report.feasible
    assert report.worst().margin >= -report.tol
    kinds = {c.kind for c in report.constraints}
    assert kinds == {"terminal_gap", "terminal_zero", "inequality",
                     "equality", "block"}


def test_certificate_is_feasible_on_benchmark(benchmark_problem_fixture,
                                              benchmark_solution):
    cand = certificate_from_riccati(benchmark_solution, benchmark_problem_fixture)
    report = check_membership(cand, benchmark_problem_fixture, 0)
    assert report.feasible


def test_zero_candidate_feasibility_tracks_data_sign(benchmark_problem_fixture):
    nonneg = nonneg_problem(3)
    assert check_membership(zero_candidate(nonneg, 0), nonneg, 0).feasible
    # indefinite data: the zero candidate violates a block constraint at k=0
    report = check_membership(zero_candidate(benchmark_problem_fixture, 0),
                              benchmark_problem_fixture, 0)
    assert not report.feasible
    worst = report.worst()
    assert worst.kind == "block" and worst.margin < -report.tol


def test_inflated_terminal_entry_breaks_feasibility(scalar, scalar_solution):
    cand = certificate_from_riccati(scalar_solution, scalar)
    entries = dict(cand.P)
    entries[(0, scalar.N)] = entries[(0, scalar.N)] + np.eye(1)  # above G
    report = check_membership(make_candidate(scalar, 0, entries), scalar, 0)
    assert not report.feasible
    assert any(c.kind == "terminal_gap" and not c.satisfied
               for c in report.constraints)


def test_certificate_refused_without_solvability():
    prob = notconvex_problem(1)
    sol = solve_riccati(prob, 0)
    with pytest.raises(UnsolvableError):
        certificate_from_riccati(sol, prob)


# ---------------------------------------------------------------------------
# Construction

def test_construct_reproduces_certificate_source():
    for _, problem, t, sol in uniquely_solvable_instances(5, start_seed=200):
        cand = certificate_from_riccati(sol, problem)
        built = construct_from_candidate(cand, problem, t)
        for key in sol.P:
            assert _max_rel_dev(built.P[key], sol.P[key]) <= 1e-8
        for j in range(len(sol.W)):
            assert _max_rel_dev(built.W[j], sol.W[j]) <= 1e-8
            assert _max_rel_dev(built.K[j], sol.K[j]) <= 1e-8


@pytest.mark.parametrize("seed", range(4))
def test_construct_from_zero_candidate_on_nonnegative_data(seed):
    problem = nonneg_problem(seed + 10)
    direct = solve_riccati(problem, 0)
    built = construct_from_candidate(zero_candidate(problem, 0), problem, 0)
    for key in direct.P:
        assert _max_rel_dev(built.P[key], direct.P[key]) <= 1e-8


def test_construct_on_all_zero_problem():
    prob = ProblemData(n=1, m=1, N=2, d=1, A=[[[0.0]]] * 2, B=[[[0.0]]] * 2,
                       C=[[[0.0]]] * 2, D=[[[0.0]]] * 2, Q=[[[0.0]]] * 2,
                       R=[[[0.0]]] * 2, G=[[0.0]])
    built = construct_from_candidate(zero_candidate(prob, 0), prob, 0)
    for M in built.P.values():
        assert np.max(np.abs(M)) == 0.0


def test_construct_refuses_infeasible_candidate(benchmark_problem_fixture):
    with pytest.raises(UnsolvableError, match="infeasible"):
        construct_from_candidate(zero_candidate(benchmark_problem_fixture, 0),
                                 benchmark_problem_fixture, 0)


# ---------------------------------------------------------------------------
# Auxiliary cost

def test_auxiliary_cost_offsets_true_cost_by_candidate_value():
    for seed, problem, t, sol in uniquely_solvable_instances(4, start_seed=240):
        cand = certificate_from_riccati(sol, problem)
        tree = build_tree(t, problem.N)
        rng = np.random.default_rng(seed)
        for k in range(t, problem.N):
            xi = rng.normal(size=problem.n)
            u = random_open_loop(problem, t, rng)
            aux = auxiliary_cost(cand, problem, t, k, xi, u, tree)
            J = trajectory_cost(problem, rollout(problem, tree, xi, u, start=k))
            offset = float(xi @ sum(cand.P_at(i, k)
                                    for i in range(cand.top_index(k) + 1)) @ xi)
            assert abs(aux - (J - offset)) <= 1e-10 * max(1.0, abs(J))


def test_auxiliary_cost_nonnegative_for_feasible_candidates():
    problem = nonneg_problem(21)
    cand = zero_candidate(problem, 0)
    assert check_membership(cand, problem, 0).feasible
    tree = build_tree(0, problem.N)
    rng = np.random.default_rng(0)
    for k in range(problem.N):
        for _ in range(5):
            xi = rng.normal(size=problem.n)
            u = random_open_loop(problem, 0, rng)
            assert auxiliary_cost(cand, problem, 0, k, xi, u, tree) >= -1e-9


def test_feasible_candidate_value_is_a_lower_bound():
    for seed, problem, t, sol in uniquely_solvable_instances(4, start_seed=260):
        cand = certificate_from_riccati(sol, problem)
        tree = build_tree(t, problem.N)
        rng = np.random.default_rng(seed)
        for k in range(t, problem.N):
            xi = rng.normal(size=problem.n)
            u = random_open_loop(problem, t, rng)
            J = trajectory_cost(problem, rollout(problem, tree, xi, u, start=k))
            bound = float(xi @ sum(cand.P_at(i, k)
                                   for i in range(cand.top_index(k) + 1)) @ xi)
            assert J >= bound - 1e-9


def test_auxiliary_cost_validates_start_time(scalar, scalar_solution):
    cand = certificate_from_riccati(scalar_solution, scalar)
    tree = build_tree(0, scalar.N)
    with pytest.raises(ValidationError, match="start time"):
        auxiliary_cost(cand, scalar, 0, scalar.N, np.ones(1),
                       random_open_loop(scalar, 0, np.random.default_rng(0)), tree)


# ---------------------------------------------------------------------------
# Helper algebra on candidates

def test_candidate_wh_and_gap_match_recursion_outputs(scalar, scalar_solution):
    cand = certificate_from_riccati(scalar_solution, scalar)
    for k in range(scalar.N):
        Wt, Ht = _wh_from_next(scalar, cand.P, k, min(k + 1, cand.d), scalar.R[k])
        assert Wt[0, 0] == pytest.approx(scalar_solution.W[k][0, 0], abs=1e-12)
        assert Ht[0, 0] == pytest.approx(scalar_solution.H[k][0, 0], abs=1e-12)
    # on the certificate the correction at each k >= t+1 exactly cancels the
    # completion-of-squares term, so the block upper-left is -H^T W^+ H + fold
    for k in range(1, scalar.N):
        delta = correction_matrix(cand, scalar, k)
        assert np.all(np.isfinite(delta))
    with pytest.raises(ValidationError):
        correction_matrix(cand, scalar, 0)


def test_state_gap_of_certificate_is_psd(scalar, scalar_solution):
    cand = certificate_from_riccati(scalar_solution, scalar)
    for k in range(1, scalar.N):
        gap = state_gap(cand, scalar, k)
        assert np.min(np.linalg.eigvalsh(gap)) >= -1e-12
