import json
import re

import numpy as np
import pytest

from delq import (
    ConsistencyError,
    DelqError,
    ProblemData,
    UnsolvableError,
    ValidationError,
    candidate_from_dict,
    candidate_to_dict,
    certificate_from_riccati,
    check_membership,
    construct_from_candidate,
    make_candidate,
    solve_riccati,
    solve_riccati_bar,
    zero_candidate,
)
from delq import dumps, lmei
from delq.jsontext import Records
from delq.linalg import (
    _as_matrix,
    _require_symmetric,
    eig_margin,
    is_psd,
    pinv,
    range_residual,
    rel_deviation,
    scale_floor,
    symmetrize,
)
from delq.lmei import (
    _CONSTRUCT_CONSISTENCY_TOL,
    LmeiReport,
)
from delq.riccati import (
    SOLVABLE_ALL_PAIRS,
    RiccatiSolution,
    _backward,
    _wh_from_next,
    classify,
    solution_from_dict,
)

from conftest import (
    draw_mixed,
    nonneg_problem,
    notconvex_problem,
    scalar_problem,
    uniquely_solvable_instances,
)
from identities import auxiliary_cost, random_open_loop, rollout, trajectory_cost


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


def test_make_candidate_reports_the_first_bad_entry_in_input_order():
    """Shape, finiteness and symmetry are checked in stacked calls, but the
    message still names the first defective entry in dict order."""
    prob = nonneg_problem(0, n=2)
    keys = list(zero_candidate(prob, 0).P)
    asym = np.array([[0.0, 1.0], [0.0, 0.0]])

    def entries(**bad):
        out = {key: np.zeros((2, 2)) for key in keys}
        for j, M in bad.items():
            out[keys[int(j[1:])]] = M
        return out

    with pytest.raises(ValidationError, match=rf"entry {re.escape(str(keys[1]))} is not symmetric"):
        make_candidate(prob, 0, entries(e1=asym, e4=np.zeros((1, 1))))
    with pytest.raises(ValidationError, match=rf"entry {re.escape(str(keys[1]))} must be 2x2"):
        make_candidate(prob, 0, entries(e1=np.zeros((1, 1)), e4=asym))
    with pytest.raises(ValidationError, match=rf"entry {re.escape(str(keys[2]))} contains non-finite"):
        make_candidate(prob, 0, entries(e2=np.full((2, 2), np.inf), e3=asym,
                                        e5=np.zeros(3)))
    with pytest.raises(ValidationError, match=rf"entry {re.escape(str(keys[0]))} is not symmetric"):
        make_candidate(prob, 0, entries(e0=asym, e2=np.full((2, 2), np.nan)))
    # entry defects come before the index structure
    bad = entries(e3=asym)
    del bad[keys[0]]
    with pytest.raises(ValidationError, match="not symmetric"):
        make_candidate(prob, 0, bad)


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
    data = json.loads(dumps(candidate_to_dict(cand)))
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


def test_candidate_json_rejects_two_keys_for_one_pair(scalar, scalar_solution):
    """"0,1" and "00,1" both name P~^(0)_1; the last one used to win, which
    turned the feasible certificate infeasible."""
    cand = certificate_from_riccati(scalar_solution, scalar)
    data = json.loads(dumps(candidate_to_dict(cand)))
    assert check_membership(candidate_from_dict(scalar, data), scalar, 0).feasible
    data["P"]["00,1"] = [[-5.0]]
    with pytest.raises(ValidationError,
                       match=r"malformed candidate JSON: keys '0,1' and '00,1' both name"):
        candidate_from_dict(scalar, data)


@pytest.mark.parametrize("t", [0.7, False, True, 1.0, "0", None])
def test_candidate_json_requires_an_integer_t(scalar, t):
    data = candidate_to_dict(zero_candidate(scalar, 0))
    data["t"] = t
    with pytest.raises(ValidationError, match="malformed candidate JSON: t must be an integer"):
        candidate_from_dict(scalar, data)


def test_solution_json_rejects_two_keys_for_one_pair(scalar_solution):
    from delq import solution_to_dict
    data = json.loads(dumps(solution_to_dict(scalar_solution)))
    data["P"]["0,01"] = data["P"]["0,1"]
    with pytest.raises(ValidationError,
                       match=r"malformed solution JSON: keys '0,1' and '0,01' both name"):
        solution_from_dict(data)


# ---------------------------------------------------------------------------
# Membership checking

def test_certificate_is_feasible(scalar, scalar_solution):
    cand = certificate_from_riccati(scalar_solution, scalar)
    report = check_membership(cand, scalar, 0)
    assert report.feasible
    assert report.worst()["margin"] >= -report.tol
    kinds = set(report.constraints.columns[0])
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
    assert worst["kind"] == "block" and worst["margin"] < -report.tol


def test_worst_is_the_first_row_of_least_margin():
    report = LmeiReport(feasible=False, tol=1e-9, constraints=Records(
        ("kind", "k", "i", "margin", "satisfied"),
        (["terminal_gap", "inequality", "block", "block"], [3, 1, 1, 2], [0, 0, None, None],
         [0.5, -2.0, 1.0, -2.0], [True, False, True, False])))
    assert report.worst() == {"kind": "inequality", "k": 1, "i": 0, "margin": -2.0,
                              "satisfied": False}


def test_inflated_terminal_entry_breaks_feasibility(scalar, scalar_solution):
    cand = certificate_from_riccati(scalar_solution, scalar)
    entries = dict(cand.P)
    entries[(0, scalar.N)] = entries[(0, scalar.N)] + np.eye(1)  # above G
    report = check_membership(make_candidate(scalar, 0, entries), scalar, 0)
    assert not report.feasible
    assert any(c["kind"] == "terminal_gap" and not c["satisfied"]
               for c in report.constraints)


def test_certificate_refused_without_solvability():
    prob = notconvex_problem(1)
    sol = solve_riccati(prob, 0)
    with pytest.raises(UnsolvableError):
        certificate_from_riccati(sol, prob)


def test_certificate_is_the_kernel_buffer():
    """A certificate takes the backward kernel's array as it is: the same
    floats, in the same layout, as re-stacking dict(sol.P) through
    make_candidate, in a copy that does not alias the solution."""
    for _, problem, t, sol in uniquely_solvable_instances(5, start_seed=200):
        cand = certificate_from_riccati(sol, problem)
        want = make_candidate(problem, t, dict(sol.P))
        assert np.array_equal(cand.P.array, want.P.array)
        assert list(cand.P) == list(want.P)
        assert not np.shares_memory(cand.P.array, sol.P.array)


def test_certificate_refuses_the_single_region_variant():
    """The single-region solution carries every index at every time, which
    is not a candidate's layout: it is refused by name, not by a mismatch of
    index structure."""
    for _, problem, t, sol in uniquely_solvable_instances(3, start_seed=200):
        assert problem.d >= 1
        with pytest.raises(ValidationError, match=r"not the single-region variant's "
                           r"\(solve_riccati_bar\)$"):
            certificate_from_riccati(solve_riccati_bar(problem, t), problem)


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
        rng = np.random.default_rng(seed)
        for k in range(t, problem.N):
            xi = rng.normal(size=problem.n)
            u = random_open_loop(problem, t, rng)
            aux = auxiliary_cost(cand, problem, t, k, xi, u)
            J = trajectory_cost(problem, rollout(problem, t, xi, u, start=k))
            offset = float(xi @ sum(cand.P_at(i, k)
                                    for i in range(cand.top_index(k) + 1)) @ xi)
            assert abs(aux - (J - offset)) <= 1e-10 * max(1.0, abs(J))


def test_auxiliary_cost_nonnegative_for_feasible_candidates():
    problem = nonneg_problem(21)
    cand = zero_candidate(problem, 0)
    assert check_membership(cand, problem, 0).feasible
    rng = np.random.default_rng(0)
    for k in range(problem.N):
        for _ in range(5):
            xi = rng.normal(size=problem.n)
            u = random_open_loop(problem, 0, rng)
            assert auxiliary_cost(cand, problem, 0, k, xi, u) >= -1e-9


def test_feasible_candidate_value_is_a_lower_bound():
    for seed, problem, t, sol in uniquely_solvable_instances(4, start_seed=260):
        cand = certificate_from_riccati(sol, problem)
        rng = np.random.default_rng(seed)
        for k in range(t, problem.N):
            xi = rng.normal(size=problem.n)
            u = random_open_loop(problem, t, rng)
            J = trajectory_cost(problem, rollout(problem, t, xi, u, start=k))
            bound = float(xi @ sum(cand.P_at(i, k)
                                   for i in range(cand.top_index(k) + 1)) @ xi)
            assert J >= bound - 1e-9


def test_auxiliary_cost_validates_start_time(scalar, scalar_solution):
    cand = certificate_from_riccati(scalar_solution, scalar)
    with pytest.raises(ValidationError, match="start time"):
        auxiliary_cost(cand, scalar, 0, scalar.N, np.ones(1),
                       random_open_loop(scalar, 0, np.random.default_rng(0)))


# ---------------------------------------------------------------------------
# Helper algebra on candidates: the per-step slack, which the stacked pass
# computes for all steps at once

def state_gap(cand, problem, k):
    """Q_k + A^T (P~^(0)+P~^(1))_{k+1} A + C^T P~^(0)_{k+1} C - P~^(0)_k:
    the slack of the relaxed P~^(0) recursion (must be PSD for k > t; at
    k = t it is the upper-left entry of the block constraint)."""
    A, C = problem.A[k], problem.C[k]
    inner = cand.P_at(0, k + 1) + cand.P_at(1, k + 1)
    return symmetrize(
        problem.Q[k] + A.T @ inner @ A + C.T @ cand.P_at(0, k + 1) @ C - cand.P_at(0, k)
    )


def correction_matrix(cand, problem, k):
    """Upper-left entry of the block constraint for k > t:
    -P~^(d)_k deep in the horizon, A^T P~^(k+1-t)_{k+1} A - P~^(k-t)_k in the
    ramp-up region t < k < t+d."""
    t, d = cand.t, cand.d
    if k <= t:
        raise ValidationError("no correction matrix at the initial time")
    r = min(k - t, d)
    if r == d:
        return symmetrize(-cand.P_at(d, k))
    A = problem.A[k]
    return symmetrize(A.T @ cand.P_at(r + 1, k + 1) @ A - cand.P_at(r, k))


def test_candidate_wh_and_gap_match_recursion_outputs(scalar, scalar_solution):
    cand = certificate_from_riccati(scalar_solution, scalar)
    for k in range(scalar.N):
        Wt, Ht = _wh_from_next(scalar, cand.P.array[k + 1], k, scalar.R[k])
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


# ---------------------------------------------------------------------------
# The stacked layer against the per-constraint loop it replaced

def _reference_schur_block(S, H, W, tol):
    """The Schur block test as one call per block, both routes and the gray
    band (the arithmetic the stacked test must reproduce)."""
    S = _require_symmetric(S, "S")
    W = _require_symmetric(W, "W")
    H = _as_matrix(H, "H")
    assembled = np.block([[S, H.T], [H, W]])
    block = eig_margin(assembled)[1]
    w_min = eig_margin(W)[1]
    resid = range_residual(H, W)
    comp = eig_margin(S - H.T @ pinv(W) @ H)[0] / scale_floor(assembled)

    def _triple(t: float) -> bool:
        return w_min >= -t and resid <= t and comp >= -t

    direct, triple = block >= -tol, _triple(tol)
    if direct != triple:
        if not (block >= -100.0 * tol and _triple(100.0 * tol)):
            raise ConsistencyError(
                "schur_block_psd: direct block test and Schur-complement "
                f"triple disagree (direct={direct}, triple={triple})"
            )
    return direct, block


def _reference_check_membership(cand, problem, t, tol=1e-9):
    """check_membership as one verdict call per constraint, each appended to
    the report's columns."""
    columns = ([], [], [], [], [])

    def add(kind, k, i, margin, satisfied=None):
        ok = (margin >= -tol) if satisfied is None else satisfied
        for column, value in zip(columns, (kind, k, i, margin, ok)):
            column.append(value)

    N, d = cand.N, cand.d
    add("terminal_gap", N, 0, eig_margin(problem.G - cand.P_at(0, N))[1])
    for j in range(1, min(N - t, d) + 1):
        add("terminal_zero", N, j, -rel_deviation(cand.P_at(j, N), 0.0))

    for k in range(t, N):
        W, H = _wh_from_next(problem, cand.P.array[k + 1 - t], k, problem.R[k])
        if k == t:
            upper = state_gap(cand, problem, k)
        else:
            add("inequality", k, 0, eig_margin(state_gap(cand, problem, k))[1])
            r = min(k - t, d)
            for i in range(1, r):
                lhs = cand.P_at(i, k)
                rhs = problem.A[k].T @ cand.P_at(i + 1, k + 1) @ problem.A[k]
                add("equality", k, i, -rel_deviation(lhs - rhs, rhs))
            upper = correction_matrix(cand, problem, k)
        block_ok, margin = _reference_schur_block(upper, H, W, tol)
        add("block", k, None, margin, satisfied=block_ok)

    return LmeiReport(feasible=all(columns[4]), tol=tol, constraints=Records(
        ("kind", "k", "i", "margin", "satisfied"), columns))


def _reference_construct(cand, problem, t, tol=1e-9, pinv_rtol=1e-12):
    """construct_from_candidate with per-step W/H checks and a per-key P."""
    report = _reference_check_membership(cand, problem, t, tol)
    if not report.feasible:
        worst = report.worst()
        raise UnsolvableError(
            "candidate is infeasible: worst constraint "
            f"{worst['kind']} at k={worst['k']} (margin {worst['margin']:.3e})"
        )
    n, N, d = cand.n, cand.N, cand.d
    # the kernel's per-step inputs, indexed by step k - t (delta[0] is unused)
    Q_aux = [state_gap(cand, problem, k) for k in range(t, N)]
    W_cand, H_cand = zip(*(_wh_from_next(problem, cand.P.array[k + 1 - t], k, problem.R[k])
                           for k in range(t, N)))
    delta = [None] + [correction_matrix(cand, problem, k) for k in range(t + 1, N)]
    G_aux = symmetrize(problem.G - cand.P_at(0, N))
    aux = lmei._backward(problem, t, Q_aux, W_cand, G_aux, pinv_rtol, S=H_cand,
                         delta=delta)

    P = {key: symmetrize(cand.P[key] + aux.P[key]) for key in cand.P}
    W_fin, H_fin, K_fin = [], [], []
    for k in range(t, N):
        Pn = np.stack([P[(i, k + 1)] for i in range(min(k + 1 - t, d) + 1)])
        Wk, Hk = _wh_from_next(problem, Pn, k, problem.R[k])
        dW = rel_deviation(Wk - aux.W[k - t], Wk)
        dH = rel_deviation(Hk - aux.H[k - t], Hk)
        if max(dW, dH) > _CONSTRUCT_CONSISTENCY_TOL:
            raise ConsistencyError(
                f"constructed solution disagrees with auxiliary recursion at k={k}: "
                f"W deviation {dW:.3e}, H deviation {dH:.3e}"
            )
        if not is_psd(Wk, max(tol, 100 * _CONSTRUCT_CONSISTENCY_TOL)):
            raise ConsistencyError(f"constructed W_{k} is not PSD (numerical breakdown)")
        rr = range_residual(Hk, Wk)
        if rr > max(tol, 100 * _CONSTRUCT_CONSISTENCY_TOL):
            raise ConsistencyError(
                f"constructed H_{k} leaves the range of W_{k} (residual {rr:.3e})"
            )
        W_fin.append(Wk)
        H_fin.append(Hk)
        K_fin.append(-pinv(Wk, pinv_rtol) @ Hk)
    sums = [sum((P[(i, k)] for i in range(min(k - t, d) + 1)), np.zeros((n, n)))
            for k in range(t, N + 1)]
    return RiccatiSolution(t=t, N=N, d=d, n=n, m=problem.m, P=P, Psum=np.array(sums),
                           W=tuple(W_fin), H=tuple(H_fin), K=tuple(K_fin))


def _perturbed(cand, problem, seed, scale=1e-3):
    """The candidate with every entry moved by a small symmetric matrix."""
    rng = np.random.default_rng(seed)
    entries = {}
    for key, M in cand.P.items():
        E = rng.normal(scale=scale, size=M.shape)
        entries[key] = M + E + E.T
    return make_candidate(problem, cand.t, entries)


def _parity_cases():
    """(problem, t, candidate): zero, certificate and perturbed candidates,
    t > 0, ramp-up horizons N - t <= d, d = 1, longer horizons."""
    cases = []
    for seed in range(8):
        problem = nonneg_problem(seed)
        cases.append((problem, 0, zero_candidate(problem, 0)))
    for seed in range(10):
        problem, t = draw_mixed(seed)
        cases.append((problem, t, zero_candidate(problem, t)))
    for seed, problem, t, sol in uniquely_solvable_instances(8, start_seed=300):
        cand = certificate_from_riccati(sol, problem)
        cases += [(problem, t, cand), (problem, t, _perturbed(cand, problem, seed))]
    for j, (n, m, horizon, d, t) in enumerate([(2, 1, 12, 1, 3), (2, 2, 10, 4, 2),
                                                (1, 1, 6, 6, 1), (3, 2, 16, 9, 0),
                                                (2, 1, 5, 5, 3), (1, 2, 14, 11, 4)]):
        problem = nonneg_problem(60 + j, n=n, m=m, horizon=horizon, d=d)
        sol = solve_riccati(problem, t)
        cases.append((problem, t, zero_candidate(problem, t)))
        if classify(sol).at_least(SOLVABLE_ALL_PAIRS):
            cand = certificate_from_riccati(sol, problem)
            cases += [(problem, t, cand), (problem, t, _perturbed(cand, problem, j))]
    return cases


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DelqError as exc:
        return type(exc), str(exc)


def test_stacked_layer_matches_per_constraint_loop():
    """Every row (kind, k, i, margin, satisfied) of the report's columns,
    the report order, every constructed P/W/H/K and every refusal equal the
    per-constraint loop's exactly."""
    cases = _parity_cases()
    feasible = 0
    for problem, t, cand in cases:
        got = check_membership(cand, problem, t)
        want = _reference_check_membership(cand, problem, t)
        assert got.constraints.keys == want.constraints.keys
        for column, ref in zip(got.constraints.columns, want.constraints.columns, strict=True):
            assert type(column) is list and column == ref
        assert got.feasible is want.feasible
        kinds, ks, indices, margins, satisfied = got.constraints.columns
        assert all(type(k) is int for k in ks)
        assert all(i is None if kind == "block" else type(i) is int
                   for kind, i in zip(kinds, indices))
        assert all(type(margin) is float for margin in margins)
        assert all(type(ok) is bool for ok in satisfied)
        built = _outcome(construct_from_candidate, cand, problem, t)
        ref = _outcome(_reference_construct, cand, problem, t)
        if isinstance(ref, tuple):
            assert built == ref
            continue
        feasible += 1
        assert list(built.P) == list(ref.P)
        for key in ref.P:
            assert np.array_equal(built.P[key], ref.P[key]), key
        for name in ("Psum", "W", "H", "K"):
            pairs = zip(getattr(built, name), getattr(ref, name), strict=True)
            assert all(np.array_equal(a, b) for a, b in pairs), name
    # the cases cover what they claim
    assert 0 < feasible < len(cases)
    assert any(t > 0 for _, t, _ in cases)
    assert any(problem.N - t <= problem.d for problem, t, _ in cases)
    assert any(problem.d == 1 for problem, _, _ in cases)
    assert any(problem.N - t > problem.d + 5 for problem, t, _ in cases)


def test_check_membership_makes_a_fixed_number_of_decompositions(monkeypatch):
    """The constraints are graded in stacked calls: as many eigvalsh (and
    svd) calls at N = 20 as at N = 200. The slack pass and the construction
    outside the backward kernel are stacked too: as many symmetrize and
    _wh_into calls at N = 20 as at N = 200."""
    counts, built = [], []
    for horizon in (20, 200):
        problem = nonneg_problem(7, n=2, m=2, horizon=horizon, d=6)
        cand = zero_candidate(problem, 0)
        calls = {"eigvalsh": 0, "svd": 0}
        stacked = {"symmetrize": 0, "_wh_into": 0}

        def counting(name, fn, tally=calls):
            def wrapper(*args, **kwargs):
                tally[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        with monkeypatch.context() as patch:
            # np.linalg.pinv calls svd through numpy's own module, so patch both.
            for module in (np.linalg, getattr(np.linalg, "_linalg", None)):
                if module is not None:
                    for name in calls:
                        patch.setattr(module, name, counting(name, getattr(module, name)))
            # lmei's own names: the backward kernel calls riccati's.
            for name in stacked:
                patch.setattr(lmei, name, counting(name, getattr(lmei, name), stacked))
            assert len(check_membership(cand, problem, 0).constraints) > horizon
            counts.append(dict(calls))
            checked = dict(stacked)
            assert len(construct_from_candidate(cand, problem, 0).W) == horizon
        built.append((checked, {name: stacked[name] - checked[name] for name in stacked}))
    assert counts[0] == counts[1]
    assert counts[0]["eigvalsh"] > 0
    assert built[0] == built[1]
    for tally in built[0]:
        assert tally["symmetrize"] > 0 and tally["_wh_into"] > 0


def test_overflowing_symmetrization_is_a_numerical_breakdown():
    """A finite entry whose symmetrized value (S + S^T)/2 overflows is refused
    when the candidate is made, naming the earliest such step."""
    scalar = scalar_problem()
    entries = dict(zero_candidate(scalar, 0).P)
    entries[(0, 1)] = np.array([[1e308]])
    entries[(1, 2)] = np.array([[-1e308]])
    entries[(0, 3)] = np.array([[1e308]])
    with pytest.raises(ConsistencyError, match=r"numerical breakdown: "
                       r"non-finite symmetrized candidate P~\^\(0\) at k=1$"):
        make_candidate(scalar, 0, entries)
    del entries[(0, 1)]
    entries = {(0, 1): np.array([[0.0]]), **entries}
    with pytest.raises(ConsistencyError, match=r"candidate P~\^\(1\) at k=2$"):
        make_candidate(scalar, 0, entries)


def test_overflowing_slack_is_a_numerical_breakdown():
    """Finite candidates whose slack arithmetic overflows raise
    ConsistencyError naming the earliest step, the terminal gap counting as
    k = N."""
    one = [[[1.0]]] * 3
    wide = ProblemData(n=1, m=1, N=3, d=2, A=[[[1e5]]] * 3, B=one, C=one, D=one,
                       Q=one, R=one, G=[[1.0]])
    entries = dict(zero_candidate(wide, 0).P)
    entries[(0, 2)] = np.array([[1e300]])  # A^T P~^(0)_2 A = 1e310
    cand = make_candidate(wide, 0, entries)
    assert np.isfinite(cand.P.array).all()
    for fn in (check_membership, construct_from_candidate):
        with pytest.raises(ConsistencyError,
                           match=r"numerical breakdown: non-finite candidate slack at k=1$"):
            fn(cand, wide, 0)
    # three finite blocks at time 2 whose sum overflows W~_1 = R + B^T (sum P) B
    scalar = scalar_problem()
    entries = dict(zero_candidate(scalar, 0).P)
    for i in range(3):
        entries[(i, 2)] = np.array([[8e307]])
    with pytest.raises(ConsistencyError, match=r"non-finite candidate slack at k=1$"):
        check_membership(make_candidate(scalar, 0, entries), scalar, 0)
    big_g = ProblemData(n=1, m=1, N=3, d=2, A=scalar.A, B=scalar.B, C=scalar.C,
                        D=scalar.D, Q=scalar.Q, R=scalar.R, G=[[1e308]])
    entries = dict(zero_candidate(big_g, 0).P)
    entries[(0, 3)] = np.array([[-8e307]])
    with pytest.raises(ConsistencyError, match=r"non-finite candidate slack at k=3$"):
        check_membership(make_candidate(big_g, 0, entries), big_g, 0)


def _reference_breakdown(cand, problem, t):
    """The step the per-step slack loop names for a candidate with
    non-finite slack: the earliest k whose W~, H~, state gap, block
    upper-left entry or middle-index residual is not finite, else N for a
    non-finite symmetrized terminal gap; None when every quantity is finite."""
    N, d = cand.N, cand.d
    with np.errstate(all="ignore"):
        for k in range(t, N):
            W, H = _wh_from_next(problem, cand.P.array[k + 1 - t], k, problem.R[k])
            quantities = [W, H, state_gap(cand, problem, k)]
            if k > t:
                quantities.append(correction_matrix(cand, problem, k))
                A = problem.A[k]
                quantities += [cand.P_at(i, k) - A.T @ cand.P_at(i + 1, k + 1) @ A
                               for i in range(1, min(k - t, d))]
            if not all(np.isfinite(M).all() for M in quantities):
                return k
        if not np.isfinite(symmetrize(problem.G - cand.P_at(0, N))).all():
            return N
    return None


def test_overflow_at_an_interior_step_names_that_step():
    """The stacked pass maps its rows back to steps by index arithmetic: a
    candidate whose only non-finite slack is a middle-index residual deep in
    the horizon, or a ramp-up correction, is refused at the step the
    per-step loop names. A_k = 1e5 with B_k = 0 lets A^T P~^(i)_{k+1} A
    overflow while W~_k, H~_k and the state gap stay finite."""
    t, N, d = 1, 9, 4
    for k, i, quantity in ((6, 3, "equality"), (3, 3, "correction")):
        A, B = np.ones((N, 1, 1)), np.ones((N, 1, 1))
        A[k], B[k] = 1e5, 0.0
        one = np.ones((N, 1, 1))
        problem = ProblemData(n=1, m=1, N=N, d=d, A=A, B=B, C=one, D=one, Q=one, R=one,
                              G=[[1.0]])
        entries = dict(zero_candidate(problem, t).P)
        entries[(i, k + 1)] = np.array([[1e300]])
        cand = make_candidate(problem, t, entries)
        assert _reference_breakdown(cand, problem, t) == k, quantity
        # the overflowing quantity is the one this case is about
        with np.errstate(over="ignore"):
            if quantity == "equality":
                assert k - t >= d and not np.isfinite(A[k].T @ cand.P_at(i, k + 1) @ A[k]).all()
            else:
                assert t < k < t + d and i == k - t + 1
                assert not np.isfinite(correction_matrix(cand, problem, k)).all()
        for fn in (check_membership, construct_from_candidate):
            with pytest.raises(ConsistencyError,
                               match=rf"numerical breakdown: non-finite candidate slack at k={k}$"):
                fn(cand, problem, t)


def test_overflowing_margin_is_a_numerical_breakdown():
    """Finite slack can still have an eigenvalue beyond the float range:
    P~^(0)_1 = 7e307 * ones(3, 3) gives the inequality at k = 1 the
    eigenvalue 1 - 2.1e308, whose margin -inf / inf is NaN. No NaN margin
    reaches a report; check and construct name the step instead."""
    n = 3
    eye, zero = np.eye(n), np.zeros((n, n))
    problem = ProblemData(n=n, m=1, N=2, d=1, A=[zero, eye],
                          B=[np.zeros((n, 1)), np.ones((n, 1))], C=[zero, zero],
                          D=[np.zeros((n, 1))] * 2, Q=[eye, eye], R=[[[1.0]]] * 2, G=eye)
    entries = dict(zero_candidate(problem, 0).P)
    entries[(0, 1)] = np.full((n, n), 7e307)
    cand = make_candidate(problem, 0, entries)
    for fn in (check_membership, construct_from_candidate):
        with pytest.raises(ConsistencyError,
                           match=r"numerical breakdown: non-finite inequality margin at k=1$"):
            fn(cand, problem, 0)


def test_overflowing_construction_is_a_numerical_breakdown(monkeypatch):
    """P = P~ + U and the W/H recomputed from it are checked for overflow in
    one call each; the earliest non-finite step is named."""
    scalar = scalar_problem()
    cand = certificate_from_riccati(solve_riccati(scalar, 0), scalar)

    def inflating(times, value):
        def backward(*args, **kwargs):
            aux = _backward(*args, **kwargs)
            for k in times:
                aux.P.array[k - aux.t, :aux.top_index(k) + 1] = value
            return aux
        return backward

    monkeypatch.setattr(lmei, "_backward", inflating((3, 2), 1e308))
    with pytest.raises(ConsistencyError, match=r"non-finite P at k=2$"):
        construct_from_candidate(cand, scalar, 0)
    # finite P whose three blocks at time 3 overflow W_2 = R + B^T (sum P) B
    monkeypatch.setattr(lmei, "_backward", inflating((3,), 8e307))
    with pytest.raises(ConsistencyError, match=r"non-finite W/H at k=2$"):
        construct_from_candidate(cand, scalar, 0)


def test_construct_names_the_first_disagreeing_step_like_the_loop(monkeypatch):
    """An auxiliary recursion whose W disagrees with the W recomputed from
    P = P~ + U is refused at the same step, with the same message, as by
    the per-step loop."""
    problem = nonneg_problem(3, n=2, m=2, horizon=9, d=3)
    cand = zero_candidate(problem, 1)

    def skewed(*args, **kwargs):
        aux = _backward(*args, **kwargs)
        W = list(aux.W)
        for j in (5, 2):
            W[j] = W[j] * (1.0 + 1e-6)
        return RiccatiSolution(t=aux.t, N=aux.N, d=aux.d, n=aux.n, m=aux.m, P=aux.P,
                               Psum=aux.Psum, W=tuple(W), H=aux.H, K=aux.K)

    monkeypatch.setattr(lmei, "_backward", skewed)
    got = _outcome(construct_from_candidate, cand, problem, 1)
    assert got == _outcome(_reference_construct, cand, problem, 1)
    assert got[0] is ConsistencyError and "disagrees with auxiliary recursion at k=3" in got[1]
