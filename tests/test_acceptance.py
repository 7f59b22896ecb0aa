"""End-to-end acceptance suite.

Each test covers one numbered criterion and prints exactly one line

    ACCEPTANCE <n>: PASS|FAIL (<detail>)

(visible under ``pytest -s``) before asserting, so a red run still reports
every criterion's measured numbers.
"""
import time

import numpy as np

from delq import (
    SOLVABLE_ALL_PAIRS,
    assemble_quadratic,
    certificate_from_riccati,
    classify,
    construct_from_candidate,
    feedback_policy,
    is_pd,
    monte_carlo_cost,
    optimal_value,
    oracle_minimize,
    solve_riccati,
    solve_riccati_bar,
    zero_candidate,
)
from delq.worked_example import (
    GAIN_ANCHOR_TOL,
    REFERENCE_GAINS,
    REFERENCE_W,
    W_ANCHOR_TOL,
    benchmark_problem,
)

from conftest import nonneg_problem, notconvex_problem, uniquely_solvable_instances
from identities import (
    apply_operators,
    cost_decomposition_check,
    cost_difference_residual,
    decoupling_residual,
    process_inner,
    random_open_loop,
    rollout,
    stationary_residual,
    terminal_inner,
    trajectory_cost,
)

_POPULATION: list | None = None
_POPULATION_SECONDS = 0.0


def _population():
    """>= 200 mixed-sign UniquelySolvable instances, generated once."""
    global _POPULATION, _POPULATION_SECONDS
    if _POPULATION is None:
        start = time.perf_counter()
        _POPULATION = uniquely_solvable_instances(200)
        _POPULATION_SECONDS = time.perf_counter() - start
    return _POPULATION


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number}: {detail}"


def _rel_dev(got, want) -> float:
    scale = max(1.0, float(np.max(np.abs(want))))
    return float(np.max(np.abs(np.asarray(got) - np.asarray(want)))) / scale


def test_criterion_1_benchmark_anchor():
    start = time.perf_counter()
    prob = benchmark_problem()
    sol = solve_riccati(prob, 0)
    w3_dev = float(np.max(np.abs(sol.W[3] - REFERENCE_W[3])))
    k3_dev = float(np.max(np.abs(sol.K[3] - REFERENCE_GAINS[3])))
    all_pd = all(is_pd(W) for W in sol.W)
    elapsed = time.perf_counter() - start
    ok = w3_dev <= W_ANCHOR_TOL and k3_dev <= GAIN_ANCHOR_TOL and all_pd \
        and elapsed < 1.0
    _report(1, ok,
            f"W3 dev {w3_dev:.1e} <= {W_ANCHOR_TOL}, K3 dev {k3_dev:.1e} <= "
            f"{GAIN_ANCHOR_TOL}, all W_k PD: {all_pd}, {elapsed:.2f}s < 1s")


def test_criterion_2_oracle_equivalence():
    start = time.perf_counter()
    population = _population()
    worst = 0.0
    for seed, problem, t, sol in population:
        rng = np.random.default_rng(seed + 10_000)
        for _ in range(5):
            x = rng.normal(size=problem.n)
            out = oracle_minimize(assemble_quadratic(problem, t, x))
            assert out.bounded, f"oracle unbounded on solvable seed {seed}"
            val = optimal_value(sol, t, x)
            worst = max(worst, abs(out.value - val) / max(1.0, abs(val)))
    elapsed = time.perf_counter() - start + _POPULATION_SECONDS
    ok = len(population) >= 200 and worst <= 1e-8 and elapsed < 60.0
    _report(2, ok,
            f"{len(population)} instances x 5 states, worst rel dev "
            f"{worst:.1e} <= 1e-8, {elapsed:.1f}s < 60s")


def test_criterion_3_unboundedness_detection():
    disagreements = 0
    count = 20
    for seed in range(count):
        problem = notconvex_problem(seed)
        sol = solve_riccati(problem, 0)
        report = classify(sol)
        out = oracle_minimize(assemble_quadratic(problem, 0, np.ones(problem.n)))
        if report.classification != "NotConvex" or out.bounded:
            disagreements += 1
    ok = disagreements == 0
    _report(3, ok, f"{count} instances, {disagreements} disagreements")


def test_criterion_4_stationarity_and_decoupling():
    worst_stat = worst_dec = 0.0
    for seed, problem, t, sol in _population():
        rng = np.random.default_rng(seed + 20_000)
        x = rng.normal(size=problem.n)
        worst_stat = max(worst_stat,
                         stationary_residual(problem, t, x, feedback_policy(sol)))
        worst_dec = max(worst_dec, decoupling_residual(problem, t, x, sol))
    ok = worst_stat <= 1e-9 and worst_dec <= 1e-8
    _report(4, ok,
            f"{len(_population())} instances, stationarity {worst_stat:.1e} "
            f"<= 1e-9, decoupling {worst_dec:.1e} <= 1e-8")


def test_criterion_5_identity_suites():
    worst_decomp = worst_diff = worst_adjoint = 0.0
    worst_bound = np.inf
    instances = _population()[:20]
    for seed, problem, t, sol in instances:
        cand = certificate_from_riccati(sol, problem)
        rng = np.random.default_rng(seed + 30_000)
        for _ in range(100):
            u = random_open_loop(problem, t, rng)
            x = rng.normal(size=problem.n)

            worst_decomp = max(worst_decomp,
                               cost_decomposition_check(problem, t, u, sol))

            v = random_open_loop(problem, t, rng)
            lam = float(rng.normal())
            worst_diff = max(worst_diff,
                             cost_difference_residual(problem, t, x, u, v, lam))

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
                worst_adjoint = max(
                    worst_adjoint,
                    abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))

            k = int(rng.integers(t, problem.N))
            xi0 = rng.normal(size=problem.n)
            J = trajectory_cost(problem, rollout(problem, t, xi0, u, start=k))
            bound = float(xi0 @ sum(cand.P_at(i, k)
                                    for i in range(cand.top_index(k) + 1)) @ xi0)
            worst_bound = min(worst_bound, J - bound)
    ok = worst_decomp <= 1e-10 and worst_diff <= 1e-10 \
        and worst_adjoint <= 1e-11 and worst_bound >= -1e-9
    _report(5, ok,
            f"20 instances x 100 controls: decomposition {worst_decomp:.1e} "
            f"<= 1e-10, difference {worst_diff:.1e} <= 1e-10, adjointness "
            f"{worst_adjoint:.1e} <= 1e-11, bound slack {worst_bound:.1e} >= -1e-9")


def test_criterion_6_piecewise_vs_single_region():
    worst = 0.0
    for _, problem, t, sol in _population():
        bar = solve_riccati_bar(problem, t)
        N, d = problem.N, problem.d
        for j in range(N - t):
            worst = max(worst, _rel_dev(sol.W[j], bar.W[j]))
            worst = max(worst, _rel_dev(sol.H[j], bar.H[j]))
        for k in range(t, N + 1):
            r = min(k - t, d)
            for i in range(r):
                worst = max(worst, _rel_dev(sol.P[(i, k)], bar.P[(i, k)]))
            tail = sum(bar.P[(j_, k)] for j_ in range(r, d + 1))
            worst = max(worst, _rel_dev(sol.P[(r, k)], tail))
    ok = worst <= 1e-10
    _report(6, ok,
            f"{len(_population())} instances, worst relative deviation "
            f"{worst:.1e} <= 1e-10")


def test_criterion_7_feasibility_round_trip():
    worst_cert = 0.0
    count_cert = 0
    for _, problem, t, sol in _population():
        if not classify(sol).at_least(SOLVABLE_ALL_PAIRS):
            continue
        count_cert += 1
        built = construct_from_candidate(
            certificate_from_riccati(sol, problem), problem, t)
        for key in sol.P:
            worst_cert = max(worst_cert, _rel_dev(built.P[key], sol.P[key]))
        for j in range(len(sol.W)):
            worst_cert = max(worst_cert, _rel_dev(built.W[j], sol.W[j]))

    worst_zero = 0.0
    for seed in range(20):
        problem = nonneg_problem(seed + 40_000)
        direct = solve_riccati(problem, 0)
        built = construct_from_candidate(zero_candidate(problem, 0), problem, 0)
        for key in direct.P:
            worst_zero = max(worst_zero, _rel_dev(built.P[key], direct.P[key]))
    ok = worst_cert <= 1e-8 and worst_zero <= 1e-8
    _report(7, ok,
            f"certificate round trip on {count_cert} instances dev "
            f"{worst_cert:.1e} <= 1e-8, zero-candidate on 20 nonnegative "
            f"instances dev {worst_zero:.1e} <= 1e-8")


def test_criterion_8_monte_carlo_consistency():
    start = time.perf_counter()
    prob = benchmark_problem()
    sol = solve_riccati(prob, 0)
    x = [1.0, 0.0]
    target = optimal_value(sol, 0, x)
    policy = feedback_policy(sol)
    first = monte_carlo_cost(prob, 0, x, policy, samples=100_000, seed=0)
    second = monte_carlo_cost(prob, 0, x, policy, samples=100_000, seed=0)
    elapsed = time.perf_counter() - start
    gap = abs(first.mean - target)
    identical = (first.mean == second.mean
                 and first.std_error == second.std_error)
    ok = gap <= 3.0 * first.std_error and identical and elapsed < 10.0
    _report(8, ok,
            f"|mean - value| {gap:.2e} <= 3 SE = {3 * first.std_error:.2e}, "
            f"bit-identical rerun: {identical}, {elapsed:.1f}s < 10s")


def test_criterion_9_nonnegative_guarantee():
    weakest_rank = None
    failures = 0
    for seed in range(50):
        problem = nonneg_problem(seed + 50_000)
        report = classify(solve_riccati(problem, 0))
        if not report.at_least(SOLVABLE_ALL_PAIRS):
            failures += 1
            weakest_rank = report.classification
    ok = failures == 0
    detail = "50 instances all at least SolvableAllPairs" if ok else \
        f"{failures}/50 below SolvableAllPairs (e.g. {weakest_rank})"
    _report(9, ok, detail)
