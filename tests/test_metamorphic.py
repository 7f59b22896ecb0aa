"""Metamorphic relations: transformations of a problem that must leave its
answers unchanged (bit for bit, or up to rounding where the arithmetic
changes), checked on derandomized draws of ``draw_mixed`` seeds.

Scaling the cost by a constant is not among them: below scale 1 the
``scale_floor`` of every margin makes a relative tolerance absolute, so a
verdict can change when the weights shrink.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from delq import (
    PSD_TOL,
    SOLVABLE_ALL_PAIRS,
    ProblemData,
    assemble_quadratic,
    check_membership,
    classify,
    optimal_value,
    oracle_minimize,
    solve_riccati,
    zero_candidate,
)
from delq.linalg import eig_margin, scale_floor

from conftest import draw_mixed, sym_with_eigs

SEEDS = st.integers(0, 10_000)
DRAWS = settings(derandomize=True, max_examples=40, deadline=None)


def _prepend(problem, steps, rng):
    """`problem` behind `steps` random leading steps (same d, horizon N + steps)."""
    n, m = problem.n, problem.m

    def ahead(seq, draw):
        return np.concatenate([np.stack([draw() for _ in range(steps)]), seq])

    return ProblemData(
        n=n, m=m, N=problem.N + steps, d=problem.d,
        A=ahead(problem.A, lambda: rng.normal(size=(n, n))),
        B=ahead(problem.B, lambda: rng.normal(size=(n, m))),
        C=ahead(problem.C, lambda: rng.normal(size=(n, n))),
        D=ahead(problem.D, lambda: rng.normal(size=(n, m))),
        Q=ahead(problem.Q, lambda: sym_with_eigs(rng, n, -1.0, 1.0)),
        R=ahead(problem.R, lambda: sym_with_eigs(rng, m, -1.0, 1.0)),
        G=problem.G,
    )


@DRAWS
@given(seed=SEEDS, steps=st.integers(1, 3))
def test_time_shift_leaves_the_solution_bit_identical(seed, steps):
    """Steps before the initial time never enter the recursion: solving the
    longer problem from t + steps gives the same P, W, H and K."""
    problem, t = draw_mixed(seed)
    sol = solve_riccati(problem, t)
    moved = solve_riccati(_prepend(problem, steps, np.random.default_rng(seed)), t + steps)
    assert list(moved.P) == [(i, k + steps) for i, k in sol.P]
    for (i, k), M in sol.P.items():
        assert np.array_equal(moved.P[(i, k + steps)], M)
    for name in "WHK":
        assert np.array_equal(getattr(moved, name), getattr(sol, name)), name


def _rotated(problem, T):
    """The problem in the state coordinates T x, for an orthogonal T."""
    return ProblemData(
        n=problem.n, m=problem.m, N=problem.N, d=problem.d,
        A=T @ problem.A @ T.T, B=T @ problem.B, C=T @ problem.C @ T.T,
        D=T @ problem.D, Q=T @ problem.Q @ T.T, R=problem.R, G=T @ problem.G @ T.T,
    )


def _near_threshold(margin):
    """Within 1e-6 of +-PSD_TOL, where rounding may flip a verdict."""
    return abs(abs(margin) - PSD_TOL) < 1e-6


@DRAWS
@given(seed=SEEDS)
def test_orthogonal_change_of_state_coordinates_keeps_every_verdict(seed):
    """(A, B, C, D, Q, G) -> (TAT', TB, TCT', TD, TQT', TGT') with T
    orthogonal: the classification, the oracle's status, every
    zero-candidate constraint verdict, and the optimal value and oracle
    minimum at T x are those of the original problem, except for a verdict
    whose margin moved and sits at a threshold (the zero candidate's
    equalities and its blocks after t are exact zeros either way)."""
    problem, t = draw_mixed(seed)
    rng = np.random.default_rng(seed)
    T = np.linalg.qr(rng.normal(size=(problem.n, problem.n)))[0]
    x = rng.normal(size=problem.n)
    rotated = _rotated(problem, T)
    sol, rot_sol = solve_riccati(problem, t), solve_riccati(rotated, t)
    report, rot_report = classify(sol), classify(rot_sol)
    oracle = oracle_minimize(assemble_quadratic(problem, t, x))
    rot_oracle = oracle_minimize(assemble_quadratic(rotated, t, T @ x))
    if not any(_near_threshold(margin) for margin in eig_margin(sol.W)[1].tolist()):
        assert rot_report.classification == report.classification
        assert rot_oracle.status == oracle.status
    if report.at_least(SOLVABLE_ALL_PAIRS) and rot_report.at_least(SOLVABLE_ALL_PAIRS):
        value = optimal_value(sol, t, x, report)
        assert abs(optimal_value(rot_sol, t, T @ x, rot_report) - value) \
            <= 1e-12 * scale_floor(value)
    if oracle.bounded and rot_oracle.bounded:
        assert abs(rot_oracle.value - oracle.value) <= 1e-12 * scale_floor(oracle.value)

    lmei = check_membership(zero_candidate(problem, t), problem, t)
    rot_lmei = check_membership(zero_candidate(rotated, t), rotated, t)
    pairs = list(zip(lmei.constraints, rot_lmei.constraints, strict=True))
    for c, rot_c in pairs:
        assert (rot_c["kind"], rot_c["k"], rot_c["i"]) == (c["kind"], c["k"], c["i"])
        assert rot_c["satisfied"] == c["satisfied"] or _near_threshold(c["margin"]), c
    if not any(rot_c["margin"] != c["margin"] and _near_threshold(c["margin"])
               for c, rot_c in pairs):
        assert rot_lmei.feasible == lmei.feasible
