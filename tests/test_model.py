import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delq import (
    FeedbackPolicy,
    ProblemData,
    ResourceLimitError,
    ValidationError,
    ensure_valid,
    load_problem,
    problem_from_dict,
    problem_to_dict,
    save_problem,
    validate,
)
from delq.model import (
    DEPTH_CAP_ENV,
    depth_cap,
    expand,
    measurable_level,
    tree_step,
)
from delq.riccati import feedback_policy, solve_riccati

from conftest import draw_mixed, reference_tree_step, scalar_problem
from identities import (
    AdaptedProcess,
    OpenLoopPolicy,
    block_mean,
    build_tree,
    random_open_loop,
    rollout,
    trajectory_cost,
    zero_policy,
)


# ---------------------------------------------------------------------------
# Tree structure

def test_tree_counting_and_probabilities():
    tree = build_tree(2, 5)
    assert [tree.n_nodes(k) for k in range(2, 6)] == [1, 2, 4, 8]
    with pytest.raises(ValidationError):
        tree.n_nodes(6)


def test_tree_noise_paths_are_msb_first():
    tree = build_tree(0, 3)
    assert np.array_equal(tree.noise_path(3, 0), [1.0, 1.0, 1.0])
    assert np.array_equal(tree.noise_path(3, 1), [1.0, 1.0, -1.0])
    assert np.array_equal(tree.noise_path(3, 4), [-1.0, 1.0, 1.0])
    assert np.array_equal(tree.step_noise(0), [1.0, -1.0])
    with pytest.raises(ValidationError):
        tree.noise_path(2, 4)


def test_step_noise_has_exact_moments():
    tree = build_tree(0, 6)
    for k in range(6):
        w = tree.step_noise(k)
        assert np.mean(w) == 0.0
        assert np.all(w * w == 1.0)


def test_depth_cap_env_override(monkeypatch):
    monkeypatch.setenv(DEPTH_CAP_ENV, "4")
    assert depth_cap() == 4
    with pytest.raises(ResourceLimitError):
        build_tree(0, 5)
    build_tree(0, 4)  # at the cap is fine
    monkeypatch.setenv(DEPTH_CAP_ENV, "not-a-number")
    with pytest.raises(ValidationError):
        depth_cap()
    monkeypatch.setenv(DEPTH_CAP_ENV, "-1")
    with pytest.raises(ValidationError):
        depth_cap()


# ---------------------------------------------------------------------------
# Conditioning

@given(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3))
@settings(max_examples=40, deadline=None)
def test_block_mean_composes_like_the_tower_property(a, b):
    rng = np.random.default_rng(a * 7 + b)
    values = rng.normal(size=(1 << (a + b + 1), 2))
    assert np.allclose(block_mean(block_mean(values, a), b), block_mean(values, a + b))


@pytest.mark.parametrize("shape", [(16,), (16, 3), (16, 2, 2)])
def test_block_mean_is_each_atoms_mean(shape):
    values = np.random.default_rng(len(shape)).normal(size=shape)
    for levels in range(5):
        want = values.reshape(16 >> levels, 1 << levels, *shape[1:]).mean(axis=1)
        got = block_mean(values, levels)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=1e-15)


def test_expand_then_mean_is_identity():
    rng = np.random.default_rng(0)
    values = rng.normal(size=(4, 3))
    assert np.array_equal(block_mean(expand(values, 2), 2), values)


def test_adapted_process_shape_validation():
    tree = build_tree(0, 2)
    with pytest.raises(ValidationError):
        AdaptedProcess(tree=tree, first=1, values=(np.zeros((3, 1)),))
    with pytest.raises(ValidationError):
        AdaptedProcess(tree=tree, first=2, values=(np.zeros((4, 1)), np.zeros((8, 1))))


def test_measurable_level_clamps_at_start():
    assert measurable_level(2, 3, 2) == 2
    assert measurable_level(2, 3, 4) == 2
    assert measurable_level(2, 3, 6) == 3


# ---------------------------------------------------------------------------
# Problem data validation and JSON

def test_validate_accepts_the_scalar_problem():
    assert validate(scalar_problem()) == []


def test_validate_reports_dimension_and_shape_problems():
    msgs = validate(ProblemData(n=1, m=1, N=2, d=3, A=[[[1.0]]] * 2,
                                B=[[[1.0]]] * 2, C=[[[0.0]]] * 2, D=[[[0.0]]] * 2,
                                Q=[[[0.0]]] * 2, R=[[[1.0]]] * 2, G=[[1.0]]))
    assert any("delay" in msg for msg in msgs)

    bad_shape = ProblemData(n=2, m=1, N=1, d=1, A=[[[1.0]]], B=[[[1.0]]],
                            C=[[[0.0]]], D=[[[0.0]]], Q=[[[0.0]]], R=[[[1.0]]],
                            G=[[1.0]])
    msgs = validate(bad_shape)
    assert any("A[0]" in msg for msg in msgs)
    with pytest.raises(ValidationError):
        ensure_valid(bad_shape)


def test_validate_rejects_asymmetric_weights_and_nonfinite():
    prob = scalar_problem()
    asym = ProblemData(n=2, m=1, N=1, d=1,
                       A=[np.eye(2)], B=[np.ones((2, 1))], C=[np.zeros((2, 2))],
                       D=[np.zeros((2, 1))], Q=[[[0.0, 1.0], [0.0, 0.0]]],
                       R=[[[1.0]]], G=np.eye(2))
    assert any("Q[0]" in msg for msg in validate(asym))
    naned = ProblemData(n=1, m=1, N=1, d=1, A=[[[np.nan]]], B=[[[1.0]]],
                        C=[[[0.0]]], D=[[[0.0]]], Q=[[[0.0]]], R=[[[1.0]]],
                        G=[[1.0]])
    assert any("non-finite" in msg for msg in validate(naned))
    assert validate(prob) == []


def _faulty_problem(structural=True):
    """n = m = 2, N = 5 with asymmetric Q[2], R[2] and G; with
    `structural`, also a non-finite A[1], a wrong shape at A[3] and a NaN
    in B[1] (which hide the symmetry faults: validate stops at them)."""
    n, m, N = 2, 2, 5
    A = [np.eye(n) * 0.5 for _ in range(N)]
    B = [np.ones((n, m)) for _ in range(N)]
    Q = [np.eye(n) for _ in range(N)]
    R = [np.eye(m) for _ in range(N)]
    if structural:
        A[1] = np.array([[np.inf, 0.0], [0.0, 1.0]])
        A[3] = np.zeros((n, n + 1))
        B[1] = np.array([[1.0, np.nan], [0.0, 1.0]])
    Q[2] = np.array([[1.0, 0.5], [0.0, 1.0]])
    R[2] = np.array([[1.0, 0.0], [2.0, 1.0]])
    return ProblemData(n=n, m=m, N=N, d=2, A=A, B=B, C=[np.zeros((n, n))] * N,
                       D=[np.zeros((n, m))] * N, Q=Q, R=R,
                       G=np.array([[1.0, 1e-3], [0.0, 1.0]]))


def test_validate_messages_keep_wording_and_order():
    """Exact message lists: per sequence in A, B, C, D, Q, R order and by
    step within it; symmetry faults by step (Q before R), then G."""
    assert validate(_faulty_problem()) == [
        "A[1] contains non-finite entries",
        "A[3] must have shape (2, 2), got (2, 3)",
        "B[1] contains non-finite entries",
    ]
    assert validate(_faulty_problem(structural=False)) == [
        "Q[2] is not symmetric",
        "R[2] is not symmetric",
        "G is not symmetric",
    ]


def test_problem_data_rejects_non_numeric():
    for A in (["x"], None, 5.0, [[["x"]]]):
        with pytest.raises(ValidationError, match="A is not a sequence"):
            ProblemData(n=1, m=1, N=1, d=0, A=A, B=[[[1.0]]], C=[[[0.0]]],
                        D=[[[0.0]]], Q=[[[0.0]]], R=[[[1.0]]], G=[[1.0]])
    with pytest.raises(ValidationError):
        ProblemData(n="one", m=1, N=1, d=0, A=[[[1.0]]], B=[[[1.0]]],
                    C=[[[0.0]]], D=[[[0.0]]], Q=[[[0.0]]], R=[[[1.0]]], G=[[1.0]])


@pytest.mark.parametrize("value", [True, False, "0.5", "1", 10 ** 400])
def test_problem_data_refuses_non_numbers_inside_matrices(value):
    """A boolean or a string inside a matrix is refused like a dimension
    is, rather than read as 1.0, 0.0 or 0.5; so is an integer beyond the
    float range. Integers and numpy numbers still read as floats."""
    data = problem_to_dict(scalar_problem())
    for name in ("A", "B", "C", "D", "Q", "R"):
        bad = json.loads(json.dumps(data))
        bad[name][1][0][0] = value
        with pytest.raises(ValidationError, match=f"^{name} is not a sequence of numeric matrices$"):
            problem_from_dict(bad)
    with pytest.raises(ValidationError, match="^G is not a numeric matrix$"):
        problem_from_dict({**data, "G": [[value]]})
    back = problem_from_dict({**data, "A": [[[1]], [[np.int64(2)]], [[np.float32(0.5)]]],
                              "G": np.array([[3]])})
    assert back.A.dtype == float and back.A[:, 0, 0].tolist() == [1.0, 2.0, 0.5]
    assert back.G.dtype == float and validate(back) == []


@pytest.mark.parametrize("value", [4.7, 2.9, -0.5, float("inf"), float("nan"), True, False,
                                   "3", None, [3]])
def test_problem_data_refuses_non_integral_dimensions(value):
    """A dimension is an integer or an integral float; anything else is
    refused, never truncated (N = 4.7 used to run as 4, n = True as 1)."""
    data = problem_to_dict(scalar_problem())
    for name in ("n", "m", "N", "d"):
        with pytest.raises(ValidationError, match=re.escape(f"{name} must be an integer, got {value!r}")):
            problem_from_dict({**data, name: value})
    back = problem_from_dict({**data, "N": 3.0, "n": np.int64(1), "d": 2.0})
    assert (back.n, back.N, back.d) == (1, 3, 2) and type(back.N) is int
    assert validate(back) == []


def test_problem_json_round_trip(tmp_path):
    prob = scalar_problem()
    data = problem_to_dict(prob)
    back = problem_from_dict(json.loads(json.dumps(data)))
    assert back.n == prob.n and back.N == prob.N and back.d == prob.d
    for name in ("A", "B", "C", "D", "Q", "R"):
        for M1, M2 in zip(getattr(prob, name), getattr(back, name)):
            assert np.array_equal(M1, M2)
    assert np.array_equal(prob.G, back.G)

    path = tmp_path / "prob.json"
    save_problem(prob, path)
    assert np.array_equal(load_problem(path).G, prob.G)


def test_problem_from_dict_missing_fields():
    with pytest.raises(ValidationError, match="missing"):
        problem_from_dict({"n": 1, "m": 1})
    with pytest.raises(ValidationError):
        problem_from_dict([1, 2, 3])


# ---------------------------------------------------------------------------
# Policies, measurability, simulation

def test_rollout_rejects_a_malformed_policy():
    prob = scalar_problem()
    policy = OpenLoopPolicy(t=0, d=2, controls=[np.zeros((2, 1))] * 3)
    with pytest.raises(ValidationError, match=r"control at time 0 must have shape \(1, 1\), got \(2, 1\)"):
        rollout(prob, 0, [1.0], policy)
    fb = FeedbackPolicy(t=0, d=2, gains=[np.zeros((1, 1))])
    with pytest.raises(ValidationError, match="policy has no gain for time 1"):
        rollout(prob, 0, [1.0], fb)
    with pytest.raises(ValidationError, match="policy has no gain for time 2"):
        rollout(prob, 0, [1.0], FeedbackPolicy(t=1, d=2, gains=[np.zeros((1, 1))]), start=1)
    fb = FeedbackPolicy(t=0, d=2, gains=[np.zeros((1, 2))] * 3)
    with pytest.raises(ValidationError, match=r"gain at time 0 must have shape \(1, 1\), got \(1, 2\)"):
        rollout(prob, 0, [1.0], fb)


@pytest.mark.parametrize("seed", range(12))
def test_tree_step_matches_the_four_product_step_bit_for_bit(seed):
    """At every level of a draw_mixed tree, controls on atoms of every size
    from the whole level (one atom) down to a single node."""
    problem, t = draw_mixed(seed)
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(1, problem.n))
    for k in range(t, problem.N):
        rows = X.shape[0]
        for j in range(k - t + 1):
            u = rng.normal(size=(rows >> j, problem.m))
            assert np.array_equal(tree_step(problem, k, X, u),
                                  reference_tree_step(problem, k, X, u)), (k, j)
        X = reference_tree_step(problem, k, X, rng.normal(size=(rows, problem.m)))


@pytest.mark.parametrize("seed", range(12))
def test_rollouts_are_bit_identical_under_the_four_product_step(seed, monkeypatch):
    problem, t = draw_mixed(seed)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=problem.n)
    policies = [feedback_policy(solve_riccati(problem, t)), random_open_loop(problem, t, rng)]
    live = [rollout(problem, t, x, policy) for policy in policies]
    monkeypatch.setattr("delq.model.tree_step", reference_tree_step)
    for traj, policy in zip(live, policies):
        ref = rollout(problem, t, x, policy)
        for k in range(t, problem.N + 1):
            assert np.array_equal(traj.states.at(k), ref.states.at(k)), k
        assert all(np.array_equal(a, b) for a, b in zip(traj.controls, ref.controls))


def test_forward_simulate_pure_noise_state():
    # X_1 = w_0 when A = B = D = 0, C = 1, x = 1.
    prob = ProblemData(n=1, m=1, N=1, d=1, A=[[[0.0]]], B=[[[0.0]]],
                       C=[[[1.0]]], D=[[[0.0]]], Q=[[[0.0]]], R=[[[0.0]]],
                       G=[[1.0]])
    traj = rollout(prob, 0, [1.0], zero_policy(prob, 0), start=0)
    assert np.array_equal(traj.states.at(1), [[1.0], [-1.0]])
    assert trajectory_cost(prob, traj) == pytest.approx(1.0)


def test_forward_simulate_deterministic_accumulation():
    # A = B = 1, C = D = 0: X_k = x + sum of controls so far.
    prob = scalar_problem()
    policy = OpenLoopPolicy(t=0, d=2, controls=[[[1.0]], [[2.0]], [[4.0]]])
    traj = rollout(prob, 0, [1.0], policy, start=0)
    assert np.all(traj.states.at(1) == 2.0)
    assert np.all(traj.states.at(2) == 4.0)
    assert np.all(traj.states.at(3) == 8.0)
    # cost: R u^2 summed (1 + 4 + 16) plus terminal G X_3^2 = 64
    assert trajectory_cost(prob, traj) == pytest.approx(85.0)


def test_rollout_from_interior_start_uses_coarse_controls():
    prob = scalar_problem()
    policy = zero_policy(prob, 0, start=1)
    traj = rollout(prob, 0, [1.0], policy, start=1)
    assert traj.first == 1
    assert traj.states.at(1).shape == (2, 1)
    # control at time 2 is measurable at level 0 -> single atom even though
    # the state sits on 4 nodes
    assert traj.control_at(2).shape == (1, 1)


def test_zero_policy_and_random_open_loop_shapes():
    prob = scalar_problem()
    pol = zero_policy(prob, 0)
    assert [u.shape for u in pol.controls] == [(1, 1), (1, 1), (1, 1)]
    rng = np.random.default_rng(5)
    rnd = random_open_loop(prob, 0, rng)
    assert [u.shape for u in rnd.controls] == [(1, 1), (1, 1), (1, 1)]
    prob_d1 = ProblemData(n=1, m=1, N=3, d=1, A=[[[1.0]]] * 3, B=[[[1.0]]] * 3,
                          C=[[[0.0]]] * 3, D=[[[0.0]]] * 3, Q=[[[0.0]]] * 3,
                          R=[[[1.0]]] * 3, G=[[1.0]])
    # d = 1: information level max(0, k-1) -> atom counts 1, 1, 2
    rnd = random_open_loop(prob_d1, 0, rng)
    assert [u.shape for u in rnd.controls] == [(1, 1), (1, 1), (2, 1)]


def test_trajectory_cost_zero_policy_zero_state():
    prob = scalar_problem()
    traj = rollout(prob, 0, [0.0], zero_policy(prob, 0))
    assert trajectory_cost(prob, traj) == 0.0


def test_trajectory_cost_zero_policy_unit_state():
    # with u = 0, C = D = 0 the state stays at 1; only G contributes
    prob = scalar_problem()
    traj = rollout(prob, 0, [1.0], zero_policy(prob, 0))
    assert trajectory_cost(prob, traj) == pytest.approx(1.0)
