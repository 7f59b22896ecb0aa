import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delq import (
    AdaptedProcess,
    FeedbackPolicy,
    OpenLoopPolicy,
    ProblemData,
    ResourceLimitError,
    ValidationError,
    build_tree,
    cond_expect,
    ensure_valid,
    load_problem,
    open_loop_from_values,
    problem_from_dict,
    problem_to_dict,
    rollout,
    save_problem,
    trajectory_cost,
    validate,
    zero_policy,
)
from delq.model import (
    DEPTH_CAP_ENV,
    block_mean,
    depth_cap,
    expand,
    measurable_level,
    policy_control,
    random_open_loop,
)

from conftest import scalar_problem


# ---------------------------------------------------------------------------
# Tree structure

def test_tree_counting_and_probabilities():
    tree = build_tree(2, 5)
    assert tree.depth == 3
    assert [tree.n_nodes(k) for k in range(2, 6)] == [1, 2, 4, 8]
    assert tree.probability(5) == pytest.approx(1 / 8)
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


def test_expand_then_mean_is_identity():
    rng = np.random.default_rng(0)
    values = rng.normal(size=(4, 3))
    assert np.array_equal(block_mean(expand(values, 2), 2), values)


def test_cond_expect_recovers_earlier_noise():
    # X_2 = w_0 + w_1; conditioning on time 1 must return w_0 exactly.
    tree = build_tree(0, 2)
    x2 = np.array([[w0 + w1] for w0, w1 in
                   (tree.noise_path(2, node) for node in range(4))])
    proc = AdaptedProcess(tree=tree, first=2, values=(x2,))
    assert np.array_equal(cond_expect(proc, 2, 1), [[1.0], [-1.0]])
    assert np.array_equal(cond_expect(proc, 2, 0), [[0.0]])
    with pytest.raises(ValidationError):
        cond_expect(proc, 2, 3)


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
    with pytest.raises(ValidationError):
        ProblemData(n=1, m=1, N=1, d=0, A=["x"], B=[[[1.0]]], C=[[[0.0]]],
                    D=[[[0.0]]], Q=[[[0.0]]], R=[[[1.0]]], G=[[1.0]])
    with pytest.raises(ValidationError):
        ProblemData(n="one", m=1, N=1, d=0, A=[[[1.0]]], B=[[[1.0]]],
                    C=[[[0.0]]], D=[[[0.0]]], Q=[[[0.0]]], R=[[[1.0]]], G=[[1.0]])


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

def test_open_loop_accepts_only_atom_constant_controls():
    prob = scalar_problem()
    tree = build_tree(0, prob.N)
    # time 2 has information level 0 (d = 2): a single scalar control
    fine_constant = [np.zeros((1, 1)), np.zeros((1, 1)), np.full((4, 1), 0.7)]
    policy = open_loop_from_values(tree, 0, prob.d, fine_constant)
    assert policy.controls[2].shape == (1, 1)
    assert policy.controls[2][0, 0] == pytest.approx(0.7)

    varying = [np.zeros((1, 1)), np.zeros((1, 1)),
               np.array([[0.7], [0.7], [0.7], [0.1]])]
    with pytest.raises(ValidationError, match="measurability"):
        open_loop_from_values(tree, 0, prob.d, varying)

    with pytest.raises(ValidationError, match="rows"):
        open_loop_from_values(tree, 0, prob.d,
                              [np.zeros((3, 1)), np.zeros((1, 1)), np.zeros((1, 1))])


def test_policy_control_shape_enforcement():
    prob = scalar_problem()
    tree = build_tree(0, prob.N)
    policy = OpenLoopPolicy(t=0, d=2, controls=[np.zeros((2, 1))] * 3)
    with pytest.raises(ValidationError, match="shape"):
        policy_control(policy, prob, tree, 0, np.zeros((1, 1)))
    fb = FeedbackPolicy(t=0, d=2, gains=[np.zeros((1, 1))])
    with pytest.raises(ValidationError, match="gain"):
        policy_control(fb, prob, tree, 2, np.zeros((4, 1)))


def test_forward_simulate_pure_noise_state():
    # X_1 = w_0 when A = B = D = 0, C = 1, x = 1.
    prob = ProblemData(n=1, m=1, N=1, d=1, A=[[[0.0]]], B=[[[0.0]]],
                       C=[[[1.0]]], D=[[[0.0]]], Q=[[[0.0]]], R=[[[0.0]]],
                       G=[[1.0]])
    tree = build_tree(0, 1)
    traj = rollout(prob, tree, [1.0], zero_policy(prob, 0), start=0)
    assert np.array_equal(traj.states.at(1), [[1.0], [-1.0]])
    assert trajectory_cost(prob, traj) == pytest.approx(1.0)


def test_forward_simulate_deterministic_accumulation():
    # A = B = 1, C = D = 0: X_k = x + sum of controls so far.
    prob = scalar_problem()
    tree = build_tree(0, prob.N)
    policy = OpenLoopPolicy(t=0, d=2, controls=[[[1.0]], [[2.0]], [[4.0]]])
    traj = rollout(prob, tree, [1.0], policy, start=0)
    assert np.all(traj.states.at(1) == 2.0)
    assert np.all(traj.states.at(2) == 4.0)
    assert np.all(traj.states.at(3) == 8.0)
    # cost: R u^2 summed (1 + 4 + 16) plus terminal G X_3^2 = 64
    assert trajectory_cost(prob, traj) == pytest.approx(85.0)


def test_rollout_from_interior_start_uses_coarse_controls():
    prob = scalar_problem()
    tree = build_tree(0, prob.N)
    policy = zero_policy(prob, 0, start=1)
    traj = rollout(prob, tree, [1.0], policy, start=1)
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
    tree = build_tree(0, prob.N)
    traj = rollout(prob, tree, [0.0], zero_policy(prob, 0))
    assert trajectory_cost(prob, traj) == 0.0


def test_trajectory_cost_zero_policy_unit_state():
    # with u = 0, C = D = 0 the state stays at 1; only G contributes
    prob = scalar_problem()
    tree = build_tree(0, prob.N)
    traj = rollout(prob, tree, [1.0], zero_policy(prob, 0))
    assert trajectory_cost(prob, traj) == pytest.approx(1.0)
