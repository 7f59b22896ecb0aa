import dataclasses
import json
import tracemalloc
import warnings

import numpy as np
import pytest

from delq import (
    CONVEX_CANDIDATE,
    ConsistencyError,
    PSD_TOL,
    NOT_CONVEX,
    ResourceLimitError,
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
    problem_from_dict,
    problem_to_dict,
    range_residual,
    solution_from_dict,
    solution_to_dict,
    solve_riccati,
    solve_riccati_bar,
)
from delq import dumps, lmei
from delq.linalg import PINV_RTOL, pinv, symmetrize
from delq.riccati import PBlocks, RiccatiSolution, _backward, _index_sum, classification_rank
from delq.worked_example import REFERENCE_GAINS

from conftest import (
    draw_mixed,
    nonneg_problem,
    notconvex_problem,
    range_deficient_problem,
    sym_with_eigs,
    tree_cost,
    uniquely_solvable_instances,
)
from identities import OpenLoopPolicy, random_open_loop, recompute_wh


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


@pytest.mark.parametrize("t, N, d", [(0, 5, 0), (2, 6, 0), (0, 6, 2), (3, 9, 4), (0, 4, 4),
                                     (1, 4, 3), (2, 5, 5), (0, 1, 1)])
def test_p_is_one_rectangular_array(t, N, d):
    """P^(i)_k is a view of P.array[k - t, i] for both variants, including
    d = 0, d >= N - t and t > 0: the array is (N - t + 1, w, n, n) with
    w = min(N - t, d) + 1 piecewise and d + 1 single-region, its undefined
    entries are +0.0 and no keys, and len(P) counts the defined pairs."""
    n = 2
    problem = _long_delay_problem(N + d, n, N, d, m=2)
    piecewise = sum(min(k - t, d) + 1 for k in range(t, N + 1))
    for sol, single in ((solve_riccati(problem, t), False),
                        (solve_riccati_bar(problem, t), d > 0)):
        assert sol.single_region == single
        width = d + 1 if single else min(N - t, d) + 1
        array = sol.P.array
        assert array.shape == (N - t + 1, width, n, n) and array.dtype == float
        assert len(sol.P) == ((N - t + 1) * (d + 1) if single else piecewise)
        assert len(list(sol.P)) == len(sol.P)
        for j in range(N - t + 1):
            k = t + j
            for i in range(width):
                if single or i <= j:
                    M = sol.P[(i, k)]
                    assert M.base is array and np.shares_memory(M, array[j, i])
                    assert M.__array_interface__ == array[j, i].__array_interface__
                    assert sol.P_at(i, k) is not None and (i, k) in sol.P
                    continue
                assert (i, k) not in sol.P
                with pytest.raises(KeyError):
                    sol.P[(i, k)]
                with pytest.raises(ValidationError, match="not defined"):
                    sol.P_at(i, k)
                assert np.all(array[j, i] == 0.0) and not np.signbit(array[j, i]).any()
        for key in [(width, N), (-1, N), (0, t - 1), (0, N + 1)]:
            assert key not in sol.P
        with pytest.raises(ValidationError, match="not defined"):
            sol.P_at(width, N)


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
        assert report.w_min_eig.shape == report.range_residual.shape == (problem.N - t,)
        for lam, resid, Wk, Hk in zip(report.w_min_eig, report.range_residual, sol.W, sol.H,
                                      strict=True):
            assert lam == np.linalg.eigvalsh(Wk)[0]
            assert resid == range_residual(Hk, Wk)
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
# One data format: per-step sequences are (steps, ., .) stacks

def test_problems_and_solutions_hold_stacks():
    """A loaded problem holds A..R as (N, ., .) float arrays, and every
    producer of a solution returns W/H/K as (N - t, ., .) arrays."""
    problem = nonneg_problem(4, n=2, m=1, horizon=5, d=2)
    loaded = problem_from_dict(json.loads(json.dumps(problem_to_dict(problem))))
    n, m, N = loaded.n, loaded.m, loaded.N
    shapes = {"A": (n, n), "B": (n, m), "C": (n, n), "D": (n, m), "Q": (n, n), "R": (m, m)}
    for name, shape in shapes.items():
        seq = getattr(loaded, name)
        assert isinstance(seq, np.ndarray) and seq.dtype == float, name
        assert seq.shape == (N,) + shape, name
    t = 1
    for sol in (solve_riccati(loaded, t), solve_riccati_bar(loaded, t),
                lmei.construct_from_candidate(lmei.zero_candidate(loaded, t), loaded, t)):
        for name, shape in (("W", (m, m)), ("H", (m, n)), ("K", (m, n))):
            stack = getattr(sol, name)
            assert isinstance(stack, np.ndarray) and stack.shape == (N - t,) + shape, name


# ---------------------------------------------------------------------------
# The stacked kernel against a plain per-index loop

def _reference_backward(problem, t, Q, R, G, pinv_rtol, S=None, delta=None):
    """The backward pass as one matrix per (i, k) and one product per index:
    the arithmetic the stacked kernel must reproduce bit for bit. Q, R, S
    and delta are indexed by step k - t, as the kernel's are."""
    n, N, d = problem.n, problem.N, problem.d
    P = {(0, N): symmetrize(G)}
    for j in range(1, min(N - t, d) + 1):
        P[(j, N)] = np.zeros((n, n))
    W, H, K = [None] * (N - t), [None] * (N - t), [None] * (N - t)
    sums = [None] * (N - t + 1)
    with np.errstate(all="ignore"):
        for k in range(N - 1, t - 1, -1):
            A, B, C, D = problem.A[k], problem.B[k], problem.C[k], problem.D[k]
            Psum = np.zeros((n, n))
            for i in range(min(k + 1 - t, d) + 1):
                Psum = Psum + P[(i, k + 1)]
            sums[k + 1 - t] = Psum
            P0 = P[(0, k + 1)]
            Wk = symmetrize(R[k - t] + B.T @ Psum @ B + D.T @ P0 @ D)
            Hk = B.T @ Psum @ A + D.T @ P0 @ C
            if S is not None:
                Hk = Hk + S[k - t]
            Wdag = pinv(Wk, pinv_rtol)
            fold = symmetrize(Hk.T @ Wdag @ Hk)
            W[k - t], H[k - t], K[k - t] = Wk, Hk, -Wdag @ Hk
            nxt = P[(0, k + 1)] + P[(1, k + 1)] if d else P[(0, k + 1)]
            state_part = Q[k - t] + A.T @ nxt @ A + C.T @ P[(0, k + 1)] @ C
            r = min(k - t, d)
            if r == 0:
                P[(0, k)] = symmetrize(state_part - fold)
                continue
            P[(0, k)] = symmetrize(state_part)
            for i in range(1, r):
                P[(i, k)] = symmetrize(A.T @ P[(i + 1, k + 1)] @ A)
            if r == d:
                top = -fold if delta is None else delta[k - t] - fold
            else:
                top = A.T @ P[(r + 1, k + 1)] @ A
                top = (top if delta is None else delta[k - t] + top) - fold
            P[(r, k)] = symmetrize(top)
    sums[0] = np.zeros((n, n)) + P[(0, t)]
    # in (i, k) order, the order a solution's P iterates in
    return RiccatiSolution(t=t, N=N, d=d, n=n, m=problem.m, P=dict(sorted(P.items())),
                           Psum=np.array(sums), W=tuple(W), H=tuple(H), K=tuple(K))


def _with_delay(problem, d):
    return ProblemData(n=problem.n, m=problem.m, N=problem.N, d=d, A=problem.A,
                       B=problem.B, C=problem.C, D=problem.D, Q=problem.Q,
                       R=problem.R, G=problem.G)


def _assert_identical(got, want):
    assert list(got.P) == list(want.P)
    for key in want.P:
        assert np.array_equal(got.P[key], want.P[key]), key
    for name in ("Psum", "W", "H", "K"):
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
        want = _reference_backward(problem, t, problem.Q[t:], problem.R[t:], problem.G,
                                   PINV_RTOL)
        _assert_identical(solve_riccati(problem, t), want)


def _in_stacked_layout(sol):
    """sol with its per-(i, k) P copied into the kernel's array layout,
    which construct_from_candidate adds to the candidate's array in one
    call."""
    if isinstance(sol.P, PBlocks):
        return sol
    blocks = PBlocks(sol.t, sol.N, sol.d, sol.n)
    assert set(sol.P) == set(blocks)
    for key in blocks:
        blocks[key][...] = sol.P[key]
    return dataclasses.replace(sol, P=blocks)


def _construct_with(backward, cand, problem, t, monkeypatch):
    """construct_from_candidate with lmei's kernel replaced by `backward`;
    returns the auxiliary recursion and the constructed solution."""
    aux = []

    def recording(*args, **kwargs):
        aux.append(backward(*args, **kwargs))
        return _in_stacked_layout(aux[-1])

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
# Two-row ring (blocks=False) against the whole P array

def _same_bytes(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (UnsolvableError, ConsistencyError) as exc:
        return type(exc), str(exc)


def _assert_ring_matches_blocks(ring, full):
    """W, H, K, the value weights, both classify columns and the value at
    every k: the same bytes with and without the blocks."""
    assert ring.P is None and isinstance(full.P, PBlocks)
    for name in ("Psum", "W", "H", "K"):
        assert _same_bytes(getattr(ring, name), getattr(full, name)), name
    assert _same_bytes(full.Psum, _index_sum(full.P.array))
    got, want = classify(ring), classify(full)
    assert (got.classification, got.note) == (want.classification, want.note)
    assert _same_bytes(got.w_min_eig, want.w_min_eig)
    assert _same_bytes(got.range_residual, want.range_residual)
    x = np.linspace(-1.0, 1.0, full.n)
    for k in range(full.t, full.N):
        assert _outcome(optimal_value, ring, k, x, got) == \
            _outcome(optimal_value, full, k, x, want), k
    return want.at_least(SOLVABLE_ALL_PAIRS)


def test_ring_and_blocks_agree():
    """solve_riccati(blocks=False) holds P in a two-row ring and is
    bit-identical to the whole array at t > 0, d in {0, 1, N - t - 1,
    N - t, N} and n in {1, 3}; the ramp-up rows are re-zeroed, or the
    entries of the row two steps later would enter the W/H sums."""
    N, solvable = 12, 0
    for n in (1, 3):
        for t in (0, 4):
            for d in sorted({0, 1, N - t - 1, N - t, N}):
                problem = _long_delay_problem(10 * n + d + t, n, N, d, m=2)
                solvable += _assert_ring_matches_blocks(
                    solve_riccati(problem, t, blocks=False), solve_riccati(problem, t))
    assert solvable > 0


def test_ring_and_blocks_agree_on_construct():
    """The cross-weight and top-correction path of construct_from_candidate's
    auxiliary recursion, with zero and certificate candidates."""
    cases = [(nonneg_problem(seed), 0) for seed in range(4)]
    cases += [(problem, t) for _, problem, t, _ in uniquely_solvable_instances(4, start_seed=40)]
    cases.append((_long_delay_problem(5, 3, 20, 12), 2))
    for problem, t in cases:
        if problem.d == 0:
            continue
        sol = solve_riccati(problem, t)
        cand = (lmei.certificate_from_riccati(sol, problem)
                if classify(sol).at_least(SOLVABLE_ALL_PAIRS) else lmei.zero_candidate(problem, t))
        slack = lmei._slack(cand, problem)
        args = (problem, t, slack.gap, slack.W, slack.terminal, PINV_RTOL)
        extra = {"S": slack.H, "delta": slack.upper}
        _assert_ring_matches_blocks(_backward(*args, **extra, blocks=False),
                                    _backward(*args, **extra))


def test_a_solution_without_blocks_refuses_them(benchmark_problem_fixture, scalar):
    """P is None; reading a block, serializing or certifying names
    blocks=True, while P_sum still reads every time."""
    for problem in (benchmark_problem_fixture, scalar):
        sol = solve_riccati(problem, 0, blocks=False)
        assert sol.P is None
        for call in (lambda: sol.P_at(0, sol.N), lambda: solution_to_dict(sol),
                     lambda: lmei.certificate_from_riccati(sol, problem)):
            with pytest.raises(ValidationError, match=r"blocks=True"):
                call()
        full = solve_riccati(problem, 0)
        for k in range(sol.t, sol.N + 1):
            assert _same_bytes(sol.P_sum(k), full.P_sum(k))


def test_the_value_weights_are_read_only(benchmark_problem_fixture):
    """P_sum(k) is a view of the solution's Psum stack, so no route that
    builds a solution leaves that stack writable."""
    problem = benchmark_problem_fixture
    sol = solve_riccati(problem, 0)
    loaded, _ = solution_from_dict(json.loads(dumps(solution_to_dict(sol))))
    for each in (sol, solve_riccati(problem, 0, blocks=False), solve_riccati_bar(problem, 0),
                 lmei.construct_from_candidate(lmei.certificate_from_riccati(sol, problem),
                                               problem, 0),
                 loaded):
        V = each.P_sum(each.N)
        with pytest.raises(ValueError, match="read-only"):
            V += 1.0
    assert _same_bytes(sol.P_sum(sol.N), loaded.P_sum(sol.N))


def _stable_problem(seed, n, m, N, d):
    """A long horizon whose recursion stays bounded: contractive A, small
    noise, identity weights."""
    rng = np.random.default_rng(seed)
    return ProblemData(
        n=n, m=m, N=N, d=d,
        A=[0.9 * np.linalg.qr(rng.normal(size=(n, n)))[0] for _ in range(N)],
        B=rng.normal(scale=0.5, size=(N, n, m)), C=rng.normal(scale=0.15, size=(N, n, n)),
        D=rng.normal(scale=0.15, size=(N, n, m)), Q=[np.eye(n)] * N, R=[np.eye(m)] * N,
        G=np.eye(n))


def test_a_ring_solve_peaks_at_a_quarter_of_the_blocks():
    """In process, solve_riccati(blocks=False) and classify at N = 400,
    d = 100 peak at most a quarter of the blocks=True route (tracemalloc)."""
    problem = _stable_problem(400, 4, 2, 400, 100)

    def peak(blocks):
        tracemalloc.start()
        try:
            classify(solve_riccati(problem, 0, blocks=blocks))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    ring, full = peak(False), peak(True)
    assert full > 401 * 101 * 16 * 8      # the whole array is traced
    assert ring <= full / 4, (ring, full)


def test_an_unallocatable_p_array_names_its_blocks(monkeypatch):
    """A P array numpy cannot allocate raises ResourceLimitError naming the
    block count, n and bytes: one too large to address (numpy refuses it
    before allocating), and a simulated MemoryError."""
    blocks = (10**10 + 1) ** 2
    with pytest.raises(ResourceLimitError, match=rf"cannot allocate the P array: {blocks} "
                                                 rf"blocks of 3x3 \({blocks * 72} bytes\)"):
        PBlocks(0, 10**10, 10**10, 3)

    def unallocatable(shape, *args, **kwargs):
        raise MemoryError("Unable to allocate 28.8 GiB")

    monkeypatch.setattr(np, "zeros", unallocatable)
    with pytest.raises(ResourceLimitError, match=r"400040001 blocks of 3x3 \(28802880072 bytes\)"):
        PBlocks(0, 20000, 20000, 3)


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
    report = classify(sol)
    assert np.all(report.w_min_eig >= -PSD_TOL)  # every W_k PSD
    assert np.all(report.range_residual <= PSD_TOL)  # H_k in Ran(W_k)
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
    assert np.all(report.w_min_eig > 0)
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
    assert report.w_min_eig.min() < 0
    with pytest.raises(UnsolvableError, match="NotConvex"):
        optimal_value(sol, 0, np.ones(prob.n), report)


def test_classify_convex_candidate_range_failure():
    prob = range_deficient_problem()
    sol = solve_riccati(prob, 0)
    report = classify(sol)
    assert report.classification == CONVEX_CANDIDATE
    assert "oracle" in report.note
    assert report.w_min_eig[0] == pytest.approx(0.0, abs=1e-12)
    assert report.range_residual[0] == pytest.approx(1.0)
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
    data = json.loads(dumps(solution_to_dict(scalar_solution, report)))
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
        back, _ = solution_from_dict(json.loads(dumps(solution_to_dict(sol))))
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


@pytest.mark.parametrize("name, value", [("N", 4.7), ("t", False), ("d", "1"), ("N", True),
                                         ("t", None), ("d", float("inf"))])
def test_solution_from_dict_reads_integers_strictly(benchmark_solution, name, value):
    """t, d and N are read as ProblemData reads them: "N": 4.7 once loaded as
    N = 4 and "t": false as t = 0; an integral float still loads."""
    data = json.loads(dumps(solution_to_dict(benchmark_solution)))
    with pytest.raises(ValidationError, match=rf"malformed solution JSON: {name} must be an "
                                              rf"integer, got {value!r}"):
        solution_from_dict({**data, name: value})
    back, _ = solution_from_dict({**data, name: float(data[name])})
    assert (back.t, back.d, back.N) == (benchmark_solution.t, benchmark_solution.d,
                                        benchmark_solution.N)


def test_a_loaded_solution_whose_value_weight_overflows_is_a_breakdown(benchmark_solution):
    """Finite blocks whose sum overflows load without a warning; the value
    is then refused as a numerical breakdown, as before the sums were
    formed on loading."""
    data = json.loads(dumps(solution_to_dict(benchmark_solution)))
    for i in (0, 1):
        data["P"][f"{i},1"] = [[1e308, 0.0], [0.0, 1e308]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        back, _ = solution_from_dict(data)
        with pytest.raises(ConsistencyError, match="non-finite value at k=1"):
            optimal_value(back, 1, [1.0, 0.0])


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


@pytest.mark.parametrize("value", [True, "0.5"])
def test_solution_from_dict_refuses_non_numbers_inside_matrices(benchmark_solution, value):
    data = json.loads(dumps(solution_to_dict(benchmark_solution)))
    for name in ("W", "H", "K"):
        bad = json.loads(json.dumps(data))
        bad[name][2][0][1] = value
        with pytest.raises(ValidationError, match=rf"^malformed solution JSON: {name} holds a "
                           rf"{type(value).__name__} where a number belongs$"):
            solution_from_dict(bad)
    data["P"]["1,3"][0][0] = value
    with pytest.raises(ValidationError, match=r"^malformed solution JSON: P entry '1,3' holds a "):
        solution_from_dict(data)


@pytest.mark.parametrize("defect, message", [
    (lambda P: P.pop("1,3"), r"missing entries \[\(1, 3\)\]$"),
    (lambda P: P.update({"7,9": P["0,4"]}), r"unexpected entries \[\(7, 9\)\]$"),
    (lambda P: P.update({"0,4": [[1.0, 2.0], [0.0, 1.0]]}),
     r"P entry \(0, 4\) is not a symmetric 2x2 matrix"),
    (lambda P: P.update({"2,3": [[1.0]]}), r"P entry \(2, 3\) is not a symmetric 2x2 matrix"),
], ids=["missing", "unexpected", "asymmetric", "misshapen"])
def test_solution_from_dict_checks_the_structure_of_P(benchmark_solution, defect, message):
    data = json.loads(dumps(solution_to_dict(benchmark_solution)))
    defect(data["P"])
    with pytest.raises(ValidationError, match="malformed solution JSON: .*" + message):
        solution_from_dict(data)


def test_solution_from_dict_checks_the_single_region_layout():
    problem = _long_delay_problem(8, 2, 12, 3)
    data = json.loads(dumps(solution_to_dict(solve_riccati_bar(problem, 2))))
    assert solution_from_dict(data)[0].single_region
    del data["P"]["3,5"]
    with pytest.raises(ValidationError, match=r"missing entries \[\(3, 5\)\]$"):
        solution_from_dict(data)


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
        cost = tree_cost(scalar, 0, [1.0], OpenLoopPolicy(t=0, d=2, controls=controls))
        assert cost >= opt - 1e-10


def test_gain_policy_cost_matches_value_on_random_instances():
    for seed, problem, t, sol in uniquely_solvable_instances(6, start_seed=300):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=problem.n)
        val = optimal_value(sol, t, x)
        cost = exact_cost(problem, t, x, feedback_policy(sol)).mean
        assert abs(cost - val) <= 1e-10 * max(1.0, abs(val))
