import importlib
import inspect
import pathlib
import re

import numpy as np
import pytest

import delq
from delq.model import DEPTH_CAP_ENV

#: Public helpers that were removed because nothing in the package used them
#: (FEAS_TOL folded into PSD_TOL, which it always equalled; the one-call
#: operator wrappers inlined into apply_operators; STACKED_DIM_CAP bounded
#: the oracle's dense fallback, and the depth cap bounds the elimination;
#: every row-form use of quadratic_rows was a mean, now expected_quadratic;
#: the per-step state_gap and correction_matrix gave way to the stacked slack
#: pass and live on in the tests as its reference).
REMOVED = ("DelayFreeSolution", "solve_delay_free", "forward_simulate", "gains",
           "sym_eig", "SymEigDecomposition", "range_contained", "candidate_wh",
           "FEAS_TOL", "state_response", "control_response", "adjoint_state",
           "adjoint_control", "adjoint_terminal_state", "adjoint_terminal_control",
           "cond_expect", "open_loop_from_values", "STACKED_DIM_CAP", "quadratic_rows",
           "state_gap", "correction_matrix")


def test_every_exported_name_resolves():
    assert len(set(delq.__all__)) == len(delq.__all__)
    for name in delq.__all__:
        assert getattr(delq, name) is not None, name


def test_removed_names_are_gone():
    modules = [importlib.import_module(f"delq.{mod}")
               for mod in ("linalg", "model", "riccati", "lmei", "bsde")]
    for name in REMOVED:
        assert name not in delq.__all__
        assert not hasattr(delq, name), name
        for mod in modules:
            assert not hasattr(mod, name), (mod.__name__, name)


def test_linalg_alone_turns_matrices_into_verdicts():
    """Eigen and singular value decompositions, the pseudo-inverse and the
    max(1, |.|) scale floor live in linalg only; other modules call its
    primitives (scale_floor, eig_margin, rel_deviation, pinv, ...)."""
    pattern = re.compile(r"eigvalsh|eigh\(|linalg\.svd|linalg\.pinv|max\(\s*1(\.0*)?\s*,")
    offenders = [
        f"{path.name}:{lineno}: {line.strip()}"
        for path in sorted(pathlib.Path(delq.__file__).parent.glob("*.py"))
        if path.name != "linalg.py"
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert offenders == []


def test_per_step_sequences_stay_stacks():
    """Problem data, solutions and the backward kernel's inputs share one
    format, a (steps, ., .) stack: no module re-stacks a W/H/K/Q/R sequence
    or re-keys one into a dict by time."""
    pattern = re.compile(r"np\.stack\([^)]*\.[WHKQR]\b|dict\(zip\(")
    offenders = [
        f"{path.name}:{lineno}: {line.strip()}"
        for path in sorted(pathlib.Path(delq.__file__).parent.glob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert offenders == []


def test_no_route_takes_a_tree_or_a_cap():
    """(t, N) fix the scenario tree, and the depth cap is a module
    setting: no public function takes either as an argument."""
    offenders = []
    for mod in ("model", "riccati", "lmei", "bsde", "simulate"):
        module = importlib.import_module(f"delq.{mod}")
        for name, func in inspect.getmembers(module, inspect.isfunction):
            if func.__module__ == module.__name__ and not name.startswith("_"):
                params = set(inspect.signature(func).parameters)
                offenders += [f"{mod}.{name}({p})" for p in params & {"tree", "dim_cap", "cap"}]
    assert offenders == []


_ROUTES = {
    "assemble_quadratic": lambda p, sol: delq.assemble_quadratic(p, 0, [1.0]),
    "rollout": lambda p, sol: delq.rollout(p, 0, [1.0], delq.zero_policy(p, 0)),
    "solve_bsde": lambda p, sol: delq.solve_bsde(0, p, terminal=[[0.0]]),
    "oracle_cost": lambda p, sol: delq.oracle_cost(p, 0, [1.0], np.zeros(p.N * p.m)),
    "auxiliary_cost": lambda p, sol: delq.auxiliary_cost(
        delq.zero_candidate(p, 0), p, 0, 0, [1.0], delq.zero_policy(p, 0)),
    "shifted_policy": lambda p, sol: delq.shifted_policy(
        p, 0, [1.0], delq.zero_policy(p, 0), sol),
    "fixed_pair_check": lambda p, sol: delq.fixed_pair_check(p, 0, [1.0], sol, samples=1),
}


@pytest.mark.parametrize("route", sorted(_ROUTES))
def test_depth_cap_holds_on_every_enumerating_route(route, scalar, scalar_solution,
                                                    monkeypatch):
    # scalar: N = 3 and d = 2, so every control is deterministic and the
    # stacked dimension is N * m
    monkeypatch.setenv(DEPTH_CAP_ENV, "2")
    with pytest.raises(delq.ResourceLimitError, match="tree depth 3 exceeds cap 2"):
        _ROUTES[route](scalar, scalar_solution)
