import ast
import importlib
import inspect
import pathlib
import re

import numpy as np
import pytest

import delq
from delq.model import DEPTH_CAP_ENV

import identities

#: Public helpers that were removed because nothing in the package used them
#: (FEAS_TOL folded into PSD_TOL, which it always equalled; the one-call
#: operator wrappers inlined into apply_operators; STACKED_DIM_CAP bounded
#: the oracle's dense fallback, and the depth cap bounds the elimination;
#: every row-form use of quadratic_rows was a mean, now expected_quadratic;
#: the per-step state_gap and correction_matrix gave way to the stacked slack
#: pass and live on in the tests as its reference; the tree-rollout engine,
#: the open-loop policy kind and the identity suites on them, from
#: AdaptedProcess to shifted_policy below, moved to tests/identities.py, since
#: no command ran them).
REMOVED = ("DelayFreeSolution", "solve_delay_free", "forward_simulate", "gains",
           "sym_eig", "SymEigDecomposition", "range_contained", "candidate_wh",
           "FEAS_TOL", "state_response", "control_response", "adjoint_state",
           "adjoint_control", "adjoint_terminal_state", "adjoint_terminal_control",
           "cond_expect", "open_loop_from_values", "STACKED_DIM_CAP", "quadratic_rows",
           "state_gap", "correction_matrix",
           "AdaptedProcess", "OpenLoopPolicy", "ScenarioTree", "Trajectory", "build_tree",
           "rollout", "trajectory_cost", "zero_policy", "recompute_wh", "apply_operators",
           "cost_difference_residual", "decoupling_residual", "first_variation_inner",
           "fixed_pair_check", "oracle_cost", "process_inner", "solve_bsde",
           "stationary_residual", "terminal_inner", "auxiliary_cost",
           "completion_of_squares_residual", "cost_decomposition_check", "shifted_policy",
           "StepEvidence", "ConstraintStatus")


def test_every_exported_name_resolves():
    assert len(set(delq.__all__)) == len(delq.__all__)
    for name in delq.__all__:
        assert getattr(delq, name) is not None, name


def test_removed_names_are_gone():
    modules = [importlib.import_module(f"delq.{mod}")
               for mod in ("linalg", "model", "riccati", "lmei", "bsde", "simulate")]
    for name in REMOVED:
        assert name not in delq.__all__
        assert not hasattr(delq, name), name
        for mod in modules:
            assert not hasattr(mod, name), (mod.__name__, name)


#: Public names no command calls, each kept for a reason.
UNREACHED_BY_THE_CLI = {
    # the deliberately independent routes the tests hold the CLI's to
    "solve_riccati_bar": "the single-region recursion",
    "predictor": "the direct per-path delayed predictor",
    # halves of serialization pairs whose other half the CLI uses
    "save_problem": "writes the files load_problem reads",
    "problem_to_dict": "the writer of problem_from_dict's schema",
    "solution_from_dict": "the reader of solution_to_dict's output",
    "candidate_to_dict": "the writer of candidate_from_dict's schema",
    "make_candidate": "candidate_from_dict's checks, on matrices keyed (i, k)",
    # per-block references that the tests hold the stacked verdicts to
    "is_psd": "the one-matrix PSD verdict",
    "schur_block_psd": "the one-block Schur verdict",
}


def _cli_reach() -> set[str]:
    """Names reached from delq.cli.main in a name graph of src/delq: a
    module-level def, class or assignment reaches every name and attribute
    it mentions (by name, whichever module defines it)."""
    mentions: dict[str, set[str]] = {}
    for path in pathlib.Path(delq.__file__).parent.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [target.id for target in targets if isinstance(target, ast.Name)]
            else:
                continue
            refs = {getattr(sub, "id", getattr(sub, "attr", None)) for sub in ast.walk(node)}
            for name in names:
                mentions.setdefault(name, set()).update(refs)
    reached, todo = set(), ["main"]
    while todo:
        name = todo.pop()
        if name in mentions and name not in reached:
            reached.add(name)
            todo.extend(mentions[name])
    return reached


def test_every_public_name_is_reached_from_the_cli():
    """The library keeps what its commands call: every name in __all__ is
    reached from cli.main, or is allowlisted with its reason."""
    unreached = set(delq.__all__) - _cli_reach()
    assert unreached - set(UNREACHED_BY_THE_CLI) == set()
    # an allowlisted name that the CLI now reaches leaves the list
    assert set(UNREACHED_BY_THE_CLI) <= unreached


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
    or re-keys one into a dict by time, and P is one array behind its
    mapping, never a dict of blocks."""
    pattern = re.compile(r"np\.stack\([^)]*\.[WHKQR]\b|dict\(zip\(|dict\[tuple\[int, int\]"
                         r"|\bdict\([^()]*\bP\)")
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
    "rollout": lambda p, sol: identities.rollout(p, 0, [1.0], identities.zero_policy(p, 0)),
    "solve_bsde": lambda p, sol: identities.solve_bsde(0, p, terminal=[[0.0]]),
    "oracle_cost": lambda p, sol: identities.oracle_cost(p, 0, [1.0], np.zeros(p.N * p.m)),
    "auxiliary_cost": lambda p, sol: identities.auxiliary_cost(
        delq.zero_candidate(p, 0), p, 0, 0, [1.0], identities.zero_policy(p, 0)),
    "shifted_policy": lambda p, sol: identities.shifted_policy(
        p, 0, [1.0], identities.zero_policy(p, 0), sol),
    "fixed_pair_check": lambda p, sol: identities.fixed_pair_check(
        p, 0, [1.0], sol, samples=1),
}


@pytest.mark.parametrize("route", sorted(_ROUTES))
def test_depth_cap_holds_on_every_enumerating_route(route, scalar, scalar_solution,
                                                    monkeypatch):
    # scalar: N = 3 and d = 2, so every control is deterministic and the
    # stacked dimension is N * m
    monkeypatch.setenv(DEPTH_CAP_ENV, "2")
    with pytest.raises(delq.ResourceLimitError, match="tree depth 3 exceeds cap 2"):
        _ROUTES[route](scalar, scalar_solution)
