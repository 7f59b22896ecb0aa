import importlib
import pathlib
import re

import delq

#: Public helpers that were removed because nothing in the package used them
#: (FEAS_TOL folded into PSD_TOL, which it always equalled; the one-call
#: operator wrappers inlined into apply_operators).
REMOVED = ("DelayFreeSolution", "solve_delay_free", "forward_simulate", "gains",
           "sym_eig", "SymEigDecomposition", "range_contained", "candidate_wh",
           "FEAS_TOL", "state_response", "control_response", "adjoint_state",
           "adjoint_control", "adjoint_terminal_state", "adjoint_terminal_control",
           "cond_expect", "open_loop_from_values")


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
