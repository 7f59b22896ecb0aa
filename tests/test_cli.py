import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import delq
from delq import (
    candidate_to_dict,
    certificate_from_riccati,
    optimal_value,
    solution_from_dict,
    solve_riccati,
)
from delq.cli import (
    EXIT_INCONSISTENT,
    EXIT_INVALID,
    EXIT_OK,
    EXIT_UNSOLVABLE,
    EXIT_USAGE,
    main,
)
from delq.model import ProblemData, save_problem

from conftest import nonneg_problem, notconvex_problem, scalar_problem


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("problems")
    out = {}
    for name, prob in [
        ("scalar", scalar_problem()),
        ("notconvex", notconvex_problem(0)),
        ("nonneg", nonneg_problem(3)),
    ]:
        out[name] = str(root / f"{name}.json")
        save_problem(prob, out[name])
    from delq.worked_example import benchmark_problem
    out["benchmark"] = str(root / "benchmark.json")
    save_problem(benchmark_problem(), out["benchmark"])
    out["root"] = root
    return out


def run_json(capsys, *argv):
    code = main(list(argv) + ["--format", "json"])
    captured = capsys.readouterr()
    return code, json.loads(captured.out)


# ---------------------------------------------------------------------------
# solve / value / gains

def test_solve_human_output(paths, capsys):
    assert main(["solve", "--problem", paths["scalar"]]) == EXIT_OK
    out = capsys.readouterr().out
    assert "classification: UniquelySolvable" in out
    assert "min-eig(W_k)" in out


def test_solve_json_round_trips_into_value(paths, capsys):
    code, payload = run_json(capsys, "solve", "--problem", paths["scalar"])
    assert code == EXIT_OK
    sol, classification = solution_from_dict(payload)
    assert classification == "UniquelySolvable"

    code, val = run_json(capsys, "value", "--problem", paths["scalar"], "--x", "1")
    assert code == EXIT_OK
    assert val["value"] == optimal_value(sol, 0, [1.0])
    assert val["value"] == pytest.approx(0.25, abs=1e-12)


def test_solve_honors_initial_time(paths, capsys):
    code, payload = run_json(capsys, "solve", "--problem", paths["scalar"],
                             "--t", "1")
    assert code == EXIT_OK and payload["t"] == 1
    assert payload["P"]["0,1"][0][0] == pytest.approx(1.0 / 3.0, abs=1e-12)

    code, val = run_json(capsys, "value", "--problem", paths["scalar"],
                         "--t", "1", "--x", "1")
    assert code == EXIT_OK
    assert val["value"] == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_value_at_interior_time(paths, capsys):
    code, val = run_json(capsys, "value", "--problem", paths["scalar"],
                         "--x", "1", "--k", "1")
    assert code == EXIT_OK
    assert val["k"] == 1
    assert val["value"] == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_value_refuses_not_convex(paths, capsys):
    code = main(["value", "--problem", paths["notconvex"], "--x", "1,1"])
    assert code == EXIT_UNSOLVABLE
    assert "NotConvex" in capsys.readouterr().err


def test_gains_json(paths, capsys):
    code, payload = run_json(capsys, "gains", "--problem", paths["scalar"])
    assert code == EXIT_OK
    K = [k[0][0] for k in payload["K"]]
    assert K == pytest.approx([-0.25, -1 / 3, -0.5], abs=1e-12)


# ---------------------------------------------------------------------------
# oracle

def test_oracle_agrees_on_scalar(paths, capsys):
    code, payload = run_json(capsys, "oracle", "--problem", paths["scalar"],
                             "--x", "1")
    assert code == EXIT_OK
    assert payload["status"] == "Bounded"
    assert abs(payload["difference"]) <= 1e-10


def test_oracle_agrees_on_benchmark(paths, capsys):
    code, payload = run_json(capsys, "oracle", "--problem", paths["benchmark"],
                             "--x", "1,0")
    assert code == EXIT_OK
    scale = max(1.0, abs(payload["recursion_value"]))
    assert abs(payload["difference"]) <= 1e-6 * scale


def test_oracle_reports_unbounded_consistently(paths, capsys):
    code, payload = run_json(capsys, "oracle", "--problem", paths["notconvex"],
                             "--x", "1,1")
    assert code == EXIT_UNSOLVABLE
    assert payload["status"] == "Unbounded"
    assert payload["classification"] == "NotConvex"
    assert "negative eigenvalue" in payload["reason"]


def test_oracle_dimension_cap_is_an_input_error(paths, capsys, tmp_path):
    big = ProblemData(n=1, m=1, N=15, d=0,
                      A=[[[1.0]]] * 15, B=[[[1.0]]] * 15, C=[[[0.0]]] * 15,
                      D=[[[0.0]]] * 15, Q=[[[0.0]]] * 15, R=[[[1.0]]] * 15,
                      G=[[1.0]])
    path = str(tmp_path / "big.json")
    save_problem(big, path)
    code = main(["oracle", "--problem", path, "--x", "1"])
    assert code == EXIT_INVALID
    assert "exceeds cap" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# simulate

def test_simulate_exact_by_default(paths, capsys):
    code, payload = run_json(capsys, "simulate", "--problem", paths["scalar"],
                             "--x", "1")
    assert code == EXIT_OK
    assert payload["mode"] == "Exact" and payload["samples"] == 8
    assert payload["mean"] == pytest.approx(0.25, abs=1e-12)
    assert payload["std_error"] == 0.0


def test_simulate_monte_carlo_is_reproducible(paths, capsys):
    argv = ["simulate", "--problem", paths["benchmark"], "--x", "1,0",
            "--samples", "2000", "--seed", "5"]
    assert main(argv) == EXIT_OK
    first = capsys.readouterr().out
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == first  # bit-identical rerun


def test_simulate_gaussian_requires_samples(paths, capsys):
    code = main(["simulate", "--problem", paths["scalar"], "--x", "1",
                 "--noise", "gaussian"])
    assert code == EXIT_INVALID
    assert "--samples" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# feasibility system

def test_lmei_check_certificate(paths, capsys):
    code, payload = run_json(capsys, "lmei", "check", "--problem",
                             paths["scalar"], "--certificate")
    assert code == EXIT_OK
    assert payload["feasible"] is True
    assert all(c["satisfied"] for c in payload["constraints"])


def test_lmei_check_zero_candidate_on_indefinite_data(paths, capsys):
    code, payload = run_json(capsys, "lmei", "check", "--problem",
                             paths["benchmark"], "--zero")
    assert code == EXIT_UNSOLVABLE
    assert payload["feasible"] is False


def test_lmei_check_candidate_file(paths, capsys, tmp_path):
    prob = scalar_problem()
    cand = certificate_from_riccati(solve_riccati(prob, 0), prob)
    path = tmp_path / "candidate.json"
    path.write_text(json.dumps(candidate_to_dict(cand)))
    code, payload = run_json(capsys, "lmei", "check", "--problem",
                             paths["scalar"], "--candidate", str(path))
    assert code == EXIT_OK and payload["feasible"] is True


def test_lmei_candidate_sources_are_exclusive(paths, capsys):
    code = main(["lmei", "check", "--problem", paths["scalar"],
                 "--zero", "--certificate"])
    assert code == EXIT_USAGE
    assert "not allowed with" in capsys.readouterr().err


def test_lmei_construct_matches_direct_solve(paths, capsys):
    code, payload = run_json(capsys, "lmei", "construct", "--problem",
                             paths["nonneg"], "--zero")
    assert code == EXIT_OK
    built, _ = solution_from_dict(payload)
    direct = solve_riccati(nonneg_problem(3), 0)
    for key in direct.P:
        scale = max(1.0, float(np.max(np.abs(direct.P[key]))))
        assert float(np.max(np.abs(built.P[key] - direct.P[key]))) <= 1e-8 * scale


def test_lmei_construct_refuses_infeasible_candidate(paths, capsys):
    code = main(["lmei", "construct", "--problem", paths["benchmark"], "--zero"])
    assert code == EXIT_UNSOLVABLE
    assert "infeasible" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# bundled benchmark

def test_example_command_human(capsys):
    assert main(["example", "paper"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "classification: UniquelySolvable" in out
    assert "K computed" in out


def test_example_command_json(capsys):
    code, payload = run_json(capsys, "example", "paper")
    assert code == EXIT_OK
    assert payload["classification"] == "UniquelySolvable"
    assert payload["anchored_ok"] is True
    assert len(payload["rows"]) == 4


# ---------------------------------------------------------------------------
# error-channel contract

def test_usage_errors(paths, capsys, tmp_path):
    assert main([]) == EXIT_USAGE
    capsys.readouterr()
    assert main(["solve"]) == EXIT_USAGE
    assert "required" in capsys.readouterr().err
    assert main(["value", "--problem", paths["scalar"], "--x", "1,foo"]) == EXIT_USAGE
    assert "comma-separated" in capsys.readouterr().err
    assert main(["solve", "--problem", paths["scalar"], "--bogus"]) == EXIT_USAGE
    capsys.readouterr()
    # flags a command does not read are refused
    for argv in (["solve", "--problem", paths["scalar"], "--feas-tol", "1e-9"],
                 ["simulate", "--problem", paths["scalar"], "--x", "1", "--psd-tol", "1e-6"]):
        assert main(argv) == EXIT_USAGE
        assert "usage error" in capsys.readouterr().err
    assert main(["solve", "--problem", str(tmp_path / "nope.json")]) == EXIT_USAGE
    assert "file error" in capsys.readouterr().err

    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["solve", "--problem", str(broken)]) == EXIT_USAGE
    assert "JSON parse error" in capsys.readouterr().err


def test_invalid_problem_data(paths, capsys, tmp_path):
    data = json.loads(open(paths["scalar"]).read())
    del data["G"]
    path = tmp_path / "missing.json"
    path.write_text(json.dumps(data))
    assert main(["solve", "--problem", str(path)]) == EXIT_INVALID
    assert "missing fields" in capsys.readouterr().err


def test_exit_codes_are_distinct():
    codes = [EXIT_OK, EXIT_USAGE, EXIT_INVALID, EXIT_UNSOLVABLE, EXIT_INCONSISTENT]
    assert codes == [0, 1, 2, 3, 4]


def test_overflow_in_recursion_is_a_numerical_breakdown(tmp_path):
    """Finite data whose recursion overflows (A = 1e200) ends in exit 4 with
    a message naming the step, without numpy warnings or a traceback. Run
    in a fresh interpreter so stderr is exactly what a user sees."""
    one, zero = [[[1.0]]] * 6, [[[0.0]]] * 6
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps({
        "n": 1, "m": 1, "N": 6, "d": 2, "A": [[[1e200]]] * 6, "B": one,
        "C": zero, "D": zero, "Q": one, "R": one, "G": [[1.0]],
    }))
    src = os.path.dirname(os.path.dirname(delq.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for argv in (["solve"], ["value", "--x", "1"], ["lmei", "construct", "--zero"]):
        proc = subprocess.run([sys.executable, "-m", "delq", *argv, "--problem", str(path)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == EXIT_INCONSISTENT, (argv, proc.stderr)
        assert re.search(r"numerical breakdown: non-finite W/H at k=\d+", proc.stderr), argv
        for bad in ("RuntimeWarning", "Traceback", "invalid input"):
            assert bad not in proc.stderr, (argv, proc.stderr)


def test_linalg_error_is_a_numerical_breakdown(paths, capsys, monkeypatch):
    """A pseudo-inverse (or eigenvalue or oracle solve) that fails to
    converge ends in exit 4 with a message, not a traceback."""
    def failing_pinv(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "pinv", failing_pinv)
    assert main(["solve", "--problem", paths["scalar"]]) == EXIT_INCONSISTENT
    err = capsys.readouterr().err
    assert err == "consistency failure: numerical breakdown: SVD did not converge\n"
    assert "Traceback" not in err
