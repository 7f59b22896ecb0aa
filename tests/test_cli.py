import contextlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import delq
from delq import (
    candidate_to_dict,
    certificate_from_riccati,
    classify,
    dumps,
    load_problem,
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
from delq.simulate import PATH_STEP_CAP_ENV

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


@pytest.mark.parametrize("name", ["benchmark", "notconvex", "nonneg"])
def test_solve_human_table_is_the_report_columns(paths, capsys, name):
    """The human solve table: the grade, then one row per k = t..N-1 with
    the report's w_min_eig and range_residual at that step."""
    problem = load_problem(paths[name])
    for t in (0, 1):
        assert main(["solve", "--problem", paths[name], "--t", str(t)]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        report = classify(solve_riccati(problem, t))
        assert lines[0] == f"classification: {report.classification}"
        header = lines.index(f"{'k':>4}  {'min-eig(W_k)':>14}  {'range-residual':>14}")
        rows = [line.split() for line in lines[header + 1:]]
        assert [int(k) for k, _, _ in rows] == list(range(t, problem.N))
        assert [lam for _, lam, _ in rows] == [f"{v:.6e}" for v in report.w_min_eig]
        assert [resid for _, _, resid in rows] == [f"{v:.6e}" for v in report.range_residual]


def test_human_output_builds_no_json_payload(paths, capsys, monkeypatch):
    """Human solve and lmei construct never call solution_to_dict; the JSON
    route calls it through the name delq.cli binds."""
    calls = []
    monkeypatch.setattr(delq.cli, "solution_to_dict", lambda *args: calls.append(args) or {})
    assert main(["solve", "--problem", paths["benchmark"]]) == EXIT_OK
    assert main(["lmei", "construct", "--problem", paths["nonneg"], "--zero"]) == EXIT_OK
    assert calls == []
    assert main(["solve", "--problem", paths["benchmark"], "--format", "json"]) == EXIT_OK
    assert len(calls) == 1 and capsys.readouterr().out.endswith("{}\n")


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
    assert payload["reason"].endswith(" at k=2")


def test_oracle_is_bounded_by_the_depth_cap_alone(capsys, tmp_path, monkeypatch):
    """A stacked dimension of 32767 (N = 15, d = 0) is eliminated and
    matches the recursion; only the tree-depth cap refuses it."""
    big = ProblemData(n=1, m=1, N=15, d=0,
                      A=[[[1.0]]] * 15, B=[[[1.0]]] * 15, C=[[[0.0]]] * 15,
                      D=[[[0.0]]] * 15, Q=[[[0.0]]] * 15, R=[[[1.0]]] * 15,
                      G=[[1.0]])
    path = str(tmp_path / "big.json")
    save_problem(big, path)
    code, payload = run_json(capsys, "oracle", "--problem", path, "--x", "1")
    assert code == EXIT_OK and payload["status"] == "Bounded"
    assert payload["difference"] <= 1e-6 * max(1.0, abs(payload["recursion_value"]))
    monkeypatch.setenv("DELQ_DEPTH_CAP", "14")
    assert main(["oracle", "--problem", path, "--x", "1"]) == EXIT_INVALID
    assert "tree depth 15 exceeds cap" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# simulate

def test_simulate_exact_by_default(paths, capsys):
    code, payload = run_json(capsys, "simulate", "--problem", paths["scalar"],
                             "--x", "1")
    assert code == EXIT_OK
    assert payload["mode"] == "Exact" and payload["samples"] is None
    assert payload["mean"] == pytest.approx(0.25, abs=1e-12)
    assert payload["std_error"] == 0.0


def test_simulate_monte_carlo_is_reproducible(paths, capsys):
    argv = ["simulate", "--problem", paths["benchmark"], "--x", "1,0",
            "--samples", "2000", "--seed", "5"]
    assert main(argv) == EXIT_OK
    first = capsys.readouterr().out
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == first  # bit-identical rerun


def test_simulate_gaussian_exact_equals_rademacher_exact(paths, capsys):
    """The exact mean needs only E w = 0 and E w^2 = 1: the same float under
    either noise model, which the payload names."""
    payloads = {}
    for noise in ("rademacher", "gaussian"):
        code, payloads[noise] = run_json(capsys, "simulate", "--problem", paths["benchmark"],
                                         "--x", "1,-0.5", "--noise", noise)
        assert code == EXIT_OK
    assert payloads["gaussian"].pop("noise") == "Gaussian"
    assert payloads["rademacher"].pop("noise") == "Rademacher"
    assert payloads["gaussian"] == payloads["rademacher"]
    assert payloads["gaussian"]["samples"] is None


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
    path.write_text(dumps(candidate_to_dict(cand)))
    code, payload = run_json(capsys, "lmei", "check", "--problem",
                             paths["scalar"], "--candidate", str(path))
    assert code == EXIT_OK and payload["feasible"] is True


_CONSTRAINT_LINE = re.compile(r" *(\w+) k=(\d+)(?: i=(\d+))? +margin (\S+)  (ok|VIOLATED)")


@pytest.mark.parametrize("name, source, want", [("benchmark", "--zero", EXIT_UNSOLVABLE),
                                                 ("nonneg", "--certificate", EXIT_OK)])
def test_lmei_check_human_rows_are_the_json_rows(paths, capsys, name, source, want):
    """The human lmei check table holds the JSON constraints row for row, and
    VIOLATED stands exactly where satisfied is false."""
    argv = ["lmei", "check", "--problem", paths[name], source]
    assert main(argv) == want
    lines = capsys.readouterr().out.splitlines()
    code, payload = run_json(capsys, *argv)
    assert code == want
    assert lines[-1] == f"feasible: {payload['feasible']}"
    for line, c in zip(lines[:-1], payload["constraints"], strict=True):
        kind, k, i, margin, status = _CONSTRAINT_LINE.fullmatch(line).groups()
        assert (kind, int(k), None if i is None else int(i)) == (c["kind"], c["k"], c["i"])
        assert margin == f"{c['margin']:+.3e}"
        assert (status == "VIOLATED") is not c["satisfied"]
    assert ("VIOLATED" in "\n".join(lines)) is (want == EXIT_UNSOLVABLE)


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
    data = json.loads(pathlib.Path(paths["scalar"]).read_text())
    del data["G"]
    path = tmp_path / "missing.json"
    path.write_text(json.dumps(data))
    assert main(["solve", "--problem", str(path)]) == EXIT_INVALID
    assert "missing fields" in capsys.readouterr().err


@pytest.mark.parametrize("name, value", [("N", 4.7), ("m", 2.9), ("n", True), ("d", "1")])
def test_non_integral_dimensions_are_refused(paths, capsys, tmp_path, name, value):
    """N = 4.7 used to run as N = 4 (exit 0), and n = true as n = 1; an
    integral float such as 2.0 still reads as 2."""
    data = json.loads(pathlib.Path(paths["benchmark"]).read_text())
    integral = float(data[name])
    data[name] = value
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(data))
    for argv in (["solve"], ["oracle", "--x=1,-0.5"], ["simulate", "--x=1,-0.5"],
                 ["lmei", "construct", "--certificate"]):
        assert main(argv + ["--problem", str(path)]) == EXIT_INVALID, argv
        assert capsys.readouterr().err == \
            f"invalid input: {name} must be an integer, got {value!r}\n"
    data[name] = integral
    path.write_text(json.dumps(data))
    assert main(["solve", "--problem", str(path)]) == EXIT_OK
    capsys.readouterr()


_NOT_NUMBERS = [True, False, "0.5"]


@pytest.mark.parametrize("value", _NOT_NUMBERS)
def test_non_numbers_inside_matrices_are_refused(paths, capsys, tmp_path, value):
    """A boolean or a numeric string inside a problem's matrix, or inside a
    candidate's, exits 2 naming the field (true used to run as 1.0, and a
    candidate with "0.5" entries to read feasible)."""
    data = json.loads(pathlib.Path(paths["benchmark"]).read_text())
    path = tmp_path / "input.json"
    for name in ("A", "R", "G"):
        bad = json.loads(json.dumps(data))
        (bad[name] if name == "G" else bad[name][1])[0][0] = value
        path.write_text(json.dumps(bad))
        what = "a numeric matrix" if name == "G" else "a sequence of numeric matrices"
        for argv in (["solve"], ["value", "--x=1,-0.5"], ["lmei", "check", "--zero"]):
            assert main(argv + ["--problem", str(path)]) == EXIT_INVALID, argv
            assert capsys.readouterr().err == f"invalid input: {name} is not {what}\n"
    bench = delq.benchmark_problem()
    candidate = json.loads(dumps(candidate_to_dict(
        certificate_from_riccati(solve_riccati(bench, 0), bench))))
    candidate["P"]["0,1"][1][1] = value
    path.write_text(json.dumps(candidate))
    assert main(["lmei", "check", "--problem", paths["benchmark"],
                 "--candidate", str(path)]) == EXIT_INVALID
    assert capsys.readouterr().err == (
        "invalid input: malformed candidate JSON: P entry '0,1' holds a "
        f"{type(value).__name__} where a number belongs\n")


def _malformed_problem(rng, data):
    """The JSON text of one malformed copy of a problem dict: a wrong type,
    a ragged stack, a NaN or Infinity literal, 1e400, a missing key, a
    non-object top level, a non-integral or boolean dimension, or a boolean
    or numeric string inside a matrix; and whether it is one of the last,
    which must exit 2."""
    data = json.loads(json.dumps(data))
    kind = rng.integers(9)
    stack = ["A", "B", "C", "D", "Q", "R"][rng.integers(6)]
    k = int(rng.integers(len(data[stack])))
    if kind == 0:
        key = sorted(data)[rng.integers(len(data))]
        data[key] = ["x", None, {}, [], 1.5, [[["x"]]], True][rng.integers(7)]
    elif kind == 1:
        ragged = [lambda: data[stack][k].pop(), lambda: data[stack][k][0].append(1.0),
                  lambda: data[stack].pop(), lambda: data["G"].pop()]
        ragged[rng.integers(len(ragged))]()
    elif kind == 2:
        data[stack][k][0][0] = [float("nan"), float("inf"), -float("inf")][rng.integers(3)]
    elif kind == 3:
        data[stack][k][0][0] = "HUGE"
        return json.dumps(data).replace('"HUGE"', ["1e400", "-1e400"][rng.integers(2)]), False
    elif kind == 4:
        del data[sorted(data)[rng.integers(len(data))]]
    elif kind == 5:
        return json.dumps([[data], "problem", 3, None][rng.integers(4)]), False
    elif kind == 8:
        matrix = data["G"] if rng.integers(7) == 6 else data[stack][k]
        matrix[0][0] = _NOT_NUMBERS[rng.integers(3)]
        return json.dumps(data), True
    else:
        values = [4.7, 2.9, -0.5, 1e-3] if kind == 6 else [True, False]
        data["nmNd"[rng.integers(4)]] = values[rng.integers(len(values))]
    return json.dumps(data), False


def _malformed_candidate(rng, data):
    """The JSON text of one malformed copy of a candidate dict, of the same
    kinds as ``_malformed_problem``'s, and whether it must exit 2."""
    data = json.loads(json.dumps(data))
    kind = rng.integers(8)
    key = sorted(data["P"])[rng.integers(len(data["P"]))]
    if kind == 0:
        field = ["t", "P"][rng.integers(2)]
        data[field] = ["x", None, {}, [], 1.5, True][rng.integers(6)]
    elif kind == 1:
        data["P"][key][rng.integers(2)].pop()
    elif kind == 2:
        data["P"][key][0][0] = [float("nan"), float("inf")][rng.integers(2)]
    elif kind == 3:
        data["P"][key][1][1] = "HUGE"
        return json.dumps(data).replace('"HUGE"', "1e400"), False
    elif kind == 4:
        del data[["t", "P"][rng.integers(2)]]
    elif kind == 5:
        return json.dumps([[data], "candidate", 3, None][rng.integers(4)]), False
    elif kind == 7:
        data["P"][key][rng.integers(2)][rng.integers(2)] = _NOT_NUMBERS[rng.integers(3)]
        return json.dumps(data), True
    else:
        data["t"] = 4.7
    return json.dumps(data), False


def _run_quietly(argv):
    """main(argv) with warnings raised as errors; (exit code, stderr)."""
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    return code, err.getvalue()


@pytest.mark.parametrize("seed", range(4))
def test_malformed_files_exit_with_one_line(paths, tmp_path, seed):
    """Seeded malformed problem files through solve, oracle, simulate and
    lmei check, and malformed candidate files through lmei check
    --candidate: every exit is a failure code, with one stderr line, no
    traceback and no warning; a boolean or string inside a matrix exits 2."""
    rng = np.random.default_rng(seed)
    problem = json.loads(pathlib.Path(paths["benchmark"]).read_text())
    bench = delq.benchmark_problem()
    candidate = json.loads(dumps(candidate_to_dict(
        certificate_from_riccati(solve_riccati(bench, 0), bench))))
    path = tmp_path / "input.json"
    cases = [(json.dumps({**problem, "N": 4.7}), False)] + [_malformed_problem(rng, problem)
                                                           for _ in range(25)]
    for text, invalid in cases:
        path.write_text(text)
        for argv in (["solve"], ["oracle", "--x=1,-0.5"], ["simulate", "--x=1,-0.5"],
                     ["lmei", "check", "--zero"]):
            code, err = _run_quietly(argv + ["--problem", str(path)])
            assert code in (EXIT_USAGE, EXIT_INVALID, EXIT_UNSOLVABLE,
                            EXIT_INCONSISTENT), (argv, text)
            assert code == EXIT_INVALID or not invalid, (argv, text)
            assert err.count("\n") == 1 and err.endswith("\n"), (argv, err)
            assert "Traceback" not in err, (argv, text)
    for _ in range(25):
        text, invalid = _malformed_candidate(rng, candidate)
        path.write_text(text)
        code, err = _run_quietly(["lmei", "check", "--problem", paths["benchmark"],
                                  "--candidate", str(path)])
        assert code in (EXIT_USAGE, EXIT_INVALID, EXIT_UNSOLVABLE,
                        EXIT_INCONSISTENT), text
        assert code == EXIT_INVALID or not invalid, text
        assert err.count("\n") == 1 and err.endswith("\n"), err
        assert "Traceback" not in err


def test_an_allocation_that_fails_is_invalid_input(paths, monkeypatch):
    """A MemoryError, as numpy raises for a P array it cannot allocate,
    exits 2 with one line and no traceback (the allocation is simulated;
    solve allocates every row of P, value and gains a two-row ring)."""
    message = ("Unable to allocate 13.4 GiB for an array with shape (400030000, 3, 3) "
               "and data type float64")

    def unallocatable(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(delq.riccati, "_p_rows", unallocatable)
    for argv in (["value", "--x=1,-0.5"], ["solve", "--format", "json"], ["gains"]):
        code, err = _run_quietly(argv + ["--problem", paths["benchmark"]])
        assert code == EXIT_INVALID, argv
        assert err == f"invalid input: out of memory: {message}\n", argv


def test_an_unallocatable_p_array_is_invalid_input(paths, monkeypatch):
    """The commands that keep P's blocks exit 2 with one line naming the
    block count, n and bytes when the array cannot be allocated (simulated:
    every 4-d allocation fails)."""
    zeros = np.zeros

    def unallocatable(shape, *args, **kwargs):
        if len(shape) == 4:
            raise MemoryError("Unable to allocate")
        return zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", unallocatable)
    for argv in (["solve"], ["lmei", "construct", "--certificate"]):
        code, err = _run_quietly(argv + ["--problem", paths["benchmark"]])
        assert code == EXIT_INVALID, argv
        assert re.fullmatch(r"invalid input: cannot allocate the P array: \d+ blocks of 2x2 "
                            r"\(\d+ bytes\)\n", err), err


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


def test_initial_state_is_checked_once_and_overflow_is_a_breakdown(paths):
    """On the benchmark instance a non-finite initial state is invalid input
    (exit 2) with one message on every command that takes --x, and a finite
    one whose cost overflows (x = 1e200) ends in exit 4 naming what became
    non-finite, never in a NaN printed with exit 0. Run in a fresh
    interpreter so stderr is exactly what a user sees."""
    src = os.path.dirname(os.path.dirname(delq.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    cases = [(cmd, x, EXIT_INVALID, "invalid input: initial state contains non-finite entries")
             for cmd in (["oracle"], ["value"], ["simulate"], ["simulate", "--samples", "10"])
             for x in ("nan,1", "1,inf")]
    cases += [(["oracle"], "1e200,1", EXIT_INCONSISTENT, "non-finite oracle form"),
              (["value"], "1e200,1", EXIT_INCONSISTENT, "non-finite value at k=0"),
              (["simulate"], "1e200,1", EXIT_INCONSISTENT, "non-finite simulated mean"),
              (["simulate", "--samples", "10", "--noise", "gaussian"], "1e200,1",
               EXIT_INCONSISTENT, "non-finite simulated mean")]
    for argv, x, code, message in cases:
        proc = subprocess.run([sys.executable, "-m", "delq", *argv, f"--x={x}", "--format",
                               "json", "--problem", paths["benchmark"]],
                              capture_output=True, text=True, env=env, timeout=120)
        assert (proc.returncode, proc.stdout) == (code, ""), (argv, x, proc.stdout, proc.stderr)
        if code == EXIT_INCONSISTENT:
            message = f"consistency failure: numerical breakdown: {message}"
        assert proc.stderr == message + "\n", (argv, x, proc.stderr)


def test_overflowing_terminal_weight_is_a_numerical_breakdown(tmp_path):
    """A finite terminal weight G = 1e308 overflows its symmetrization
    (G + G^T)/2: every command that solves the recursion exits 4 naming the
    symmetrized terminal weight, without numpy warnings or a traceback."""
    one, zero = [[[1.0]]], [[[0.0]]]
    path = tmp_path / "terminal.json"
    path.write_text(json.dumps({
        "n": 1, "m": 1, "N": 1, "d": 0, "A": one, "B": one, "C": zero, "D": zero,
        "Q": one, "R": one, "G": [[1e308]],
    }))
    src = os.path.dirname(os.path.dirname(delq.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for argv in (["value", "--x=0.5"], ["solve"], ["gains"], ["oracle", "--x=0.5"],
                 ["simulate", "--x=0.5"]):
        proc = subprocess.run([sys.executable, "-m", "delq", *argv, "--problem", str(path)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == EXIT_INCONSISTENT, (argv, proc.stderr)
        assert proc.stderr == ("consistency failure: numerical breakdown: non-finite "
                               "symmetrized terminal weight at k=1\n"), argv
        for bad in ("RuntimeWarning", "Traceback"):
            assert bad not in proc.stderr, (argv, proc.stderr)


def test_overflowing_terminal_gap_is_a_numerical_breakdown(tmp_path):
    """G = 1e308 makes the terminal gap G - P~^(0)_N of the zero candidate
    finite but its symmetrization infinite: check and construct exit 4
    naming k = N in either format, with no RuntimeWarning (turned into an
    error here) and no NaN margin on stdout."""
    one, zero = [[[1.0]]] * 2, [[[0.0]]] * 2
    path = tmp_path / "terminal-gap.json"
    path.write_text(json.dumps({
        "n": 1, "m": 1, "N": 2, "d": 1, "A": one, "B": one, "C": zero, "D": zero,
        "Q": one, "R": one, "G": [[1e308]],
    }))
    src = os.path.dirname(os.path.dirname(delq.__file__))
    env = dict(os.environ, PYTHONPATH=src, PYTHONWARNINGS="error::RuntimeWarning")
    for sub in ("check", "construct"):
        for fmt in ("human", "json"):
            proc = subprocess.run([sys.executable, "-m", "delq", "lmei", sub, "--zero",
                                   "--problem", str(path), "--format", fmt],
                                  capture_output=True, text=True, env=env, timeout=120)
            assert proc.returncode == EXIT_INCONSISTENT, (sub, fmt, proc.stderr)
            assert proc.stderr == ("consistency failure: numerical breakdown: non-finite "
                                   "candidate slack at k=2\n"), (sub, fmt)
            assert proc.stdout == "", (sub, fmt)


@pytest.mark.parametrize("edit, message", [
    (lambda P: P.__setitem__("0,1", [[1e308]]),
     "non-finite symmetrized candidate P~^(0) at k=1"),
    (lambda P: P.update({f"{i},2": [[8e307]] for i in range(3)}),
     "non-finite candidate slack at k=1"),
], ids=["symmetrization", "slack"])
def test_overflow_in_candidate_is_a_numerical_breakdown(paths, tmp_path, edit, message):
    """A finite candidate whose arithmetic overflows on the scalar problem
    ends in exit 4 naming the step, for check and construct, without numpy
    warnings: P~^(0)_1 = 1e308 overflows (S + S^T)/2 (it used to exit 2
    with a message about S), three blocks of 8e307 at time 2 overflow the
    slack W~_1."""
    cand = certificate_from_riccati(solve_riccati(scalar_problem(), 0), scalar_problem())
    data = json.loads(dumps(candidate_to_dict(cand)))
    edit(data["P"])
    path = tmp_path / "overflow-candidate.json"
    path.write_text(json.dumps(data))
    src = os.path.dirname(os.path.dirname(delq.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for sub in ("check", "construct"):
        proc = subprocess.run([sys.executable, "-m", "delq", "lmei", sub, "--problem",
                               paths["scalar"], "--candidate", str(path)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == EXIT_INCONSISTENT, (sub, proc.stderr)
        assert proc.stderr == f"consistency failure: numerical breakdown: {message}\n", sub


def test_lmei_huge_candidate_block_is_graded_not_a_route_split(capsys, tmp_path):
    """A candidate with P~^(0)_1 = 1e300 makes the k = 0 block
    [[1 + 1.25e300, 1.25e300], [1.25e300, 1 + 1.25e300]], which is PSD while
    its Schur complement is pure rounding noise: check and construct grade
    it (exit 0 or 3) and never report a consistency failure (exit 4)."""
    one, half = [[[1.0]]] * 3, [[[0.5]]] * 3
    prob = ProblemData(n=1, m=1, N=3, d=2, A=one, B=one, C=half, D=half,
                       Q=one, R=one, G=[[1.0]])
    problem_path, cand_path = tmp_path / "problem.json", tmp_path / "candidate.json"
    save_problem(prob, str(problem_path))
    data = json.loads(dumps(candidate_to_dict(delq.zero_candidate(prob, 0))))
    data["P"]["0,1"] = [[1e300]]
    cand_path.write_text(json.dumps(data))
    for sub in ("check", "construct"):
        code = main(["lmei", sub, "--problem", str(problem_path),
                     "--candidate", str(cand_path)])
        err = capsys.readouterr().err
        assert code in (EXIT_OK, EXIT_UNSOLVABLE), (sub, err)
        assert "disagree" not in err, sub


@pytest.mark.parametrize("edit", [
    lambda data: data["P"].__setitem__("00,1", [[-5.0]]),
    lambda data: data.__setitem__("t", 0.7),
    lambda data: data.__setitem__("t", False),
])
def test_lmei_rejects_ambiguous_candidate_json(paths, capsys, tmp_path, edit):
    cand = certificate_from_riccati(solve_riccati(scalar_problem(), 0), scalar_problem())
    data = json.loads(dumps(candidate_to_dict(cand)))
    edit(data)
    path = tmp_path / "candidate.json"
    path.write_text(json.dumps(data))
    assert main(["lmei", "check", "--problem", paths["scalar"],
                 "--candidate", str(path)]) == EXIT_INVALID
    assert capsys.readouterr().err.startswith("invalid input: malformed candidate JSON: ")


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


# ---------------------------------------------------------------------------
# JSON output and numeric options

@pytest.mark.parametrize("argv", [
    ["solve", "--problem", "{benchmark}"],
    ["solve", "--problem", "{notconvex}"],
    ["gains", "--problem", "{benchmark}"],
    ["value", "--problem", "{benchmark}", "--x", "1,-0.5"],
    ["lmei", "check", "--problem", "{benchmark}", "--zero"],
    ["lmei", "check", "--problem", "{nonneg}", "--certificate"],
    ["lmei", "construct", "--problem", "{nonneg}", "--zero"],
    ["example", "paper"],
], ids=["solve", "solve-notconvex", "gains", "value", "check-zero", "check-certificate",
        "construct-zero", "example-paper"])
def test_json_output_is_json_dumps_indent_2(paths, capsys, argv):
    """--format json prints byte for byte what json.dumps(payload, indent=2)
    prints, for every payload shape: P blocks, stacks, records, rows."""
    code = main([a.format(**paths) for a in argv] + ["--format", "json"])
    out = capsys.readouterr().out
    assert code in (EXIT_OK, EXIT_UNSOLVABLE)
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


@pytest.mark.parametrize("argv, code, message", [
    (["simulate", "--x", "1,1", "--samples", "2", "--seed=-1"], EXIT_INVALID,
     "seed must be in [0, 2^128), got -1"),
    (["simulate", "--x", "1,1", "--samples", "2", f"--seed={1 << 128}"], EXIT_INVALID,
     f"seed must be in [0, 2^128), got {1 << 128}"),
    (["simulate", "--x", "1,1", "--samples", "100000000000000"], EXIT_INVALID,
     "100000000000000 samples x 4 steps exceeds cap 1000000000 path-steps "
     "(set DELQ_PATH_STEP_CAP to raise it)"),
    (["value", "--x", "1,1", "--pinv-tol", "nan"], EXIT_USAGE,
     "argument --pinv-tol: expected a number in [0, 1), got 'nan'"),
    (["value", "--x", "1,1", "--pinv-tol", "1"], EXIT_USAGE, "in [0, 1), got '1'"),
    (["value", "--x", "1,1", "--pinv-tol=-1e-12"], EXIT_USAGE, "in [0, 1), got '-1e-12'"),
    (["oracle", "--x", "1,1", "--tol", "nan"], EXIT_USAGE,
     "argument --tol: expected a finite nonnegative number, got 'nan'"),
    (["lmei", "check", "--zero", "--psd-tol", "inf"], EXIT_USAGE,
     "argument --psd-tol: expected a finite nonnegative number, got 'inf'"),
    (["solve", "--psd-tol=-1e-9"], EXIT_USAGE, "nonnegative number, got '-1e-9'"),
    (["solve", "--psd-tol", "tight"], EXIT_USAGE,
     "argument --psd-tol: expected a number, got 'tight'"),
], ids=["seed-negative", "seed-2^128", "samples-10^14", "pinv-nan", "pinv-1", "pinv-negative",
        "tol-nan", "psd-inf", "psd-negative", "psd-text"])
def test_numeric_options_out_of_range_exit_with_a_precise_message(paths, capsys, argv,
                                                                   code, message):
    """A NaN cutoff used to drop every singular value (V = 169423.79 instead
    of 3316.17, exit 0), an infinite --psd-tol called the infeasible zero
    candidate feasible, a NaN --tol hid every mismatch, and a negative seed
    printed numpy's traceback."""
    assert main(argv + ["--problem", paths["benchmark"]]) == code
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


def _numbers(ints):
    """Option values as a user may type them: ints, floats in repr form, and
    the spellings float() accepts."""
    return st.one_of(ints.map(str), st.floats().map(repr),
                     st.sampled_from(["nan", "inf", "-inf", "1e400", "-0.0", "1e-300", "1_0"]))


def _ints(lo, hi):
    """Small ints near the valid range, often, and any int."""
    return st.integers(lo, hi) | st.integers()


_MC = ["simulate", "--x=1,-0.5", "--noise=gaussian", "--samples=3"]
_VALUE = ["value", "--x=1,-0.5"]


@pytest.mark.parametrize("base, option, ints", [
    (_MC, "--seed", _ints(-3, 3)),
    # Any int: the test lowers the path-step cap (see below).
    (_MC, "--samples", _ints(-2, 200)),
    (_MC, "--t", _ints(-1, 4)),
    (["simulate", "--x=1,-0.5"], "--t", _ints(-1, 4)),
    (_VALUE, "--pinv-tol", _ints(-1, 1)),
    (_VALUE, "--psd-tol", _ints(-1, 1)),
    (_VALUE, "--t", _ints(-1, 4)),
    (_VALUE, "--k", _ints(-1, 4)),
    (["oracle", "--x=1,-0.5"], "--tol", _ints(-1, 1)),
    (["lmei", "check", "--zero"], "--psd-tol", _ints(-1, 1)),
    (["lmei", "construct", "--certificate"], "--t", _ints(-1, 4)),
], ids=["mc-seed", "mc-samples", "mc-t", "exact-t", "value-pinv-tol", "value-psd-tol", "value-t",
        "value-k", "oracle-tol", "check-psd-tol", "construct-t"])
def test_numeric_options_never_traceback_or_warn(paths, base, option, ints, monkeypatch):
    """Any number for a numeric option ends in a documented exit code, with
    no exception escaping main() and no numpy warning. Monte Carlo runs in
    time proportional to --samples, so a cap of 1000 path-steps (250 samples
    on the benchmark's 4 steps) keeps every draw quick."""
    monkeypatch.setenv(PATH_STEP_CAP_ENV, "1000")

    @settings(max_examples=40, deadline=None, database=None)
    @given(_numbers(ints))
    def run(value):
        argv = base + ["--problem", paths["benchmark"], f"{option}={value}"]
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(argv)
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_INVALID, EXIT_UNSOLVABLE,
                        EXIT_INCONSISTENT), argv
        assert "Traceback" not in err.getvalue(), argv
        assert [str(w.message) for w in caught] == [], argv

    run()
