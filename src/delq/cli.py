"""Command-line front end.

Commands: solve, value, gains, oracle, simulate, lmei check|construct,
example paper. Problems are JSON files ({n,m,N,d,A,B,C,D,Q,R,G}, matrices
as arrays of rows); reports are printed human-readable or as JSON.

Exit codes: 0 success, 1 usage/parse errors, 2 validation or resource-cap
failures (an allocation that fails included), 3 unsolvable/infeasible
outcomes, 4 internal-consistency failures (cross-check mismatch or numerical
breakdown).
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Callable

import numpy as np

from .bsde import assemble_quadratic, oracle_minimize
from .errors import (
    ConsistencyError,
    ResourceLimitError,
    UnsolvableError,
    ValidationError,
)
from .jsontext import dumps
from .linalg import PINV_RTOL, PSD_TOL, scale_floor
from .lmei import (
    candidate_from_dict,
    certificate_from_riccati,
    check_membership,
    construct_from_candidate,
    zero_candidate,
)
from .model import load_problem
from .riccati import (
    SOLVABLE_ALL_PAIRS,
    classify,
    feedback_policy,
    optimal_value,
    solution_to_dict,
    solve_riccati,
)
from .simulate import exact_cost, monte_carlo_cost
from .worked_example import benchmark_report, render_report, report_to_dict

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_UNSOLVABLE = 3
EXIT_INCONSISTENT = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; we reserve 2 for
    validation failures, so usage problems are rethrown and mapped to 1."""

    def error(self, message):
        raise _UsageError(message)


def _csv_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(part) for part in text.split(",")], dtype=float)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated list of numbers, got {text!r}"
        ) from None


def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None


def _tolerance(text: str) -> float:
    """A finite, nonnegative tolerance: an infinite or NaN one would pass
    every check."""
    value = _number(text)
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(
            f"expected a finite nonnegative number, got {text!r}")
    return value


def _cutoff(text: str) -> float:
    """A relative pseudo-inverse cutoff in [0, 1): at 1 or above (or NaN)
    every singular value is dropped."""
    value = _number(text)
    if not 0.0 <= value < 1.0:
        raise argparse.ArgumentTypeError(f"expected a number in [0, 1), got {text!r}")
    return value


def _add_common(sp: argparse.ArgumentParser, classifies: bool = True) -> None:
    sp.add_argument("--problem", required=True, help="path to a problem JSON file")
    sp.add_argument("--t", type=int, default=0, help="initial time (default 0)")
    sp.add_argument("--format", choices=("human", "json"), default="human")
    sp.add_argument("--pinv-tol", type=_cutoff, default=PINV_RTOL,
                    help="relative pseudo-inverse cutoff, in [0, 1)")
    if classifies:
        sp.add_argument("--psd-tol", type=_tolerance, default=PSD_TOL,
                        help="semidefiniteness and feasibility margin tolerance "
                             "(finite, nonnegative)")


def build_parser() -> _Parser:
    p = _Parser(
        prog="delq",
        description="Finite-horizon stochastic linear-quadratic control with "
                    "multiplicative noise and delayed information.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="run the backward recursion and classify")
    _add_common(sp)

    sp = sub.add_parser("value", help="optimal value from an initial pair")
    _add_common(sp)
    sp.add_argument("--k", type=int, default=None,
                    help="evaluation time (default: --t)")
    sp.add_argument("--x", type=_csv_vector, required=True,
                    help="initial state, comma-separated")

    sp = sub.add_parser("gains", help="print the feedback gains")
    _add_common(sp)

    sp = sub.add_parser("oracle", help="brute-force minimization cross-check")
    _add_common(sp)
    sp.add_argument("--x", type=_csv_vector, required=True)
    sp.add_argument("--tol", type=_tolerance, default=1e-6,
                    help="relative mismatch tolerance against the recursion value "
                         "(finite, nonnegative)")

    sp = sub.add_parser("simulate", help="evaluate the gain policy by simulation")
    _add_common(sp, classifies=False)
    sp.add_argument("--x", type=_csv_vector, required=True)
    sp.add_argument("--noise", choices=("rademacher", "gaussian"), default="rademacher")
    sp.add_argument("--samples", type=int, default=None,
                    help="Monte-Carlo sample count (omit for the exact expectation)")
    sp.add_argument("--seed", type=int, default=0,
                    help="Monte-Carlo seed, in [0, 2^128)")

    lm = sub.add_parser("lmei", help="feasibility system commands")
    lsub = lm.add_subparsers(dest="subcommand", required=True)
    for name, help_text in (("check", "evaluate every constraint on a candidate"),
                            ("construct", "turn a feasible candidate into a solution")):
        sp = lsub.add_parser(name, help=help_text)
        _add_common(sp)
        src = sp.add_mutually_exclusive_group(required=True)
        src.add_argument("--candidate", help="path to a candidate JSON file")
        src.add_argument("--zero", action="store_true",
                         help="use the all-zero candidate")
        src.add_argument("--certificate", action="store_true",
                         help="embed the direct solution as the candidate")

    ex = sub.add_parser("example", help="built-in benchmark instance")
    esub = ex.add_subparsers(dest="subcommand", required=True)
    sp = esub.add_parser("paper", help="compare against the bundled reference tables")
    sp.add_argument("--format", choices=("human", "json"), default="human")

    return p


def _emit(args, human: Callable[[], str], payload: Callable[[], dict]) -> None:
    """Print the JSON of `payload()`, or the text that `human()` builds:
    only the format asked for is built."""
    print(dumps(payload()) if args.format == "json" else human())


def _solve_and_classify(args, blocks: bool = False):
    """The problem, its solution and its grade. Only the commands that print
    P's blocks ask for them; the others hold a two-row ring of P."""
    problem = load_problem(args.problem)
    sol = solve_riccati(problem, args.t, args.pinv_tol, blocks=blocks)
    report = classify(sol, args.psd_tol)
    return problem, sol, report


def _classification_table(report, t: int) -> list[str]:
    """The grade, then one row per step k = t..N-1 of the report's columns."""
    lines = [f"classification: {report.classification}"]
    if report.note:
        lines.append(f"note: {report.note}")
    lines.append(f"{'k':>4}  {'min-eig(W_k)':>14}  {'range-residual':>14}")
    columns = zip(report.w_min_eig.tolist(), report.range_residual.tolist())
    for k, (lam, resid) in enumerate(columns, start=t):
        lines.append(f"{k:>4}  {lam:>14.6e}  {resid:>14.6e}")
    return lines


def _constraint_line(kind: str, k: int, i: int | None, margin: float, satisfied: bool) -> str:
    where = f"k={k}" + (f" i={i}" if i is not None else "")
    return f"{kind:>13} {where:<10} margin {margin:+.3e}  {'ok' if satisfied else 'VIOLATED'}"


def cmd_solve(args) -> int:
    _, sol, report = _solve_and_classify(args, blocks=True)
    _emit(args, lambda: "\n".join(_classification_table(report, sol.t)),
          lambda: solution_to_dict(sol, report))
    return EXIT_OK


def cmd_value(args) -> int:
    _, sol, report = _solve_and_classify(args)
    k = args.t if args.k is None else args.k
    val = optimal_value(sol, k, args.x, report, args.psd_tol)
    xs = ", ".join(f"{v:g}" for v in args.x)
    _emit(args, lambda: f"V({k}, [{xs}]) = {val:.12g}", lambda: {
        "t": args.t, "k": k, "x": args.x, "value": val,
        "classification": report.classification,
    })
    return EXIT_OK


def cmd_gains(args) -> int:
    _, sol, report = _solve_and_classify(args)

    def human() -> str:
        lines = [f"classification: {report.classification}"]
        for j, K in enumerate(sol.K):
            rows = "; ".join(" ".join(f"{v:.6f}" for v in row) for row in K)
            lines.append(f"K_{sol.t + j} = [{rows}]")
        return "\n".join(lines)

    _emit(args, human, lambda: {
        "t": sol.t, "d": sol.d, "N": sol.N,
        "K": sol.K,
        "classification": report.classification,
    })
    return EXIT_OK


def cmd_oracle(args) -> int:
    problem, sol, report = _solve_and_classify(args)
    q = assemble_quadratic(problem, args.t, args.x)
    outcome = oracle_minimize(q, args.psd_tol, args.pinv_tol)
    solvable = report.at_least(SOLVABLE_ALL_PAIRS)

    if not outcome.bounded:
        if solvable:
            raise ConsistencyError(
                f"oracle reports Unbounded ({outcome.reason}) but the recursion "
                f"classifies the problem {report.classification}"
            )
        _emit(args, lambda: f"oracle: Unbounded ({outcome.reason})\n"
                            f"classification: {report.classification}",
              lambda: {"status": "Unbounded", "reason": outcome.reason,
                       "classification": report.classification})
        return EXIT_UNSOLVABLE

    payload = {"status": "Bounded", "oracle_value": outcome.value,
               "classification": report.classification}
    lines = [f"oracle minimum: {outcome.value:.12g}"]
    code = EXIT_OK
    if solvable:
        val = optimal_value(sol, args.t, args.x, report, args.psd_tol)
        diff = abs(outcome.value - val)
        payload.update({"recursion_value": val, "difference": diff})
        lines.append(f"recursion value: {val:.12g}")
        lines.append(f"difference: {diff:.3e}")
        if diff > args.tol * scale_floor(val):
            lines.append("MISMATCH beyond tolerance")
            code = EXIT_INCONSISTENT
    else:
        lines.append(f"classification: {report.classification} "
                     "(no recursion value to compare)")
    _emit(args, lambda: "\n".join(lines), lambda: payload)
    return code


def cmd_simulate(args) -> int:
    problem = load_problem(args.problem)
    policy = feedback_policy(solve_riccati(problem, args.t, args.pinv_tol, blocks=False))
    if args.samples is None:
        result = exact_cost(problem, args.t, args.x, policy, noise=args.noise)
    else:
        result = monte_carlo_cost(problem, args.t, args.x, policy,
                                  noise=args.noise, samples=args.samples,
                                  seed=args.seed)
    _emit(args, lambda: (f"mean = {result.mean:.12g}\nstd_error = {result.std_error:.6g}\n"
                         f"samples = {result.samples}\nmode = {result.mode}\n"
                         f"noise = {result.noise}\nseed = {result.seed}"),
          result.to_dict)
    return EXIT_OK


def _load_candidate(args, problem):
    if args.candidate:
        with open(args.candidate, "r", encoding="utf-8") as fh:
            return candidate_from_dict(problem, json.load(fh))
    if args.zero:
        return zero_candidate(problem, args.t)
    sol = solve_riccati(problem, args.t, args.pinv_tol)
    return certificate_from_riccati(sol, problem, args.psd_tol)


def cmd_lmei(args) -> int:
    problem = load_problem(args.problem)
    cand = _load_candidate(args, problem)
    if args.subcommand == "check":
        rep = check_membership(cand, problem, args.t, args.psd_tol)
        _emit(args, lambda: "\n".join([*map(_constraint_line, *rep.constraints.columns),
                                       f"feasible: {rep.feasible}"]),
              lambda: {"feasible": rep.feasible, "tol": rep.tol,
                       "constraints": rep.constraints})
        return EXIT_OK if rep.feasible else EXIT_UNSOLVABLE
    sol = construct_from_candidate(cand, problem, args.t, args.psd_tol, args.pinv_tol)
    report = classify(sol, args.psd_tol)
    _emit(args, lambda: "\n".join(["constructed solution from candidate"]
                                  + _classification_table(report, sol.t)),
          lambda: solution_to_dict(sol, report))
    return EXIT_OK


def cmd_example_paper(args) -> int:
    report = benchmark_report()
    _emit(args, lambda: render_report(report), lambda: report_to_dict(report))
    return EXIT_OK if report.anchored_ok else EXIT_INCONSISTENT


_DISPATCH = {
    "solve": cmd_solve,
    "value": cmd_value,
    "gains": cmd_gains,
    "oracle": cmd_oracle,
    "simulate": cmd_simulate,
    "lmei": cmd_lmei,
    "example": cmd_example_paper,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _DISPATCH[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except json.JSONDecodeError as exc:
        print(f"JSON parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValidationError, ResourceLimitError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except MemoryError as exc:
        # Any other allocation the input asks for (the recursion's P array
        # raises ResourceLimitError naming its size).
        print(f"invalid input: out of memory: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except UnsolvableError as exc:
        print(f"unsolvable: {exc}", file=sys.stderr)
        return EXIT_UNSOLVABLE
    except ConsistencyError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except np.linalg.LinAlgError as exc:
        # A pinv, eigenvalue or oracle solve that did not converge.
        print(f"consistency failure: numerical breakdown: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT


if __name__ == "__main__":
    sys.exit(main())
