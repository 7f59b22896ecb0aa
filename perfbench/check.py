"""Correctness gate, run outside the timed region.

Each command's exit code and output are checked against an independent
route computed here from the problem file:

* recursion: classification and W/K equal the single-region recursion's
  (`solve_riccati_bar`); `value` equals x^T (sum of its P at t) x and exits 3
  exactly when the grade is below SolvableAllPairs.
* certify: `construct --zero` and the `--certificate` round trip reproduce
  the P (and W, K) of `solve_riccati`; `check --zero` on indefinite data exits 3.
* tree: `oracle` exits 0 and matches the recursion value on solvable
  instances, exits 3 (Unbounded) on not-convex ones and never 4; exact
  `simulate` gives the optimal value.
* montecarlo: |mean - optimal value| <= 5 standard errors.

`expected_exit` and `check_output` return the verdict for one command;
`Checker.grade` applies them with the failure rules of the benchmark.
"""
from __future__ import annotations

import json

import numpy as np

from delq.model import load_problem
from delq.riccati import (
    SOLVABLE_ALL_PAIRS,
    classification_rank,
    classify,
    solve_riccati,
    solve_riccati_bar,
)

#: Relative agreement of two routes through the same arithmetic (W, K, P,
#: values); observed deviations are around 1e-15.
ROUTE_RTOL = 1e-10
#: Exact tree expectation against the recursion value (2^19-leaf sums).
EXACT_RTOL = 1e-8
#: The CLI's own oracle tolerance (relative mismatch, `oracle --tol`).
ORACLE_RTOL = 1e-6
#: Monte-Carlo acceptance in standard errors.
MC_SIGMAS = 5.0

_FAILING_EXITS = (1, 2, 4)


class Reference:
    """Independent results for one problem file, computed once."""

    def __init__(self, path: str, kind: str):
        self.problem = load_problem(path)
        single_region = kind in ("gains", "value", "solve", "oracle")
        solver = solve_riccati_bar if single_region else solve_riccati
        self.sol = solver(self.problem, 0)
        self.classification = classify(self.sol).classification
        self.solvable = classification_rank(self.classification) >= \
            classification_rank(SOLVABLE_ALL_PAIRS)

    def value(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(x @ self.sol.P_sum(0) @ x)

    def q_indefinite(self) -> bool:
        """Some Q_k (k > t) has a clearly negative eigenvalue, so the
        all-zero candidate violates the relaxed state inequality."""
        return any(np.linalg.eigvalsh(Q)[0] < -1e-6 for Q in self.problem.Q[1:])


def _close(a, b, rtol) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return False
    return float(np.max(np.abs(a - b), initial=0.0)) <= rtol * max(1.0, float(np.max(np.abs(b), initial=0.0)))


def _seq_close(got, want, rtol) -> bool:
    return len(got) == len(want) and all(_close(g, w, rtol) for g, w in zip(got, want))


def expected_exit(kind: str, ref: Reference) -> tuple[int, ...]:
    """Exit codes that count as success for this command and instance."""
    if kind in ("gains", "solve", "exact", "mc", "construct-zero"):
        return (0,)
    if kind in ("value", "construct-certificate"):
        return (0,) if ref.solvable else (3,)
    if kind == "check-zero":
        return (3,) if ref.q_indefinite() else (0,)
    if kind == "oracle":
        if ref.solvable:
            return (0,)
        return (0, 3) if ref.classification == "ConvexCandidate" else (3,)
    raise ValueError(f"unknown command kind {kind!r}")


def check_output(command, code: int, out: str, ref: Reference) -> str | None:
    """None if the output is right, else the reason it is rejected."""
    kind = command.kind
    if code == 3 and kind in ("value", "construct-certificate"):
        return None if out == "" else "unsolvable command printed a payload"
    try:
        payload = json.loads(out)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}"
    sol = ref.sol
    if kind in ("gains", "solve", "value", "oracle") and \
            payload.get("classification") != ref.classification:
        return f"classification {payload.get('classification')} != {ref.classification}"
    if kind == "gains":
        if not _seq_close(payload["K"], sol.K, ROUTE_RTOL):
            return "gains differ from the single-region recursion"
    elif kind == "solve":
        if not _seq_close(payload["W"], sol.W, ROUTE_RTOL):
            return "W differs from the single-region recursion"
        if not _seq_close(payload["K"], sol.K, ROUTE_RTOL):
            return "K differs from the single-region recursion"
    elif kind == "value":
        if not _close(payload["value"], ref.value(command.x), ROUTE_RTOL):
            return f"value {payload['value']!r} != {ref.value(command.x)!r}"
    elif kind in ("construct-zero", "construct-certificate"):
        P = payload["P"]
        if set(P) != {f"{i},{k}" for i, k in sol.P}:
            return "constructed P has the wrong index set"
        for (i, k), M in sol.P.items():
            if not _close(P[f"{i},{k}"], M, ROUTE_RTOL):
                return f"constructed P^({i})_{k} differs from solve_riccati's"
        if not (_seq_close(payload["W"], sol.W, ROUTE_RTOL)
                and _seq_close(payload["K"], sol.K, ROUTE_RTOL)):
            return "constructed W/K differ from solve_riccati's"
        if payload["classification"] != ref.classification:
            return f"classification {payload['classification']} != {ref.classification}"
    elif kind == "check-zero":
        if payload["feasible"] != (code == 0):
            return "feasibility flag disagrees with the exit code"
    elif kind == "oracle":
        if code == 0:
            if payload["status"] != "Bounded":
                return f"status {payload['status']} with exit 0"
            if ref.solvable:
                want = ref.value(command.x)
                if abs(payload["oracle_value"] - want) > ORACLE_RTOL * max(1.0, abs(want)):
                    return f"oracle value {payload['oracle_value']!r} != recursion {want!r}"
        elif payload["status"] != "Unbounded":
            return f"status {payload['status']} with exit {code}"
    elif kind == "exact":
        want = ref.value(command.x)
        if payload["mode"] != "Exact" or not _close(payload["mean"], want, EXACT_RTOL):
            return f"exact mean {payload['mean']!r} != optimal value {want!r}"
    elif kind == "mc":
        want = ref.value(command.x)
        if payload["samples"] != command.samples:
            return f"samples {payload['samples']} != {command.samples}"
        if abs(payload["mean"] - want) > MC_SIGMAS * payload["std_error"]:
            return (f"Monte-Carlo mean {payload['mean']!r} is more than {MC_SIGMAS:g} "
                    f"standard errors ({payload['std_error']!r}) from {want!r}")
    return None


def verdict(command, code, error, out: str, ref: Reference) -> str | None:
    """None if the command succeeded, else why it failed."""
    if error is not None:
        return f"raised {error}"
    if code in _FAILING_EXITS:
        return f"exit {code}"
    if code not in expected_exit(command.kind, ref):
        return f"exit {code}, expected {expected_exit(command.kind, ref)}"
    return check_output(command, code, out, ref)


class Checker:
    """Grades executions of a pass; each distinct command is checked once
    and repeats inherit the verdict when their output is identical."""

    def __init__(self, commands):
        self.commands = commands
        self._refs: dict[str, Reference] = {}

    def reference(self, command) -> Reference:
        if command.problem not in self._refs:
            self._refs[command.problem] = Reference(command.problem, command.kind)
        return self._refs[command.problem]

    def grade(self, records, read_output) -> list[str | None]:
        """One verdict per execution record (see worker.py)."""
        seen: dict[tuple[int, int], str | None] = {}
        verdicts = []
        for rec in records:
            index, code = rec["index"], rec["code"]
            command = self.commands[index]
            if rec["error"] is not None or code in _FAILING_EXITS:
                verdicts.append(verdict(command, code, rec["error"], "", None))
            elif not rec["same_output"]:
                verdicts.append("output differs from the first run of the same command")
            else:
                if (index, code) not in seen:
                    seen[(index, code)] = verdict(command, code, None, read_output(index),
                                                  self.reference(command))
                verdicts.append(seen[(index, code)])
        return verdicts
