"""Span tracing around the library calls that `delq.cli` makes.

The wrappers replace the names bound in the `delq.cli` module, so they see
exactly the calls a CLI command makes into each layer and nothing inside
the library changes. Calls a layer makes internally (for example
`construct_from_candidate` calling `check_membership`) go through the
layer's own names and are not traced; their time shows in the caller.

Spans (name, start, end, parent, command id, ok) stay in memory and are
written out by `Tracer.write` when the run ends. Exact work counts are
taken at the same boundaries from each call's inputs and outputs.
"""
from __future__ import annotations

import functools
import json
import time
from collections import Counter

#: Public functions `delq.cli` calls, by layer (module under src/delq).
LAYERS = {
    "model": ("load_problem",),
    "riccati": ("solve_riccati", "classify", "optimal_value", "solution_to_dict"),
    "lmei": ("zero_candidate", "certificate_from_riccati", "check_membership",
             "construct_from_candidate"),
    "bsde": ("assemble_quadratic", "oracle_minimize"),
    "simulate": ("exact_cost", "monte_carlo_cost"),
}

FUNCTIONS = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)
COUNTS = ("riccati.steps", "riccati.p_blocks", "lmei.constraints", "bsde.stacked_dim",
          "bsde.stacked_dim_max", "simulate.path_steps", "simulate.tree_nodes")
EXIT_CODES = (0, 1, 2, 3, 4)
MAIN = "cli.main"


def _p_blocks(horizon: int, d: int) -> int:
    """Sum over k = t..N of (min(k - t, d) + 1), with horizon = N - t."""
    if horizon <= d:
        return (horizon + 1) * (horizon + 2) // 2
    return (d + 1) * (d + 2) // 2 + (horizon - d) * (d + 1)


def _count_solve(counts, args, kwargs, result):
    problem, t = args[0], args[1]
    counts["riccati.steps"] += problem.N - t
    counts["riccati.p_blocks"] += _p_blocks(problem.N - t, problem.d)


def _count_check(counts, args, kwargs, result):
    counts["lmei.constraints"] += len(result.constraints)


def _count_assemble(counts, args, kwargs, result):
    size = result.layout.size
    counts["bsde.stacked_dim"] += size
    counts["bsde.stacked_dim_max"] = max(counts["bsde.stacked_dim_max"], size)


def _count_exact(counts, args, kwargs, result):
    problem, t = args[0], args[1]
    counts["simulate.tree_nodes"] += (1 << (problem.N - t + 1)) - 1


def _count_monte_carlo(counts, args, kwargs, result):
    problem, t = args[0], args[1]
    counts["simulate.path_steps"] += kwargs["samples"] * (problem.N - t)


_COUNTERS = {
    "riccati.solve_riccati": _count_solve,
    "lmei.check_membership": _count_check,
    "bsde.assemble_quadratic": _count_assemble,
    "simulate.exact_cost": _count_exact,
    "simulate.monte_carlo_cost": _count_monte_carlo,
}


class Tracer:
    """Installs span wrappers on a `delq.cli` module and collects spans."""

    def __init__(self, cli_module):
        self.cli = cli_module
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.exits: Counter = Counter()
        self.output_bytes = 0
        self._stack: list[int] = []
        self._command: int | None = None
        self._saved: dict = {}

    def install(self) -> None:
        for layer, names in LAYERS.items():
            for name in names:
                original = getattr(self.cli, name)
                self._saved[name] = original
                setattr(self.cli, name, self._wrap(f"{layer}.{name}", original))

    def uninstall(self) -> None:
        for name, original in self._saved.items():
            setattr(self.cli, name, original)
        self._saved.clear()

    def _open(self) -> tuple[int, int | None]:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index, parent

    def _close(self, index, name, parent, start, end, ok) -> None:
        self._stack.pop()
        self.spans[index] = (name, start, end, parent, self._command, ok)

    def _wrap(self, name, fn):
        count = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index, parent = self._open()
            ok = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                self._close(index, name, parent, start, time.perf_counter(), ok)
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return traced

    def run_command(self, command_id: int, call):
        """Run `call()` (one `cli.main` invocation) under a cli.main span."""
        self._command = command_id
        try:
            return self._wrap(MAIN, call)()
        finally:
            self._command = None

    def record_exit(self, code, output_bytes: int) -> None:
        self.exits[code] += 1
        self.output_bytes += output_bytes

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, command, ok in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "command": command, "ok": ok}))
                fh.write("\n")

    def summary(self) -> dict:
        """Busy time, self time, calls and escaped exceptions per span name,
        plus the work counts, exit-code counts and output bytes."""
        busy: Counter = Counter()
        child: Counter = Counter()
        calls: Counter = Counter()
        failed: Counter = Counter()
        for name, start, end, parent, _, ok in self.spans:
            span = end - start
            busy[name] += span
            calls[name] += 1
            failed[name] += not ok
            if parent is not None:
                child[parent] += span
        self_time: Counter = Counter()
        for index, (name, start, end, *_rest) in enumerate(self.spans):
            self_time[name] += (end - start) - child[index]
        return {
            "busy_s": dict(busy), "self_s": dict(self_time), "calls": dict(calls),
            "failed": dict(failed), "counts": dict(self.counts),
            "exits": {str(code): n for code, n in self.exits.items()},
            "output_bytes": self.output_bytes,
        }
