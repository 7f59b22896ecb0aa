"""One workload process: a closed-loop client calling `delq.cli.main`.

Usage: python3 worker.py PLAN.json RESULT.json

The plan names the source tree, the pass (argv lists), the measuring time,
the minimum number of commands, whether to trace, and a directory for
captured outputs. The client sends the next command only after the previous
one returned, with stdout and stderr captured in memory. It runs whole
passes until at least the minimum number of commands ran and the summed
command latency is within half a pass of the measuring time. Each command's
first output is saved to the output directory after its latency is taken;
later runs of the same command are compared with it by digest, so the
checker in the parent process sees every output.

With tracing on, every command runs twice in a row, once plain and once
under the span wrappers of `tracing.Tracer`, alternating which goes first.
The two see the same machine state, so the ratio of their summed latencies
is the tracing overhead even while the machine's speed drifts.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time


def _call(main, argv):
    out = io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            code = main(list(argv))
        except Exception as exc:  # a command that raises is a failed command
            code, error = None, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
    return latency, code, error, out.getvalue()


class _Recorder:
    """One record per command run; keeps the first output of each command."""

    def __init__(self, outdir: str):
        self.outdir = outdir
        self.digests: dict[int, str] = {}

    def record(self, index: int, outcome) -> dict:
        latency, code, error, out = outcome
        digest = hashlib.sha1(out.encode()).hexdigest()
        if index not in self.digests:
            self.digests[index] = digest
            with open(os.path.join(self.outdir, f"{index}.out"), "w", encoding="utf-8") as fh:
                fh.write(out)
        return {"index": index, "latency": latency, "code": code, "error": error,
                "same_output": digest == self.digests[index]}


def _traced(tracer, cli, argv, command_id: int):
    tracer.install()
    try:
        outcome = tracer.run_command(command_id, lambda: _call(cli.main, argv))
    finally:
        tracer.uninstall()
    tracer.record_exit(outcome[1], len(outcome[3].encode()))
    return outcome


def run(plan: dict) -> dict:
    sys.path.insert(0, plan["src"])
    from delq import cli

    commands = [tuple(argv) for argv in plan["commands"]]
    recorder = _Recorder(plan["outdir"])
    tracer = None
    if plan["trace"]:
        from tracing import Tracer  # this script's directory is on sys.path

        tracer = Tracer(cli)

    # Warm-up: one untimed call, so lazy imports and first-touch costs are
    # paid before timing; its output is also the same-seed repeat check.
    warm_out = _call(cli.main, commands[0])[3]

    records, traced_records = [], []
    busy = 0.0
    passes = 0
    while True:
        for index, argv in enumerate(commands):
            pair = [False, True] if tracer is not None else [False]
            if index % 2:
                pair.reverse()
            for traced in pair:
                if traced:
                    outcome = _traced(tracer, cli, argv, len(traced_records))
                    traced_records.append(recorder.record(index, outcome))
                else:
                    records.append(recorder.record(index, _call(cli.main, argv)))
                    busy += records[-1]["latency"]
        passes += 1
        # Stop after the whole pass that ends nearest the measuring time.
        if (len(records) >= plan["min_commands"]
                and busy + busy / passes / 2 >= plan["seconds"]):
            break
    result = {"records": records, "passes": passes,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "repeat_identical":
                  hashlib.sha1(warm_out.encode()).hexdigest() == recorder.digests[0]}
    if tracer is not None:
        tracer.write(plan["spans"])
        result["traced_records"] = traced_records
        result["trace"] = tracer.summary()
    return result


def main(argv) -> int:
    plan_path, result_path = argv
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    result = run(plan)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
