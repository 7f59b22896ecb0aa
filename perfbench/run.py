"""delq benchmark: four seeded workloads through the real CLI entry point.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload recursion --seed 1 --seconds 20 --trace 0

One run:

1. writes the workload's problem files for the seed (workloads.py);
2. starts one worker process (worker.py), a closed-loop client that calls
   `delq.cli.main(argv)` in-process for whole passes over the workload until
   enough commands ran for the tail percentile and the summed latency is
   within half a pass of `--seconds`;
3. measures `setup_s`, the median wall time of fresh interpreters running
   `delq example paper` (import of delq and numpy, BLAS start-up, one tiny
   solve), half of them before the worker and half after it;
4. checks every command's exit code and output against an independent route
   (check.py), outside the timed region;
5. prints a detail line (environment, tail percentile and sample count,
   failure reasons) and, as the last line, the result object.

With `--trace 0` the result carries the end-to-end metrics. With `--trace 1`
the worker runs every command a second time, right before or after the plain
run, under span wrappers (tracing.py); the result carries the per-layer
metrics of the wrapped runs, normalised to one pass, and the tracing
overhead from the pairs. BLAS is pinned to one thread in every process started.
Scratch files go to .perfbench_work/ (removed at the end); the spans and the
full result of each run are kept in .perfbench_out/.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracing import COUNTS, EXIT_CODES, FUNCTIONS, LAYERS, MAIN  # noqa: E402

SRC = "src"
WORK_DIR = ".perfbench_work"
OUT_DIR = ".perfbench_out"
SETUP_REPS = 10
SETUP_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 150
#: Tail percentile per workload: the highest of 50/75/90/95/99 that leaves at
#: least 10 commands beyond it in a 20 s run on a 2-vCPU x86-64 VM (50-75
#: commands for recursion, certify and tree; about 20 for montecarlo, whose
#: tail is therefore its median). Fixed, so that a faster program, which runs
#: more commands, is measured at the same percentile; a run goes on until
#: 10 commands lie beyond it.
TAIL_PERCENTILE = {"recursion": 75.0, "certify": 75.0, "tree": 75.0, "montecarlo": 50.0}


class BenchmarkError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(SRC)
    return env


def measure_setup(reps: int) -> list[float]:
    """Wall times of `reps` fresh `python -m delq example paper` runs; a
    failed run is recorded as infinity.

    The child is reaped with a blocking wait; `subprocess.run(timeout=...)`
    would poll in steps of up to 50 ms and round the time up to them. A timer
    kills a child that hangs.
    """
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "delq", "example", "paper"],
                                env=_env(), stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        watchdog = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        watchdog.start()
        proc.wait()
        elapsed = time.perf_counter() - start
        watchdog.cancel()
        times.append(elapsed if proc.returncode == 0 else float("inf"))
    return times


def environment(workload: str, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload, "seed": seed,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)), "machine": platform.machine(),
    }


def end_to_end(workload: str, setup_s: float, records: list[dict],
               peak_rss_mb: float) -> dict:
    latencies = [r["latency"] for r in records]
    tail_s = float(np.percentile(latencies, TAIL_PERCENTILE[workload]))
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "op_p50_s": (statistics.median(latencies), "s"),
        "op_tail_s": (tail_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(summary: dict, passes: int, untraced: list[dict], traced: list[dict]) -> dict:
    """Per-layer metrics for one pass of the workload, from the traced phase."""
    busy, calls, failed = summary["busy_s"], summary["calls"], summary["failed"]
    counts = summary["counts"]
    wall = busy.get(MAIN, 0.0)
    out = {}
    for name in FUNCTIONS:
        out[f"{name}.busy_s"] = (busy.get(name, 0.0) / passes, "s")
        out[f"{name}.calls"] = (calls.get(name, 0) // passes, "count")
        out[f"{name}.failed"] = (failed.get(name, 0) // passes, "count")
    out["cli.self_s"] = (summary["self_s"].get(MAIN, 0.0) / passes, "s")
    out["cli.output_bytes"] = (summary["output_bytes"] // passes, "bytes")
    for code in EXIT_CODES:
        out[f"cli.exit_{code}"] = (summary["exits"].get(str(code), 0) // passes, "count")
    for name in COUNTS:
        value = counts.get(name, 0)
        out[name] = (value if name.endswith("_max") else value // passes, "count")
    steps = counts.get("riccati.steps", 0)
    out["riccati.solve_riccati.us_per_step"] = (
        1e6 * busy.get("riccati.solve_riccati", 0.0) / steps if steps else 0.0, "us")
    path_steps = counts.get("simulate.path_steps", 0)
    out["simulate.monte_carlo_cost.ns_per_path_step"] = (
        1e9 * busy.get("simulate.monte_carlo_cost", 0.0) / path_steps if path_steps else 0.0,
        "ns")
    out["cli.share"] = (summary["self_s"].get(MAIN, 0.0) / wall, "fraction")
    for layer, names in LAYERS.items():
        layer_busy = sum(busy.get(f"{layer}.{fn}", 0.0) for fn in names)
        out[f"{layer}.share"] = (layer_busy / wall, "fraction")
    untraced_busy = sum(r["latency"] for r in untraced)
    traced_busy = sum(r["latency"] for r in traced)
    out["trace.passes"] = (passes, "count")
    out["trace.untraced_ops_per_s"] = (len(untraced) / untraced_busy, "1/s")
    out["trace.traced_ops_per_s"] = (len(traced) / traced_busy, "1/s")
    out["trace.overhead"] = (traced_busy / untraced_busy - 1.0, "fraction")
    return out


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
        setup_reps: int = SETUP_REPS) -> dict:
    """One benchmark run from the current directory (a checkout's root)."""
    if not os.path.isfile(os.path.join(SRC, "delq", "cli.py")):
        raise BenchmarkError(f"no delq sources under ./{SRC}; run from the root of a checkout")
    sys.path.insert(0, os.path.abspath(SRC))
    from check import Checker

    # Set-up is measured in two batches, before and after the workload, so
    # that its median spans the run rather than one moment of it.
    setup_times = measure_setup((setup_reps + 1) // 2)
    os.makedirs(WORK_DIR, exist_ok=True)
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{workload}-{seed}-trace{int(trace)}"
    workdir = tempfile.mkdtemp(prefix=f"{tag}-", dir=WORK_DIR)
    try:
        commands = workloads.build(workload, seed, workdir, tiny=tiny)
        outdir = os.path.join(workdir, "out")
        os.makedirs(outdir)
        plan = {"src": os.path.abspath(SRC), "commands": [c.argv for c in commands],
                "seconds": seconds, "trace": trace, "outdir": outdir,
                "min_commands": math.ceil(10 / (1 - TAIL_PERCENTILE[workload] / 100)),
                "spans": os.path.abspath(os.path.join(OUT_DIR, f"spans-{tag}.jsonl"))}
        plan_path = os.path.join(workdir, "plan.json")
        result_path = os.path.join(workdir, "result.json")
        with open(plan_path, "w", encoding="utf-8") as fh:
            json.dump(plan, fh)
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), plan_path,
                               result_path], env=_env(), timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchmarkError(f"worker exited with {proc.returncode}")
        setup_times += measure_setup(setup_reps // 2)
        with open(result_path, encoding="utf-8") as fh:
            res = json.load(fh)

        def read_output(index: int) -> str:
            with open(os.path.join(outdir, f"{index}.out"), encoding="utf-8") as fh:
                return fh.read()

        checker = Checker(commands)
        executions = res["records"] + res.get("traced_records", [])
        verdicts = checker.grade(executions, read_output)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    finished = [t for t in setup_times if t < float("inf")]
    if not finished:
        raise BenchmarkError("`delq example paper` failed in every set-up run")
    setup_s = statistics.median(finished)
    setup_ok = len(finished) == len(setup_times)
    if not res["repeat_identical"] and verdicts[0] is None:
        verdicts[0] = "same-seed repeat (warm-up and first timed run) is not bit-identical"
    reasons = [f"{commands[rec['index']].kind} #{rec['index']}: {why}"
               for rec, why in zip(executions, verdicts) if why is not None]
    latencies = [r["latency"] for r in res["records"]]
    percentile = TAIL_PERCENTILE[workload]
    cut = np.percentile(latencies, percentile)
    if trace:
        metrics = per_layer(res["trace"], res["passes"], res["records"],
                            res["traced_records"])
    else:
        metrics = end_to_end(workload, setup_s, res["records"], res["peak_rss_mb"])
    return {
        "correct": setup_ok and not reasons,
        "attempted": len(executions),
        "failed": len(reasons),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
        "detail": {
            "environment": environment(workload, seed),
            "commands_per_pass": len(commands), "passes": res["passes"],
            "tail_percentile": percentile, "tail_samples": len(latencies),
            "tail_beyond": sum(1 for v in latencies if v > cut),
            "failed_ratio": len(reasons) / len(executions),
            "setup_ok": setup_ok, "failures": reasons[:20],
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind: subprocess.run kills and reaps the worker and the
    # scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchmarkError, subprocess.SubprocessError, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    detail = result.pop("detail")
    tag = f"{args.workload}-{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({**result, "detail": detail}, fh, indent=1)
    print("detail: " + json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
