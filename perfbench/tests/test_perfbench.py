"""Tests of the benchmark itself (not collected by the library's suite).

Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests
"""
import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from check import Checker  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_reports_every_metric_with_its_unit(workload, trace):
    result = run.run(workload, seed=3, seconds=0.05, trace=trace, tiny=True, setup_reps=1)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert result["correct"], result["detail"]["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_isolates_the_workload_layer():
    result = run.run("montecarlo", seed=4, seconds=0.05, trace=True, tiny=True, setup_reps=1)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["simulate.monte_carlo_cost.calls"] == 2
    assert metrics["simulate.exact_cost.calls"] == 0
    assert metrics["lmei.share"] == 0 and metrics["bsde.share"] == 0
    # samples * (N - t) summed over the pass: 2000 * 10 twice.
    assert metrics["simulate.path_steps"] == 40_000


def _one_pass(workload, tmp_path):
    """Run a tiny pass in-process; records and outputs as the worker makes them."""
    from delq import cli

    commands = workloads.build(workload, 5, str(tmp_path), tiny=True)
    records, outputs = [], {}
    for index, command in enumerate(commands):
        code = _capture(cli.main, list(command.argv), outputs, index)
        records.append({"index": index, "latency": 0.0, "code": code, "error": None,
                        "same_output": True})
    return commands, records, outputs


def _capture(main, argv, outputs, index):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    outputs[index] = out.getvalue()
    return code


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_checker_accepts_the_program_outputs(workload, tmp_path):
    commands, records, outputs = _one_pass(workload, tmp_path)
    assert Checker(commands).grade(records, outputs.__getitem__) == [None] * len(commands)


_RESULT_KEYS = ("K", "value", "P", "oracle_value", "mean", "feasible")


def _corrupt(text):
    """Perturb the first result the output carries; None if it carries none."""
    payload = json.loads(text) if text else {}
    key = next((k for k in _RESULT_KEYS if k in payload), None)
    if key is None:
        return None
    if key == "feasible":
        payload[key] = not payload[key]
    elif key == "P":
        payload[key][sorted(payload[key])[0]][0][0] += 1e-3
    elif key == "K":
        payload[key][0][0][0] += 1e-3
    elif key == "mean":
        # Beyond the Monte-Carlo acceptance of 5 standard errors.
        payload[key] += 10 * payload["std_error"] + 1e-3 * abs(payload[key])
    else:
        payload[key] = payload[key] * (1 + 1e-3) + 1e-3
    return json.dumps(payload)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_corrupted_answer_counts_as_a_failure(workload, tmp_path):
    commands, records, outputs = _one_pass(workload, tmp_path)
    victim = next(i for i in range(len(records)) if _corrupt(outputs[i]) is not None)
    outputs[victim] = _corrupt(outputs[victim])
    verdicts = Checker(commands).grade(records, outputs.__getitem__)
    assert verdicts[victim] is not None
    assert sum(v is not None for v in verdicts) == 1


def test_wrong_exit_code_and_changed_repeat_count_as_failures(tmp_path):
    commands, records, outputs = _one_pass("tree", tmp_path)
    notconvex = next(i for i, r in enumerate(records) if r["code"] == 3)
    wrong_exit = [dict(r, code=0) if i == notconvex else r for i, r in enumerate(records)]
    assert Checker(commands).grade(wrong_exit, outputs.__getitem__)[notconvex] is not None
    changed = records + [dict(records[0], same_output=False)]
    assert Checker(commands).grade(changed, outputs.__getitem__)[-1] is not None


def test_seed_fixes_the_inputs(tmp_path):
    passes = {}
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        (tmp_path / name).mkdir()
        passes[name] = workloads.build("recursion", seed, str(tmp_path / name), tiny=True)

    def contents(commands):
        return sorted(open(c.problem).read() for c in commands)

    assert [c.kind for c in passes["a"]] == [c.kind for c in passes["b"]]
    assert contents(passes["a"]) == contents(passes["b"])
    assert contents(passes["a"]) != contents(passes["c"])


def test_fails_without_a_result_outside_a_checkout(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "tree",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
