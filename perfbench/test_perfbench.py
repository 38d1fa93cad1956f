"""Self-test of the benchmark at toy size.

    python3 -m pytest perfbench/test_perfbench.py

Each workload runs with toy-size circuits and phases: every metric named in
``BENCHMARK.json`` must be printed, and the answer checker must count an
injected wrong answer (one dropped tuple) as a failure.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("perfbench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload, trace, *extra, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--toy", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed(workload, trace):
    doc = _result(_run(workload, trace))
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0
    assert doc["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(doc["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = doc["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
    if not trace:
        assert all(v["value"] > 0 for v in doc["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_dropped_tuple_counts_as_failure(workload):
    doc = _result(_run(workload, 0, "--inject-wrong"))
    assert doc["failed"] == 1
    assert doc["correct"] is False


def test_fails_without_program_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
