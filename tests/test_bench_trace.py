"""The traced benchmark run reads correct on the two listed workloads.

A traced run checks that every function ``bench/metrics.py`` predicts to be
called on a workload still is, and that tracing does not change the output.
A refactor that stops calling a predicted function, or changes a printed
verdict, fails here rather than only in the benchmark.
"""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["paper", "sparse-twisted"])
def test_traced_run_is_correct(workload):
    argv = [sys.executable, "bench/run.py", "--workload", workload,
            "--seed", "1", "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    notes = [line.strip() for line in lines if line.strip().startswith("note:")]
    assert json.loads(lines[-1])["correct"] is True, notes
