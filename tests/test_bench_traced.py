"""A short traced run of each benchmark workload succeeds.

The traced run fails when a span the workload is meant to exercise, such as
``groups.ring_multiply`` for ``products`` or ``zglinalg.solve`` for
``bar-homology`` (reached through ``phi(via_solver=True)``), records no
call.  A change that routes work around such an entry point leaves the span
recorder installable, so ``test_bench_spans.py`` passes; this run catches
it.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", ["bar-homology", "resolve", "products"])
def test_traced_run_is_correct(workload):
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
