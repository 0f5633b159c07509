"""The benchmark's smoke run: every workload at small size, plain and traced.

The workloads drive the library through `cli.run` and the public API, so
an option or pipeline change that breaks them fails here.
"""

import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(__file__), "..")


def test_benchmark_smoke_run():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
