"""The benchmark's own self-check runs clean against this checkout.

``perfbench/run.py --smoke`` runs every workload on tiny inputs, traced and
untraced, and exits non-zero when a metric that BENCHMARK.json names is
missing or a reference check fails. Running it here means a renamed layer
function or a dropped metric fails the suite instead of silently zeroing a
trace.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
