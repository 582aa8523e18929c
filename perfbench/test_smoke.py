"""Smoke test of the benchmark harness: every workload at a tiny size.

Runs ``perfbench/run.py --smoke`` in a fresh interpreter, which executes
each workload untraced and traced and fails unless every metric declared
in BENCHMARK.json is emitted and every output check passes.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_smoke():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    workloads = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert proc.stdout.count(": ok") == 2 * len(workloads), proc.stdout
