import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selfcheck_passes():
    # The benchmark traces package functions by name and rebinds module
    # globals; a rename or a function stored in a table breaks its run.
    proc = subprocess.run(
        [sys.executable, "perfbench/selfcheck.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_traced_verify_warm_smoke_run():
    # One traced batch: a crash under the tracer or a wrong answer fails
    # here, which the self-check alone does not catch.
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-warm",
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "wrong answers 0" in proc.stdout, proc.stdout + proc.stderr
