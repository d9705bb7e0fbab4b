import contextlib
import hashlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

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


# sha256 over one JSON line [argv, exit code, stdout, stderr] per query of
# the seed-1 stream, so that a change meant to keep the CLI's output cannot
# change a byte of it unnoticed
STREAM_DIGESTS = {
    "cli-cold": "88d47db5bd0697bc98fb3ee2454333922977a63e811cebd625214a728097bf3b",
    "pieri-large": "35b4582a1553d6ebd1c1284df04390ed89e0b63f541b8fa69e506171a39488d7",
    "verify-warm": "72acb7b08770a817c465a36928ee85f417878331c31966f5dd5f37def5552132",
}


@pytest.mark.parametrize("workload", STREAM_DIGESTS)
def test_seed_stream_output_pinned(monkeypatch, workload):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads
    from immaculate import cli

    digest = hashlib.sha256()
    for q in workloads.WORKLOADS[workload][0](1):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(q.argv)
        line = json.dumps([q.argv, rc, out.getvalue(), err.getvalue()]) + "\n"
        digest.update(line.encode())
    assert digest.hexdigest() == STREAM_DIGESTS[workload]
