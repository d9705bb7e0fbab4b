"""The tier-1 gate reports every failure: a failing Hypothesis property
fails its own test, and the session runs on to the tests after it."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

TWO_FAILING_TESTS = '''
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, deadline=None, database=None)
@given(st.integers())
def test_failing_property(x):
    assert x < 5


def test_failing_after_it():
    assert False
'''


def test_a_failing_property_does_not_end_the_session(tmp_path):
    (tmp_path / "test_two.py").write_text(TWO_FAILING_TESTS)
    run = subprocess.run(
        # plain asserts: rewriting them costs about a second and has no
        # part in how a failure is reported
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--assert=plain",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert "INTERNALERROR" not in run.stdout + run.stderr, run.stdout
    assert "FAILED test_two.py::test_failing_property" in run.stdout, run.stdout
    assert "FAILED test_two.py::test_failing_after_it" in run.stdout, run.stdout
    assert "2 failed" in run.stdout and run.returncode == 1, run.stdout
