"""The repository's pytest settings report every failure."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_TEST = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_always_fails(n):
    assert n != n
"""


def test_a_failing_hypothesis_test_is_reported_and_the_run_goes_on(tmp_path):
    """Under the repository's settings, where a warning is an error, a failing
    Hypothesis test is one reported failure: the run exits 1, and does not end
    in an INTERNALERROR (exit 3) that would hide every test after it."""
    path = tmp_path / "test_always_fails.py"
    path.write_text(FAILING_TEST)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider", str(path)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        timeout=300,
    )
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "1 failed" in output
    assert "INTERNALERROR" not in output
