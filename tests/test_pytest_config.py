"""The test configuration in ``pyproject.toml``: every warning is an error.

A failing Hypothesis example must still be reported as a failure. The
report imports libcst, which raises a DeprecationWarning on import. If that
warning became an error, pytest would stop with an INTERNALERROR, before
printing the example or running the later tests.
"""

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parents[1] / "pyproject.toml"

SUITE = '''
import warnings

from hypothesis import given, strategies as st


@given(st.integers(0, 10))
def test_a_property_that_fails(x):
    assert x < 5


def test_another_warning_is_an_error():
    warnings.warn("still an error", DeprecationWarning)


def test_a_later_test_runs():
    pass
'''


def test_a_failing_example_is_reported_and_the_run_goes_on(tmp_path):
    (tmp_path / "test_suite.py").write_text(SUITE, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(CONFIG),
         "--rootdir", str(tmp_path), "test_suite.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )  # fmt: skip
    output = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in output
    assert "Falsifying example: test_a_property_that_fails(" in output
    assert "DeprecationWarning: still an error" in output
    assert "2 failed, 1 passed" in proc.stdout
