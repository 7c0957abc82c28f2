"""The suite's pytest settings report a failing property test.

pytest turns warnings into errors (``filterwarnings`` in
``pyproject.toml``).  Hypothesis's report hook for a failing test can
raise a DeprecationWarning from ``mypy_extensions``; as an error it ended
the session in an INTERNALERROR, so the falsifying example was never shown
and no later test ran.  The settings ignore that one warning."""

import ast
import os
from pathlib import Path

import pytest

from isolated import ROOT, run_isolated

TWO_TESTS = """
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
"""


def test_failing_property_test_is_reported_and_the_next_test_runs(tmp_path):
    path = tmp_path / "test_two.py"
    path.write_text(TWO_TESTS)
    result = run_isolated(["-m", "pytest", "-c", os.path.join(ROOT, "pyproject.toml"),
                           "--rootdir", str(tmp_path), "-p", "no:cacheprovider", str(path)],
                          timeout=120)
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "Falsifying example: test_fails(" in result.stdout
    assert "1 failed, 1 passed" in result.stdout


SOURCES = sorted(str(path.relative_to(ROOT)) for folder in ("src", "tests", "bench")
                 for path in Path(ROOT, folder).rglob("*.py"))


@pytest.mark.parametrize("path", SOURCES)
def test_parses_as_python_3_10(path):
    """CI runs the suite on Python 3.10 and 3.11.  This test parses every
    file with the 3.10 grammar (``except*`` and other 3.11 syntax are
    refused) on any interpreter; it does not catch a call to a library
    function or an argument that exists only in 3.11, which still needs a
    3.10 run."""
    source = Path(ROOT, path).read_text()
    ast.parse(source, filename=path, feature_version=(3, 10))
