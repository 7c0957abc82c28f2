"""The suite's pytest settings report a failing property test.

pytest turns warnings into errors (``filterwarnings`` in
``pyproject.toml``).  Hypothesis's report hook for a failing test can
raise a DeprecationWarning from ``mypy_extensions``; as an error it ended
the session in an INTERNALERROR, so the falsifying example was never shown
and no later test ran.  The settings ignore that one warning.

The module also checks the sources themselves: each parses with the
Python 3.10 grammar, only ``graph_core`` reaches into a ``DigitalSpace``'s
private members, and only ``solver._real`` decides what a number is."""

import ast
import os
from pathlib import Path

import pytest

from digital_pde.graph_core import DigitalSpace
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


# The private members of a space: the assembler that stores a graph without
# the constructor's checks, and the stores behind the read-only mappings.
PRIVATE_MEMBERS = {name for name in vars(DigitalSpace)
                   if name.startswith("_") and not name.endswith("__")}


def test_private_members_are_known():
    assert {"_assemble", "_adj", "_index"} <= PRIVATE_MEMBERS


@pytest.mark.parametrize("path", [p for p in SOURCES if p.startswith("src")
                                  and not p.endswith("graph_core.py")])
def test_only_graph_core_touches_a_space_s_private_members(path):
    """The unchecked path to a space (``_assemble``) and the stores it
    fills stay behind one module: no other module under ``src`` names
    them, as an attribute or as a string (``getattr``)."""
    tree = ast.parse(Path(ROOT, path).read_text(), filename=path)
    touched = [(node.lineno, name) for node in ast.walk(tree)
               for name in [node.attr if isinstance(node, ast.Attribute)
                            else node.value if isinstance(node, ast.Constant) else None]
               if name in PRIVATE_MEMBERS]
    assert touched == []


def _number_rule_parts(path):
    """(function, part) for each part of the number rule in the file at
    ``path``: a name of ``numbers.Real``, and a caught OverflowError.  The
    function is the innermost one that holds it, None at module level."""
    def walk(node, function):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef,
                                                     ast.AsyncFunctionDef)) else function
            if (isinstance(child, ast.Attribute) and child.attr == "Real"
                    or isinstance(child, ast.ImportFrom) and child.module == "numbers"):
                yield function, "numbers.Real"
            if isinstance(child, ast.ExceptHandler) and child.type is not None:
                types = child.type.elts if isinstance(child.type, ast.Tuple) else [child.type]
                if any(isinstance(t, ast.Name) and t.id == "OverflowError" for t in types):
                    yield function, "OverflowError"
            yield from walk(child, inner)
    return set(walk(ast.parse(Path(ROOT, path).read_text(), filename=path), None))


def test_one_copy_of_the_number_rule():
    """What a real number is (a ``numbers.Real``, not a bool; an integer
    too large for a float is not finite) is decided in ``solver._real``
    alone.  ``_positions`` also catches an OverflowError, which there means
    a position out of range."""
    found = {(path, *part) for path in SOURCES if path.startswith("src")
             for part in _number_rule_parts(path)}
    solver = "src/digital_pde/solver.py"
    assert found == {(solver, "_real", "numbers.Real"), (solver, "_real", "OverflowError"),
                     (solver, "_positions", "OverflowError")}
