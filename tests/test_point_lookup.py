"""Every entry point that takes points a caller names refuses them the
same way, through ``DigitalSpace.positions``: ``True`` and ``1.0`` equal
the point 1 but are not labels, and 99 is not a point of the space.
Queries of one point refuse it through ``neighbors``, and an edge
operation refuses a pair with such an end as not an edge."""

import json

import numpy as np
import pytest
from click.testing import CliRunner

from digital_pde.cli import main
from digital_pde.graph_core import UnknownEdgeError, UnknownPointError, cycle_space
from digital_pde.problem_io import ProblemFormatError, problem_from_json_dict
from digital_pde.solver import Problem, bind_entries, elliptic_residual, uniform_coefficients
from digital_pde.topology import (
    ReductionTrace,
    attach_point,
    disk_from_sphere,
    is_simple_edge,
    is_simple_point,
    minimal_sphere,
    r_transform,
)

C4 = cycle_space(4)
C4_COEFFS = uniform_coefficients(C4, 0.25, 0.5)
S2 = minimal_sphere(2)


def _problem_json(**fields):
    d = {"space": "klein_bottle_16", "coefficients": {"uniform_offdiag": 0.1, "diag": 0.4},
         "initial": {"point": 1, "value": 16.0}}
    return problem_from_json_dict(dict(d, **fields))


def _cli(tmp_path, *args):
    """Run the CLI, which must refuse the input with one error line, and
    raise that line as a ValueError."""
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps({"space": "klein_bottle_16", "initial": [1.0] * 16,
                                   "coefficients": {"uniform_offdiag": 0.1, "diag": 0.4}}))
    result = CliRunner().invoke(main, [a.replace("PROBLEM", str(problem)) for a in args])
    assert result.exit_code == 2 and result.stdout == ""
    (line,) = result.stderr.splitlines()
    assert line.startswith("error: ")
    raise ValueError(line[len("error: "):])


# (field, error type, call with the point p)
ENTRY_POINTS = [
    ("induced", UnknownPointError, lambda p, tmp: C4.induced([2, p])),
    ("delete_points", UnknownPointError, lambda p, tmp: C4.delete_points([p])),
    ("attach_point", UnknownPointError, lambda p, tmp: attach_point(C4, [p], 9)),
    ("deleted_points", UnknownPointError,
     lambda p, tmp: ReductionTrace(deleted_points=[1, p]).replay(C4)),
    ("entries", UnknownPointError, lambda p, tmp: bind_entries(C4, [(1, 1, 0.5), (2, p, 0.5)])),
    ("diag", UnknownPointError,
     lambda p, tmp: uniform_coefficients(C4, 0.1, {p: 0.8, 2: 0.8, 3: 0.8, 4: 0.8})),
    ("boundary_points", UnknownPointError,
     lambda p, tmp: Problem(C4, C4_COEFFS, np.ones(4), boundary_points=[2, p],
                            boundary_values=lambda t: {})),
    ("points", UnknownPointError,
     lambda p, tmp: elliptic_residual(C4_COEFFS, np.ones(4), points=[2, p])),
    # problem JSON names the field the point was read from
    ("coefficients.entries", ProblemFormatError,
     lambda p, tmp: _problem_json(coefficients={"entries": [[1, 1, 0.5], [2, p, 0.5]]})),
    ("initial.point", ProblemFormatError,
     lambda p, tmp: _problem_json(initial={"point": p, "value": 1.0})),
    ("boundary.points", ProblemFormatError,
     lambda p, tmp: _problem_json(boundary={"points": [2, p], "values": [0.0, 0.0]})),
    # an option names p as str(p), so "True" and "1.0" are no labels at all
    ("--points", ValueError, lambda p, tmp: _cli(tmp, "solve", "PROBLEM", "--points", f"2,{p}")),
    ("--edge", ValueError,
     lambda p, tmp: _cli(tmp, "transform", "s2_min", "r-transform", "--edge", f"1,{p}")),
    # queries of one point read its neighbours, so their refusal names `neighbors`
    ("neighbors", UnknownPointError, lambda p, tmp: C4.neighbors(p)),
    ("degree", UnknownPointError, lambda p, tmp: C4.degree(p)),
    ("rim", UnknownPointError, lambda p, tmp: C4.rim(p)),
    ("ball", UnknownPointError, lambda p, tmp: C4.ball(p)),
    ("is_simple_point", UnknownPointError, lambda p, tmp: is_simple_point(C4, p)),
    ("disk_from_sphere", UnknownPointError, lambda p, tmp: disk_from_sphere(S2, p)),
    # an edge operation refuses the pair (p, 2) as not an edge
    ("edge_rim", UnknownEdgeError, lambda p, tmp: C4.edge_rim(p, 2)),
    ("delete_edge", UnknownEdgeError, lambda p, tmp: C4.delete_edge(p, 2)),
    ("is_simple_edge", UnknownEdgeError, lambda p, tmp: is_simple_edge(C4, p, 2)),
    ("r_transform", UnknownEdgeError, lambda p, tmp: r_transform(C4, p, 2, 9)),
]
NEIGHBOR_QUERIES = {"degree", "rim", "ball", "is_simple_point", "disk_from_sphere"}


@pytest.mark.parametrize("p", [True, 1.0, 99], ids=["true", "float", "absent"])
@pytest.mark.parametrize("field, error, call", ENTRY_POINTS,
                         ids=[field for field, _, _ in ENTRY_POINTS])
def test_point_not_in_the_space_refused(tmp_path, field, error, call, p):
    if field.startswith("--") and type(p) is not int:
        message = f"{field}: bad point label {str(p)!r}"
    elif error is UnknownEdgeError:
        message = f"({p!r},2) is not an edge"
    elif field in NEIGHBOR_QUERIES:
        message = f"neighbors: point {p!r} is not in the space"
    else:
        message = f"{field}: point {p!r} is not in the space"
    with pytest.raises(error) as info:
        call(p, tmp_path)
    assert str(info.value) == message


HASHABLE_KEYS = {"diag"}  # a dict key: the caller cannot even name a list there


@pytest.mark.parametrize("field, error, call",
                         [e for e in ENTRY_POINTS if e[0] not in HASHABLE_KEYS],
                         ids=[field for field, _, _ in ENTRY_POINTS if field not in HASHABLE_KEYS])
def test_unhashable_point_refused_before_it_is_hashed(tmp_path, field, error, call):
    """The list [1] is looked up, and refused, before anything hashes it:
    ``induced``, ``delete_points`` and ``attach_point`` once raised a bare
    ``TypeError: unhashable type``."""
    test_point_not_in_the_space_refused(tmp_path, field, error, call, [1])


@pytest.mark.parametrize("p", [True, 1.0, 99], ids=["true", "float", "absent"])
def test_membership_and_edges_only_of_points(p):
    assert p not in C4
    assert not C4.has_edge(p, 2) and not C4.has_edge(2, p)


def test_numpy_integer_labels_are_points():
    assert np.int64(1) in C4 and C4.has_edge(np.int64(1), 2)
    assert C4.neighbors(np.int64(1)) == {2, 4}


def test_positions_follow_the_order_named():
    g = cycle_space(5)
    assert g.positions([5, 1, 3, 1], "points") == [4, 0, 2, 0]
    assert g.positions([np.int64(2)], "points") == [1]
    assert g.positions((), "points") == []


# (field, call with the whole collection of points or entries)
COLLECTIONS = [
    ("induced", lambda v: C4.induced(v)),
    ("delete_points", lambda v: C4.delete_points(v)),
    ("attach_point", lambda v: attach_point(C4, v, 9)),
    ("entries", lambda v: bind_entries(C4, v)),
    ("boundary_points", lambda v: Problem(C4, C4_COEFFS, np.ones(4), boundary_points=v,
                                          boundary_values=lambda t: {})),
    ("points", lambda v: elliptic_residual(C4_COEFFS, np.ones(4), points=v)),
]


# None means "no boundary" and "every point" to the last two
NOT_COLLECTIONS = [pytest.param(field, call, value, id=f"{field}-{kind}")
                   for field, call in COLLECTIONS
                   for value, kind in [(5, "int"), (1.0, "float"), (None, "none")]
                   if value is not None or field not in {"boundary_points", "points"}]


@pytest.mark.parametrize("field, call, value", NOT_COLLECTIONS)
def test_argument_not_a_collection_refused(field, call, value):
    """Each raised a bare ``TypeError: 'int' object is not iterable``."""
    with pytest.raises(ValueError) as info:
        call(value)
    what = "entries" if field == "entries" else "points"
    assert str(info.value) == f"{field}: expected a collection of {what}, got {value!r}"
    assert not isinstance(info.value, UnknownPointError)
