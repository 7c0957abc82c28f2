"""Problem JSON loading and trajectory CSV emission.

Problem schema:

    {
      "space": "catalog-name" | {graph JSON},
      "coefficients": {"entries": [[p, k, value], ...]}
                    | {"uniform_offdiag": x, "diag": y}
                    | {"uniform_offdiag": x, "diag_map": {"point": y, ...}},
      "initial": [v1, ...] | {"point": p, "value": v, "rest": r},
      "boundary": {"points": [...], "values": [...]} | null,
      "steps": int, "tol": float            (optional; Problem's defaults)
    }

Coefficient entries are destination-major: [p, k, v] adds weight v for
the flow from source k into destination p.  A ``diag_map`` key names the
point p only when it is ``str(p)``: "01", " 1" and "1_0" name no point.

The loader checks only JSON types and shapes.  Each coefficient value is
checked once, by the builder that takes it (``bind_entries`` or
``uniform_coefficients``), and each value of the problem by ``Problem``;
their refusals are reported under the JSON field's name, so a file and a
``Problem`` built in Python are held to the same rules.  Only the values
the loader places itself (``initial.value``, ``initial.rest`` and
``boundary.values``) are checked here, by ``finite_number``.

Trajectory CSV: header ``t,f_1,...,f_n,S,norm1``, one row per step,
floats printed with repr-stable %.12g so identical runs produce
identical bytes.
"""

from __future__ import annotations

import json

import numpy as np

from . import catalog
from .graph_core import DigitalSpace, parse_label
from .solver import (CoefficientMatrix, Problem, SupportError, Trajectory, bind_entries,
                     finite_number, uniform_coefficients)

# The library's argument names, as the JSON fields they are read from (a
# ``diag`` refusal is renamed where the coefficients' form is known).
_JSON_FIELDS = {"entries": "coefficients.entries", "offdiag": "coefficients.uniform_offdiag",
                "boundary_points": "boundary.points"}


class ProblemFormatError(ValueError):
    """The problem JSON failed validation; the message names the field."""


def _load_space(spec) -> DigitalSpace:
    if isinstance(spec, str):
        try:
            return catalog.space(spec)
        except KeyError:
            raise ProblemFormatError(f"space: unknown catalog name {spec!r}")
    if isinstance(spec, dict):
        try:
            return DigitalSpace.from_json_dict(spec)
        except ValueError as exc:
            raise ProblemFormatError(f"space: invalid inline graph ({exc})")
    raise ProblemFormatError("space: expected catalog name or inline graph")


def _load_coefficients(space: DigitalSpace, spec) -> CoefficientMatrix:
    if not isinstance(spec, dict):
        raise ProblemFormatError("coefficients: expected an object")
    if "entries" in spec:
        if not isinstance(spec["entries"], list):
            raise ProblemFormatError("coefficients.entries: expected a list of [p, k, value]")
        try:
            return bind_entries(space, spec["entries"])
        except SupportError as exc:  # names a pair, not an argument
            raise ProblemFormatError(f"coefficients.entries: {exc}")
    if "uniform_offdiag" in spec:
        if "diag_map" in spec:
            if not isinstance(spec["diag_map"], dict):
                raise ProblemFormatError("coefficients.diag_map: expected an object")
            diag = {parse_label(p, "coefficients.diag_map"): v
                    for p, v in spec["diag_map"].items()}
            field = "coefficients.diag_map"
        elif "diag" in spec:
            diag, field = spec["diag"], "coefficients.diag"
            if isinstance(diag, dict):  # an object here is not a diag map
                raise ProblemFormatError(f"{field}: expected a number, got {diag!r}")
        else:
            raise ProblemFormatError("coefficients: uniform_offdiag needs diag or diag_map")
        try:
            return uniform_coefficients(space, spec["uniform_offdiag"], diag)
        except ValueError as exc:  # a ``diag`` refusal names the form the file used
            name, sep, rest = str(exc).partition(": ")
            if name != "diag":
                raise
            raise ProblemFormatError(field + sep + rest)
    raise ProblemFormatError("coefficients: expected entries or uniform_offdiag form")


def _load_initial(space: DigitalSpace, spec):
    if isinstance(spec, list):  # Problem checks it
        return spec
    if isinstance(spec, dict):
        (i,) = space.positions([spec.get("point")], "initial.point")
        values = np.full(len(space.points),
                         finite_number(spec.get("rest", 0.0), "initial.rest"))
        values[i] = finite_number(spec.get("value"), "initial.value")
        return values
    raise ProblemFormatError("initial: expected list or point/value form")


def problem_from_json_dict(d: dict) -> Problem:
    """Build a Problem from problem JSON.  This module checks JSON types
    and shapes; Problem and the coefficient builders check the rest.
    Every refusal is a ProblemFormatError naming the JSON field."""
    try:
        space = _load_space(d.get("space"))
        coeffs = _load_coefficients(space, d.get("coefficients"))
        initial = _load_initial(space, d.get("initial"))
        fields = {key: d[key] for key in ("steps", "tol") if key in d}
        boundary = d.get("boundary")
        if boundary:
            if not isinstance(boundary, dict):
                raise ProblemFormatError("boundary: expected an object or null")
            points = boundary.get("points", [])
            values = boundary.get("values", [])
            for field, value in (("points", points), ("values", values)):
                if not isinstance(value, list):
                    raise ProblemFormatError(
                        f"boundary.{field}: expected a list, got {value!r}")
            if len(points) != len(values):
                raise ProblemFormatError("boundary: points and values lengths differ")
            values = [finite_number(v, "boundary.values") for v in values]
            clamp = {}  # filled below, once Problem has checked the points
            fields.update(boundary_points=points, boundary_values=lambda t: clamp)
        problem = Problem(space, coeffs, initial, **fields)
    except ValueError as exc:  # a library refusal starts with its argument's name
        name, sep, rest = str(exc).partition(": ")
        raise ProblemFormatError(_JSON_FIELDS.get(name, name) + sep + rest)
    if boundary:
        clamp.update(zip(points, values))
    return problem


def problem_from_json(text: str) -> Problem:
    try:
        d = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(f"invalid JSON: {exc}")
    if not isinstance(d, dict):
        raise ProblemFormatError("problem: expected a JSON object")
    return problem_from_json_dict(d)


def trajectory_csv(trajectory: Trajectory, space: DigitalSpace) -> str:
    header = "t," + ",".join(f"f_{p}" for p in space.points) + ",S,norm1"
    # One %-format per row on Python floats: the same bytes as
    # format(v, ".12g") per value.  Rows are converted one at a time, as
    # the whole table in Python floats would be several times the array.
    row = "%d," + ",".join(["%.12g"] * (len(space.points) + 2))
    records = zip(trajectory.values, trajectory.sums.tolist(), trajectory.norms.tolist())
    lines = [header]
    lines += [row % (t, *values.tolist(), s, norm)
              for t, (values, s, norm) in enumerate(records)]
    lines.append("")  # the final newline, without copying the text again
    return "\n".join(lines)
