"""Problem JSON loading and trajectory CSV emission.

Problem schema:

    {
      "space": "catalog-name" | {graph JSON},
      "coefficients": {"entries": [[p, k, value], ...]}
                    | {"uniform_offdiag": x, "diag": y}
                    | {"uniform_offdiag": x, "diag_map": {"point": y, ...}},
      "initial": [v1, ...] | {"point": p, "value": v, "rest": r},
      "boundary": {"points": [...], "values": [...]} | null,
      "steps": int, "tol": float
    }

Coefficient entries are destination-major: [p, k, v] adds weight v for
the flow from source k into destination p.

Trajectory CSV: header ``t,f_1,...,f_n,S,norm1``, one row per step,
floats printed with repr-stable %.12g so identical runs produce
identical bytes.
"""

from __future__ import annotations

import json
import math
from typing import Dict

import numpy as np

from . import catalog
from .graph_core import DigitalSpace
from .solver import CoefficientMatrix, Problem, Trajectory, bind, uniform_coefficients


class ProblemFormatError(ValueError):
    """The problem JSON failed validation; the message names the field."""


def _finite(value, name: str) -> float:
    """``value`` as a finite float, or a ProblemFormatError naming the field."""
    try:
        x = float(value)
    except (TypeError, ValueError):
        raise ProblemFormatError(f"{name}: expected a number, got {value!r}")
    if not math.isfinite(x):
        raise ProblemFormatError(f"{name}: expected a finite number, got {value!r}")
    return x


def _steps(value) -> int:
    integral = ((isinstance(value, int) and not isinstance(value, bool))
                or (isinstance(value, float) and value.is_integer()))
    if not integral or value < 0:
        raise ProblemFormatError(f"steps: expected a nonnegative integer, got {value!r}")
    return int(value)


def _load_space(spec) -> DigitalSpace:
    if isinstance(spec, str):
        try:
            return catalog.space(spec)
        except KeyError:
            raise ProblemFormatError(f"space: unknown catalog name {spec!r}")
    if isinstance(spec, dict):
        try:
            return DigitalSpace.from_json_dict(spec)
        except Exception as exc:
            raise ProblemFormatError(f"space: invalid inline graph ({exc})")
    raise ProblemFormatError("space: expected catalog name or inline graph")


def _load_coefficients(space: DigitalSpace, spec) -> CoefficientMatrix:
    if not isinstance(spec, dict):
        raise ProblemFormatError("coefficients: expected an object")
    if "entries" in spec:
        n = len(space.points)
        index = {p: i for i, p in enumerate(space.points)}
        mat = np.zeros((n, n))
        for item in spec["entries"]:
            try:
                p, k, v = item
            except (TypeError, ValueError):
                raise ProblemFormatError(f"coefficients.entries: bad entry {item!r}")
            if p not in index or k not in index:
                raise ProblemFormatError(
                    f"coefficients.entries: unknown point in {item!r}")
            mat[index[p], index[k]] = _finite(v, "coefficients.entries")
        return bind(space, mat)
    if "uniform_offdiag" in spec:
        offdiag = _finite(spec["uniform_offdiag"], "coefficients.uniform_offdiag")
        if "diag_map" in spec:
            diag = {int(p): _finite(v, "coefficients.diag_map")
                    for p, v in spec["diag_map"].items()}
            missing = set(space.points) - set(diag)
            if missing:
                raise ProblemFormatError(
                    f"coefficients.diag_map: missing points {sorted(missing)}")
        elif "diag" in spec:
            diag = _finite(spec["diag"], "coefficients.diag")
        else:
            raise ProblemFormatError("coefficients: uniform_offdiag needs diag or diag_map")
        return uniform_coefficients(space, offdiag, diag)
    raise ProblemFormatError("coefficients: expected entries or uniform_offdiag form")


def _load_initial(space: DigitalSpace, spec) -> np.ndarray:
    n = len(space.points)
    if isinstance(spec, list):
        if len(spec) != n:
            raise ProblemFormatError(f"initial: expected {n} values, got {len(spec)}")
        return np.array([_finite(v, "initial") for v in spec])
    if isinstance(spec, dict):
        point = spec.get("point")
        if point not in space:
            raise ProblemFormatError(f"initial.point: unknown point {point!r}")
        rest = _finite(spec.get("rest", 0.0), "initial.rest")
        values = np.full(n, rest)
        values[space.points.index(point)] = _finite(spec.get("value"), "initial.value")
        return values
    raise ProblemFormatError("initial: expected list or point/value form")


def problem_from_json_dict(d: dict) -> Problem:
    space = _load_space(d.get("space"))
    coeffs = _load_coefficients(space, d.get("coefficients"))
    initial = _load_initial(space, d.get("initial"))
    boundary = d.get("boundary")
    boundary_points = None
    boundary_values = None
    if boundary:
        points = boundary.get("points", [])
        values = boundary.get("values", [])
        if len(points) != len(values):
            raise ProblemFormatError("boundary: points and values lengths differ")
        unknown = set(points) - set(space.points)
        if unknown:
            raise ProblemFormatError(f"boundary.points: unknown {sorted(unknown)}")
        clamp: Dict[int, float] = {p: _finite(v, "boundary.values")
                                   for p, v in zip(points, values)}
        boundary_points = list(points)
        boundary_values = lambda t: clamp  # noqa: E731 - constant clamps
    return Problem(
        space=space,
        coefficients=coeffs,
        initial=initial,
        boundary_points=boundary_points,
        boundary_values=boundary_values,
        steps=_steps(d.get("steps", 2000)),
        tol=_finite(d.get("tol", 1e-10), "tol"),
    )


def problem_from_json(text: str) -> Problem:
    try:
        d = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(f"invalid JSON: {exc}")
    if not isinstance(d, dict):
        raise ProblemFormatError("problem: expected a JSON object")
    return problem_from_json_dict(d)


def _fmt(x: float) -> str:
    return format(x, ".12g")


def trajectory_csv(trajectory: Trajectory, space: DigitalSpace) -> str:
    header = "t," + ",".join(f"f_{p}" for p in space.points) + ",S,norm1"
    lines = [header]
    for state, s, norm in zip(trajectory.states, trajectory.sums, trajectory.norms):
        row = [str(state.t)] + [_fmt(v) for v in state.values] + [_fmt(s), _fmt(norm)]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
