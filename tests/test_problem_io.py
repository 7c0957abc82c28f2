import json

import numpy as np
import pytest

from digital_pde.problem_io import (
    ProblemFormatError,
    problem_from_json,
    problem_from_json_dict,
    trajectory_csv,
)
from digital_pde.solver import solve_ivp


def klein_problem_dict(**overrides):
    d = {
        "space": "klein_bottle_16",
        "coefficients": {"uniform_offdiag": 0.1, "diag": 0.4},
        "initial": {"point": 1, "value": 16.0},
        "boundary": None,
    }
    d.update(overrides)
    return d


class TestSpaceField:
    def test_catalog_name(self):
        p = problem_from_json_dict(klein_problem_dict())
        assert len(p.space.points) == 16

    def test_unknown_catalog_name(self):
        with pytest.raises(ProblemFormatError, match="space"):
            problem_from_json_dict(klein_problem_dict(space="nope"))

    def test_inline_graph(self):
        d = klein_problem_dict(
            space={"name": "tiny", "points": [1, 2], "edges": [[1, 2]]},
            coefficients={"uniform_offdiag": 0.25, "diag": 0.75},
            initial=[2.0, 0.0])
        p = problem_from_json_dict(d)
        assert p.space.points == (1, 2)

    def test_bad_inline_graph(self):
        with pytest.raises(ProblemFormatError, match="space"):
            problem_from_json_dict(klein_problem_dict(
                space={"points": [1], "edges": [[1, 2]]}))


class TestCoefficientsField:
    def test_entries_form(self):
        d = klein_problem_dict(
            space={"name": "tiny", "points": [1, 2], "edges": [[1, 2]]},
            coefficients={"entries": [[1, 1, 0.5], [2, 1, 0.5],
                                      [1, 2, 0.5], [2, 2, 0.5]]},
            initial=[2.0, 0.0])
        p = problem_from_json_dict(d)
        np.testing.assert_array_equal(p.coefficients.matrix, 0.5)

    def test_entries_unknown_point(self):
        d = klein_problem_dict(coefficients={"entries": [[1, 99, 0.1]]})
        with pytest.raises(ProblemFormatError, match="entries"):
            problem_from_json_dict(d)

    def test_diag_map_form(self):
        diag_map = {str(p): 1.0 - 0.1 * 5 for p in range(1, 12)}
        d = klein_problem_dict(space="projective_plane_11",
                               coefficients={"uniform_offdiag": 0.1,
                                             "diag_map": diag_map},
                               initial={"point": 1, "value": 11.0})
        p = problem_from_json_dict(d)
        assert p.coefficients.matrix[0, 0] == 0.5

    def test_diag_map_missing_point(self):
        d = klein_problem_dict(
            coefficients={"uniform_offdiag": 0.1, "diag_map": {"1": 0.4}})
        with pytest.raises(ProblemFormatError, match="diag_map"):
            problem_from_json_dict(d)

    def test_missing_diag(self):
        d = klein_problem_dict(coefficients={"uniform_offdiag": 0.1})
        with pytest.raises(ProblemFormatError, match="diag"):
            problem_from_json_dict(d)

    def test_unrecognized_form(self):
        with pytest.raises(ProblemFormatError, match="coefficients"):
            problem_from_json_dict(klein_problem_dict(coefficients={"foo": 1}))


class TestInitialField:
    def test_explicit_list(self):
        d = klein_problem_dict(initial=[1.0] * 16)
        p = problem_from_json_dict(d)
        assert p.initial.sum() == 16.0

    def test_wrong_length(self):
        with pytest.raises(ProblemFormatError, match="initial"):
            problem_from_json_dict(klein_problem_dict(initial=[1.0] * 15))

    def test_point_value_rest(self):
        d = klein_problem_dict(initial={"point": 3, "value": 10.0, "rest": 0.5})
        p = problem_from_json_dict(d)
        assert p.initial[2] == 10.0
        assert p.initial[0] == 0.5

    def test_unknown_point(self):
        with pytest.raises(ProblemFormatError, match="initial.point"):
            problem_from_json_dict(klein_problem_dict(
                initial={"point": 99, "value": 1.0}))


class TestBoundaryField:
    def test_clamps_parsed(self):
        d = klein_problem_dict(boundary={"points": [1, 2], "values": [3.0, 4.0]})
        p = problem_from_json_dict(d)
        assert p.boundary_points == [1, 2]
        assert p.boundary_values(7) == {1: 3.0, 2: 4.0}

    def test_length_mismatch(self):
        with pytest.raises(ProblemFormatError, match="boundary"):
            problem_from_json_dict(klein_problem_dict(
                boundary={"points": [1], "values": [1.0, 2.0]}))

    def test_unknown_boundary_point(self):
        with pytest.raises(ProblemFormatError, match="boundary.points"):
            problem_from_json_dict(klein_problem_dict(
                boundary={"points": [77], "values": [0.0]}))


class TestFromText:
    def test_round_trip(self):
        p = problem_from_json(json.dumps(klein_problem_dict(steps=5, tol=0.0)))
        assert p.steps == 5 and p.tol == 0.0

    def test_invalid_json(self):
        with pytest.raises(ProblemFormatError, match="invalid JSON"):
            problem_from_json("{not json")

    def test_non_object(self):
        with pytest.raises(ProblemFormatError, match="object"):
            problem_from_json("[1, 2]")


class TestRejectsBadNumbers:
    """Each malformed number is refused with its field named."""

    @pytest.mark.parametrize("steps", [-5, 2.7, "5", True, float("inf")])
    def test_steps(self, steps):
        with pytest.raises(ProblemFormatError, match="steps"):
            problem_from_json_dict(klein_problem_dict(steps=steps))

    def test_integral_float_steps_accepted(self):
        assert problem_from_json_dict(klein_problem_dict(steps=3.0)).steps == 3

    @pytest.mark.parametrize("tol", [float("nan"), float("inf")])
    def test_tol(self, tol):
        with pytest.raises(ProblemFormatError, match="tol"):
            problem_from_json_dict(klein_problem_dict(tol=tol))

    def test_tol_from_json_text(self):
        # json.dumps writes the NaN literal that json.loads reads back.
        text = json.dumps(dict(klein_problem_dict(), tol=float("nan")))
        with pytest.raises(ProblemFormatError, match="tol"):
            problem_from_json(text)

    @pytest.mark.parametrize("coefficients, field", [
        ({"entries": [[1, 1, float("inf")]]}, "coefficients.entries"),
        ({"uniform_offdiag": float("nan"), "diag": 0.4}, "coefficients.uniform_offdiag"),
        ({"uniform_offdiag": 0.1, "diag": float("-inf")}, "coefficients.diag"),
        ({"uniform_offdiag": 0.1,
          "diag_map": {str(p): float("nan") for p in range(1, 17)}},
         "coefficients.diag_map"),
    ])
    def test_coefficient(self, coefficients, field):
        with pytest.raises(ProblemFormatError, match=field):
            problem_from_json_dict(klein_problem_dict(coefficients=coefficients))

    @pytest.mark.parametrize("initial, field", [
        ([float("nan")] + [0.0] * 15, "initial"),
        ({"point": 1, "value": float("inf")}, "initial.value"),
        ({"point": 1, "value": 1.0, "rest": float("nan")}, "initial.rest"),
        ({"point": 1}, "initial.value"),
    ])
    def test_initial(self, initial, field):
        with pytest.raises(ProblemFormatError, match=field):
            problem_from_json_dict(klein_problem_dict(initial=initial))

    def test_boundary_value(self):
        with pytest.raises(ProblemFormatError, match="boundary.values"):
            problem_from_json_dict(klein_problem_dict(
                boundary={"points": [1], "values": [float("inf")]}))


class TestTrajectoryCsv:
    def test_header_and_rows(self):
        p = problem_from_json_dict(klein_problem_dict(steps=3, tol=0.0))
        trajectory = solve_ivp(p)
        csv = trajectory_csv(trajectory, p.space)
        lines = csv.strip().split("\n")
        assert lines[0] == "t," + ",".join(f"f_{i}" for i in range(1, 17)) + ",S,norm1"
        assert len(lines) == 5  # header + t = 0..3
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "16"
        assert first[-2] == "16"

    def test_zero_steps_single_row(self):
        p = problem_from_json_dict(klein_problem_dict(steps=0))
        csv = trajectory_csv(solve_ivp(p), p.space)
        assert len(csv.strip().split("\n")) == 2

    def test_deterministic_bytes(self):
        p1 = problem_from_json_dict(klein_problem_dict(steps=20, tol=0.0))
        p2 = problem_from_json_dict(klein_problem_dict(steps=20, tol=0.0))
        assert trajectory_csv(solve_ivp(p1), p1.space) == \
            trajectory_csv(solve_ivp(p2), p2.space)
