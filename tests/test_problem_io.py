import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digital_pde import catalog
from digital_pde.problem_io import (
    ProblemFormatError,
    problem_from_json,
    problem_from_json_dict,
    trajectory_csv,
)
from digital_pde.solver import bind_entries, solve_ivp, uniform_coefficients

HUGE = 10**400  # an integer too large for a float


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

    def test_inline_graph_bool_label(self):
        with pytest.raises(ProblemFormatError,
                           match="space: invalid inline graph .points: expected integers, got True"):
            problem_from_json_dict(klein_problem_dict(
                space={"points": [True, 2], "edges": [[1, 2]]},
                coefficients={"uniform_offdiag": 0.25, "diag": 0.75}, initial=[2.0, 0.0]))


class TestCoefficientsField:
    def test_entries_form(self):
        d = klein_problem_dict(
            space={"name": "tiny", "points": [1, 2], "edges": [[1, 2]]},
            coefficients={"entries": [[1, 1, 0.5], [2, 1, 0.5],
                                      [1, 2, 0.5], [2, 2, 0.5]]},
            initial=[2.0, 0.0])
        p = problem_from_json_dict(d)
        np.testing.assert_array_equal(p.coefficients.toarray(), 0.5)

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
        assert p.coefficients.toarray()[0, 0] == 0.5

    def test_diag_map_missing_point(self):
        d = klein_problem_dict(
            coefficients={"uniform_offdiag": 0.1,
                          "diag_map": {str(p): 0.4 for p in range(1, 16)}})
        with pytest.raises(ProblemFormatError,
                           match=r"^coefficients\.diag_map: point 16 has no value$"):
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
        assert p.boundary_points == (1, 2)
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

    @pytest.mark.parametrize("steps", [-5, 2.7, "5", True, float("inf"), None])
    def test_steps(self, steps):
        with pytest.raises(ProblemFormatError, match="steps"):
            problem_from_json_dict(klein_problem_dict(steps=steps))

    def test_integral_float_steps_accepted(self):
        assert problem_from_json_dict(klein_problem_dict(steps=3.0)).steps == 3

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), True, "1e-10", None])
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
        ({"point": 1, "value": True}, "initial.value"),
    ])
    def test_initial(self, initial, field):
        with pytest.raises(ProblemFormatError, match=field):
            problem_from_json_dict(klein_problem_dict(initial=initial))

    def test_boundary_value(self):
        with pytest.raises(ProblemFormatError, match="boundary.values"):
            problem_from_json_dict(klein_problem_dict(
                boundary={"points": [1], "values": [float("inf")]}))

    def test_repeated_boundary_point(self):
        with pytest.raises(ProblemFormatError, match="boundary.points: repeated"):
            problem_from_json_dict(klein_problem_dict(
                boundary={"points": [1, 1], "values": [1, 5]}))


class TestCoefficientMessages:
    """A file with one faulty coefficient gets the message the loader gave
    when it checked coefficient values itself, byte for byte."""

    @pytest.mark.parametrize("coefficients, message", [
        ({"entries": [[1, 1, 0.5], [1, 2]]}, "coefficients.entries: bad entry [1, 2]"),
        ({"entries": [[1, 1, 0.5], 7]}, "coefficients.entries: bad entry 7"),
        ({"entries": [[1, 1, True]]}, "coefficients.entries: expected a number, got True"),
        ({"entries": [[1, 1, "0.5"]]}, "coefficients.entries: expected a number, got '0.5'"),
        ({"entries": [[1, 1, None]]}, "coefficients.entries: expected a number, got None"),
        ({"entries": [[1, 1, float("nan")]]},
         "coefficients.entries: expected a finite number, got nan"),
        ({"entries": [[1, 1, 0.5], [1, 9, 0.5]]},
         "coefficients.entries: coefficient (1,9) is nonzero but the points are not adjacent"),
        ({"uniform_offdiag": True, "diag": 0.4},
         "coefficients.uniform_offdiag: expected a number, got True"),
        ({"uniform_offdiag": float("inf"), "diag": 0.4},
         "coefficients.uniform_offdiag: expected a finite number, got inf"),
        ({"uniform_offdiag": [0.1], "diag": 0.4},
         "coefficients.uniform_offdiag: expected a number, got [0.1]"),
        ({"uniform_offdiag": 0.1, "diag": None}, "coefficients.diag: expected a number, got None"),
        ({"uniform_offdiag": 0.1, "diag": "0.4"},
         "coefficients.diag: expected a number, got '0.4'"),
        ({"uniform_offdiag": 0.1, "diag": {"1": 0.4}},
         "coefficients.diag: expected a number, got {'1': 0.4}"),
        ({"uniform_offdiag": 0.1, "diag_map": dict({str(p): 0.4 for p in range(1, 17)}, **{"5": True})},
         "coefficients.diag_map: expected a number, got True"),
        ({"uniform_offdiag": 0.1,
          "diag_map": dict({str(p): 0.4 for p in range(1, 17)}, **{"5": float("-inf")})},
         "coefficients.diag_map: expected a finite number, got -inf"),
        ({"uniform_offdiag": 0.1, "diag_map": {str(p): 0.4 for p in range(1, 16)}},
         "coefficients.diag_map: point 16 has no value"),
        ({"uniform_offdiag": 0.1, "diag_map": {str(p): [0.4] for p in range(1, 17)}},
         "coefficients.diag_map: expected a number, got [0.4]"),
        ({"uniform_offdiag": 0.1,
          "diag_map": dict({str(p): [0.1, 0.1] for p in range(1, 16)}, **{"16": [0.1, np.nan]})},
         "coefficients.diag_map: expected a number, got [0.1, 0.1]"),
        ({"entries": [[1, 1, [0.4]]]}, "coefficients.entries: expected a number, got [0.4]"),
        ({"uniform_offdiag": 0.1, "diag": [0.4]}, "coefficients.diag: expected a number, got [0.4]"),
        # two faults: the first in the file's order is named
        ({"uniform_offdiag": 0.1,
          "diag_map": dict({str(p): 0.4 for p in range(1, 17)}, **{"1": float("nan"), "2": "x"})},
         "coefficients.diag_map: expected a finite number, got nan"),
    ], ids=["short-entry", "number-entry", "entry-true", "entry-str", "entry-null", "entry-nan",
            "entry-off-the-balls", "offdiag-true", "offdiag-inf", "offdiag-list", "diag-null",
            "diag-str", "diag-object", "diag-map-true", "diag-map-inf", "diag-map-missing",
            "diag-map-lists", "diag-map-pairs", "entry-list", "diag-list",
            "diag-map-nan-before-str"])
    def test_message(self, coefficients, message):
        with pytest.raises(ProblemFormatError) as info:
            problem_from_json_dict(klein_problem_dict(coefficients=coefficients))
        assert str(info.value) == message

    def test_diag_map_list_on_one_point_refused(self):
        d = {"space": {"points": [1], "edges": []},
             "coefficients": {"uniform_offdiag": 0.1, "diag_map": {"1": [0.4]}},
             "initial": [1.0]}
        with pytest.raises(ProblemFormatError) as info:
            problem_from_json_dict(d)
        assert str(info.value) == "coefficients.diag_map: expected a number, got [0.4]"

    @pytest.mark.parametrize("coefficients, field, value", [
        ({"entries": [[1, 1, HUGE]]}, "coefficients.entries", HUGE),
        ({"uniform_offdiag": HUGE, "diag": 0.4}, "coefficients.uniform_offdiag", HUGE),
        ({"uniform_offdiag": 0.1, "diag": -HUGE}, "coefficients.diag", -HUGE),
        ({"uniform_offdiag": 0.1, "diag_map": {str(p): HUGE for p in range(1, 17)}},
         "coefficients.diag_map", HUGE),
    ], ids=["entries", "uniform_offdiag", "diag", "diag_map"])
    def test_integer_too_large_for_a_float_refused(self, coefficients, field, value):
        with pytest.raises(ProblemFormatError) as info:
            problem_from_json_dict(klein_problem_dict(coefficients=coefficients))
        assert str(info.value) == f"{field}: expected a finite number, got {value}"

    @pytest.mark.parametrize("initial, field", [
        ({"point": 1, "value": HUGE}, "initial.value"),
        ({"point": 1, "value": 1.0, "rest": HUGE}, "initial.rest"),
        ([HUGE] + [0.0] * 15, "initial"),
        ([HUGE, "a"] + [0.0] * 14, "initial"),  # two faults: the first is named
    ])
    def test_initial_too_large_for_a_float_refused(self, initial, field):
        with pytest.raises(ProblemFormatError) as info:
            problem_from_json_dict(klein_problem_dict(initial=initial))
        assert str(info.value) == f"{field}: expected a finite number, got {HUGE}"


# One value of every kind a caller may pass as a coefficient
COEFFICIENT_VALUES = st.one_of(
    st.integers(), st.floats(),
    st.floats().map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.sampled_from([True, False, "0.5", None, 1j, float("nan"), float("inf"), float("-inf"),
                     HUGE, -HUGE, np.True_]))

# form: (its JSON field, the library argument, the coefficients of a file
# holding v there, the matching Python call)
COEFFICIENT_FORMS = {
    "entries": ("coefficients.entries", "entries",
                lambda v: {"entries": [[1, 1, v], [2, 2, 0.5]]},
                lambda g, v: bind_entries(g, [[1, 1, v], [2, 2, 0.5]])),
    "uniform_offdiag": ("coefficients.uniform_offdiag", "offdiag",
                        lambda v: {"uniform_offdiag": v, "diag": 0.4},
                        lambda g, v: uniform_coefficients(g, v, 0.4)),
    "diag": ("coefficients.diag", "diag",
             lambda v: {"uniform_offdiag": 0.1, "diag": v},
             lambda g, v: uniform_coefficients(g, 0.1, v)),
    "diag_map": ("coefficients.diag_map", "diag",
                 lambda v: {"uniform_offdiag": 0.1,
                            "diag_map": {str(p): v if p == 3 else 0.4 for p in range(1, 17)}},
                 lambda g, v: uniform_coefficients(
                     g, 0.1, {p: v if p == 3 else 0.4 for p in range(1, 17)})),
}


@settings(max_examples=300, deadline=None)
@given(form=st.sampled_from(sorted(COEFFICIENT_FORMS)), value=COEFFICIENT_VALUES)
def test_a_file_and_a_python_call_hold_a_coefficient_to_one_rule(form, value):
    """Both accept and bind the same bits, or both refuse with one text,
    the file's naming the JSON field where the call names its argument."""
    field, argument, coefficients, call = COEFFICIENT_FORMS[form]
    space = catalog.space("klein_bottle_16")
    try:
        built = call(space, value)
    except ValueError as exc:
        refusal = str(exc)
        assert refusal.startswith(f"{argument}: ")
        with pytest.raises(ProblemFormatError) as info:
            problem_from_json_dict(klein_problem_dict(coefficients=coefficients(value)))
        assert str(info.value) == field + refusal[len(argument):]
    else:
        loaded = problem_from_json_dict(
            klein_problem_dict(coefficients=coefficients(value))).coefficients
        for name in ("rows", "cols", "data"):
            assert getattr(loaded, name).tobytes() == getattr(built, name).tobytes()


class TestRejectsMalformedFields:
    """Each malformed field is refused with its name, never with a
    TypeError or AttributeError from deeper in the loader."""

    @pytest.mark.parametrize("key, value, field", [
        ("initial", {"point": [1], "value": 1.0}, "initial.point"),
        ("boundary", [1, 2], "boundary"),
        ("boundary", {"points": 5, "values": [1.0]}, "boundary.points"),
        ("boundary", {"points": [[1]], "values": [1.0]}, "boundary.points"),
        ("coefficients", {"entries": 5}, "coefficients.entries"),
        ("coefficients", {"entries": [[[1], 1, 1.0]]}, "coefficients.entries"),
        ("coefficients", {"uniform_offdiag": 0.1, "diag_map": [1, 2]},
         "coefficients.diag_map"),
        ("coefficients", {"uniform_offdiag": 0.1, "diag_map": {"a": 1}},
         "coefficients.diag_map"),
        ("coefficients", {"uniform_offdiag": 0.1,
                          "diag_map": dict({str(p): 0.4 for p in range(1, 17)}, **{"99": 0.4})},
         "coefficients.diag_map"),
        ("initial", {"point": True, "value": 1.0}, "initial.point"),
        ("initial", {"point": 1.0, "value": 1.0}, "initial.point"),
        ("boundary", {"points": [True], "values": [1.0]}, "boundary.points"),
        ("boundary", {"points": [1.0], "values": [1.0]}, "boundary.points"),
        ("coefficients", {"entries": [[1, True, 0.5]]}, "coefficients.entries"),
        ("coefficients", {"entries": [[1.0, 1, 0.5]]}, "coefficients.entries"),
        ("coefficients", {"entries": [[1, 1, True]]}, "coefficients.entries"),
    ])
    def test_field_named(self, key, value, field):
        with pytest.raises(ProblemFormatError, match=f"^{re.escape(field)}: "):
            problem_from_json_dict(klein_problem_dict(**{key: value}))

    @pytest.mark.parametrize("key", ["01", "1_0", " 1", "+1"])
    def test_diag_map_key_names_a_point_only_as_its_label(self, key):
        # int() reads each key as point 1 or 10, which the map also names.
        diag_map = dict({str(p): 0.4 for p in range(1, 17)}, **{key: 0.5})
        message = f"^coefficients\\.diag_map: bad point label {re.escape(repr(key))}$"
        with pytest.raises(ProblemFormatError, match=message):
            problem_from_json_dict(klein_problem_dict(
                coefficients={"uniform_offdiag": 0.1, "diag_map": diag_map}))

    @pytest.mark.parametrize("initial", [["a"] * 16, [True] * 16, [None] * 16,
                                         [[1.0]] + [0.0] * 15])
    def test_initial_list_entry_not_a_number(self, initial):
        message = f"^initial: expected a number, got {re.escape(repr(initial[0]))}$"
        with pytest.raises(ProblemFormatError, match=message):
            problem_from_json_dict(klein_problem_dict(initial=initial))


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
