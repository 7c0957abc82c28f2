import dataclasses
import re
import warnings

import numpy as np
import pytest

from digital_pde import catalog, experiments, solver
from digital_pde.graph_core import DigitalSpace, UnknownPointError
from digital_pde.solver import (
    CoefficientMatrix,
    DivergenceError,
    Problem,
    SpectralReport,
    SupportError,
    bind,
    bind_entries,
    elliptic_residual,
    is_diffusion,
    is_irreducible,
    is_primitive,
    limit_matrix,
    solve_bvp,
    solve_ivp,
    stability_bound_check,
    stationary_solution,
    step,
    uniform_coefficients,
)

import reference_solver as ref


@pytest.fixture(scope="module")
def klein_coeffs(klein):
    return uniform_coefficients(klein, 0.1, 0.4)


class TestBind:
    def test_klein_uniform_valid(self, klein_coeffs):
        assert is_diffusion(klein_coeffs)

    def test_rejects_non_adjacent_support(self, four_cycle):
        mat = np.zeros((4, 4))
        mat[0, 2] = 0.5  # 1 and 3 are opposite corners, not adjacent
        with pytest.raises(SupportError, match=r"\(1,3\)"):
            bind(four_cycle, mat)
        with pytest.raises(SupportError, match=r"\(1,3\)"):
            CoefficientMatrix(four_cycle, rows=[0], cols=[2], data=[0.5])

    def test_directed_support_allowed(self, four_cycle):
        mat = np.eye(4)
        mat[0, 1] = 0.3  # flow 2 -> 1 only
        c = bind(four_cycle, mat)
        assert c.toarray()[0, 1] == 0.3 and c.toarray()[1, 0] == 0.0

    def test_shape_mismatch(self, four_cycle):
        with pytest.raises(ValueError):
            bind(four_cycle, np.zeros((3, 3)))

    def test_network_table_is_column_stochastic(self):
        c = experiments.network_coefficients()
        assert is_diffusion(c)
        np.testing.assert_allclose(c.toarray().sum(axis=0), 1.0, atol=1e-12)

    def test_index_derived_from_space(self, four_cycle):
        c = bind(four_cycle, np.eye(4))
        assert c.space.index == {1: 0, 2: 1, 3: 2, 4: 3}
        assert elliptic_residual(c, np.ones(4), points=[1]) == 0.0

    @pytest.mark.parametrize("build", [
        lambda g: bind(g, np.diag([0.1 * p for p in g.points])),
        lambda g: bind_entries(g, [(p, p, 0.1 * p) for p in g.points]),
        lambda g: uniform_coefficients(g, 0.0, {p: 0.1 * p for p in g.points}),
    ], ids=["bind", "bind_entries", "uniform_coefficients"])
    def test_rows_follow_the_space_index(self, build):
        space = DigitalSpace([4, 2, 3, 1], [(4, 2), (2, 3), (3, 1), (1, 4)])
        c = build(space)
        assert c.space.index is space.index and not hasattr(c, "index")
        dense = c.toarray()
        for p, i in space.index.items():
            assert dense[i, i] == pytest.approx(0.1 * p)
            assert elliptic_residual(c, np.ones(4), points=[p]) == pytest.approx(1 - 0.1 * p)
        with pytest.raises(TypeError):
            c.space.index[1] = 5

    @pytest.mark.parametrize("rows, cols, data", [
        ([1, 0], [0, 0], [1.0, 1.0]),  # not row-major
        ([0, 0], [0, 0], [1.0, 1.0]),  # one pair twice
        ([0], [5], [1.0]),  # column out of range
        ([0], [0], [0.0]),  # a stored zero
        ([[0]], [[0]], [[1.0]]),  # not 1-D
    ], ids=["order", "repeat", "range", "zero", "shape"])
    def test_malformed_pairs_refused(self, four_cycle, rows, cols, data):
        with pytest.raises(ValueError):
            CoefficientMatrix(four_cycle, rows, cols, data)

    def test_entries_name_unknown_point(self, four_cycle):
        with pytest.raises(UnknownPointError, match="^entries: point 9 is not in the space$"):
            bind_entries(four_cycle, [(1, 1, 0.5), (1, 9, 0.5)])

    @pytest.mark.parametrize("entry, bad", [((True, 3, 0.5), True), ((1.0, 4, 0.5), 1.0),
                                            ((1, 2.0, 0.5), 2.0)])
    def test_entries_point_not_a_label_refused(self, four_cycle, entry, bad):
        # True == 1 and 1.0 == 1 as keys of space.index: each was bound as point 1
        with pytest.raises(UnknownPointError,
                           match=f"^entries: point {re.escape(repr(bad))} is not in the space$"):
            bind_entries(four_cycle, [(1, 1, 0.5), entry])

    def test_non_finite_coefficients_refused(self, four_cycle):
        mat = np.eye(4)
        mat[0, 0] = np.nan
        with pytest.raises(ValueError, match=r"\(1,1\) is nan"):
            bind(four_cycle, mat)
        # The builders check their arguments first, and name them.
        with pytest.raises(ValueError, match=r"^offdiag: expected a finite number, got inf$"):
            uniform_coefficients(four_cycle, np.inf, 0.4)
        with pytest.raises(ValueError, match=r"^entries: expected a finite number, got -inf$"):
            bind_entries(four_cycle, [(1, 1, 1.0), (2, 1, -np.inf)])
        c = bind(four_cycle, np.eye(4), rule=lambda t: bind(four_cycle, mat))
        with pytest.raises(ValueError, match=r"\(1,1\) is nan"):
            solve_ivp(Problem(four_cycle, c, np.ones(4), steps=3, tol=0.0))


# A value of each kind the number rule refuses, with the text it is refused
# with.  Every reader refuses the first six; NaN only those of finite numbers.
NOT_NUMBERS = [(True, "expected a number, got True"),
               ("0.5", "expected a number, got '0.5'"),
               (None, "expected a number, got None"),
               (1j, "expected a number, got 1j"),
               (10**400, f"expected a finite number, got {10**400}"),
               ([0.4], "expected a number, got [0.4]"),
               (np.nan, "expected a finite number, got nan")]
NOT_NUMBER_IDS = ["true", "str", "none", "complex", "huge-int", "list", "nan"]


def _in_one_slot(v):
    """Four values per point of ``four_cycle``, with ``v`` at point 2."""
    return [1.0, v, 0.0, 0.0]


def _clamped(g, clamps, points=(1,)):
    """One step on ``four_cycle`` with ``points`` held by ``clamps``."""
    return solve_bvp(Problem(g, uniform_coefficients(g, 0.25, 0.5), np.zeros(4),
                             boundary_points=points, boundary_values=lambda t: clamps,
                             steps=1, tol=0.0))


class TestCoefficientArguments:
    """Each builder checks its coefficient values by the number rule and
    names the argument; no TypeError, OverflowError or zip() error escapes."""

    @pytest.mark.parametrize("value, text", NOT_NUMBERS, ids=NOT_NUMBER_IDS)
    @pytest.mark.parametrize("name, build", [
        ("entries", lambda g, v: bind_entries(g, [(1, 1, 0.5), (1, 2, v)])),
        ("offdiag", lambda g, v: uniform_coefficients(g, v, 0.5)),
        ("diag", lambda g, v: uniform_coefficients(g, 0.25, v)),
        ("diag", lambda g, v: uniform_coefficients(g, 0.25, {1: 0.5, 2: v, 3: 0.5, 4: 0.5})),
        ("tol", lambda g, v: Problem(g, bind(g, np.eye(4)), np.ones(4), tol=v)),
    ], ids=["entries", "offdiag", "diag", "diag-map", "tol"])
    def test_value_refused_naming_the_argument(self, four_cycle, name, build, value, text):
        with pytest.raises(ValueError) as info:
            build(four_cycle, value)
        assert str(info.value) == f"{name}: {text}"

    @pytest.mark.parametrize("value, text", NOT_NUMBERS[:6], ids=NOT_NUMBER_IDS[:6])
    @pytest.mark.parametrize("name, call", [
        ("initial", lambda g, v: Problem(g, bind(g, np.eye(4)), _in_one_slot(v))),
        ("f0", lambda g, v: stationary_solution(bind(g, np.eye(4)), _in_one_slot(v))),
        ("f", lambda g, v: elliptic_residual(bind(g, np.eye(4)), _in_one_slot(v))),
        ("source(0)", lambda g, v: solve_ivp(Problem(g, bind(g, np.eye(4)), np.ones(4),
                                                     source=lambda t: _in_one_slot(v),
                                                     steps=1, tol=0.0))),
        ("matrix", lambda g, v: bind(g, [[1.0, 0, 0, 0], [0, v, 0, 0], [0, 0, 1.0, 0],
                                         [0, 0, 0, 1.0]])),
        ("boundary_values(0)", lambda g, v: _clamped(g, {1: v})),
    ], ids=["initial", "f0", "f", "source", "matrix", "clamp"])
    def test_field_value_refused_naming_the_argument(self, four_cycle, name, call, value, text):
        """The readers of values per point take NaN as a number, and leave
        it to their own finiteness check or to the blow-up guard."""
        with pytest.raises(ValueError) as info:
            call(four_cycle, value)
        assert str(info.value) == f"{name}: {text}"

    @pytest.mark.parametrize("call, message", [
        (lambda g: Problem(g, bind(g, np.eye(4)), [10**400, "a", 0, 0]),
         f"initial: expected a finite number, got {10**400}"),
        (lambda g: bind(g, [[10**400, 0, 0, 0], [0, "a", 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
         f"matrix: expected a finite number, got {10**400}"),
        (lambda g: uniform_coefficients(g, 0.25, {1: np.nan, 2: "x", 3: 0.5, 4: 0.5}),
         "diag: expected a finite number, got nan"),
        (lambda g: _clamped(g, {2: "x"}, (1, 2)),
         "boundary_values(0): expected a number, got 'x'"),
        (lambda g: _clamped(g, {2: "x", 1: None}, (1, 2)),
         "boundary_values(0): expected a number, got 'x'"),
    ], ids=["initial", "matrix", "diag-map", "clamp-value-before-missing-point",
            "clamps-in-mapping-order"])
    def test_first_bad_value_in_the_callers_order_is_named(self, four_cycle, call, message):
        with pytest.raises(ValueError) as info:
            call(four_cycle)
        assert str(info.value) == message

    @pytest.mark.parametrize("entry", [(1, 2), [1, 2], (1, 2, 0.5, 0.5), 5, None])
    def test_malformed_entry_refused(self, four_cycle, entry):
        with pytest.raises(ValueError) as info:
            bind_entries(four_cycle, [(1, 1, 0.5), entry])
        assert str(info.value) == f"entries: bad entry {entry!r}"

    def test_entry_values_checked_before_points(self, four_cycle):
        with pytest.raises(ValueError, match="^entries: expected a number, got True$"):
            bind_entries(four_cycle, [(99, 1, 0.5), (1, 1, True)])
        with pytest.raises(ValueError, match="^diag: expected a number, got None$"):
            uniform_coefficients(four_cycle, 0.25, {99: 0.5, 2: None})

    def test_diag_map_refusal_names_its_first_bad_value_in_map_order(self, four_cycle):
        with pytest.raises(ValueError, match="^diag: expected a finite number, got inf$"):
            uniform_coefficients(four_cycle, 0.25, {4: np.inf, 1: 0.5, 2: np.nan, 3: 0.5})
        with pytest.raises(ValueError, match="^diag: expected a finite number, got nan$"):
            uniform_coefficients(four_cycle, 0.25, {4: np.nan, 1: 0.5, 2: 10**400, 3: 0.5})

    @pytest.mark.parametrize("space, diag, text", [
        ("four_cycle", {p: [0.5] for p in range(1, 5)}, "[0.5]"),
        ("four_cycle", {1: [0.5, 0.5], 2: [0.5, 0.5], 3: [0.5, 0.5], 4: [0.5, np.nan]},
         "[0.5, 0.5]"),
        ("one_point", {1: [0.4]}, "[0.4]"),
    ], ids=["one-element-lists", "pairs-nan-last", "one-point"])
    def test_diag_map_of_lists_refused(self, request, space, diag, text):
        with pytest.raises(ValueError) as info:
            uniform_coefficients(request.getfixturevalue(space), 0.25, diag)
        assert str(info.value) == f"diag: expected a number, got {text}"

    @pytest.mark.parametrize("value", [0, 2, np.float32(0.5), np.int64(3), np.float64(0.25),
                                       2**60 + 1])
    def test_numbers_of_every_type_bind_as_their_float(self, four_cycle, value):
        by_map = uniform_coefficients(four_cycle, value, {p: value for p in four_cycle.points})
        by_scalar = uniform_coefficients(four_cycle, value, value)
        by_entries = bind_entries(four_cycle, [(p, k, value) for p in four_cycle.points
                                               for k in four_cycle.ball(p).points])
        for c in (by_map, by_scalar, by_entries):
            assert c.data.tobytes() == np.full(len(c.data), float(value)).tobytes()
            assert len(c.data) == (12 if value else 0)

    @pytest.mark.parametrize("name", ["rows", "cols"])
    @pytest.mark.parametrize("position, text", [
        (1.9, "expected an integer, got 1.9"), ("1", "expected an integer, got '1'"),
        (True, "expected an integer, got True"), (np.float64(1.0), "expected an integer, got "
                                                  f"{np.float64(1.0)!r}"),
        (10**400, "a position is out of range for 4 points"),
        (4, "a position is out of range for 4 points"),
        (-1, "a position is out of range for 4 points"),
    ], ids=["float", "str", "true", "numpy-float", "huge-int", "past-the-end", "negative"])
    def test_position_not_an_integer_refused(self, four_cycle, name, position, text):
        pairs = {"rows": [0], "cols": [0], "data": [0.5], name: [position]}
        with pytest.raises(ValueError) as info:
            CoefficientMatrix(four_cycle, **pairs)
        assert str(info.value) == f"{name}: {text}"

    @pytest.mark.parametrize("name", ["rows", "cols"])
    @pytest.mark.parametrize("positions", [np.array([1.0]), np.array([True]), np.array(["1"])],
                             ids=["float", "bool", "str"])
    def test_position_array_of_another_dtype_refused(self, four_cycle, name, positions):
        pairs = {"rows": [1], "cols": [1], "data": [0.5], name: positions}
        with pytest.raises(ValueError, match=f"^{name}: expected an integer, got "):
            CoefficientMatrix(four_cycle, **pairs)

    def test_integer_positions_of_any_integer_dtype(self, four_cycle):
        for dtype in (np.int8, np.uint16, np.int64, np.uint64):
            c = CoefficientMatrix(four_cycle, np.array([0, 1], dtype=dtype),
                                  np.array([0, 1], dtype=dtype), [0.5, 0.5])
            assert c.rows.dtype == np.intp and c.rows.tolist() == [0, 1]

    @pytest.mark.parametrize("value, text", NOT_NUMBERS[:6], ids=NOT_NUMBER_IDS[:6])
    def test_data_value_refused(self, four_cycle, value, text):
        with pytest.raises(ValueError) as info:
            CoefficientMatrix(four_cycle, [0, 1], [0, 1], [0.5, value])
        assert str(info.value) == f"data: {text}"

    @pytest.mark.parametrize("matrix, bad", [
        (np.eye(4, dtype=bool), True),
        (np.eye(4).astype(str), "'1.0'"),
        (np.eye(4, dtype=complex), "(1+0j)"),
        (np.array([[None] * 4] * 4), None),
        ([[1.0, 0, 0, 0], [0, 1.0, 0, 0], [0, 0, "1", 0], [0, 0, 0, 1]], "'1'"),
    ], ids=["bool", "str", "complex", "none", "list-with-str"])
    def test_matrix_entry_not_a_number_refused(self, four_cycle, matrix, bad):
        with pytest.raises(ValueError, match=f"^matrix: expected a number, got {re.escape(str(bad))}$"):
            bind(four_cycle, matrix)

    def test_integer_matrix_binds_as_floats(self, four_cycle):
        c = bind(four_cycle, np.eye(4, dtype=np.int32))
        assert c.data.dtype == float and c.data.tolist() == [1.0] * 4


class TestUniformCoefficients:
    def test_diag_map_of_every_point(self):
        space = catalog.space("sphere2_8")
        c = uniform_coefficients(space, 0.1, {p: 1.0 - 0.1 * space.degree(p)
                                              for p in space.points})
        assert len(c.data) == 44 and is_diffusion(c)

    def test_diag_map_missing_a_point(self, four_cycle):
        with pytest.raises(ValueError, match=r"^diag: point 2 has no value$"):
            uniform_coefficients(four_cycle, 0.25, {1: 0.5, 3: 0.5, 4: 0.5})

    def test_diag_map_with_an_extra_point(self):
        space = catalog.space("sphere2_8")
        diag = {p: 0.4 for p in space.points}
        diag[99] = 0.4
        with pytest.raises(ValueError, match=r"^diag: point 99 is not in the space$"):
            uniform_coefficients(space, 0.1, diag)

    @pytest.mark.parametrize("key", [True, 1.0])
    def test_diag_map_key_not_a_label(self, four_cycle, key):
        diag = {key: 0.8, 2: 0.8, 3: 0.8, 4: 0.8}
        with pytest.raises(ValueError,
                           match=f"^diag: point {re.escape(repr(key))} is not in the space$"):
            uniform_coefficients(four_cycle, 0.1, diag)


class TestOwnership:
    def test_later_write_to_the_callers_array_is_not_seen(self, four_cycle):
        m = np.eye(4)
        c = bind(four_cycle, m)
        m[0, 0] = 0.0
        m[2, 0] = 1.0  # flow 1 -> 3, which are not adjacent
        trajectory = solve_ivp(Problem(four_cycle, c, [1.0, 0.0, 0.0, 0.0], steps=1, tol=0.0))
        np.testing.assert_array_equal(trajectory.values[1], [1.0, 0.0, 0.0, 0.0])

    @pytest.mark.parametrize("build", [
        lambda g: bind(g, np.eye(4)),
        lambda g: bind_entries(g, [(p, p, 1.0) for p in g.points]),
        lambda g: uniform_coefficients(g, 0.25, 0.5),
    ], ids=["bind", "bind_entries", "uniform_coefficients"])
    def test_bound_matrix_is_read_only(self, four_cycle, build):
        c = build(four_cycle)
        for array in (c.rows, c.cols, c.data):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1


class TestRuleSupport:
    def test_rule_leaving_the_balls_refused(self, four_cycle):
        # 0.25 everywhere would move mass from point 1 to the
        # non-adjacent point 3 in one step.  The rule first applies at
        # t = 1, and tol=0 keeps the identity step at t = 0 from stopping
        # the run.
        c = bind(four_cycle, np.eye(4),
                 rule=lambda t: bind(four_cycle, np.full((4, 4), 0.25)))
        problem = Problem(four_cycle, c, np.array([4.0, 0.0, 0.0, 0.0]), steps=2, tol=0.0)
        with pytest.raises(SupportError, match=r"\(1,3\)"):
            solve_ivp(problem)

    def test_rule_of_wrong_shape_refused(self, four_cycle):
        c = bind(four_cycle, np.eye(4), rule=lambda t: bind(four_cycle, np.eye(3)))
        with pytest.raises(ValueError, match="does not match 4 points"):
            c.at(1)

    def test_bound_matrix_is_c0_and_the_rule_starts_at_1(self, four_cycle):
        calls = []

        def rule(t):
            calls.append(t)
            return bind(four_cycle, 2 * np.eye(4))

        c = bind(four_cycle, np.eye(4), rule=rule)
        assert is_diffusion(c)
        assert c.at(0) is c
        np.testing.assert_array_equal(step(np.ones(4), c, 0), np.ones(4))
        assert stability_bound_check(c) is False  # |1| of C(0), not |2| of rule(0)
        assert calls == []
        np.testing.assert_array_equal(step(np.ones(4), c, 1), 2 * np.ones(4))
        assert calls == [1]

    def test_constant_matrix_returned_as_bound(self, four_cycle):
        c = bind(four_cycle, np.eye(4))
        assert c.at(5) is c

    @pytest.mark.parametrize("returned, message", [
        (lambda: np.eye(4), "returned ndarray, not a CoefficientMatrix"),
        (lambda: bind(DigitalSpace([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4)]), np.eye(4)),
         "returned coefficients bound to a different space"),
    ], ids=["array", "another space"])
    def test_rule_returning_anything_else_refused(self, four_cycle, returned, message):
        c = bind(four_cycle, np.eye(4), rule=lambda t: returned())
        problem = Problem(four_cycle, c, np.ones(4), steps=3, tol=0.0)
        with pytest.raises(ValueError, match=rf"^rule\(1\) {message}$"):
            solve_ivp(problem)

    def test_rule_bound_to_an_equal_space_runs(self, four_cycle):
        same = DigitalSpace(four_cycle.points, four_cycle.edges)
        c = bind(four_cycle, np.eye(4), rule=lambda t: uniform_coefficients(same, 0.25, 0.5))
        np.testing.assert_array_equal(step(np.array([4.0, 0.0, 0.0, 0.0]), c, 1),
                                      [2.0, 1.0, 0.0, 1.0])


class TestProblemSpace:
    def test_coefficients_of_another_space_refused(self):
        klein = catalog.space("klein_bottle_16")
        coeffs = uniform_coefficients(catalog.space("torus_16"), 0.1, 0.4)
        with pytest.raises(ValueError, match="coefficients"):
            Problem(klein, coeffs, np.zeros(16))

    def test_reordered_points_refused(self, four_cycle):
        reordered = DigitalSpace([2, 1, 3, 4], four_cycle.edges)
        coeffs = uniform_coefficients(reordered, 0.1, 0.8)
        with pytest.raises(ValueError, match="coefficients"):
            Problem(four_cycle, coeffs, np.zeros(4))

    def test_equal_copy_of_the_space_accepted(self, four_cycle):
        copy = DigitalSpace(four_cycle.points, four_cycle.edges)
        coeffs = uniform_coefficients(copy, 0.1, 0.8)
        assert Problem(four_cycle, coeffs, np.zeros(4)).coefficients is coeffs


class TestProblemRefusals:
    @pytest.mark.parametrize("fields, message", [
        ({"steps": -5}, "steps: expected a nonnegative integer, got -5"),
        ({"steps": 2.5}, "steps: expected a nonnegative integer, got 2.5"),
        ({"steps": True}, "^steps: expected a nonnegative integer, got True$"),
        ({"tol": float("nan")}, "tol: expected a finite number, got nan"),
        ({"tol": "1e-3"}, "^tol: expected a number, got '1e-3'$"),
        ({"tol": None}, "^tol: expected a number, got None$"),
        ({"tol": True}, "^tol: expected a number, got True$"),
        ({"initial": [1.0, np.nan, 0.0, 0.0]}, "initial: values must be finite"),
        ({"boundary_points": [1]}, "boundary_points and boundary_values"),
        ({"boundary_values": lambda t: {1: 1.0}}, "boundary_points and boundary_values"),
        ({"initial": ["a"] * 4}, "^initial: expected a number, got 'a'$"),
        ({"initial": [True] * 4}, "^initial: expected a number, got True$"),
        ({"initial": [1j] * 4}, r"^initial: expected a number, got 1j$"),
        ({"initial": np.ones(4, dtype=bool)}, "^initial: expected a number, got True$"),
        ({"initial": [1.0, 2.0, None, 0.0]}, "^initial: expected a number, got None$"),
        ({"boundary_points": [True], "boundary_values": lambda t: {1: 1.0}},
         r"^boundary_points: point True is not in the space$"),
        ({"boundary_points": [1.0], "boundary_values": lambda t: {1: 1.0}},
         r"^boundary_points: point 1.0 is not in the space$"),
        # an integer too large for a float is not finite
        ({"tol": 10**400}, f"^tol: expected a finite number, got {10**400}$"),
        ({"initial": [1.0, 10**400, 0.0, 0.0]},
         f"^initial: expected a finite number, got {10**400}$"),
        ({"steps": np.float32(2.5)},
         f"^steps: expected a nonnegative integer, got {re.escape(repr(np.float32(2.5)))}$"),
    ], ids=["negative-steps", "fractional-steps", "bool-steps", "nan-tol", "string-tol",
            "none-tol", "bool-tol", "nan-initial", "points-without-values",
            "values-without-points", "string-initial", "bool-initial", "complex-initial",
            "bool-array-initial", "none-initial", "bool-boundary-point",
            "float-boundary-point", "huge-int-tol", "huge-int-initial",
            "fractional-numpy-float-steps"])
    def test_refused_naming_the_field(self, four_cycle, fields, message):
        fields = dict({"initial": np.ones(4)}, **fields)
        with pytest.raises(ValueError, match=message):
            Problem(four_cycle, bind(four_cycle, np.eye(4)), **fields)

    def test_source_of_an_integer_too_large_for_a_float_refused(self, four_cycle):
        # A NaN source is left to the blow-up guard; this one has no float at all.
        problem = Problem(four_cycle, bind(four_cycle, np.eye(4)), np.ones(4),
                          source=lambda t: [np.nan, 10**400, 0, 0], steps=3, tol=0.0)
        with pytest.raises(ValueError,
                           match=f"^source\\(0\\): expected a finite number, got {10**400}$"):
            solve_ivp(problem)

    def test_numpy_integer_boundary_points_accepted(self, four_cycle):
        problem = Problem(four_cycle, bind(four_cycle, np.eye(4)), np.ones(4),
                          boundary_points=np.array([1, 3]),
                          boundary_values=lambda t: {1: 0.0, 3: 2.0})
        assert problem.boundary_points == (1, 3)

    def test_numpy_integer_steps_accepted(self, four_cycle):
        problem = Problem(four_cycle, bind(four_cycle, np.eye(4)), np.ones(4),
                          steps=np.int64(3), tol=0.0)
        assert len(solve_ivp(problem).values) == 4

    @pytest.mark.parametrize("steps", [np.float16(3.0), np.float32(3.0), np.float64(3.0)])
    def test_integral_numpy_float_steps_accepted(self, four_cycle, steps):
        # Only np.float64 is a float: np.float32(3.0) was refused.
        problem = Problem(four_cycle, bind(four_cycle, np.eye(4)), np.ones(4),
                          steps=steps, tol=0.0)
        assert problem.steps == 3 and type(problem.steps) is int

    def test_integral_float_steps_accepted(self, four_cycle):
        problem = Problem(four_cycle, bind(four_cycle, np.eye(4)), np.ones(4),
                          steps=3.0, tol=0.0)
        assert problem.steps == 3 and type(problem.steps) is int
        assert len(solve_ivp(problem).values) == 4

    def test_checked_values_hold(self, four_cycle):
        initial = np.ones(4)
        problem = Problem(four_cycle, bind(four_cycle, np.eye(4)), initial, steps=2, tol=0.0)
        initial[0] = np.nan
        np.testing.assert_array_equal(solve_ivp(problem).values, np.ones((3, 4)))
        with pytest.raises(ValueError, match="read-only"):
            problem.initial[0] = np.nan
        with pytest.raises(dataclasses.FrozenInstanceError):
            problem.steps = -5
        with pytest.raises(ValueError, match="^steps: expected a nonnegative integer, got -5$"):
            dataclasses.replace(problem, steps=-5)


class TestIsDiffusion:
    def test_identity(self, four_cycle):
        assert is_diffusion(bind(four_cycle, np.eye(4)))

    def test_s4_matrix(self):
        c = uniform_coefficients(catalog.space("s4_min"), 0.01, 0.92)
        assert is_diffusion(c)  # 8 * 0.01 + 0.92 == 1

    def test_deficient_column(self, four_cycle):
        mat = np.eye(4) * 0.9
        assert not is_diffusion(bind(four_cycle, mat))

    def test_negative_entry(self, four_cycle):
        mat = np.eye(4) * 1.2
        mat[0, 1] = -0.2
        assert not is_diffusion(bind(four_cycle, mat))


class TestStep:
    def test_identity_fixes_everything(self, four_cycle):
        c = bind(four_cycle, np.eye(4))
        f = np.array([1.0, 2.0, 3.0, 4.0])
        np.testing.assert_array_equal(step(f, c, 0), f)

    def test_klein_first_step_hand_value(self, klein, klein_coeffs):
        f0 = np.zeros(16)
        f0[0] = 16.0
        nxt = step(f0, klein_coeffs, 0)
        # point 1 keeps 0.4 of its mass; neighbors each receive 0.1 * 16
        assert nxt[0] == pytest.approx(0.4 * 16)
        for p in klein.neighbors(1):
            assert nxt[klein_coeffs.space.index[p]] == pytest.approx(1.6)

    def test_uniform_vector_fixed_for_symmetric_matrix(self, klein_coeffs):
        ones = np.ones(16)
        nxt = step(ones, klein_coeffs, 0)
        np.testing.assert_allclose(nxt, ones, atol=1e-14)

    def test_source_term_added(self, four_cycle):
        c = bind(four_cycle, np.eye(4))
        g = np.array([1.0, 0.0, 0.0, 0.0])
        nxt = step(np.zeros(4), c, 0, g)
        assert nxt[0] == 1.0


class TestSolveIvp:
    def test_klein_limit(self, klein, klein_coeffs):
        f0 = np.zeros(16)
        f0[0] = 16.0
        trajectory = solve_ivp(Problem(klein, klein_coeffs, f0))
        np.testing.assert_allclose(trajectory.terminal.values, 1.0, atol=1e-6)

    def test_conservation_recorded(self, klein, klein_coeffs):
        f0 = np.zeros(16)
        f0[0] = 16.0
        trajectory = solve_ivp(Problem(klein, klein_coeffs, f0, steps=40))
        assert all(abs(s - 16.0) < 1e-9 for s in trajectory.sums)

    def test_record_grows_past_its_first_size(self, klein, klein_coeffs):
        f0 = np.zeros(16)
        f0[0] = 16.0
        trajectory = solve_ivp(Problem(klein, klein_coeffs, f0, steps=600, tol=0.0))
        assert len(trajectory.values) == 601
        f = f0
        for t, row in enumerate(trajectory.values):
            np.testing.assert_array_equal(row, f)
            f = step(f, klein_coeffs, t)

    def test_step_cap_far_beyond_memory(self, klein):
        # 10**12 rows of 16 values would not fit in memory; the run stops
        # on tol long before.  The record and the norms start at 256 rows
        # and double, and are trimmed to the rows used when the run ends.
        f0 = np.zeros(16)
        f0[0] = 16.0
        slow = uniform_coefficients(klein, 0.01, 0.92)
        trajectory = solve_ivp(Problem(klein, slow, f0, steps=10**12, tol=1e-10))
        rows = len(trajectory.values)
        assert trajectory.converged and 512 < rows < 10**4
        np.testing.assert_array_equal(
            trajectory.values, solve_ivp(Problem(klein, slow, f0, steps=10**4)).values)
        for kept in (trajectory.values, trajectory.sums, trajectory.norms):
            assert held(kept) == rows

    def test_divergence_guard(self, four_cycle):
        mat = np.eye(4) * 2.0  # doubles mass each step
        problem = Problem(four_cycle, bind(four_cycle, mat),
                          np.ones(4), steps=200)
        with pytest.raises(DivergenceError):
            solve_ivp(problem)

    def test_divergence_guard_refuses_nan(self, four_cycle):
        problem = Problem(four_cycle, bind(four_cycle, np.eye(4)), np.ones(4),
                          source=lambda t: np.full(4, np.nan), steps=50)
        with pytest.raises(DivergenceError, match="at step 1$"):
            solve_ivp(problem)

    @pytest.mark.parametrize("f0, scale, message", [
        (1.5e308, 1.0, "^norm inf exceeded blow-up guard at step 0$"),
        # 10x a step from a 1-norm of 4e303: the guard was 4e309, which is inf
        (1e303, 10.0, "^norm inf exceeded blow-up guard at step 5$"),
    ], ids=["initial", "later"])
    def test_divergence_guard_refuses_an_overflowing_norm(self, four_cycle, f0, scale,
                                                          message):
        problem = Problem(four_cycle, bind(four_cycle, np.eye(4) * scale), np.full(4, f0),
                          steps=50, tol=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError, match=message):
                solve_ivp(problem)

    @pytest.mark.parametrize("g", [np.array([1.0]), 2.0, np.ones(5), np.ones((4, 1))],
                             ids=["one value", "scalar", "five values", "column"])
    def test_source_not_one_value_per_point_refused(self, four_cycle, g):
        problem = Problem(four_cycle, bind(four_cycle, np.eye(4)), np.ones(4),
                          source=lambda t: g if t == 2 else np.zeros(4), steps=5, tol=0.0)
        with pytest.raises(ValueError, match=r"^source\(2\): expected shape \(4,\), got "):
            solve_ivp(problem)

    def test_bvp_problem_rejected(self, klein, klein_coeffs):
        problem = Problem(klein, klein_coeffs, np.zeros(16),
                          boundary_points=[1], boundary_values=lambda t: {1: 2.0})
        with pytest.raises(ValueError):
            solve_ivp(problem)

    def test_time_dependent_rule(self, four_cycle):
        mats = [bind(four_cycle, np.eye(4)), bind(four_cycle, np.zeros((4, 4)))]
        c = bind(four_cycle, np.eye(4), rule=lambda t: mats[min(t, 1)])
        trajectory = solve_ivp(Problem(four_cycle, c, np.ones(4), steps=3, tol=0.0))
        assert trajectory.states[1].values.sum() == 4.0
        assert trajectory.states[2].values.sum() == 0.0


def assert_matches_reference(trajectory, problem):
    """Rows, sums, norms and ``converged`` bitwise those of the per-step
    loop of ``reference_solver.trajectory``."""
    rows, sums, norms, converged = ref.trajectory(problem)
    assert np.array_equal(trajectory.values, np.array(rows))
    assert trajectory.sums.tolist() == sums
    assert trajectory.norms.tolist() == norms
    assert trajectory.converged == converged


@pytest.fixture(params=[solver.BLOCK_ROWS, 5], ids=["block32", "block5"])
def block(request, monkeypatch):
    """The block size of a run on few points: the module's, and a smaller
    one, so that stops fall on both sides of more boundaries."""
    monkeypatch.setattr(solver, "BLOCK_ROWS", request.param)
    return request.param


def held(array):
    """The rows of the buffer that holds ``array``: its own, or its base's."""
    return len(array if array.base is None else array.base)


@pytest.fixture
def allocations(monkeypatch):
    """The sizes, in rows, of the records that runs ask ``solver._buffers``
    for, a refused one included."""
    sizes, buffers = [], solver._buffers
    monkeypatch.setattr(solver, "_buffers", lambda size, n: sizes.append(size) or buffers(size, n))
    return sizes


class TestRecord:
    """A run with tol <= 0 allocates its steps + 1 rows once; a run that
    may stop early starts at 256 rows and doubles.  Every run returns
    buffers of exactly its rows, equal bit for bit to a step-by-step replay."""

    @staticmethod
    def point_mass(klein, coefficients, **fields):
        f0 = np.zeros(16)
        f0[0] = 16.0
        return Problem(klein, coefficients, f0, **fields)

    @staticmethod
    def assert_holds_its_rows(trajectory, rows):
        assert len(trajectory.values) == rows
        for array in (trajectory.values, trajectory.sums, trajectory.norms):
            assert held(array) == rows

    @pytest.mark.parametrize("steps", [0, 1, 4, 5, 6, 31, 32, 33, 255, 256, 600])
    def test_fixed_length_run_allocates_its_rows_once(self, klein, klein_coeffs, block, kernel,
                                                      allocations, steps):
        problem = self.point_mass(klein, klein_coeffs, steps=steps, tol=0.0)
        trajectory = solve_ivp(problem)
        assert allocations == [steps + 1]
        self.assert_holds_its_rows(trajectory, steps + 1)
        assert_matches_reference(trajectory, problem)

    def test_fixed_length_bvp_allocates_its_rows_once(self, projective, block, kernel,
                                                      allocations):
        coeffs = uniform_coefficients(
            projective, 0.1, {p: 1.0 - 0.1 * projective.degree(p) for p in projective.points})
        problem = Problem(projective, coeffs, np.arange(11.0), boundary_points=[1, 11],
                          boundary_values=lambda t: {1: 1.0, 11: 4.0 + t}, steps=300, tol=0.0)
        trajectory = solve_bvp(problem)
        assert allocations == [301]
        self.assert_holds_its_rows(trajectory, 301)
        assert_matches_reference(trajectory, problem)

    @pytest.mark.parametrize("tol, rows", [(1e-1, 60), (1e-2, 174), (1e-4, 402), (1e-8, 858)])
    def test_run_stopping_on_tol_holds_its_rows(self, klein, block, kernel, allocations,
                                                tol, rows):
        problem = self.point_mass(klein, uniform_coefficients(klein, 0.01, 0.92),
                                  steps=10**4, tol=tol)
        trajectory = solve_ivp(problem)
        assert trajectory.converged and allocations == [256]
        self.assert_holds_its_rows(trajectory, rows)
        assert_matches_reference(trajectory, problem)

    @pytest.mark.parametrize("steps", [5, 300, 600])
    def test_run_with_tol_reaching_its_cap_holds_its_rows(self, klein, block, kernel,
                                                          allocations, steps):
        problem = self.point_mass(klein, uniform_coefficients(klein, 0.01, 0.92),
                                  steps=steps, tol=1e-12)
        trajectory = solve_ivp(problem)
        assert not trajectory.converged and allocations == [min(steps, 255) + 1]
        self.assert_holds_its_rows(trajectory, steps + 1)
        assert_matches_reference(trajectory, problem)

    # numpy refuses 10**15 + 1 rows of 4 values with a MemoryError (28 PiB)
    # and 10**18 + 1 rows with a ValueError (beyond its largest size).
    @pytest.mark.parametrize("cap", [10**15, 10**18], ids=["beyond-memory", "beyond-numpy"])
    def test_cap_beyond_memory_raises_the_same_divergence(self, four_cycle, block,
                                                          allocations, cap):
        growing = bind(four_cycle, np.eye(4) * 2.0)  # doubles the mass each step

        def divergence(steps):
            with pytest.raises(DivergenceError) as raised:
                solve_ivp(Problem(four_cycle, growing, np.ones(4), steps=steps, tol=0.0))
            return str(raised.value)

        expected = divergence(100)
        assert expected == "norm 4.19e+06 exceeded blow-up guard at step 20"
        assert divergence(cap) == expected
        assert allocations == [101, cap + 1, 256]


class TestBlockedRun:
    """A run checks the blow-up guard and tol once per block of steps; its
    outcome is the per-step loop's wherever in a block the run stops."""

    @staticmethod
    def changes(problem):
        """The 1-norm of f(t+1) - f(t) for t = 0..steps-1, as the per-step
        loop computes it."""
        rows = ref.trajectory(dataclasses.replace(problem, tol=0.0))[0]
        return [float(np.abs(b - a).sum()) for a, b in zip(rows, rows[1:])]

    @staticmethod
    def stepping(four_cycle, jumps, tol=1.0, coefficients=None, **fields):
        """The identity on the 4-cycle from ones, plus a source that adds
        ``jumps[t]`` to every point at step t, 1.0 when not named: a change
        of 4 * jumps[t], below tol = 1 when the jump is 0."""
        if coefficients is None:
            coefficients = bind(four_cycle, np.eye(4))
        return Problem(four_cycle, coefficients, np.ones(4),
                       source=lambda t: np.full(4, jumps.get(t, 1.0)), steps=200, tol=tol,
                       **fields)

    @staticmethod
    def run(problem):
        return solve_bvp(problem) if problem.has_boundary else solve_ivp(problem)

    @pytest.mark.parametrize("where", ["first", "middle", "last-but-one", "last",
                                       "next-first", "second-last"])
    @pytest.mark.parametrize("cap", [0, 1, 100], ids=["at-cap", "cap+1", "cap+100"])
    def test_convergence_anywhere_in_a_block(self, klein, klein_coeffs, block, where, cap):
        stop = {"first": 1, "middle": block // 2 + 1, "last-but-one": block - 1, "last": block,
                "next-first": block + 1, "second-last": 2 * block}[where]
        f0 = np.zeros(16)
        f0[0] = 16.0
        problem = Problem(klein, klein_coeffs, f0, steps=stop + cap, tol=0.0)
        changes = self.changes(problem)
        tol = float(np.nextafter(changes[stop - 1], np.inf))
        assert min(changes[:stop - 1], default=np.inf) >= tol  # no earlier stop
        problem = dataclasses.replace(problem, tol=tol)
        trajectory = solve_ivp(problem)
        assert trajectory.converged and len(trajectory.values) == stop + 1
        assert_matches_reference(trajectory, problem)
        if stop > 1:  # one step short of convergence: the cap ends the run
            short = dataclasses.replace(problem, steps=stop - 1)
            trajectory = solve_ivp(short)
            assert not trajectory.converged and len(trajectory.values) == stop
            assert_matches_reference(trajectory, short)

    @pytest.mark.parametrize("where", ["first", "last", "next-first", "second-last"])
    @pytest.mark.parametrize("tol", [0.0, 1.0])
    def test_divergence_anywhere_in_a_block(self, four_cycle, block, where, tol):
        at = {"first": 1, "last": block, "next-first": block + 1, "second-last": 2 * block}[where]
        problem = self.stepping(four_cycle, {at - 1: 1e300}, tol=tol)
        with pytest.raises(DivergenceError,
                           match=f"^norm 4e\\+300 exceeded blow-up guard at step {at}$"):
            solve_ivp(problem)

    def test_convergence_before_a_blow_up_in_the_same_block(self, four_cycle, block):
        problem = self.stepping(four_cycle, {2: 0.0, 3: 1e300})
        trajectory = solve_ivp(problem)
        assert trajectory.converged and len(trajectory.values) == 4
        assert_matches_reference(trajectory, problem)

    def test_blow_up_before_convergence_in_the_same_block(self, four_cycle, block):
        problem = self.stepping(four_cycle, {2: 1e300, 3: 0.0})
        with pytest.raises(DivergenceError, match="at step 3$"):
            solve_ivp(problem)

    @pytest.mark.parametrize("at", [2, 3, 4, 5, 6])
    def test_guard_wins_within_one_step(self, four_cycle, block, at):
        # f(at - 1) is 1e6 at every point, a 1-norm of 4e6, the guard itself;
        # then 0.1 more: the guard trips, and the change of 0.4 is below tol.
        problem = self.stepping(four_cycle, {at - 2: 1e6 - (at - 1), at - 1: 0.1})
        with pytest.raises(DivergenceError,
                           match=f"^norm 4e\\+06 exceeded blow-up guard at step {at}$"):
            solve_ivp(problem)

    @staticmethod
    def raising(callback, four_cycle, jumps, after):
        """``stepping``, with ``callback`` raising when it is called for a
        row past ``after``: source(t) and rule(t) for row t + 1,
        boundary_values(t) for row t."""
        def check(row):
            if row > after:
                raise RuntimeError(f"{callback} for row {row}")

        eye = bind(four_cycle, np.eye(4))
        fields = {
            "source": {},
            "boundary_values": {"boundary_points": [1],
                                "boundary_values": lambda t: check(t) or {1: 1.0}},
            "rule": {"coefficients": bind(four_cycle, np.eye(4),
                                          rule=lambda t: check(t + 1) or eye)},
        }[callback]
        problem = TestBlockedRun.stepping(four_cycle, jumps, **fields)
        if callback == "source":
            source = problem.source
            problem = dataclasses.replace(problem, source=lambda t: check(t + 1) or source(t))
        return problem

    @pytest.mark.parametrize("callback", ["source", "boundary_values", "rule"])
    @pytest.mark.parametrize("where", ["middle", "last-but-one"])
    def test_raise_past_a_convergence_is_dropped(self, four_cycle, callback, where, block):
        stop = 3 if where == "middle" else block - 1
        problem = self.raising(callback, four_cycle, {stop - 1: 0.0}, after=stop)
        trajectory = self.run(problem)
        assert trajectory.converged and len(trajectory.values) == stop + 1
        assert_matches_reference(trajectory, problem)

    @pytest.mark.parametrize("callback", ["source", "boundary_values", "rule"])
    def test_raise_past_a_blow_up_is_dropped(self, four_cycle, callback, block):
        problem = self.raising(callback, four_cycle, {2: 1e300}, after=3)
        with pytest.raises(DivergenceError, match="at step 3$"):
            self.run(problem)

    @pytest.mark.parametrize("callback", ["source", "boundary_values", "rule"])
    @pytest.mark.parametrize("after", [3, 40])
    def test_raise_before_the_run_stops_propagates(self, four_cycle, callback, after, block):
        problem = self.raising(callback, four_cycle, {}, after=after)
        with pytest.raises(RuntimeError, match=f"^{callback} for row {after + 1}$"):
            self.run(problem)

    def test_step_is_one_row_of_a_run(self, four_cycle):
        g = np.array([0.5, -1.0, 2.0, 0.25])
        c = bind(four_cycle, (np.eye(4) + np.roll(np.eye(4), 1, axis=0)) / 2)
        trajectory = solve_ivp(Problem(four_cycle, c, np.arange(4.0), source=lambda t: g,
                                       steps=40, tol=0.0))
        for t in range(40):
            row = step(trajectory.values[t], c, t, g)
            assert row.tobytes() == trajectory.values[t + 1].tobytes()
            out = np.empty(4)
            assert step(trajectory.values[t], c, t, g, out) is out
            assert out.tobytes() == row.tobytes()


class TestSolveBvp:
    def test_clamped_points_hold(self, projective):
        coeffs = uniform_coefficients(
            projective, 0.1,
            {p: 1.0 - 0.1 * projective.degree(p) for p in projective.points})
        clamps = {1: 1.0, 11: 4.0}
        problem = Problem(projective, coeffs, np.zeros(11),
                          boundary_points=[1, 11],
                          boundary_values=lambda t: clamps)
        trajectory = solve_bvp(problem)
        i1 = projective.points.index(1)
        i11 = projective.points.index(11)
        for state in trajectory.states:
            assert state.values[i1] == 1.0
            assert state.values[i11] == 4.0

    def test_all_points_clamped(self, four_cycle):
        c = uniform_coefficients(four_cycle, 0.1, 0.8)
        clamps = {p: float(p) for p in four_cycle.points}
        problem = Problem(four_cycle, c, np.zeros(4),
                          boundary_points=list(four_cycle.points),
                          boundary_values=lambda t: clamps)
        trajectory = solve_bvp(problem)
        for state in trajectory.states:
            np.testing.assert_array_equal(state.values, [1.0, 2.0, 3.0, 4.0])

    def test_ivp_problem_rejected(self, four_cycle):
        c = uniform_coefficients(four_cycle, 0.1, 0.8)
        with pytest.raises(ValueError):
            solve_bvp(Problem(four_cycle, c, np.zeros(4)))

    @pytest.mark.parametrize("clamps, named", [
        ({1: 1.0, 2: 5.0}, "point 2"),
        ({99: 1.0}, "boundary point 1"),
        ({}, "boundary point 1"),
        # a key equal to the point 1 that is not its label names no point
        ({True: 5.0}, "boundary_values(0) has no value for boundary point 1"),
        ({1.0: 5.0}, "boundary_values(0) has no value for boundary point 1"),
        ({None: 5.0}, "boundary_values(0) has no value for boundary point 1"),
        ({1: 1.0, "x": 5.0}, "boundary_values(0) names point x, not a boundary point"),
        # what is not a mapping names no point at all
        (None, "boundary_values(0): expected a mapping of boundary points to numbers, got None"),
        ("x", "boundary_values(0): expected a mapping of boundary points to numbers, got 'x'"),
        ([1.0], "boundary_values(0): expected a mapping of boundary points to numbers, got [1.0]"),
    ])
    def test_clamps_must_name_exactly_the_boundary(self, projective, clamps, named):
        coeffs = uniform_coefficients(
            projective, 0.1,
            {p: 1.0 - 0.1 * projective.degree(p) for p in projective.points})
        problem = Problem(projective, coeffs, np.zeros(11), boundary_points=[1],
                          boundary_values=lambda t: clamps)
        with pytest.raises(ValueError, match=re.escape(named)):
            solve_bvp(problem)

    @staticmethod
    def clamped_at_step_2(four_cycle, value):
        """Point 1 held at 1.0, and at ``value`` from boundary_values(2)."""
        return Problem(four_cycle, uniform_coefficients(four_cycle, 0.1, 0.8), np.zeros(4),
                       boundary_points=[1],
                       boundary_values=lambda t: {1: value if t == 2 else 1.0},
                       steps=5, tol=0.0)

    @pytest.mark.parametrize("value", [True, np.True_, "2.5", None, 1 + 2j],
                             ids=["bool", "numpy-bool", "string", "none", "complex"])
    def test_clamp_not_a_number_refused(self, four_cycle, value):
        with pytest.raises(ValueError, match=r"^boundary_values\(2\): expected a number, "
                                             f"got {re.escape(repr(value))}$"):
            solve_bvp(self.clamped_at_step_2(four_cycle, value))

    def test_numpy_integer_key_clamps_its_point(self, four_cycle):
        clamps = {1: 2.0}
        problem = self.clamped_at_step_2(four_cycle, 2.0)
        expected = solve_bvp(dataclasses.replace(problem, boundary_values=lambda t: clamps))
        got = solve_bvp(dataclasses.replace(problem,
                                            boundary_values=lambda t: {np.int64(1): 2.0}))
        np.testing.assert_array_equal(got.values, expected.values)

    @pytest.mark.parametrize("value", [2, np.int64(2), np.float32(2.0), np.float64(2.0)])
    def test_clamp_real_numbers_run(self, four_cycle, value):
        expected = solve_bvp(self.clamped_at_step_2(four_cycle, 2.0)).values
        got = solve_bvp(self.clamped_at_step_2(four_cycle, value)).values
        np.testing.assert_array_equal(got, expected)
        assert got[2, 0] == 2.0

    def test_clamp_of_an_integer_too_large_for_a_float_refused(self, four_cycle):
        with pytest.raises(ValueError, match=r"^boundary_values\(2\): expected a finite number, "
                                             f"got {10**400}$"):
            solve_bvp(self.clamped_at_step_2(four_cycle, 10**400))

    def test_clamp_nan_is_a_divergence(self, four_cycle):
        with pytest.raises(DivergenceError, match="^norm nan exceeded blow-up guard at step 2$"):
            solve_bvp(self.clamped_at_step_2(four_cycle, float("nan")))

    def test_repeated_boundary_points_rejected(self, four_cycle):
        c = uniform_coefficients(four_cycle, 0.1, 0.8)
        with pytest.raises(ValueError, match=r"^boundary_points: repeated points in \[1, 1\]$"):
            Problem(four_cycle, c, np.zeros(4), boundary_points=[1, 1],
                    boundary_values=lambda t: {1: 1.0})


class TestStabilityBound:
    def test_zero_matrix(self, four_cycle):
        assert stability_bound_check(bind(four_cycle, np.zeros((4, 4))))

    def test_empty_space_has_no_entry_to_break_the_bound(self):
        empty = DigitalSpace([], [])
        assert stability_bound_check(uniform_coefficients(empty, 0.5, 0.5)) is True
        assert stability_bound_check(bind(empty, np.zeros((0, 0)))) is True

    def test_s4_matrix_fails_sufficient_condition(self):
        c = uniform_coefficients(catalog.space("s4_min"), 0.01, 0.92)
        assert not stability_bound_check(c)  # 0.92 >= 1/10

    def test_small_entries_pass(self):
        space = catalog.space("s4_min")
        c = uniform_coefficients(space, 0.01, 0.092)
        assert stability_bound_check(c)


class TestIrreduciblePrimitive:
    def test_identity_reducible(self, four_cycle):
        c = bind(four_cycle, np.eye(4))
        assert not is_irreducible(c)

    def test_klein_matrix_primitive(self, klein_coeffs):
        assert is_irreducible(klein_coeffs)
        assert is_primitive(klein_coeffs)

    def test_directed_2_cycle_periodic(self):
        g = DigitalSpace([1, 2], [(1, 2)])
        mat = np.array([[0.0, 1.0], [1.0, 0.0]])
        c = bind(g, mat)
        assert is_irreducible(c)
        assert not is_primitive(c)


class TestLimitMatrix:
    def test_klein_limit_uniform(self, klein_coeffs):
        report = limit_matrix(klein_coeffs)
        assert report.primitive
        np.testing.assert_allclose(report.stationary_column, 1 / 16, atol=1e-9)

    def test_identity_no_unique_limit(self, four_cycle):
        report = limit_matrix(bind(four_cycle, np.eye(4)))
        assert not report.primitive
        assert report.stationary_column is None

    def test_idempotence(self, klein_coeffs):
        report = limit_matrix(klein_coeffs)
        np.testing.assert_allclose(klein_coeffs.toarray() @ report.limit,
                                   report.limit, atol=1e-9)

    def test_requires_diffusion(self, four_cycle):
        with pytest.raises(ValueError):
            limit_matrix(bind(four_cycle, np.eye(4) * 0.5))

    def test_report_stores_only_the_column(self, klein_coeffs):
        assert [f.name for f in dataclasses.fields(SpectralReport)] == [
            "irreducible", "primitive", "stationary_column"]
        report = limit_matrix(klein_coeffs)
        assert report.limit is not report.limit
        np.testing.assert_array_equal(report.limit[:, 5], report.stationary_column)

    def test_one_support_graph_per_call(self, klein_coeffs, monkeypatch):
        calls = []
        verdicts = solver._support_verdicts
        monkeypatch.setattr(solver, "_support_verdicts",
                            lambda c: calls.append(c) or verdicts(c))
        for name in ("is_irreducible", "is_primitive"):
            monkeypatch.setattr(solver, name, None)
        assert limit_matrix(klein_coeffs).primitive
        assert calls == [klein_coeffs]


class TestStationarySolution:
    def test_klein_total_16(self, klein_coeffs):
        f0 = np.zeros(16)
        f0[0] = 16.0
        f_inf = stationary_solution(klein_coeffs, f0)
        np.testing.assert_allclose(f_inf.values, 1.0, atol=1e-9)

    def test_s4_total_1(self):
        c = uniform_coefficients(catalog.space("s4_min"), 0.01, 0.92)
        f0 = np.zeros(10)
        f0[0] = 1.0
        f_inf = stationary_solution(c, f0)
        np.testing.assert_allclose(f_inf.values, 0.1, atol=1e-9)

    def test_stationary_input_returned_unchanged(self, klein_coeffs):
        f0 = np.ones(16) * 2.0
        f_inf = stationary_solution(klein_coeffs, f0)
        np.testing.assert_allclose(f_inf.values, f0, atol=1e-9)

    def test_non_primitive_rejected(self, four_cycle):
        with pytest.raises(ValueError):
            stationary_solution(bind(four_cycle, np.eye(4)), np.ones(4))

    def test_f0_of_another_shape_refused(self, klein_coeffs):
        with pytest.raises(ValueError, match=r"f0: expected shape \(16,\)"):
            stationary_solution(klein_coeffs, [1.0, 2.0])

    def test_non_finite_f0_refused(self, klein_coeffs):
        f0 = np.ones(16)
        f0[3] = np.nan
        with pytest.raises(ValueError, match="f0: values must be finite"):
            stationary_solution(klein_coeffs, f0)

    def test_bool_f0_refused(self, klein_coeffs):
        with pytest.raises(ValueError, match="^f0: expected a number, got True$"):
            stationary_solution(klein_coeffs, [True] * 16)


class TestEllipticResidual:
    def test_zero_vector(self, klein_coeffs):
        assert elliptic_residual(klein_coeffs, np.zeros(16)) == 0.0

    @pytest.mark.parametrize("size", [20, 3])
    def test_f_of_another_shape_refused(self, klein_coeffs, size):
        with pytest.raises(ValueError, match=r"f: expected shape \(16,\)"):
            elliptic_residual(klein_coeffs, np.ones(size))

    def test_unknown_point_named(self, klein_coeffs):
        with pytest.raises(UnknownPointError, match="^points: point 99 is not in the space$"):
            elliptic_residual(klein_coeffs, np.ones(16), points=[99])

    @pytest.mark.parametrize("point", [True, 1.0])
    def test_point_not_a_label_refused(self, klein_coeffs, point):
        with pytest.raises(UnknownPointError,
                           match=f"^points: point {re.escape(repr(point))} is not in the space$"):
            elliptic_residual(klein_coeffs, np.arange(16.0), points=[point])

    def test_stationary_solution_residual(self, klein_coeffs):
        f_inf = stationary_solution(klein_coeffs, np.ones(16))
        assert elliptic_residual(klein_coeffs, f_inf.values) < 1e-9

    def test_restricted_points(self, projective):
        coeffs = uniform_coefficients(
            projective, 0.1,
            {p: 1.0 - 0.1 * projective.degree(p) for p in projective.points})
        clamps = {1: 1.0, 11: 4.0}
        problem = Problem(projective, coeffs, np.zeros(11),
                          boundary_points=[1, 11],
                          boundary_values=lambda t: clamps,
                          steps=5000, tol=1e-13)
        trajectory = solve_bvp(problem)
        free = [p for p in projective.points if p not in (1, 11)]
        assert elliptic_residual(coeffs, trajectory.terminal.values,
                                 points=free) < 1e-8
