"""Byte identity of the CSV and SVG writers against the per-value
formatters they replaced (``reference_output``).

``%.12g`` and ``%.6g`` applied to a Python float give the same string as
``format`` with the same spec, and numpy's elementwise IEEE arithmetic
gives the same coordinates as the scalar ``sx``/``sy``; these properties
check both on values from 1e-300 to 1e300, signed zeros, integral floats
and integers, with every shape the writers take.
"""

import re

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from digital_pde.graph_core import DigitalSpace
from digital_pde.problem_io import trajectory_csv
from digital_pde.solver import Trajectory
from digital_pde.svgplot import line_chart

import reference_output as ref

# m * 10^e covers every decade the writers must print; st.floats() adds
# NaN, infinities and subnormals.
WIDE = st.one_of(
    st.builds(lambda m, e: m * 10.0 ** e, st.floats(-10, 10), st.integers(-300, 300)),
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.integers(-10 ** 15, 10 ** 15).map(float),
)


@st.composite
def trajectories(draw):
    n = draw(st.integers(1, 6))
    rows = draw(st.integers(1, 5))  # T = rows - 1, so T = 0 is one row
    labels = draw(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=n, max_size=n,
                           unique=True))
    cells = st.one_of(WIDE, st.floats())
    column = st.lists(cells, min_size=rows, max_size=rows)
    values = np.array(draw(st.lists(st.lists(cells, min_size=n, max_size=n),
                                    min_size=rows, max_size=rows)))
    trajectory = Trajectory(values=values, sums=np.array(draw(column)),
                            norms=np.array(draw(column)), converged=False)
    return trajectory, DigitalSpace(labels, [])


@settings(max_examples=300, deadline=None)
@given(trajectories())
def test_trajectory_csv_matches_reference(case):
    trajectory, space = case
    assert trajectory_csv(trajectory, space) == ref.trajectory_csv(trajectory, space)


def test_trajectory_csv_one_point_zero_steps():
    trajectory = Trajectory(values=np.array([[-0.0]]), sums=np.array([1e-300]),
                            norms=np.array([1e300]), converged=True)
    space = DigitalSpace([7], [])
    assert trajectory_csv(trajectory, space) == ref.trajectory_csv(trajectory, space)
    assert trajectory_csv(trajectory, space) == "t,f_7,S,norm1\n0,-0,1e-300,1e+300\n"


def _ticks_end(series):
    """Whether the reference's ``_nice_ticks`` returns on the y range of
    ``series``.  It does not when that range is a few ulps wide, or a
    constant whose "+ 1.0" is lost to rounding, and it raises a math
    domain error when the range is so tiny that a fifth of it underflows
    (``[1e-323, 0.0]``), so the writers are compared only where it
    returns."""
    values = [float(v) for s in series.values() for v in s]
    if not values:
        return True
    lo, hi = min(values), max(values)
    if lo == hi:
        return abs(lo) < 1e12
    return hi - lo > 1e-9 * max(abs(lo), abs(hi), 1e-290)


FINITE_WIDE = WIDE.filter(np.isfinite)
SERIES = st.one_of(
    st.lists(FINITE_WIDE, max_size=12),
    st.lists(FINITE_WIDE, max_size=12).map(np.array),
    st.lists(st.integers(-10 ** 9, 10 ** 9), max_size=12),
)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.text("ab 019", max_size=6), SERIES, max_size=5))
@example({})
@example({"one": [3.0]})
@example({"a": [], "b": [1.0, 2.0]})
@example({"a": [1, 2, 3], "b": [-0.0, 1e-300, 1e300, 7.0, 8.0]})
def test_line_chart_matches_reference(series):
    assume(_ticks_end(series))
    expected = ref.line_chart(series)
    # The two deliberate changes, checked in test_svgplot: the reference
    # can label a zero tick -0, and it rounds ticks below 1e-12 to one value.
    assume(">-0</text>" not in expected)
    marks = re.findall(r'<line x1="55" y1="([^"]*)"', expected)
    assume(len(set(marks)) == len(marks))
    assert line_chart(series) == expected
    assert line_chart(series, x_label="step", y_label="u") == \
        ref.line_chart(series, x_label="step", y_label="u")
