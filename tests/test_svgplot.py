"""The chart's y window, ticks and refusals on ranges the byte oracle in
``test_output_reference`` skips: a few ulps wide, constants whose
``+ 1.0`` is lost, subnormal, non-finite and too wide for a float."""

import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digital_pde.svgplot import line_chart

from isolated import run_isolated

# An address-space cap, so that a tick list growing without end fails
# the subprocess instead of filling the host's memory.
CAP = "import resource; resource.setrlimit(resource.RLIMIT_AS, (2 ** 31, 2 ** 31)); "


@pytest.mark.parametrize("values", [
    [1.0, 1.0000000000000002], [0.9999999999999999, 1.0], [3e16, 3e16], [1e300, 1e300],
    [5e-324, 1e-323],
], ids=["two-ulps", "two-ulps-across-a-power-of-2", "constant-3e16", "constant-1e300",
        "subnormal"])
def test_narrow_ranges_return_in_subprocess(values):
    code = (CAP + "from digital_pde.svgplot import line_chart; "
            f"svg = line_chart({{'a': {values!r}}}); "
            "print(svg.endswith('</svg>\\n'), svg.count('<polyline'))")
    assert run_isolated(["-c", code], timeout=30).stdout == "True 1\n"


def _chart(svg):
    """(y ticks as (position, label), polyline points) of a chart."""
    root = ET.fromstring(svg)
    ns = "{http://www.w3.org/2000/svg}"
    marks = [float(e.get("y1")) for e in root.iter(ns + "line") if e.get("x1") == "55"]
    labels = [e.text for e in root.iter(ns + "text") if e.get("x") == "52"]
    points = [tuple(map(float, p.split(","))) for e in root.iter(ns + "polyline")
              for p in e.get("points").split()]
    return list(zip(marks, labels)), points


def test_zero_tick_is_labelled_0():
    ticks, _ = _chart(line_chart({"a": [0.0, -0.889]}))
    assert [label for _, label in ticks] == ["-0.8", "-0.6", "-0.4", "-0.2", "0"]


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.text("ab<&>", max_size=3),
                       st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=12),
                       max_size=3))
def test_ticks_and_points_fit_the_plot_box(series):
    try:
        svg = line_chart(series)
    except ValueError as exc:
        # only a window near the largest float can overflow
        assert "y range" in str(exc)
        assert max(abs(v) for s in series.values() for v in s) > 8e307
        return
    ticks, points = _chart(svg)
    assert 2 <= len(ticks) <= 12
    marks = [y for y, _ in ticks]
    assert all(a > b for a, b in zip(marks, marks[1:]))  # values strictly increase
    assert all(30 <= y <= 455 for y in marks)
    assert all(60 <= x <= 780 and 30 <= y <= 455 for x, y in points)


def test_labels_are_escaped():
    svg = line_chart({"a<b&c": [1.0, 2.0]}, x_label="t<1", y_label="f&g")
    texts = [e.text for e in ET.fromstring(svg).iter("{http://www.w3.org/2000/svg}text")]
    assert texts[-3:] == ["t<1", "f&g", "a<b&c"]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_series_is_refused_by_label(bad):
    with pytest.raises(ValueError, match="series 'bad': every value must be finite"):
        line_chart({"good": [1.0, 2.0], "bad": [0.0, bad]})


def test_window_overflowing_a_float_is_refused():
    with pytest.raises(ValueError, match=r"y range \[-1e\+308, 1e\+308\]"):
        line_chart({"a": [-1e308, 1e308]})
