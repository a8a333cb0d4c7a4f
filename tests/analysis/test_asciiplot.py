"""ASCII chart rendering."""

import math

import numpy as np
import pytest

from repro.analysis.asciiplot import WIDTH, cdf_chart, line_chart
from repro.analysis.cdf import empirical_cdf


def test_line_chart_contains_title_and_legend():
    out = line_chart(
        {"rtt": ([0, 1, 2], [50, 100, 150])},
        title="RTT over time",
        x_label="s",
    )
    assert "RTT over time" in out
    assert "* rtt" in out
    assert "(s)" in out


def test_line_chart_multiple_series_distinct_markers():
    out = line_chart(
        {
            "a": ([0, 1], [0, 1]),
            "b": ([0, 1], [1, 0]),
        }
    )
    assert "* a" in out
    assert "o b" in out
    assert "*" in out.splitlines()[0] or any("*" in ln for ln in out.splitlines())


def test_line_chart_y_axis_labels_extremes():
    out = line_chart({"s": ([0, 1], [10.0, 90.0])})
    assert "90 |" in out
    assert "10 |" in out


def test_line_chart_handles_nans():
    out = line_chart({"s": ([0, 1, 2], [1.0, math.nan, 3.0])})
    assert out  # renders without error


def test_line_chart_empty_rejected():
    with pytest.raises(ValueError):
        line_chart({})
    with pytest.raises(ValueError):
        line_chart({"s": ([], [])})
    with pytest.raises(ValueError):
        line_chart({"s": ([0.0], [math.nan])})


def test_line_chart_constant_series():
    out = line_chart({"s": ([0, 1, 2], [5.0, 5.0, 5.0])})
    assert "*" in out


def test_line_chart_dimensions():
    out = line_chart({"s": ([0, 1], [0, 1])}, height=8)
    lines = out.splitlines()
    # 8 grid rows + axis + x labels + legend
    assert len(lines) == 11
    assert all(len(ln) <= WIDTH + 14 for ln in lines[:8])


def test_cdf_chart_renders():
    xs1, ps1 = empirical_cdf([100.0, 200.0, 300.0])
    xs2, ps2 = empirical_cdf([50.0, 60.0, 70.0])
    out = cdf_chart({"raft": (xs1, ps1), "dynatune": (xs2, ps2)}, title="OTS CDF")
    assert "OTS CDF" in out
    assert "* raft" in out
    assert "o dynatune" in out
    assert "P(X<=x)" in out


def test_cdf_chart_numpy_input():
    xs, ps = empirical_cdf(np.array([1.0, 2.0]))
    assert cdf_chart({"s": (xs, ps)})
