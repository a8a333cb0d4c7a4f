"""Numeric post-processing: CDFs, summary stats, ASCII charts."""

from repro.analysis.asciiplot import cdf_chart, line_chart
from repro.analysis.cdf import empirical_cdf
from repro.analysis.stats import SummaryStats, bootstrap_mean_ci, summarize

__all__ = [
    "SummaryStats",
    "bootstrap_mean_ci",
    "cdf_chart",
    "empirical_cdf",
    "line_chart",
    "summarize",
]
