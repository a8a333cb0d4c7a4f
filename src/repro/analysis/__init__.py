"""Numeric post-processing: CDFs, summary stats, availability, ASCII charts."""

from repro.analysis.asciiplot import cdf_chart, line_chart
from repro.analysis.availability import AvailabilityStats, availability_stats
from repro.analysis.cdf import empirical_cdf
from repro.analysis.stats import SummaryStats, bootstrap_mean_ci, summarize

__all__ = [
    "AvailabilityStats",
    "SummaryStats",
    "availability_stats",
    "bootstrap_mean_ci",
    "cdf_chart",
    "empirical_cdf",
    "line_chart",
    "summarize",
]
