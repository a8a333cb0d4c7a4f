"""Summary statistics and bootstrap CIs."""

import numpy as np
import pytest

from repro.analysis.stats import bootstrap_mean_ci, summarize


def test_summarize_known_values():
    s = summarize([1.0, 2.0, 3.0, 4.0, 5.0])
    assert s.n == 5
    assert s.mean == 3.0
    assert s.p50 == 3.0
    assert s.minimum == 1.0
    assert s.maximum == 5.0
    assert s.std == pytest.approx(np.std([1, 2, 3, 4, 5], ddof=1))


def test_summarize_single_value():
    s = summarize([7.0])
    assert s.std == 0.0
    assert s.p99 == 7.0


def test_summarize_empty_rejected():
    with pytest.raises(ValueError):
        summarize([])


def test_summary_str_roundtrip():
    s = summarize([1.0, 2.0])
    assert "n=2" in str(s)


def test_bootstrap_ci_contains_mean_for_tight_sample():
    data = np.full(100, 5.0)
    lo, hi = bootstrap_mean_ci(data)
    assert lo == hi == 5.0


def test_bootstrap_ci_brackets_true_mean():
    rng = np.random.default_rng(0)
    data = rng.normal(100.0, 10.0, size=500)
    lo, hi = bootstrap_mean_ci(data)
    assert lo < data.mean() < hi
    assert hi - lo < 5.0


def test_bootstrap_ci_deterministic_given_seed():
    data = [1.0, 2.0, 3.0, 10.0]
    assert bootstrap_mean_ci(data) == bootstrap_mean_ci(data)


def test_bootstrap_validation():
    with pytest.raises(ValueError):
        bootstrap_mean_ci([])
