"""Gray-failure experiment: config gates, single-run properties, oracle.

The full 16-run grid is CI's job (``--smoke``); here individual arms run
at smoke geometry and the headline claims are asserted directly: controls
and mitigated arms stay silent, the unmitigated one-way isolation trips
the liveness oracle and inflates the term, and safety holds everywhere.
"""

import dataclasses

import pytest

from repro.experiments.grayfail import ARMS, GrayfailConfig, check, run_one


def quick(arm="control", mitigated=True):
    return GrayfailConfig(
        arm=arm,
        mitigated=mitigated,
        n_nodes=3,
        hold_ms=12_000.0,
        settle_ms=6_000.0,
        leaderless_total_bound_ms=4_000.0,
    )


def test_config_validation_and_geometry():
    with pytest.raises(ValueError):
        GrayfailConfig(arm="volcano")
    with pytest.raises(ValueError):
        GrayfailConfig(n_nodes=2)
    cfg = quick()
    assert cfg.horizon_ms == 5_000.0 + 12_000.0 + 6_000.0
    assert cfg.names == ("n1", "n2", "n3")
    assert set(ARMS) == {"control", "gray_egress", "one_way", "skew_drift"}


def test_control_mitigated_is_clean_and_available():
    r = run_one(quick(arm="control", mitigated=True))
    assert r.violations == ()
    assert r.liveness == ()
    assert r.commit_index >= 1
    assert r.availability > 0.9


def test_one_way_raw_trips_liveness_and_inflates_term():
    """The paper-shaped finding: an ingress-blocked node that can still
    campaign *out* livelocks a cluster without prevote/check_quorum, and
    the liveness oracle (not any safety property) is what notices."""
    raw = run_one(quick(arm="one_way", mitigated=False))
    mit = run_one(quick(arm="one_way", mitigated=True))
    assert raw.violations == () and mit.violations == ()  # safety blind
    assert raw.liveness, "oracle missed the unmitigated livelock"
    assert mit.liveness == (), "mitigated run should recover in bounds"
    assert raw.max_term - mit.max_term >= 5
    # The pairwise gates agree.
    assert check((raw, mit)) == []


def test_gray_egress_mitigated_recovers_within_outage_bound():
    r = run_one(quick(arm="gray_egress", mitigated=True))
    assert r.violations == ()
    assert r.liveness == ()
    assert r.max_leaderless_ms <= 5_000.0
    assert check((r,)) == []


def test_skew_drift_changes_timings_not_correctness():
    raft = quick(arm="skew_drift", mitigated=True)
    for cfg in (raft, dataclasses.replace(raft, system="dynatune", seed=212)):
        r = run_one(cfg)
        assert r.violations == ()
        assert r.liveness == ()
        assert r.commit_index >= 1
