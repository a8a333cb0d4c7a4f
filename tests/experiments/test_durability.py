"""Durability experiment: config derivation, gates, real runs per family."""

import dataclasses

import pytest

from repro.experiments.durability import DurabilityConfig, check, run_one
from repro.experiments.grid import digest


def test_config_validation():
    with pytest.raises(ValueError):
        DurabilityConfig(family="thermite")
    with pytest.raises(ValueError):
        DurabilityConfig(n_nodes=2)
    with pytest.raises(ValueError):
        DurabilityConfig(window_ms=5_000.0, stagger_ms=4_000.0)  # overlap


def test_horizon_covers_the_last_window():
    cfg = DurabilityConfig(
        n_nodes=3, storm_start_ms=1_000.0, window_ms=2_000.0,
        stagger_ms=3_000.0, settle_ms=4_000.0,
    )
    assert cfg.horizon_ms == 1_000.0 + 2 * 3_000.0 + 2_000.0 + 4_000.0
    assert cfg.names == ("n1", "n2", "n3")
    assert cfg.corrupt_node == "n1"


def quick(family):
    return DurabilityConfig(
        family=family,
        n_nodes=3,
        storm_start_ms=3_000.0,
        window_ms=2_500.0,
        stagger_ms=3_000.0,
        settle_ms=6_000.0,
    )


@pytest.mark.parametrize("family", ["ideal", "lossy_fsync", "torn_tail"])
def test_family_run_passes_every_gate(family):
    r = run_one(quick(family))
    assert check((r,)) == []
    if family == "ideal":
        assert r.recoveries == 0  # ideal storage traces no disk events
        assert r.process_crashes >= 1
    else:
        assert r.recoveries >= 1
        assert r.max_replay <= r.replay_bound
    if family == "torn_tail":
        assert r.truncations >= 1


def test_corrupt_tail_refusal_stays_down_while_quorum_serves():
    r = run_one(quick("corrupt_tail"))
    assert check((r,)) == []
    assert r.corruptions >= 1
    assert r.refused == ("n1",)
    assert r.refused_stayed_down
    assert r.availability >= 0.5  # the surviving pair kept serving


def test_check_flags_a_doctored_run():
    r = run_one(quick("torn_tail"))
    bad = dataclasses.replace(
        r,
        truncations=0,
        max_replay=r.replay_bound + 1,
        machines_consistent=False,
        violations=("log diverged",),
    )
    problems = check((bad,))
    assert any("torn tail" in p for p in problems)
    assert any("bounding the replay" in p for p in problems)
    assert any("diverged" in p for p in problems)
    assert any("safety violations" in p for p in problems)


def test_run_is_deterministic():
    cfg = dataclasses.replace(quick("lossy_fsync"), system="dynatune", seed=102)
    a, b = run_one(cfg), run_one(cfg)
    assert a == b
    assert digest((a,)) == digest((b,))
