"""Campaign acceptance: REPRO_JOBS-independence, catch + shrink end to end."""

import dataclasses

import pytest

from repro.experiments.fuzz_campaign import (
    FuzzCampaignConfig,
    run,
    shrink_failure,
)
from repro.experiments.grid import digest
from repro.fuzz import FEATURE_SETS
from repro.fuzz.generator import GenConfig
from repro.fuzz.oracle import FuzzTrialConfig
from repro.fuzz.shrinker import load_reproducer
from repro.fuzz.oracle import run_trial


def test_small_campaign_is_clean_and_deterministic():
    cfg = FuzzCampaignConfig(n_trials=6, seed=11)
    a, b = run(cfg), run(cfg)
    assert digest(a.trials) == digest(b.trials)
    assert a.all_ok
    assert {t.system for t in a.trials} == {"raft", "dynatune"}
    assert sum(t.n_completed for t in a.trials) > 100


def test_200_trial_campaign_clean_and_jobs_independent(monkeypatch):
    """The acceptance gate: >= 200 scenarios across {raft, dynatune},
    byte-identical for REPRO_JOBS=1 and REPRO_JOBS=4, all clean."""
    cfg = FuzzCampaignConfig(n_trials=200, seed=11)
    monkeypatch.setenv("REPRO_JOBS", "1")
    serial = run(cfg)
    monkeypatch.setenv("REPRO_JOBS", "4")
    parallel = run(cfg)
    assert digest(serial.trials) == digest(parallel.trials)
    assert serial.all_ok, [t.violations for t in serial.failures]
    assert len(serial.trials) == 200
    assert {t.system for t in serial.trials} == {"raft", "dynatune"}


def test_injected_bug_is_caught_and_shrinks_small(tmp_path):
    """Second acceptance gate: a planted commit-safety bug is detected and
    the shrunk reproducer has at most 5 steps."""
    cfg = FuzzCampaignConfig(
        n_trials=4,
        seed=11,
        trial=FuzzTrialConfig(
            min_run_ms=9_000.0,
            settle_ms=4_000.0,
            inject="commit_rewrite",
            inject_at_ms=6_000.0,
        ),
    )
    result = run(cfg)
    assert result.failures, "oracle failed to catch the injected bug"
    record = result.failures[0]
    path, final_steps = shrink_failure(result, record, out_dir=str(tmp_path))
    assert final_steps <= 5
    loaded_cfg, scenario, payload = load_reproducer(path)
    assert loaded_cfg.inject is None  # reproducers never carry the injection
    assert payload["meta"]["found_with_injected_bug"] == "commit_rewrite"
    assert len(scenario.steps) == final_steps
    # With the "bug" absent, the minimized trial is clean — exactly what
    # the regression harness will assert forever after.
    assert run_trial(loaded_cfg, scenario).violations == ()


def test_ack_before_sync_bug_is_caught_and_shrinks_small(tmp_path):
    """Durability acceptance gate: a lying persist barrier (acks leave
    before the disk write lands) is caught once the power loss collects,
    and the shrunk reproducer is small and clean without the bug."""
    # The disk trial knobs without the generator's fault windows: the
    # lying barrier alone must be enough.
    _, trial = FEATURE_SETS["disk"].apply(GenConfig(), FuzzTrialConfig())
    cfg = FuzzCampaignConfig(
        n_trials=3,
        seed=11,
        trial=dataclasses.replace(trial, inject="ack_before_sync"),
    )
    result = run(cfg)
    assert result.failures, "oracle failed to catch the lying persist barrier"
    assert any(
        "committed" in v or "linearizability" in v
        for rec in result.failures
        for v in rec.violations
    )
    record = result.failures[0]
    path, final_steps = shrink_failure(result, record, out_dir=str(tmp_path))
    assert final_steps <= 5
    loaded_cfg, scenario, payload = load_reproducer(path)
    assert loaded_cfg.inject is None  # reproducers never carry the injection
    assert loaded_cfg.disk  # ...but they do carry the storage backend
    assert payload["meta"]["found_with_injected_bug"] == "ack_before_sync"
    # With the "bug" absent, the minimized trial is clean: ack-after-sync
    # really is what stood between the cluster and the violation.
    assert run_trial(loaded_cfg, scenario).violations == ()


def test_stale_lease_bug_is_caught_and_shrinks_small(tmp_path):
    """Gray-failure acceptance gate: a broken quorum-freshness judgment
    (one chatty peer keeps a fenced-off leader's check-quorum and read
    lease alive) is invisible to every safety property — replicas never
    diverge — but the gray fuzz profile's read-only observer catches the
    stale lease reads as a linearizability violation, and the shrunk
    reproducer is small and clean without the bug."""
    gen, trial = FEATURE_SETS["gray"].apply(GenConfig(), FuzzTrialConfig())
    cfg = FuzzCampaignConfig(
        n_trials=3,
        seed=11,
        gen=gen,
        trial=dataclasses.replace(trial, inject="stale_lease_under_skew"),
    )
    result = run(cfg)
    assert result.failures, "oracle failed to catch the stale-lease bug"
    assert all(
        v.startswith("linearizability:")
        for rec in result.failures
        for v in rec.violations
    ), "only the client-facing oracle should see stale lease reads"
    record = result.failures[0]
    path, final_steps = shrink_failure(result, record, out_dir=str(tmp_path))
    assert final_steps <= 5
    loaded_cfg, scenario, payload = load_reproducer(path)
    assert loaded_cfg.inject is None  # reproducers never carry the injection
    assert loaded_cfg.lease_reads  # ...but they do carry the serving knobs
    assert payload["meta"]["found_with_injected_bug"] == "stale_lease_under_skew"
    # With the "bug" absent, the minimized trial is clean: the quorum-th
    # freshest anchor (and its drift margin) really is what stood between
    # the fenced leader and the stale reads.
    assert run_trial(loaded_cfg, scenario).violations == ()


def test_campaign_digest_depends_on_seed():
    a = run(FuzzCampaignConfig(n_trials=3, seed=1))
    b = run(FuzzCampaignConfig(n_trials=3, seed=2))
    assert digest(a.trials) != digest(b.trials)


def test_campaign_config_validation():
    with pytest.raises(ValueError):
        FuzzCampaignConfig(n_trials=0)
    with pytest.raises(ValueError):
        FuzzCampaignConfig(systems=())
