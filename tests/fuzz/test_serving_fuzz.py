"""Fuzzing the client-serving fast path: batching, pipelining, reads.

The fast paths *claim* linearizability — batched writes commit through the
same log, ReadIndex reads wait for a quorum-confirmed commit index, lease
reads ride a quorum-anchored lease.  These trials put each claim in front
of the Wing & Gong checker, including across a leader-isolating partition.
"""

import dataclasses

from repro.fuzz import FEATURE_SETS
from repro.fuzz.generator import GenConfig
from repro.fuzz.oracle import FuzzTrialConfig, run_trial
from repro.scenarios.scenario import Scenario
from repro.scenarios.steps import Heal, Partition

SEEDS = [7, 101, 31_337]

#: A small all-off trial, and the serving feature set applied to it
#: (batching, pipelining, lease reads, fast-path gets); the tests below
#: switch pieces back off to isolate each fast path, and make the mix
#: read-heavy where reads are the point.
SMALL = FuzzTrialConfig(n_nodes=3, seed=9, settle_ms=4_000.0, min_run_ms=10_000.0)
_, SERVING = FEATURE_SETS["serving"].apply(GenConfig(), SMALL)
READ_HEAVY = dataclasses.replace(SERVING.workload, p_put=0.4, p_get=0.5)


def leader_flip(name="flip-leader"):
    # Isolate whoever leads mid-run, then heal: exercises flush-on-step-
    # down, pipeline recovery and read-round failover under the oracle.
    return Scenario(
        name,
        [
            Partition(at_ms=3_000.0, groups=(("@leader",),)),
            Heal(at_ms=6_000.0),
        ],
    )


def test_fastpath_off_is_the_default_and_counters_stay_zero():
    # Back-compat: every existing reproducer file implies all-off knobs,
    # and with them the fast-path coverage counters must stay at zero.
    cfg = SMALL
    assert not cfg.batching and not cfg.pipelining and not cfg.lease_reads
    assert not cfg.workload.read_fastpath
    result = run_trial(cfg, Scenario("calm", []))
    assert result.ok
    assert result.batches_flushed == 0
    assert result.reads_readindex == 0 and result.reads_lease == 0


def test_trial_config_roundtrips_fastpath_knobs():
    cfg = dataclasses.replace(SERVING, workload=READ_HEAVY)
    loaded = FuzzTrialConfig.from_dict(cfg.to_dict())
    assert loaded == cfg
    assert loaded.workload.read_fastpath


def test_batched_pipelined_writes_stay_linearizable():
    for seed in SEEDS:
        cfg = dataclasses.replace(
            SERVING, seed=seed, lease_reads=False, workload=SMALL.workload
        )
        result = run_trial(cfg, leader_flip())
        assert result.ok, (seed, result.violations)
        assert result.batches_flushed > 0
        assert result.n_completed > 0


def test_readindex_reads_stay_linearizable_across_leader_flip():
    for seed in SEEDS:
        cfg = dataclasses.replace(
            SERVING, seed=seed, lease_reads=False, workload=READ_HEAVY
        )
        result = run_trial(cfg, leader_flip())
        assert result.ok, (seed, result.violations)
        assert result.reads_readindex > 0
        assert result.reads_lease == 0  # lease knob off: no lease serving


def test_lease_reads_stay_linearizable():
    # StaticPolicy publishes a lease bound from the first beat, so lease
    # serving engages once the term-start no-op commits.
    for seed in SEEDS:
        cfg = dataclasses.replace(SERVING, seed=seed, workload=READ_HEAVY)
        result = run_trial(cfg, leader_flip())
        assert result.ok, (seed, result.violations)
        assert result.reads_lease > 0


def test_lease_reads_under_dynatune_policy():
    # Dynatune's lease bound only exists after every path reports a tuned
    # Et; until then reads must fall back to ReadIndex, never go stale.
    cfg = dataclasses.replace(
        SERVING,
        system="dynatune",
        pipelining=False,
        min_run_ms=14_000.0,
        workload=READ_HEAVY,
    )
    result = run_trial(cfg, leader_flip())
    assert result.ok, result.violations
    assert result.reads_lease + result.reads_readindex > 0
