"""Soak experiment: gates, determinism, and the grid wiring."""

import dataclasses

import functools

from repro.experiments import grid
from repro.experiments.soak import GRID, SoakConfig, check, run_one

run = functools.partial(grid.run, GRID)

#: Tiny but real: long enough that compaction triggers several times and
#: the lagger misses a few hundred committed entries.
TINY = SoakConfig(
    duration_ms=8_000.0,
    compaction_threshold=60,
    compaction_margin=8,
    churn_every_ms=5_000.0,
    lag_start_ms=2_000.0,
    catchup_timeout_ms=20_000.0,
)


def test_soak_grid_gates_hold():
    result = run(TINY, systems=("raft",))
    assert len(result) == 3  # D, 2D, and the full-replay control
    problems = check(result, min_replay_ratio=2.0)
    assert problems == [], problems

    compact_short = grid.find(result, system="raft", compaction=True, duration_ms=8_000.0)
    assert compact_short.compactions >= 1
    assert compact_short.snapshot_installs >= 1
    assert compact_short.caught_up
    assert compact_short.peak_retained <= compact_short.memory_bound
    assert compact_short.violations == ()

    control = grid.find(result, system="raft", compaction=False, duration_ms=8_000.0)
    assert control.compactions == 0
    assert control.snapshot_installs == 0
    # Full replay pays the whole missed history; the snapshot path does not.
    assert control.replayed_entries > 4 * max(1, compact_short.replayed_entries)

    compact_long = grid.find(result, system="raft", compaction=True, duration_ms=16_000.0)
    # Flat in history: double the window, same-scale catch-up replay.
    assert (
        compact_long.replayed_entries
        <= 2 * compact_short.replayed_entries + 100
    )
    # Memory stays bounded no matter the run length.
    assert compact_long.peak_retained <= compact_long.memory_bound


def test_soak_run_one_is_deterministic():
    cfg = dataclasses.replace(TINY, system="dynatune", seed=43)
    assert run_one(cfg) == run_one(cfg)


def test_soak_jobs_do_not_change_results():
    base = dataclasses.replace(TINY, duration_ms=6_000.0)
    seq = run(base, systems=("raft",), jobs=1)
    par = run(base, systems=("raft",), jobs=3)
    assert seq == par


def test_check_flags_violated_gates():
    result = run(TINY, systems=("raft",))
    ok_run = grid.find(result, system="raft", compaction=True, duration_ms=8_000.0)

    bloated = dataclasses.replace(ok_run, peak_retained=ok_run.memory_bound + 1)
    problems = check(
        tuple(bloated if r is ok_run else r for r in result),
        min_replay_ratio=2.0,
    )
    assert any("exceeds the bound" in p for p in problems)

    no_compact = dataclasses.replace(ok_run, compactions=0)
    problems = check(
        tuple(no_compact if r is ok_run else r for r in result),
        min_replay_ratio=2.0,
    )
    assert any("never triggered" in p for p in problems)

    no_snap = dataclasses.replace(ok_run, snapshot_installs=0)
    problems = check(
        tuple(no_snap if r is ok_run else r for r in result),
        min_replay_ratio=2.0,
    )
    assert any("without a snapshot" in p for p in problems)

    stuck = dataclasses.replace(ok_run, caught_up=False)
    problems = check(
        tuple(stuck if r is ok_run else r for r in result),
        min_replay_ratio=2.0,
    )
    assert any("failed to catch up" in p for p in problems)


def test_check_reports_missing_compaction_runs_instead_of_crashing():
    result = run(TINY, systems=("raft",))
    control_only = tuple(r for r in result if not r.compaction)
    problems = check(control_only, min_replay_ratio=2.0)
    assert any("no compaction-enabled runs" in p for p in problems)
