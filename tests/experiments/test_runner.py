"""Parallel experiment runner: determinism, seed derivation, job wiring."""

import dataclasses

import numpy as np
import pytest

from repro.experiments import fig4_election as fig4
from repro.experiments import grid
from repro.experiments.common import get_jobs
from repro.experiments.runner import derive_trial_seed, run_tasks


# --------------------------------------------------------------------- #
# seed derivation
# --------------------------------------------------------------------- #


def test_derive_trial_seed_deterministic():
    assert derive_trial_seed(42, 3) == derive_trial_seed(42, 3)


def test_derive_trial_seed_distinct_across_trials_and_seeds():
    seeds = {derive_trial_seed(s, t) for s in range(20) for t in range(50)}
    assert len(seeds) == 20 * 50


def test_derive_trial_seed_positive_63_bit():
    for t in range(100):
        v = derive_trial_seed(1, t)
        assert 0 <= v < 2**63


def test_derive_trial_seed_not_sequential():
    # Adjacent trials must not produce adjacent seeds (stream decorrelation).
    a = derive_trial_seed(42, 0)
    b = derive_trial_seed(42, 1)
    assert abs(a - b) > 1_000_000


# --------------------------------------------------------------------- #
# task fan-out
# --------------------------------------------------------------------- #


def _square(x):  # module-level: picklable
    return x * x


def test_run_tasks_sequential():
    assert run_tasks(_square, [1, 2, 3], jobs=1) == [1, 4, 9]


def test_run_tasks_parallel_matches_sequential_order():
    args = list(range(20))
    assert run_tasks(_square, args, jobs=4) == run_tasks(_square, args, jobs=1)


def test_get_jobs_env(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert get_jobs() == 1
    monkeypatch.setenv("REPRO_JOBS", "4")
    assert get_jobs() == 4
    monkeypatch.setenv("REPRO_JOBS", "auto")
    assert get_jobs() >= 1
    monkeypatch.setenv("REPRO_JOBS", "0")
    assert get_jobs() >= 1
    monkeypatch.setenv("REPRO_JOBS", "-2")
    with pytest.raises(ValueError):
        get_jobs()
    monkeypatch.setenv("REPRO_JOBS", "lots")
    with pytest.raises(ValueError):
        get_jobs()


# --------------------------------------------------------------------- #
# figure experiments through the runner
# --------------------------------------------------------------------- #

_SMALL = fig4.Fig4Config(
    n_failures=3, warmup_ms=8_000.0, sleep_ms=6_000.0, settle_ms=6_000.0
)


def test_fig4_parallel_systems_bit_identical():
    seq = grid.run(fig4.GRID, _SMALL, jobs=1)
    par = grid.run(fig4.GRID, _SMALL, jobs=2)
    for a, b in zip(seq, par, strict=True):
        assert np.array_equal(a.detection_ms, b.detection_ms)
        assert np.array_equal(a.ots_ms, b.ots_ms)


def test_fig4_cell_without_a_resolved_failure_raises(monkeypatch):
    monkeypatch.setattr(fig4, "extract_failure_episodes", lambda *a, **k: [])
    with pytest.raises(RuntimeError, match="no resolved failure episodes"):
        fig4.run_one(fig4.Fig4Config(system="dynatune", n_failures=1))


_FIG5_SMALL = None  # built lazily: importing fig5 pulls numpy-heavy modules


def _fig5_small():
    from repro.experiments import fig5_throughput as fig5

    return fig5, fig5.Fig5Config(repeats=3, dwell_s=2.0, max_rps=4_000.0)


def test_fig5_parallel_repeats_bit_identical():
    fig5, cfg = _fig5_small()
    seq = grid.run(fig5.GRID, cfg, jobs=1)
    par = grid.run(fig5.GRID, cfg, jobs=3)
    for a, b in zip(seq, par, strict=True):
        assert np.array_equal(a.throughput_rps, b.throughput_rps)
        assert np.array_equal(a.mean_latency_ms, b.mean_latency_ms)
        assert a.peak_rps == b.peak_rps
        assert a.runs == b.runs


def test_fig5_fanout_matches_sequential_reference():
    """The grid routing must reproduce the former sequential loop:
    per-repeat streams are derived by name, so a hand-rolled sequential
    staircase over the same streams is the bit-exact reference."""
    from repro.cluster.workload import run_rps_staircase
    from repro.sim.rng import RngRegistry

    fig5, cfg = _fig5_small()
    result = grid.run(fig5.GRID, cfg, jobs=2)
    rngs = RngRegistry(fig5.SEED)
    for system, workload in (
        ("raft", fig5.RAFT_WORKLOAD),
        ("dynatune", fig5.DYNATUNE_WORKLOAD),
    ):
        for rep in range(cfg.repeats):
            reference = tuple(
                run_rps_staircase(
                    workload,
                    levels=cfg.levels(),
                    dwell_s=cfg.dwell_s,
                    rng=rngs.stream(f"fig5/{system}/{rep}"),
                )
            )
            assert grid.find(result, system=system).runs[rep] == reference


def test_fig5_run_system_respects_jobs():
    # One system's cell, run in-process, equals its record from a fanned-out
    # grid run.
    fig5, cfg = _fig5_small()
    a = fig5.run_one(dataclasses.replace(cfg, system="raft"))
    b = grid.find(grid.run(fig5.GRID, cfg, jobs=2), system="raft")
    assert a.runs == b.runs
    assert np.array_equal(a.throughput_rps, b.throughput_rps)
