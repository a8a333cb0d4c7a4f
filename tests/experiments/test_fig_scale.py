"""Scaling sweep: shape, physics, and the determinism contract."""

import dataclasses

import pytest

from repro.experiments.fig_scale import ScaleSweepConfig, run
from repro.experiments.scenario_matrix import ScenarioMatrixConfig


def tiny_config() -> ScaleSweepConfig:
    return ScaleSweepConfig(
        systems=("raft", "dynatune"),
        sizes=(3, 9),
        n_failures=1,
        warmup_ms=4_000.0,
        sleep_ms=4_000.0,
        settle_ms=3_000.0,
        seed=7,
    )


def test_config_validation():
    with pytest.raises(ValueError):
        ScaleSweepConfig(sizes=())
    with pytest.raises(ValueError):
        ScaleSweepConfig(n_failures=0)
    with pytest.raises(ValueError):
        ScaleSweepConfig(sizes=(2,))


def test_sweep_shape_and_resolution():
    result = run(tiny_config())
    assert set(result.cells) == {
        (s, n) for s in ("raft", "dynatune") for n in (3, 9)
    }
    for cell in result.cells.values():
        # Every induced failure must have been detected and re-elected.
        assert cell.resolved == cell.n_failures
        assert cell.detection_ms > 0.0
        assert cell.ots_ms >= cell.detection_ms
        assert cell.simulated_ms > 0.0
        assert cell.commit_advances >= 1  # the no-op entry commits


def test_dynatune_detects_faster_at_every_size():
    result = run(tiny_config())
    for n in (3, 9):
        assert (
            result.cell("dynatune", n).detection_ms
            < result.cell("raft", n).detection_ms / 3.0
        )


def test_heartbeat_load_grows_with_cluster_size():
    result = run(tiny_config())
    for system in ("raft", "dynatune"):
        small = result.cell(system, 3).heartbeats_per_sim_s
        large = result.cell(system, 9).heartbeats_per_sim_s
        assert large > 2.0 * small  # leader fan-out is linear in N


def test_simulated_quantities_identical_across_job_counts():
    cfg = tiny_config()
    a = run(cfg, jobs=1)
    b = run(cfg, jobs=4)
    wall_free = [
        "system",
        "n_nodes",
        "n_failures",
        "detection_ms",
        "ots_ms",
        "resolved",
        "simulated_ms",
        "heartbeats_per_sim_s",
        "messages_per_sim_s",
        "commit_advances",
    ]
    for key in a.cells:
        ca, cb = a.cells[key], b.cells[key]
        for field in wall_free:
            assert getattr(ca, field) == getattr(cb, field), (key, field)


def test_quick_config_follows_scale_preset():
    cfg = ScaleSweepConfig.quick()
    assert 5 in cfg.sizes
    assert cfg.n_failures >= 1
    assert ScaleSweepConfig.paper_scale().sizes[-1] == 101


def test_large_cluster_smoke_preset_is_partition_heavy_subset():
    cfg = ScenarioMatrixConfig.large_cluster_smoke(25)
    assert cfg.n_nodes == 25
    assert set(cfg.scenarios) == {
        "symmetric_split",
        "minority_partition",
        "majority_partition",
        "leader_churn_loop",
    }
    # Still the declarative-config type the matrix runner expects.
    assert dataclasses.replace(cfg, seed=99).seed == 99
