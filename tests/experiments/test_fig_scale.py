"""Scaling sweep: shape, physics, and the determinism contract."""

import dataclasses

import pytest

from repro.experiments import fig_scale, grid, scenario_matrix
from repro.experiments.fig_scale import ScaleSweepConfig
from repro.experiments.runner import derive_trial_seed

_WALL_FREE = [
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


def tiny_config() -> ScaleSweepConfig:
    return ScaleSweepConfig(
        sizes=(3, 9),
        n_failures=1,
        warmup_ms=4_000.0,
        sleep_ms=4_000.0,
        settle_ms=3_000.0,
        seed=7,
    )


@pytest.fixture(scope="module")
def sweep():
    return grid.run(fig_scale.GRID, tiny_config(), jobs=1)


def test_config_validation():
    with pytest.raises(ValueError):
        ScaleSweepConfig(sizes=())
    with pytest.raises(ValueError):
        ScaleSweepConfig(n_failures=0)
    with pytest.raises(ValueError):
        ScaleSweepConfig(sizes=(2,))
    with pytest.raises(ValueError):
        grid.run(fig_scale.GRID, tiny_config(), systems=("fix-k",))


def test_sweep_shape_and_resolution(sweep):
    assert {(c.system, c.n_nodes) for c in sweep} == {
        (s, n) for s in ("raft", "dynatune") for n in (3, 9)
    }
    for cell in sweep:
        # Every induced failure must have been detected and re-elected.
        assert cell.resolved == cell.n_failures
        assert cell.detection_ms > 0.0
        assert cell.ots_ms >= cell.detection_ms
        assert cell.simulated_ms > 0.0
        assert cell.commit_advances >= 1  # the no-op entry commits
    assert fig_scale.check(sweep) == []


def test_dynatune_detects_faster_at_every_size(sweep):
    for n in (3, 9):
        assert (
            grid.find(sweep, system="dynatune", n_nodes=n).detection_ms
            < grid.find(sweep, system="raft", n_nodes=n).detection_ms / 3.0
        )


def test_heartbeat_load_grows_with_cluster_size(sweep):
    for system in ("raft", "dynatune"):
        small = grid.find(sweep, system=system, n_nodes=3).heartbeats_per_sim_s
        large = grid.find(sweep, system=system, n_nodes=9).heartbeats_per_sim_s
        assert large > 2.0 * small  # leader fan-out is linear in N


def test_simulated_quantities_identical_across_job_counts(sweep):
    b = grid.run(fig_scale.GRID, tiny_config(), jobs=4)
    for ca, cb in zip(sweep, b, strict=True):
        for field in _WALL_FREE:
            assert getattr(ca, field) == getattr(cb, field), (ca.system, ca.n_nodes, field)


def test_a_cell_is_seeded_by_its_index_in_the_sweep(sweep):
    # Cells run in the order (N, system) and each draws its seed from the
    # sweep seed and its index; one cell re-run alone reproduces its record.
    cell = fig_scale.run_one(
        dataclasses.replace(
            tiny_config(), system="dynatune", n_nodes=9, seed=derive_trial_seed(7, 3)
        )
    )
    alone, swept = dataclasses.asdict(cell), dataclasses.asdict(sweep[3])
    assert {f: alone[f] for f in _WALL_FREE} == {f: swept[f] for f in _WALL_FREE}


def test_a_system_filtered_sweep_reproduces_its_cells(sweep):
    # The seed index runs over the grid's full system tuple, so --system
    # dynatune reruns exactly the dynatune cells of the whole sweep.
    alone = grid.run(fig_scale.GRID, tiny_config(), systems=("dynatune",))
    swept = [c for c in sweep if c.system == "dynatune"]
    assert [[getattr(c, f) for f in _WALL_FREE] for c in alone] == [
        [getattr(c, f) for f in _WALL_FREE] for c in swept
    ]


def test_matrix_smoke_is_the_partition_heavy_subset_at_25_nodes():
    cfg = scenario_matrix.GRID.smoke
    assert cfg.n_nodes == 25
    assert set(cfg.scenarios) == {
        "symmetric_split",
        "minority_partition",
        "majority_partition",
        "leader_churn_loop",
    }
    # Still the declarative-config type the matrix runner expects.
    assert dataclasses.replace(cfg, seed=99).seed == 99
