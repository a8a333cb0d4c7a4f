"""Scenario matrix: determinism, safety gating, the table rows."""

import dataclasses

import pytest

from repro.experiments import grid, scenario_matrix
from repro.experiments.runner import derive_trial_seed
from repro.scenarios.library import scenario_names

SMALL = scenario_matrix.ScenarioMatrixConfig(
    scenarios=("minority_partition", "leader_churn_loop"),
    settle_ms=6_000.0,
)
SYSTEMS = ("raft", "dynatune")


@pytest.fixture(scope="module")
def small():
    return grid.run(scenario_matrix.GRID, SMALL, systems=SYSTEMS, jobs=1)


def test_small_matrix_runs_and_is_safe(small):
    assert {(r.system, r.scenario) for r in small} == {
        (s, sc) for s in SYSTEMS for sc in SMALL.scenarios
    }
    assert scenario_matrix.check(small) == []
    for cell in small:
        assert cell.first_leader_ms is not None
        assert cell.steps_applied > 0
        assert 0.0 <= cell.availability.unavailable_fraction <= 1.0


def test_results_identical_for_any_job_count(small):
    assert grid.run(scenario_matrix.GRID, SMALL, systems=SYSTEMS, jobs=2) == small


def test_a_cell_reruns_alone_under_its_scenario_filter(small):
    # A cell is seeded by its index in the full MATRIX_SYSTEMS × scenarios
    # product, so filtering by system or scenario does not reseed it.
    (alone,) = grid.run(
        scenario_matrix.GRID, SMALL, systems=("dynatune",), scenario=["leader_churn_loop"]
    )
    assert alone == grid.find(small, system="dynatune", scenario="leader_churn_loop")
    index = scenario_matrix.MATRIX_SYSTEMS.index("dynatune") * len(SMALL.scenarios) + 1
    assert scenario_matrix.run_one(
        dataclasses.replace(
            SMALL,
            system="dynatune",
            scenario="leader_churn_loop",
            seed=derive_trial_seed(SMALL.seed, index),
        )
    ) == alone


def test_scenarios_scale_down_to_a_three_node_cluster():
    (cell,) = grid.run(
        scenario_matrix.GRID,
        dataclasses.replace(SMALL, n_nodes=3, scenarios=("minority_partition",)),
        systems=("raft",),
    )
    assert cell.safe
    assert cell.steps_applied > 0


def test_leader_churn_costs_raft_more_than_partitioned_minority(small):
    """Sanity on the figures: killing leaders must create outages."""
    churn = grid.find(small, system="raft", scenario="leader_churn_loop")
    assert churn.availability.unavailable_ms > 0.0


def test_rows_and_check_report_every_cell(small):
    rows = [scenario_matrix.GRID.row(r) for r in small]
    assert len(rows) == len(SYSTEMS) * len(SMALL.scenarios)
    assert all(len(row) == len(scenario_matrix.GRID.columns) for row in rows)
    assert "raft/minority_partition" in [row[0] for row in rows]
    assert all(row[-1] == "safe" for row in rows)
    broken = dataclasses.replace(small[0], safety_violations=("two leaders in term 3",))
    assert scenario_matrix.GRID.row(broken)[-1] == "SAFETY VIOLATION"
    assert scenario_matrix.check([broken, *small[1:]]) == [
        f"[{broken.system} × {broken.scenario}] two leaders in term 3"
    ]


def test_default_config_covers_whole_library():
    cfg = scenario_matrix.GRID.full
    assert cfg.scenarios == scenario_names()
    assert len(cfg.scenarios) >= 8
    assert scenario_matrix.GRID.systems == ("raft-low", "raft", "dynatune")


def test_config_validation():
    with pytest.raises(ValueError):
        scenario_matrix.ScenarioMatrixConfig(scenarios=())
    with pytest.raises(ValueError):
        dataclasses.replace(SMALL, settle_ms=-1.0)
    with pytest.raises(ValueError):
        grid.run(scenario_matrix.GRID, SMALL, systems=("fix-k",))
