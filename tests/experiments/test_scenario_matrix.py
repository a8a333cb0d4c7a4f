"""Scenario matrix: determinism, safety gating, report rendering."""

import dataclasses

import pytest

from repro.experiments import scenario_matrix
from repro.experiments.report import render_markdown
from repro.scenarios.library import scenario_names

SMALL = scenario_matrix.ScenarioMatrixConfig(
    systems=("raft", "dynatune"),
    scenarios=("minority_partition", "leader_churn_loop"),
    settle_ms=6_000.0,
)


def test_small_matrix_runs_and_is_safe():
    result = scenario_matrix.run(SMALL)
    assert set(result.cells) == {
        (s, sc) for s in SMALL.systems for sc in SMALL.scenarios
    }
    assert result.all_safe
    for cell in result.cells.values():
        assert cell.first_leader_ms is not None
        assert cell.steps_applied > 0
        assert 0.0 <= cell.availability.unavailable_fraction <= 1.0


def test_results_identical_for_any_job_count():
    a = scenario_matrix.run(SMALL)
    b_cells = {
        (r.system, r.scenario): r
        for r in scenario_matrix.run_tasks(
            scenario_matrix._run_cell,
            [
                (s, sc, scenario_matrix.derive_trial_seed(SMALL.seed, i), SMALL)
                for i, (s, sc) in enumerate(
                    (s, sc) for s in SMALL.systems for sc in SMALL.scenarios
                )
            ],
            jobs=2,
        )
    }
    assert a.cells == b_cells


def test_scenarios_scale_down_to_a_three_node_cluster():
    cfg = dataclasses.replace(
        SMALL, n_nodes=3, systems=("raft",), scenarios=("minority_partition",)
    )
    cell = scenario_matrix.run(cfg).cell("raft", "minority_partition")
    assert cell.safe
    assert cell.steps_applied > 0


def test_leader_churn_costs_raft_more_than_partitioned_minority():
    """Sanity on the figures: killing leaders must create outages."""
    result = scenario_matrix.run(SMALL)
    churn = result.cell("raft", "leader_churn_loop")
    assert churn.availability.unavailable_ms > 0.0


def test_render_rows_shape():
    result = scenario_matrix.run(SMALL)
    rows = scenario_matrix.render_rows(result)
    assert len(rows) == len(SMALL.systems) * len(SMALL.scenarios)
    table = render_markdown(rows, "test")
    assert "minority_partition" in table
    assert all(r.verdict == "safe" for r in rows)


def test_default_config_covers_whole_library():
    cfg = scenario_matrix.ScenarioMatrixConfig()
    assert cfg.scenarios == scenario_names()
    assert len(cfg.scenarios) >= 8
    assert cfg.systems == ("raft-low", "raft", "dynatune")


def test_config_validation():
    with pytest.raises(ValueError):
        scenario_matrix.ScenarioMatrixConfig(systems=())
    with pytest.raises(ValueError):
        dataclasses.replace(SMALL, settle_ms=-1.0)
