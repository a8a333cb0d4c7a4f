"""Scenario library: every canonical scenario builds, runs, and stays safe."""

import pytest

from repro.cluster.builder import ClusterConfig, build_cluster
from repro.dynatune.policy import StaticPolicy
from repro.scenarios.library import (
    SCENARIO_BUILDERS,
    build_scenario,
    scenario_names,
)
from repro.scenarios.safety import SafetyChecker
from repro.scenarios.scenario import Scenario

NAMES = ["n1", "n2", "n3", "n4", "n5"]


def test_library_has_at_least_eight_scenarios():
    assert len(scenario_names()) >= 8


def test_build_all_matches_registry():
    scenarios = [build_scenario(n, NAMES) for n in scenario_names()]
    assert [s.name for s in scenarios] == list(scenario_names())


def test_unknown_scenario_rejected():
    with pytest.raises(ValueError, match="unknown scenario"):
        build_scenario("volcano", NAMES)


def test_small_clusters_rejected():
    with pytest.raises(ValueError, match=">= 3 nodes"):
        build_scenario("symmetric_split", ["n1", "n2"])


@pytest.mark.parametrize("name", scenario_names())
def test_every_scenario_is_pure_data(name):
    """Every library entry must survive the JSON round trip unchanged."""
    sc = build_scenario(name, NAMES)
    clone = Scenario.from_json(sc.to_json())
    assert clone.steps == sc.steps
    assert clone.name == sc.name


@pytest.mark.parametrize("name", scenario_names())
def test_scenario_runs_and_applies_steps(name):
    cluster = build_cluster(
        ClusterConfig(n_nodes=5, seed=11, rtt_ms=50.0),
        lambda n: StaticPolicy(election_timeout_ms=300.0, heartbeat_interval_ms=50.0),
    )
    sc = build_scenario(name, cluster.names)
    sc.install(cluster)
    cluster.start()
    cluster.run_until(sc.end_ms + 5_000.0)
    applied = [
        r for r in cluster.trace.of_kind("scenario_step") if not r.get("skipped")
    ]
    assert applied, f"scenario {name} applied nothing"


def test_leader_churn_emits_failure_records():
    cluster = build_cluster(
        ClusterConfig(n_nodes=5, seed=11, rtt_ms=50.0),
        lambda n: StaticPolicy(election_timeout_ms=300.0, heartbeat_interval_ms=50.0),
    )
    sc = build_scenario("leader_churn_loop", cluster.names)
    sc.install(cluster)
    cluster.start()
    cluster.run_until(sc.end_ms + 5_000.0)
    # Each non-skipped churn kill is a proper leader-failure episode.
    kills = cluster.trace.of_kind("fault_leader_pause")
    assert kills


def test_builders_accept_overrides():
    # The grayfail grid sets a gray-failure builder's timing this way.
    sc = build_scenario("one_way_isolation", NAMES, start_ms=1_000.0, hold_ms=2_000.0)
    assert {(st.at_ms, st.duration_ms) for st in sc.steps} == {(1_000.0, 2_000.0)}
