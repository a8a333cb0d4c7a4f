"""Fuzzing membership: zero-draw back-compat, generation, oracle knob."""

import dataclasses

from repro.fuzz import FEATURE_SETS
from repro.fuzz.generator import GenConfig, ScenarioGen
from repro.fuzz.oracle import FuzzTrialConfig, run_trial
from repro.scenarios.scenario import Scenario
from repro.scenarios.steps import AddNode, RemoveNode

SEEDS = [3, 17, 2_718, 31_337]

#: A small trial with membership off (what every reproducer implies), and
#: the membership feature set applied to it at probability 1: a generator
#: whose every scenario carries a membership add, a trial where the steps
#: are live.
SMALL = FuzzTrialConfig(n_nodes=3, seed=9, settle_ms=4_000.0, min_run_ms=10_000.0)
ALWAYS, LIVE = FEATURE_SETS["membership"].apply(GenConfig(), SMALL, 1.0)


def membership_steps(scenario):
    return [
        s for s in scenario.steps if isinstance(s, (AddNode, RemoveNode))
    ]


def test_membership_off_is_byte_identical():
    # The zero-draw guarantee: p_membership=0 (the default) must not
    # consume a single RNG draw, so every pre-membership scenario
    # regenerates exactly — goldens and reproducers stay valid.
    for seed in SEEDS:
        before = ScenarioGen(GenConfig()).generate(seed)
        after = ScenarioGen(GenConfig(p_membership=0.0)).generate(seed)
        assert after.to_json() == before.to_json()


def test_membership_generation_is_deterministic():
    for seed in SEEDS:
        a = ScenarioGen(ALWAYS).generate(seed)
        b = ScenarioGen(ALWAYS).generate(seed)
        assert a.to_json() == b.to_json()
        assert membership_steps(a)


def test_generated_membership_is_well_formed():
    for seed in SEEDS:
        scenario = ScenarioGen(ALWAYS).generate(seed)
        steps = membership_steps(scenario)
        adds = [s for s in steps if isinstance(s, AddNode)]
        removes = [s for s in steps if isinstance(s, RemoveNode)]
        assert len(adds) == 1
        # The joiner gets a fresh name past the base cluster.
        assert adds[0].node == f"n{ALWAYS.n_nodes + 1}"
        # A paired removal (when drawn) lands after the add.
        for r in removes:
            assert r.at_ms > adds[0].at_ms
        # Membership scenarios must survive the reproducer round-trip.
        loaded = Scenario.from_json(scenario.to_json())
        assert loaded.steps == scenario.steps


def test_gen_config_validates_membership_knobs():
    import pytest

    with pytest.raises(ValueError):
        GenConfig(p_membership=1.5)
    with pytest.raises(ValueError):
        GenConfig(p_membership=-0.1)


def test_oracle_membership_knob_gates_the_steps():
    scenario = Scenario(
        "grow-one",
        [AddNode(at_ms=2_000.0, node="n4")],
    )
    # Off (the default): the step is a traced no-op — what every existing
    # reproducer file implies.
    inert = run_trial(SMALL, scenario)
    assert inert.ok
    assert inert.steps_skipped == 1 and inert.steps_applied == 0
    assert inert.config_commits == 0 and inert.nodes_added == 0
    # On: the joiner is added, caught up and promoted under the oracle.
    live = run_trial(LIVE, scenario)
    assert live.ok
    assert live.steps_applied == 1
    assert live.config_commits == 2  # add_learner + promote
    assert live.nodes_added == 1


def test_oracle_counts_decommissions():
    scenario = Scenario("shrink-one", [RemoveNode(at_ms=2_000.0, node="n3")])
    result = run_trial(LIVE, scenario)
    assert result.ok
    assert result.config_commits == 1
    assert result.nodes_removed == 1


def test_greedy_remove_bug_is_caught_by_the_membership_oracle():
    # Proof of life for the reconfiguration invariants: the planted
    # two-at-a-time removal must be caught, and only trials whose
    # scenario actually removes a node can trip it.
    scenario = Scenario("shrink-one", [RemoveNode(at_ms=2_000.0, node="n3")])
    cfg = dataclasses.replace(LIVE, n_nodes=5, inject="greedy_remove")
    result = run_trial(cfg, scenario)
    assert not result.ok
    assert any("config" in v for v in result.violations)
    # Without the membership step the bug is never triggered.
    calm = run_trial(cfg, Scenario("calm", []))
    assert calm.ok
