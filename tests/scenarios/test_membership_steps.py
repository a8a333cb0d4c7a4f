"""Membership scenario steps: serialization, e2e behavior, elastic library."""

import math

import pytest

from repro.scenarios.library import (
    elastic_grow,
    elastic_replace_all,
    elastic_shrink,
)
from repro.scenarios.scenario import Scenario
from repro.scenarios.steps import (
    AddNode,
    Churn,
    Heal,
    Partition,
    RemoveNode,
    ReplaceNode,
    step_from_dict,
)
from repro.sim.process import ProcessState
from tests.conftest import make_raft_cluster


# --------------------------------------------------------------------- #
# serialization
# --------------------------------------------------------------------- #


@pytest.mark.parametrize(
    "step",
    [
        AddNode(at_ms=1_000.0, node="n9"),
        RemoveNode(at_ms=2_000.0, node="@leader", retry_ms=250.0, max_retries=8),
        ReplaceNode(at_ms=3_000.0, node="n1", replacement="n9"),
    ],
    ids=lambda s: s.kind,
)
def test_membership_steps_round_trip(step):
    assert step_from_dict(step.to_dict()) == step


def test_scenario_with_membership_steps_round_trips():
    s = Scenario(
        "elastic",
        [AddNode(at_ms=1_000.0, node="n4"), RemoveNode(at_ms=5_000.0, node="n1")],
    )
    loaded = Scenario.from_json(s.to_json())
    assert loaded.name == s.name
    assert loaded.steps == s.steps


def test_membership_step_validation():
    with pytest.raises(ValueError):
        AddNode(at_ms=0.0, node="@leader")  # joiner needs a concrete name
    with pytest.raises(ValueError):
        ReplaceNode(at_ms=0.0, node="n1", replacement="@leader")
    with pytest.raises(ValueError):
        RemoveNode(at_ms=0.0, node="n1", retry_ms=0.0)
    for retry_ms in (math.nan, math.inf):
        with pytest.raises(ValueError, match="retry_ms"):
            RemoveNode(at_ms=0.0, node="n1", retry_ms=retry_ms)
    with pytest.raises(ValueError):
        RemoveNode(at_ms=0.0, node="n1", max_retries=-1)


# --------------------------------------------------------------------- #
# end-to-end behavior
# --------------------------------------------------------------------- #


def applied_steps(c, kind):
    return [
        r
        for r in c.trace.of_kind("scenario_step")
        if r.get("step") == kind and not r.get("skipped")
    ]


def test_add_and_remove_steps_reshape_the_cluster():
    c = make_raft_cluster(3)
    Scenario(
        "reshape",
        [
            AddNode(at_ms=1_500.0, node="n4"),
            RemoveNode(at_ms=7_000.0, node="n1"),
        ],
    ).install(c)
    c.run_for(14_000)
    assert c.members() == ["n2", "n3", "n4"]
    voters = c.node(c.leader()).membership.voters
    assert voters == ("n2", "n3", "n4")
    assert not c.trace.of_kind("membership_giveup")


def test_remove_leader_selector_pins_the_victim():
    c = make_raft_cluster(3)
    leader = c.run_until_leader()
    Scenario("behead", [RemoveNode(at_ms=1_000.0, node="@leader")]).install(c)
    c.run_for(10_000)
    # The node that led at the step instant is gone even though leadership
    # moved during the retry window.
    assert leader not in c.members()
    assert len(c.members()) == 2


def test_replace_node_preserves_capacity():
    c = make_raft_cluster(3)
    Scenario(
        "swap", [ReplaceNode(at_ms=1_500.0, node="n1", replacement="n4")]
    ).install(c)
    c.run_for(14_000)
    assert c.members() == ["n2", "n3", "n4"]
    assert c.node("n1").state is ProcessState.STOPPED


def test_replace_survives_an_add_lost_with_its_leader():
    # The isolated leader appends the replacement's add_learner alone; the
    # majority elects a leader without it.  The removal must wait for the
    # replacement to vote there, re-proposing the add, or the swap ends on
    # two voters and the replacement never joins.
    c = make_raft_cluster(3)
    leader = c.run_until_leader()
    t = c.loop.now
    others = tuple(n for n in c.names if n != leader)
    victim = others[0]
    Scenario(
        "lost-add",
        [
            Partition(at_ms=t + 100.0, groups=((leader,), others)),
            ReplaceNode(at_ms=t + 200.0, node=victim, replacement="n4"),
            Heal(at_ms=t + 3_000.0),
        ],
    ).install(c)
    c.run_for(20_000)
    voters = c.node(c.leader()).membership.voters
    assert len(voters) == 3
    assert "n4" in voters and victim not in voters


def test_membership_steps_are_no_ops_when_disabled():
    c = make_raft_cluster(3)
    Scenario(
        "inert",
        [AddNode(at_ms=500.0, node="n4"), RemoveNode(at_ms=900.0, node="n1")],
    ).install(c, membership_enabled=False)
    c.run_for(3_000)
    assert c.members() == ["n1", "n2", "n3"]
    steps = c.trace.of_kind("scenario_step")
    assert len(steps) == 2 and all(r.get("skipped") for r in steps)


def test_churn_of_a_removed_node_is_a_traced_no_op():
    c = make_raft_cluster(3)
    Scenario(
        "churn-the-dead",
        [
            RemoveNode(at_ms=1_000.0, node="n3"),
            Churn(at_ms=8_000.0, nodes=("n3",), down_ms=500.0),
        ],
    ).install(c)
    c.run_for(12_000)
    assert c.node("n3").state is ProcessState.STOPPED
    churns = [
        r for r in c.trace.of_kind("scenario_step") if r.get("step") == "churn"
    ]
    assert len(churns) == 1
    assert churns[0].get("skipped")
    assert "removed" in churns[0].get("reason", "")


# --------------------------------------------------------------------- #
# elastic library builders
# --------------------------------------------------------------------- #


def test_elastic_grow_derives_fresh_names():
    s = elastic_grow(["n1", "n2", "n3"], joiners=2)
    adds = [st for st in s.steps if isinstance(st, AddNode)]
    assert [a.node for a in adds] == ["n4", "n5"]


def test_elastic_shrink_defaults_to_three_survivors():
    s = elastic_shrink(["n1", "n2", "n3", "n4", "n5"])
    removals = [st.node for st in s.steps if isinstance(st, RemoveNode)]
    assert len(removals) == 2
    assert "n1" not in removals and "n2" not in removals and "n3" not in removals


def test_elastic_replace_all_rotates_every_member():
    s = elastic_replace_all(["n1", "n2", "n3"])
    swaps = [st for st in s.steps if isinstance(st, ReplaceNode)]
    assert [(st.node, st.replacement) for st in swaps] == [
        ("n1", "n4"),
        ("n2", "n5"),
        ("n3", "n6"),
    ]


def test_elastic_grow_end_to_end():
    c = make_raft_cluster(3)
    elastic_grow(["n1", "n2", "n3"], start_ms=1_500, gap_ms=4_000, joiners=2).install(c)
    c.run_for(14_000)
    assert c.members() == ["n1", "n2", "n3", "n4", "n5"]
    assert len(c.node(c.leader()).membership.voters) == 5
