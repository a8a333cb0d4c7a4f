"""``Quorum``: who counts is decided once per configuration, in one place."""

import os

import pytest

from repro.fuzz.oracle import run_trial
from repro.fuzz.shrinker import load_reproducer
from repro.raft.membership import ClusterConfig, Quorum
from tests.conftest import make_raft_cluster

FIVE = ("n1", "n2", "n3", "n4", "n5")
FIFTY_ONE = tuple(f"n{i:02d}" for i in range(51))
TRIAL_169 = os.path.join(
    os.path.dirname(__file__),
    os.pardir,
    "fuzz",
    "regressions",
    "dynatune_trial169_73bcb44c.json",
)


@pytest.mark.parametrize(
    "config, me, size, acks, peers",
    [
        (ClusterConfig(FIVE), "n1", 3, 2, FIVE[1:]),
        # A leader that has appended its own removal still leads until the
        # entry commits, but its own log no longer counts.
        (ClusterConfig(FIVE[1:]), "n1", 3, 3, FIVE[1:]),
        (ClusterConfig(("n1",), ("n2",)), "n1", 1, 0, ()),
        # A joiner's bootstrap config: no voter, nothing it can count.
        (ClusterConfig((), ("n6",)), "n6", 1, 1, ()),
        (ClusterConfig(FIFTY_ONE), "n00", 26, 25, FIFTY_ONE[1:]),
    ],
    ids=["five-voters", "self-removed-leader", "sole-voter", "learner-bootstrap", "51-voters"],
)
def test_quorum_shapes(config, me, size, acks, peers):
    q = Quorum.of(config, me)
    assert q.voters == frozenset(config.voters)
    assert q.peers == peers
    assert (q.size, q.acks) == (size, acks)
    with pytest.raises(AttributeError):
        q.acks = 0  # type: ignore[misc]


def _counting_learners(cls, config, me):
    """The seeded mutant: learners pass the voter gate while the majority
    stays the voters' — how a learner's ack once reached the commit count."""
    members = config.members
    size = config.quorum
    return cls(
        frozenset(members),
        tuple([p for p in members if p != me]),
        size,
        size - 1 if me in members else size,
    )


def _minority_side_commits() -> bool:
    """Leader + one of five voters + a caught-up learner: may it commit?"""
    c = make_raft_cluster(5)
    leader = c.run_until_leader()
    node = c.node(leader)
    c.run_for(500)
    ally = next(n for n in c.names if n != leader)
    c.spawn_node("n6")
    c.network.set_partitions([{leader, ally, "n6"}])
    committed = node.commit_index
    assert node.propose_config_change("add_learner", "n6")
    c.run_for(200)
    assert node.is_leader
    assert node.progress["n6"].match == node.log.last_index > committed
    return node.commit_index > committed


@pytest.mark.parametrize("mutant", [False, True], ids=["builder", "learners-count"])
def test_one_patch_point_decides_who_counts(monkeypatch, mutant):
    if mutant:
        monkeypatch.setattr(Quorum, "of", classmethod(_counting_learners))
    assert _minority_side_commits() == mutant
    config, scenario, _ = load_reproducer(TRIAL_169)
    assert bool(run_trial(config, scenario).violations) == mutant
