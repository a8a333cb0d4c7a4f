"""Gray failures: asymmetric link faults, clock skew steps, duplication.

Behavior of the per-direction network primitives and the scenario steps
driving them — including the token guards that keep overlapping windows
and mixed fault kinds (gray + pause) from double-arming restores.
"""

import dataclasses

import pytest

from repro.cluster.faults import pause_for
from repro.raft.state_machine import kv_put
from repro.raft.types import Role
from repro.scenarios.scenario import Scenario
from repro.scenarios.steps import (
    BlockLink,
    GrayLink,
    Pause,
    SetClock,
    SetDuplicate,
)
from repro.sim.process import ProcessState
from repro.storage import DiskFaultConfig
from tests.conftest import make_raft_cluster


def steps_of(cluster, **match):
    records = cluster.trace.of_kind("scenario_step")
    return [r for r in records if all(r.get(k) == v for k, v in match.items())]


# --------------------------------------------------------------------- #
# network primitives
# --------------------------------------------------------------------- #


def test_block_direction_is_one_way():
    c = make_raft_cluster(3)
    c.network.block_direction("n1", "n2")
    assert not c.network.link("n1", "n2").up
    assert c.network.link("n2", "n1").up
    c.network.unblock_direction("n1", "n2")
    assert c.network.link("n1", "n2").up


def test_degrade_direction_returns_previous_values():
    c = make_raft_cluster(3)
    link = c.network.link("n1", "n2")
    before_loss = link.loss.rate()
    prev = c.network.degrade_direction("n1", "n2", loss=0.9, one_way_ms=150.0)
    assert prev[0] == pytest.approx(before_loss)
    assert link.loss.rate() == pytest.approx(0.9)
    # The reverse direction is untouched.
    assert c.network.link("n2", "n1").loss.rate() == pytest.approx(before_loss)
    restored = c.network.degrade_direction(
        "n1", "n2", loss=prev[0], one_way_ms=prev[1]
    )
    assert restored[0] == pytest.approx(0.9)
    assert link.loss.rate() == pytest.approx(before_loss)


def test_connected_semantics():
    c = make_raft_cluster(3)
    net = c.network
    assert net.connected("n1", "n2")
    # Heavy-but-partial loss is still "connected" — that is what makes
    # gray failures gray.
    net.degrade_direction("n1", "n2", loss=0.95)
    assert net.connected("n1", "n2")
    # Total loss in one direction severs the round trip.
    net.degrade_direction("n1", "n2", loss=1.0)
    assert not net.connected("n1", "n2")
    net.degrade_direction("n1", "n2", loss=0.0)
    # One blocked direction severs the round trip too.
    net.block_direction("n2", "n1")
    assert not net.connected("n1", "n2")
    net.unblock_direction("n2", "n1")
    assert net.connected("n1", "n2")
    net.set_partitions([{"n1"}])
    assert not net.connected("n1", "n2")
    net.clear_partitions()
    assert net.connected("n1", "n2")


# --------------------------------------------------------------------- #
# BlockLink / GrayLink windows and token guards
# --------------------------------------------------------------------- #


def test_block_link_directions_and_window():
    c = make_raft_cluster(3)
    Scenario(
        "oneway",
        [BlockLink(at_ms=100.0, a="n1", b="n2", direction="a_to_b", duration_ms=400.0)],
    ).install(c)
    c.run_until(200.0)
    assert not c.network.link("n1", "n2").up
    assert c.network.link("n2", "n1").up
    c.run_until(600.0)
    assert c.network.link("n1", "n2").up


def test_overlapping_block_windows_latest_wins():
    c = make_raft_cluster(3)
    Scenario(
        "overlap",
        [
            BlockLink(at_ms=100.0, a="n1", b="n2", direction="a_to_b", duration_ms=300.0),
            BlockLink(at_ms=300.0, a="n1", b="n2", direction="a_to_b", duration_ms=2_000.0),
        ],
    ).install(c)
    # t=500: the first window's restore has fired but must be a no-op —
    # the second window re-armed the same directed link.
    c.run_until(500.0)
    assert not c.network.link("n1", "n2").up
    c.run_until(2_500.0)
    assert c.network.link("n1", "n2").up


def test_permanent_block_cancels_pending_restore():
    c = make_raft_cluster(3)
    Scenario(
        "perm",
        [
            BlockLink(at_ms=100.0, a="n1", b="n2", direction="a_to_b", duration_ms=300.0),
            BlockLink(at_ms=200.0, a="n1", b="n2", direction="a_to_b"),
        ],
    ).install(c)
    c.run_until(5_000.0)
    assert not c.network.link("n1", "n2").up


def test_gray_link_degrades_and_restores():
    c = make_raft_cluster(3)
    link = c.network.link("n1", "n2")
    base_loss = link.loss.rate()
    Scenario(
        "gray",
        [
            GrayLink(
                at_ms=100.0,
                a="n1",
                b="n2",
                direction="a_to_b",
                loss=0.9,
                one_way_ms=200.0,
                duration_ms=500.0,
            )
        ],
    ).install(c)
    c.run_until(300.0)
    assert link.loss.rate() == pytest.approx(0.9)
    assert c.network.link("n2", "n1").loss.rate() == pytest.approx(base_loss)
    c.run_until(700.0)
    assert link.loss.rate() == pytest.approx(base_loss)


def test_overlapping_gray_windows_latest_wins():
    c = make_raft_cluster(3)
    link = c.network.link("n1", "n2")
    Scenario(
        "gray-overlap",
        [
            GrayLink(at_ms=100.0, a="n1", b="n2", loss=0.5, duration_ms=300.0),
            GrayLink(at_ms=300.0, a="n1", b="n2", loss=0.9, duration_ms=1_000.0),
        ],
    ).install(c)
    c.run_until(500.0)  # first restore fired; second window must survive
    assert link.loss.rate() == pytest.approx(0.9)
    # The surviving window restores the value it displaced — the earlier
    # window's degradation, whose own (suppressed) restore never ran.
    c.run_until(1_500.0)
    assert link.loss.rate() == pytest.approx(0.5)


def test_block_and_gray_token_families_are_independent():
    """A BlockLink window on a link must not suppress (or be suppressed
    by) a GrayLink window on the same directed link: the two step kinds
    guard their restores with separate token families."""
    c = make_raft_cluster(3)
    link = c.network.link("n1", "n2")
    base_loss = link.loss.rate()
    Scenario(
        "mixed",
        [
            GrayLink(at_ms=100.0, a="n1", b="n2", loss=0.8, duration_ms=600.0),
            BlockLink(at_ms=200.0, a="n1", b="n2", direction="a_to_b", duration_ms=200.0),
        ],
    ).install(c)
    c.run_until(300.0)
    assert not link.up
    assert link.loss.rate() == pytest.approx(0.8)
    c.run_until(500.0)  # block window over, gray window still on
    assert link.up
    assert link.loss.rate() == pytest.approx(0.8)
    c.run_until(800.0)  # gray window over
    assert link.loss.rate() == pytest.approx(base_loss)


# --------------------------------------------------------------------- #
# SetClock / SetDuplicate behavior
# --------------------------------------------------------------------- #


def test_set_clock_skews_and_reverts_a_live_node():
    c = make_raft_cluster(3)
    Scenario(
        "skew",
        [
            SetClock(at_ms=100.0, node="n1", offset_ms=80.0, drift=0.01),
            SetClock(at_ms=600.0, node="n1"),
        ],
    ).install(c)
    c.run_until(200.0)
    clock = c.node("n1").clock
    assert clock.skewed
    assert clock.offset_ms == pytest.approx(80.0)
    assert clock.drift == pytest.approx(0.01)
    assert c.node("n2").clock.skewed is False
    c.run_until(700.0)
    assert not clock.skewed


def test_set_duplicate_applies_globally_and_per_pair():
    c = make_raft_cluster(3)
    Scenario(
        "dup",
        [
            SetDuplicate(at_ms=100.0, duplicate_p=0.05),
            SetDuplicate(at_ms=200.0, duplicate_p=0.2, pair=("n1", "n2")),
        ],
    ).install(c)
    c.run_until(300.0)
    assert c.network.link("n2", "n3").duplicate_p == pytest.approx(0.05)
    assert c.network.link("n1", "n2").duplicate_p == pytest.approx(0.2)
    assert c.network.link("n2", "n1").duplicate_p == pytest.approx(0.2)


# --------------------------------------------------------------------- #
# raft behaviour under asymmetric faults
# --------------------------------------------------------------------- #


def test_leader_with_egress_only_failure_steps_down():
    """A leader that can hear but not speak (every outbound server link
    blocked, inbound open) stops receiving append acks, so check_quorum
    retires it within a couple of election timeouts.  The followers are
    also severed from each other so no successor can depose the zombie
    with a higher term first — check_quorum must be what ends it."""
    c = make_raft_cluster(3)
    leader = c.run_until_leader()
    p1, p2 = [n for n in c.names if n != leader]
    for peer in (p1, p2):
        c.network.block_direction(leader, peer)
    c.network.block_direction(p1, p2)
    c.network.block_direction(p2, p1)
    c.run_for(2_000.0)
    assert c.node(leader).role is not Role.LEADER
    lost = [r for r in c.trace.of_kind("quorum_lost") if r.node == leader]
    assert lost, "egress-dead leader should step down via check_quorum"


def test_one_way_isolated_node_prevote_does_not_inflate_term():
    """An ingress-blocked follower hears nothing and campaigns forever —
    but with prevote its probes never bump anyone's real term, so when
    the fault heals the incumbent is still leader at the same term (the
    disruption prevote exists to prevent)."""
    c = make_raft_cluster(3)
    leader = c.run_until_leader()
    victim = next(n for n in c.names if n != leader)
    term_before = c.node(leader).current_term
    for other in c.names:
        if other != victim:
            c.network.block_direction(other, victim)
    c.run_for(10_000.0)
    # Pre-vote probes do not even inflate the isolated node's own term.
    assert c.node(victim).current_term == term_before
    for other in c.names:
        if other != victim:
            c.network.unblock_direction(other, victim)
    c.run_for(3_000.0)
    assert c.node(leader).role is Role.LEADER
    assert all(c.node(n).current_term == term_before for n in c.names)


# --------------------------------------------------------------------- #
# combined path: gray-degraded + paused node (stall interaction audit)
# --------------------------------------------------------------------- #


def test_gray_degraded_paused_node_does_not_double_arm_resume():
    """A scenario Pause landing on a node already stall-paused must skip
    (not stack a second resume timer), the stall's own resume must still
    fire, and the node's gray-link restore must stay on its own schedule
    — pause generations and link tokens are independent families."""
    c = make_raft_cluster(3)
    node = c.node("n1")
    link = c.network.link("n1", "n2")
    base_loss = link.loss.rate()
    Scenario(
        "gray+pause",
        [
            GrayLink(at_ms=100.0, a="n1", b="n2", loss=0.9, duration_ms=2_000.0),
            Pause(at_ms=400.0, node="n1", duration_ms=1_000.0),
        ],
    ).install(c)
    c.run_until(250.0)
    # Stall-style pause arrives first (ends at t=1050).
    pause_for(c.loop, node, 800.0, kind="stall_pause")
    c.run_until(500.0)
    # The scenario Pause fired at t=400 into a paused node: skipped.
    skipped = steps_of(c, step="pause")
    assert len(skipped) == 1 and skipped[0].get("skipped")
    assert node.state is ProcessState.PAUSED
    c.run_until(1_200.0)
    # Only the stall's resume applies — and exactly once.
    assert node.state is ProcessState.RUNNING
    assert len(c.trace.of_kind("process_resumed")) == 1
    # The pause dance never touched the gray window.
    assert link.loss.rate() == pytest.approx(0.9)
    c.run_until(2_500.0)
    assert link.loss.rate() == pytest.approx(base_loss)


def test_pause_resume_pause_keeps_latest_deadline_under_gray_fault():
    """The generation-token guard across a resume/re-pause cycle while the
    node's links are gray-degraded: the first pause's stale timer must not
    cut the second pause short."""
    c = make_raft_cluster(3)
    node = c.node("n2")
    c.network.degrade_direction("n2", "n1", loss=0.7, one_way_ms=120.0)
    pause_for(c.loop, node, 1_000.0)  # resume timer armed for t+1000
    c.run_until(300.0)
    node.resume()
    pause_for(c.loop, node, 2_000.0)  # must sleep until t=2300
    c.run_until(1_500.0)  # the stale timer has fired by now
    assert node.state is ProcessState.PAUSED
    c.run_until(2_500.0)
    assert node.state is ProcessState.RUNNING


def test_disk_stall_inside_a_scenario_pause_window_leaves_one_armed_resume():
    """Scenario sleeps and fsync stalls arm their resumes through the same
    ``Process.pause_for``, so they share one generation counter: a stall
    that lands inside a Pause window (the node having been woken early)
    supersedes the Pause's timer instead of racing it."""
    c = make_raft_cluster(3, storage="simdisk")
    client = c.add_client("cl")
    leader = c.run_until_leader()
    node = c.node(next(n for n in c.names if n != leader))
    t0 = c.loop.now
    Scenario(
        "pause+stall", [Pause(at_ms=t0 + 100.0, node=node.name, duration_ms=1_000.0)]
    ).install(c)
    c.run_until(t0 + 300.0)
    assert node.state is ProcessState.PAUSED and node._pause_generation == 1
    node.resume()  # an operator wakes it early; the Pause's timer stays queued
    node.storage.faults = dataclasses.replace(
        node.storage.faults, p_stall=1.0, stall_ms=100.0
    )
    client.submit(kv_put("x", 1))
    while not c.trace.of_kind("disk_stall"):
        c.run_for(5.0)
    node.storage.faults = DiskFaultConfig()
    assert c.loop.now < t0 + 600.0 and node.state is ProcessState.PAUSED
    assert node._pause_generation == 2  # one counter, two kinds of pause
    c.run_until(t0 + 800.0)  # the stall (<= 150 ms) is over: its resume applied
    assert node.state is ProcessState.RUNNING
    resumed = len(c.trace.of_kind("process_resumed"))
    node.pause()  # untimed; only the Pause's stale timer (t0 + 1100) is left
    c.run_until(t0 + 1_500.0)
    assert node.state is ProcessState.PAUSED
    assert len(c.trace.of_kind("process_resumed")) == resumed == 2
