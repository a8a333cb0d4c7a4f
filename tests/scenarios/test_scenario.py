"""Scenario installation: step application, selectors, traces, JSON."""

import pytest

from repro.scenarios.scenario import Scenario
from repro.scenarios.steps import (
    BlockLink,
    Crash,
    DiskFault,
    Flap,
    GrayLink,
    Heal,
    Partition,
    Pause,
    Recover,
    Repeat,
    SetLoss,
    SetRtt,
)
from repro.sim.process import ProcessState
from tests.conftest import make_raft_cluster


def steps_of(cluster, **match):
    records = cluster.trace.of_kind("scenario_step")
    return [r for r in records if all(r.get(k) == v for k, v in match.items())]


def test_network_weather_steps_apply():
    c = make_raft_cluster(3)
    Scenario(
        "weather",
        [
            SetRtt(at_ms=100.0, rtt_ms=180.0),
            SetLoss(at_ms=100.0, loss=0.25),
            SetRtt(at_ms=200.0, rtt_ms=60.0, pair=("n1", "n2")),
        ],
    ).install(c)
    c.run_until(300.0)
    assert c.network.link("n2", "n3").rtt_ms == pytest.approx(180.0)
    assert c.network.link("n1", "n2").rtt_ms == pytest.approx(60.0)
    assert c.network.link("n1", "n3").loss.rate() == pytest.approx(0.25)
    assert len(steps_of(c, step="set_rtt")) == 2


def test_partition_and_heal_apply():
    c = make_raft_cluster(3)
    Scenario(
        "split",
        [
            Partition(at_ms=100.0, groups=(("n1",),)),
            Heal(at_ms=500.0),
        ],
    ).install(c)
    c.run_until(200.0)
    assert c.network.partitioned("n1", "n2")
    assert not c.network.partitioned("n2", "n3")
    c.run_until(600.0)
    assert not c.network.partitioned("n1", "n2")


def test_leader_selector_resolves_at_apply_time():
    c = make_raft_cluster(3)
    leader = c.run_until_leader()
    t = c.loop.now + 100.0
    Scenario(
        "kill-leader",
        [Pause(at_ms=t, node="@leader", duration_ms=2_000.0)],
    ).install(c)
    c.run_until(t + 50.0)
    assert c.node(leader).state is ProcessState.PAUSED
    rec = steps_of(c, step="pause")[0]
    assert rec.get("target") == leader


def test_unresolvable_leader_skips_and_traces():
    c = make_raft_cluster(3)
    # At t=1 ms no leader exists yet; the step must skip, not crash.
    Scenario("early", [Pause(at_ms=1.0, node="@leader", duration_ms=500.0)]).install(c)
    c.run_until(10.0)
    rec = steps_of(c, step="pause")[0]
    assert rec.get("skipped") is True


def test_crash_recover_steps():
    c = make_raft_cluster(3)
    Scenario(
        "cycle",
        [
            Crash(at_ms=100.0, node="n2"),
            Recover(at_ms=1_000.0, node="n2"),
            Recover(at_ms=1_100.0, node="n2"),  # second recover: skipped
        ],
    ).install(c)
    c.run_until(500.0)
    assert c.node("n2").state is ProcessState.CRASHED
    c.run_until(1_200.0)
    assert c.node("n2").state is ProcessState.RUNNING
    recs = steps_of(c, step="recover")
    assert [bool(r.get("skipped")) for r in recs] == [False, True]


def test_flap_takes_link_down_and_back_up():
    c = make_raft_cluster(3)
    Scenario(
        "blink",
        [Flap(at_ms=100.0, a="n1", b="n2", down_ms=200.0)],
    ).install(c)
    c.run_until(150.0)
    assert not c.network.link("n1", "n2").up
    assert not c.network.link("n2", "n1").up
    assert c.network.link("n1", "n3").up
    c.run_until(400.0)
    assert c.network.link("n1", "n2").up


def test_repeat_applies_each_occurrence():
    c = make_raft_cluster(3)
    Scenario(
        "pulse",
        [SetRtt(at_ms=100.0, rtt_ms=99.0, repeat=Repeat(every_ms=100.0, times=4))],
    ).install(c)
    c.run_until(1_000.0)
    recs = steps_of(c, step="set_rtt")
    assert [r.get("occurrence") for r in recs] == [0, 1, 2, 3]


def test_install_validates_node_names():
    c = make_raft_cluster(3)
    bad = Scenario("bad", [Crash(at_ms=10.0, node="n99")])
    with pytest.raises(ValueError, match="unknown nodes"):
        bad.install(c)


def test_end_ms_spans_longest_effect():
    sc = Scenario(
        "extent",
        [
            SetRtt(at_ms=5_000.0, rtt_ms=10.0),
            Pause(at_ms=1_000.0, node="n1", duration_ms=9_000.0),
        ],
    )
    assert sc.end_ms == 10_000.0
    assert Scenario("empty", []).end_ms == 0.0


def test_scenario_json_round_trip():
    sc = Scenario(
        "rt",
        [
            Partition(at_ms=10.0, groups=(("n1", "@leader"),)),
            Heal(at_ms=20.0, repeat=Repeat(every_ms=30.0, times=2)),
        ],
        description="round trip",
    )
    clone = Scenario.from_json(sc.to_json())
    assert clone.name == sc.name
    assert clone.description == sc.description
    assert clone.steps == sc.steps


def test_scenario_from_dict_strictness():
    with pytest.raises(ValueError, match="unknown keys"):
        Scenario.from_dict({"name": "x", "steps": [], "bogus": 1})
    with pytest.raises(ValueError, match="'name' and 'steps'"):
        Scenario.from_dict({"description": "no name"})


def test_on_apply_observer_fires_per_occurrence():
    c = make_raft_cluster(3)
    seen = []
    Scenario(
        "obs",
        [Heal(at_ms=50.0, repeat=Repeat(every_ms=50.0, times=3))],
    ).install(c, on_apply=seen.append)
    c.run_until(300.0)
    assert len(seen) == 3


def test_overlapping_flaps_keep_link_down_for_latest_window():
    """A stale restore timer from an earlier flap must not raise the link
    while a newer flap's down-window is still active."""
    c = make_raft_cluster(3)
    Scenario(
        "overlap",
        [
            Flap(at_ms=100.0, a="n1", b="n2", down_ms=1_000.0),
            Flap(at_ms=600.0, a="n1", b="n2", down_ms=1_000.0),
        ],
    ).install(c)
    c.run_until(1_200.0)  # first flap's restore (t=1100) has fired
    assert not c.network.link("n1", "n2").up
    c.run_until(1_700.0)  # second flap's restore (t=1600) applies
    assert c.network.link("n1", "n2").up


def test_stale_churn_recover_does_not_cut_later_crash_short():
    """A Churn occurrence's auto-recover timer must not revive a node that
    a later Crash step took down for longer (crash-generation guard)."""
    from repro.scenarios.steps import Churn

    c = make_raft_cluster(3)
    Scenario(
        "stale-recover",
        [
            Churn(at_ms=100.0, nodes=("n1",), down_ms=5_000.0),  # recover armed t=5100
            Recover(at_ms=1_000.0, node="n1"),
            Crash(at_ms=2_000.0, node="n1"),  # down until its own Recover
            Recover(at_ms=8_000.0, node="n1"),
        ],
    ).install(c)
    c.run_until(6_000.0)  # churn's stale timer has fired by now
    assert c.node("n1").state is ProcessState.CRASHED
    c.run_until(9_000.0)
    assert c.node("n1").state is ProcessState.RUNNING


def test_flap_and_block_guard_one_flag_with_two_families():
    """FINDING, pinned not fixed (ROADMAP item 1(d)): ``Flap`` and
    ``BlockLink`` both drive ``link.up`` but take their windows under
    separate key families (``("flap", lo, hi)`` vs ``("block", src, dst)``),
    so neither sees the other's window.  A defect of two families guarding
    one flag: the states asserted here are what the code does, not what it
    should do.  The fix (key link-``up`` windows by the directed link)
    moves fuzz digests and is its own PR."""
    # (1) An unrelated 50 ms flap lifts a *permanent* one-way block.
    c = make_raft_cluster(3)
    Scenario(
        "flap-lifts-block",
        [
            BlockLink(at_ms=100.0, a="n1", b="n2", direction="a_to_b"),
            Flap(at_ms=200.0, a="n1", b="n2", down_ms=50.0),
        ],
    ).install(c)
    c.run_until(240.0)
    assert not c.network.link("n1", "n2").up
    c.run_until(260.0)
    assert c.network.link("n1", "n2").up  # should still be blocked
    assert c.network.link("n2", "n1").up

    # (2) A 100 ms block inside a 1 000 ms flap cuts the flap to 200 ms.
    c = make_raft_cluster(3)
    Scenario(
        "block-cuts-flap",
        [
            Flap(at_ms=100.0, a="n1", b="n2", down_ms=1_000.0),
            BlockLink(at_ms=200.0, a="n1", b="n2", duration_ms=100.0),
        ],
    ).install(c)
    c.run_until(290.0)
    assert not c.network.link("n1", "n2").up
    c.run_until(310.0)  # should stay down until t=1100
    assert c.network.link("n1", "n2").up
    assert c.network.link("n2", "n1").up
    c.run_until(1_200.0)  # the flap's own restore is then a no-op
    assert c.network.link("n1", "n2").up


def _link(c):
    return c.network.link("n1", "n2")


#: family -> (step factory ``(at_ms, level, duration_ms | None)``, observable,
#: cluster kwargs).  ``level`` tells the two windows apart where the fault
#: has a magnitude; a restore puts back what its window found at apply time.
_WINDOW_FAMILIES = {
    "flap": (
        lambda at, level, dur: Flap(at_ms=at, a="n1", b="n2", down_ms=dur),
        lambda c: "up" if _link(c).up else "down",
        {},
    ),
    "block": (
        lambda at, level, dur: BlockLink(
            at_ms=at, a="n1", b="n2", direction="a_to_b", duration_ms=dur
        ),
        lambda c: "up" if _link(c).up else "down",
        {},
    ),
    "gray": (
        lambda at, level, dur: GrayLink(
            at_ms=at, a="n1", b="n2", loss=level, duration_ms=dur
        ),
        lambda c: _link(c).loss.rate(),
        {},
    ),
    "disk": (
        lambda at, level, dur: DiskFault(
            at_ms=at, node="n1", p_stall=level, duration_ms=dur or 0.0
        ),
        lambda c: c.node("n1").storage.faults.p_stall,
        {"storage": "simdisk"},
    ),
}
#: What each observable reads (clean, inside window 1, inside window 2).
_WINDOW_STATES = {
    "flap": ("up", "down", "down"),
    "block": ("up", "down", "down"),
    "gray": (0.0, 0.3, 0.6),
    "disk": (0.0, 0.3, 0.6),
}


@pytest.mark.parametrize("family", sorted(_WINDOW_FAMILIES))
def test_latest_window_wins_on_a_shared_key(family):
    """The one window rule, per family: of two overlapping windows on one
    key the earlier restore is a no-op and the later one applies; a
    permanent window silences an earlier finite one.  (Drop the token
    compare in ``ScenarioRuntime.window`` and the t=600 reads fail.)"""
    make, read, kwargs = _WINDOW_FAMILIES[family]
    clean, first, second = _WINDOW_STATES[family]

    c = make_raft_cluster(3, **kwargs)
    assert read(c) == clean
    Scenario(
        "overlap", [make(100.0, 0.3, 400.0), make(300.0, 0.6, 400.0)]
    ).install(c)
    c.run_until(200.0)
    assert read(c) == first
    c.run_until(400.0)
    assert read(c) == second
    c.run_until(600.0)  # window 1's restore (t=500) was stale: nothing moved
    assert read(c) == second
    c.run_until(800.0)  # window 2's restore (t=700) put back what it found
    assert read(c) == (first if family in ("gray", "disk") else clean)

    if family == "flap":
        return  # a flap has no permanent form
    c = make_raft_cluster(3, **kwargs)
    Scenario(
        "permanent", [make(100.0, 0.3, 400.0), make(300.0, 0.6, None)]
    ).install(c)
    c.run_until(600.0)  # the finite window's restore (t=500) is silenced
    assert read(c) == second
