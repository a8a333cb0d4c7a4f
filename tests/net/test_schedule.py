"""The paper's §IV-C network scripts: profile builders and installation.

The profiles are :class:`~repro.scenarios.scenario.Scenario` builders (the
file keeps the name and test ids it had when ``repro.net`` ran a second
timeline engine for them); the same instants and values are asserted.
"""

import pytest

from repro.scenarios.library import SCENARIO_BUILDERS
from repro.scenarios.profiles import (
    gradual_rtt_profile,
    loss_staircase_profile,
    radical_rtt_profile,
)
from repro.scenarios.scenario import Scenario
from repro.scenarios.steps import Heal, Partition, SetLoss, SetRtt
from repro.sim.clock import MINUTE
from tests.conftest import make_raft_cluster


def test_gradual_profile_paper_pattern():
    s = gradual_rtt_profile()  # 50 -> 200 -> 50, 10ms steps, 1min dwell
    values = [a.rtt_ms for a in s.steps]
    assert values[0] == 50.0
    assert max(values) == 200.0
    assert values[-1] == 50.0
    assert values.count(200.0) == 1  # peak not repeated
    # 16 ascending values + 15 descending = 31 steps.
    assert len(values) == 31
    # one-minute dwell spacing
    assert s.steps[1].at_ms - s.steps[0].at_ms == MINUTE


def test_gradual_profile_monotone_up_then_down():
    s = gradual_rtt_profile()
    values = [a.rtt_ms for a in s.steps]
    peak = values.index(200.0)
    assert values[: peak + 1] == sorted(values[: peak + 1])
    assert values[peak:] == sorted(values[peak:], reverse=True)


def test_radical_profile_paper_pattern():
    s = radical_rtt_profile()
    assert [a.rtt_ms for a in s.steps] == [50.0, 500.0, 50.0]
    assert [a.at_ms for a in s.steps] == [0.0, MINUTE, 2 * MINUTE]


def test_loss_staircase_up_and_down():
    s = loss_staircase_profile()
    losses = [a.loss for a in s.steps if isinstance(a, SetLoss)]
    assert losses[0] == 0.0
    assert max(losses) == 0.30
    assert losses.count(0.30) == 1
    assert losses[-1] == 0.0
    assert len(losses) == 13  # 7 up + 6 down
    assert s.steps[0] == SetRtt(at_ms=0.0, rtt_ms=200.0)  # RTT pinned


def test_profiles_are_plain_scenarios():
    # JSON-able, and not part of the scenario matrix.
    for profile in (gradual_rtt_profile(), radical_rtt_profile(), loss_staircase_profile()):
        assert Scenario.from_json(profile.to_json()).steps == profile.steps
        assert profile.name not in SCENARIO_BUILDERS


def test_value_at_tracks_latest():
    # The ground truth is read off a link: an installed profile is the
    # only thing turning the knob.
    c = make_raft_cluster(3, rtt_ms=10.0)
    s = gradual_rtt_profile(dwell_ms=1000.0)
    s.install(c)
    link = c.network.link("n1", "n2")
    c.run_until(0.0)
    assert link.rtt_ms == 50.0
    c.run_until(1500.0)
    assert link.rtt_ms == 60.0
    c.run_until(s.end_ms)
    assert link.rtt_ms == 50.0  # final value


def test_install_applies_actions_at_times():
    c = make_raft_cluster(2, rtt_ms=10.0)
    applied = []
    s = Scenario("two", [SetRtt(at_ms=100.0, rtt_ms=40.0), SetLoss(at_ms=200.0, loss=0.5)])
    s.install(c, on_apply=lambda step: applied.append(step.kind))
    c.run_until(150.0)
    assert c.network.link("n1", "n2").one_way_ms == 20.0
    assert c.network.link("n1", "n2").loss.rate() == 0.0
    c.run_until(250.0)
    assert c.network.link("n1", "n2").loss.rate() == 0.5
    assert applied == ["set_rtt", "set_loss"]


def test_end_ms():
    s = loss_staircase_profile(dwell_ms=1000.0)
    assert s.end_ms == 12_000.0
    assert Scenario("empty", []).end_ms == 0.0


def test_actions_sorted_by_time():
    # Step order in the list is irrelevant: times are absolute.
    c = make_raft_cluster(2)
    applied = []
    Scenario(
        "unsorted", [SetRtt(at_ms=200.0, rtt_ms=2.0), SetRtt(at_ms=100.0, rtt_ms=1.0)]
    ).install(c, on_apply=lambda step: applied.append(step.at_ms))
    c.run_until(300.0)
    assert applied == [100.0, 200.0]


# -- the rest of what a schedule action could do: per-pair and partitions --- #


def test_pair_action_targets_one_path_only():
    c = make_raft_cluster(3, rtt_ms=100.0)
    Scenario("pair", [SetRtt(at_ms=10.0, rtt_ms=400.0, pair=("n1", "n2"))]).install(c)
    c.run_until(20.0)
    assert c.network.link("n1", "n2").rtt_ms == pytest.approx(400.0)
    assert c.network.link("n2", "n1").rtt_ms == pytest.approx(400.0)
    assert c.network.link("n1", "n3").rtt_ms == pytest.approx(100.0)


def test_partition_and_heal_actions():
    c = make_raft_cluster(3)
    Scenario(
        "split", [Partition(at_ms=10.0, groups=(("n1",),)), Heal(at_ms=20.0)]
    ).install(c)
    c.run_until(15.0)
    assert c.network.partitioned("n1", "n2")
    c.run_until(25.0)
    assert not c.network.partitioned("n1", "n2")
