"""The canonical scenario library — the partition-heavy regimes BALLAST
stresses and the paper's §IV-C scripts cannot express.

Every builder takes the cluster's node names and returns a fully concrete
:class:`~repro.scenarios.scenario.Scenario` (pure data; dump any of them
with ``scenario.to_json()`` to seed a config file).  Default timings keep
a whole scenario under ~40 s of virtual time so the full matrix stays
CI-sized; pass ``start_ms``/duration overrides for longer studies.

The nine canonical entries:

========================== ==================================================
``symmetric_split``        half/half partition, heal, repeat
``minority_partition``     a leaderless minority islanded (majority sails on)
``majority_partition``     the leader islanded with a minority; majority
                           re-elects, heal forces the deposed leader back
``rolling_partitions``     each node isolated in turn
``flapping_wan_link``      one inter-node link blinking on a short period
``asymmetric_geo``         one node's paths degraded (RTT+loss), others clean
``leader_churn_loop``      whoever leads gets put to sleep, repeatedly
``correlated_stall_storm`` simultaneous short pauses across several nodes
``partition_rtt_spike``    a split lands mid RTT-spike (SEER's worst case)
``elastic_grow``           fresh learners join and get promoted, one by one
``elastic_shrink``         members removed one at a time (optionally the
                           leader itself)
``elastic_replace_all``    rolling replacement of every original member
``gray_leader_egress``     the leader's outbound paths gray-degraded (heavy
                           loss + delay, return paths clean) over a duplicate
                           -prone network
``one_way_isolation``      one node's *ingress* blocked: it can campaign out
                           but never hear back (the election-livelock shape)
``drifting_clocks``        per-node clock steps and drift, then back to true
========================== ==================================================

The three ``elastic_*`` scenarios are the dynamic-membership family: they
reconfigure the cluster through one-at-a-time config changes while the
run is live, and only take effect on clusters installed with membership
enabled (the default).
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.cluster.measurements import LEADER_FAILURE_KIND
from repro.scenarios.scenario import Scenario
from repro.scenarios.steps import (
    LEADER_SELECTOR,
    AddNode,
    BlockLink,
    Churn,
    Flap,
    GrayLink,
    Heal,
    Partition,
    Pause,
    RemoveNode,
    Repeat,
    ReplaceNode,
    SetClock,
    SetDuplicate,
    SetLoss,
    SetRtt,
)

__all__ = [
    "SCENARIO_BUILDERS",
    "scenario_names",
    "build_scenario",
    "symmetric_split",
    "minority_partition",
    "majority_partition",
    "rolling_partitions",
    "flapping_wan_link",
    "asymmetric_geo",
    "leader_churn_loop",
    "correlated_stall_storm",
    "partition_rtt_spike",
    "elastic_grow",
    "elastic_shrink",
    "elastic_replace_all",
    "gray_leader_egress",
    "one_way_isolation",
    "drifting_clocks",
]


def _names(names: Sequence[str]) -> list[str]:
    names = list(names)
    if len(names) < 3:
        raise ValueError(f"scenarios need >= 3 nodes, got {len(names)}")
    return names


def symmetric_split(
    names: Sequence[str],
    *,
    start_ms: float = 5_000.0,
    hold_ms: float = 5_000.0,
    cycles: int = 2,
    gap_ms: float = 10_000.0,
) -> Scenario:
    """Split the cluster down the middle, heal, and do it again."""
    names = _names(names)
    half = tuple(names[: (len(names) + 1) // 2])
    repeat = Repeat(every_ms=gap_ms, times=cycles) if cycles > 1 else None
    return Scenario(
        "symmetric_split",
        [
            Partition(at_ms=start_ms, groups=(half,), repeat=repeat),
            Heal(at_ms=start_ms + hold_ms, repeat=repeat),
        ],
        description="half/half partition, heal, repeat",
    )


def minority_partition(
    names: Sequence[str],
    *,
    start_ms: float = 5_000.0,
    hold_ms: float = 8_000.0,
) -> Scenario:
    """Island a leaderless minority; the majority keeps (or regains) quorum."""
    names = _names(names)
    minority = tuple(names[-((len(names) - 1) // 2) :])
    return Scenario(
        "minority_partition",
        [
            Partition(at_ms=start_ms, groups=(minority,)),
            Heal(at_ms=start_ms + hold_ms),
        ],
        description="leaderless minority islanded; majority sails on",
    )


def majority_partition(
    names: Sequence[str],
    *,
    start_ms: float = 5_000.0,
    hold_ms: float = 8_000.0,
    cycles: int = 2,
    gap_ms: float = 12_000.0,
) -> Scenario:
    """Island the *leader* (with one companion) away from the majority.

    The majority side must detect and re-elect; the heal forces the
    deposed leader to fall back in line — the history where stale tuned
    timeouts are most dangerous.
    """
    names = _names(names)
    repeat = Repeat(every_ms=gap_ms, times=cycles) if cycles > 1 else None
    return Scenario(
        "majority_partition",
        [
            Partition(
                at_ms=start_ms,
                groups=((LEADER_SELECTOR, names[0]),),
                repeat=repeat,
            ),
            Heal(at_ms=start_ms + hold_ms, repeat=repeat),
        ],
        description="leader islanded with a minority; majority re-elects",
    )


def rolling_partitions(
    names: Sequence[str],
    *,
    start_ms: float = 4_000.0,
    hold_ms: float = 4_000.0,
    gap_ms: float = 6_000.0,
) -> Scenario:
    """Isolate each node in turn, healing between victims."""
    names = _names(names)
    steps = []
    for i, name in enumerate(names):
        t = start_ms + i * gap_ms
        steps.append(Partition(at_ms=t, groups=((name,),)))
        steps.append(Heal(at_ms=t + hold_ms))
    return Scenario(
        "rolling_partitions",
        steps,
        description="each node isolated in turn",
    )


def flapping_wan_link(
    names: Sequence[str],
    *,
    start_ms: float = 4_000.0,
    down_ms: float = 900.0,
    period_ms: float = 2_400.0,
    flaps: int = 10,
) -> Scenario:
    """One inter-node link blinking down/up on a short period."""
    names = _names(names)
    return Scenario(
        "flapping_wan_link",
        [
            Flap(
                at_ms=start_ms,
                a=names[0],
                b=names[1],
                down_ms=down_ms,
                repeat=Repeat(every_ms=period_ms, times=flaps),
            )
        ],
        description="one WAN link flapping on a short period",
    )


def asymmetric_geo(
    names: Sequence[str],
    *,
    start_ms: float = 5_000.0,
    hold_ms: float = 12_000.0,
    degraded_rtt_ms: float = 320.0,
    degraded_loss: float = 0.08,
    base_rtt_ms: float = 100.0,
) -> Scenario:
    """Degrade every path of one node (RTT + loss) while the rest stay clean."""
    names = _names(names)
    victim = names[0]
    steps = []
    for peer in names[1:]:
        steps.append(
            SetRtt(at_ms=start_ms, rtt_ms=degraded_rtt_ms, pair=(victim, peer))
        )
        steps.append(SetLoss(at_ms=start_ms, loss=degraded_loss, pair=(victim, peer)))
        steps.append(
            SetRtt(at_ms=start_ms + hold_ms, rtt_ms=base_rtt_ms, pair=(victim, peer))
        )
        steps.append(SetLoss(at_ms=start_ms + hold_ms, loss=0.0, pair=(victim, peer)))
    return Scenario(
        "asymmetric_geo",
        steps,
        description="one node's paths impaired, everyone else clean",
    )


def leader_churn_loop(
    names: Sequence[str],
    *,
    start_ms: float = 5_000.0,
    sleep_ms: float = 3_000.0,
    period_ms: float = 9_000.0,
    kills: int = 3,
) -> Scenario:
    """Put whoever currently leads to sleep, on a loop (declarative §IV-B1)."""
    _names(names)
    return Scenario(
        "leader_churn_loop",
        [
            Pause(
                at_ms=start_ms,
                node=LEADER_SELECTOR,
                duration_ms=sleep_ms,
                trace_kind=LEADER_FAILURE_KIND,
                repeat=Repeat(every_ms=period_ms, times=kills),
            )
        ],
        description="repeated leader container-sleeps",
    )


def correlated_stall_storm(
    names: Sequence[str],
    *,
    start_ms: float = 5_000.0,
    stall_ms: float = 450.0,
    period_ms: float = 3_000.0,
    rounds: int = 4,
) -> Scenario:
    """Simultaneous sub-timeout stalls on several nodes (shared-host noise)."""
    names = _names(names)
    victims = names[: max(2, len(names) // 2)]
    return Scenario(
        "correlated_stall_storm",
        [
            Pause(
                at_ms=start_ms,
                node=name,
                duration_ms=stall_ms,
                repeat=Repeat(every_ms=period_ms, times=rounds),
            )
            for name in victims
        ],
        description="correlated short pauses across several nodes",
    )


def partition_rtt_spike(
    names: Sequence[str],
    *,
    start_ms: float = 4_000.0,
    spike_rtt_ms: float = 500.0,
    base_rtt_ms: float = 100.0,
    partition_after_ms: float = 4_000.0,
    hold_ms: float = 6_000.0,
) -> Scenario:
    """A split landing in the middle of an RTT spike.

    Dynatune's followers have just re-tuned upward for the spike when the
    partition cuts their sample streams — the regime SEER identifies as
    the breaking point of naive timeout tuning.
    """
    names = _names(names)
    minority = tuple(names[-((len(names) - 1) // 2) :])
    t_split = start_ms + partition_after_ms
    return Scenario(
        "partition_rtt_spike",
        [
            SetRtt(at_ms=start_ms, rtt_ms=spike_rtt_ms),
            Partition(at_ms=t_split, groups=(minority,)),
            Heal(at_ms=t_split + hold_ms),
            SetRtt(at_ms=t_split + hold_ms + 2_000.0, rtt_ms=base_rtt_ms),
        ],
        description="minority partition during a radical RTT spike",
    )


def _fresh_names(names: Sequence[str], count: int) -> list[str]:
    """Mint ``count`` names that continue the cluster's naming sequence.

    ``["n1", "n2", "n3"]`` → ``["n4", "n5", ...]``.  Node names are never
    reused, so joiners always extend past the highest existing index.
    """
    prefix = names[0].rstrip("0123456789") or "n"
    top = 0
    for name in names:
        suffix = name[len(prefix) :] if name.startswith(prefix) else ""
        if suffix.isdigit():
            top = max(top, int(suffix))
    return [f"{prefix}{top + 1 + i}" for i in range(count)]


def elastic_grow(
    names: Sequence[str],
    *,
    start_ms: float = 4_000.0,
    gap_ms: float = 6_000.0,
    joiners: int = 2,
) -> Scenario:
    """Grow the cluster by ``joiners`` fresh nodes, one at a time.

    Each joiner enters as a learner, is snapshot/append caught up, and is
    auto-promoted to voter; ``gap_ms`` spaces the additions so each config
    change (and its follow-on promotion) can commit before the next.
    """
    names = _names(names)
    if joiners < 1:
        raise ValueError(f"joiners must be >= 1, got {joiners!r}")
    steps = [
        AddNode(at_ms=start_ms + i * gap_ms, node=fresh)
        for i, fresh in enumerate(_fresh_names(names, joiners))
    ]
    return Scenario(
        "elastic_grow",
        steps,
        description="fresh learners join and get promoted, one by one",
    )


def elastic_shrink(
    names: Sequence[str],
    *,
    start_ms: float = 4_000.0,
    gap_ms: float = 6_000.0,
    removals: int | None = None,
    include_leader: bool = False,
) -> Scenario:
    """Shrink the cluster one removal at a time.

    Removes the tail of the name list (defaults to shrinking down to three
    members, at least one removal).  With ``include_leader`` the first
    removal targets ``"@leader"`` instead — the step-down-on-self-removal
    path (§4.2.2).
    """
    names = _names(names)
    if removals is None:
        removals = max(1, len(names) - 3)
    if not (1 <= removals < len(names)):
        raise ValueError(
            f"removals must be in [1, {len(names) - 1}], got {removals!r}"
        )
    victims = [LEADER_SELECTOR] if include_leader else []
    victims += list(reversed(names))[: removals - len(victims)]
    steps = [
        RemoveNode(at_ms=start_ms + i * gap_ms, node=victim)
        for i, victim in enumerate(victims)
    ]
    return Scenario(
        "elastic_shrink",
        steps,
        description="members removed one at a time",
    )


def elastic_replace_all(
    names: Sequence[str],
    *,
    start_ms: float = 4_000.0,
    gap_ms: float = 8_000.0,
) -> Scenario:
    """Rolling replacement: every original member swapped for a fresh node.

    Each swap adds the replacement first (learner → voter) and then
    removes the original, so fault-tolerance capacity never dips below the
    starting level.  By the end no original member remains — the
    history-independence stress: the final cluster's state exists only
    through snapshots and replicated config entries.
    """
    names = _names(names)
    steps = [
        ReplaceNode(at_ms=start_ms + i * gap_ms, node=victim, replacement=fresh)
        for i, (victim, fresh) in enumerate(
            zip(names, _fresh_names(names, len(names)))
        )
    ]
    return Scenario(
        "elastic_replace_all",
        steps,
        description="rolling replacement of every original member",
    )


def gray_leader_egress(
    names: Sequence[str],
    *,
    start_ms: float = 5_000.0,
    hold_ms: float = 8_000.0,
    loss: float = 0.9,
    extra_delay_ms: float = 150.0,
    duplicate_p: float = 0.02,
) -> Scenario:
    """Gray-degrade the leader's *outbound* paths; return paths stay clean.

    The leader keeps hearing acks for the few appends that survive, so it
    still believes it leads — but commit progress collapses.  With
    ``check_quorum`` the leader notices its silence radius and steps down;
    without it the cluster limps until the commit-stall oracle flags it.
    A low background duplicate rate runs throughout (dedup must hold even
    while the fault plays out).
    """
    names = _names(names)
    steps = [SetDuplicate(at_ms=start_ms - 1_000.0, duplicate_p=duplicate_p)]
    for peer in names:
        # "@leader" resolves at fire time; the occurrence naming the
        # leader itself is skipped (a == b), so covering every name
        # grays exactly the leader's egress fan-out.
        steps.append(
            GrayLink(
                at_ms=start_ms,
                a=LEADER_SELECTOR,
                b=peer,
                direction="a_to_b",
                loss=loss,
                one_way_ms=extra_delay_ms,
                duration_ms=hold_ms,
            )
        )
    steps.append(SetDuplicate(at_ms=start_ms + hold_ms + 2_000.0, duplicate_p=0.0))
    return Scenario(
        "gray_leader_egress",
        steps,
        description="leader egress gray-degraded, return paths clean",
    )


def one_way_isolation(
    names: Sequence[str],
    *,
    start_ms: float = 5_000.0,
    hold_ms: float = 10_000.0,
) -> Scenario:
    """Block one node's *ingress* only: it speaks but cannot hear.

    The victim's elections time out forever (no heartbeat reaches it), so
    it campaigns with ever-growing terms that *do* reach the cluster —
    without prevote each campaign deposes the live leader; with prevote
    the disruption is contained and on heal the victim's inflated local
    term never touches the cluster.
    """
    names = _names(names)
    victim = names[-1]
    steps = [
        BlockLink(
            at_ms=start_ms,
            a=victim,
            b=peer,
            direction="b_to_a",
            duration_ms=hold_ms,
        )
        for peer in names
        if peer != victim
    ]
    return Scenario(
        "one_way_isolation",
        steps,
        description="one node's ingress blocked; egress keeps working",
    )


def drifting_clocks(
    names: Sequence[str],
    *,
    start_ms: float = 4_000.0,
    hold_ms: float = 15_000.0,
    max_offset_ms: float = 200.0,
    max_drift: float = 0.02,
) -> Scenario:
    """Step and drift every node's clock, then snap all clocks back to true.

    Offsets alternate sign and ramp up to ``max_offset_ms``; drifts do the
    same up to ``max_drift`` — nodes disagree on both *when* and *how
    fast*.  Raft's correctness never depends on synchronized clocks, so
    safety must hold throughout; what skew does stress is everything
    timeout-shaped (election spreads, lease validity margins).
    """
    names = _names(names)
    n = len(names)
    steps = []
    for i, name in enumerate(names):
        sign = 1.0 if i % 2 == 0 else -1.0
        scale = (i + 1) / n
        steps.append(
            SetClock(
                at_ms=start_ms,
                node=name,
                offset_ms=sign * max_offset_ms * scale,
                drift=sign * max_drift * scale,
            )
        )
        steps.append(SetClock(at_ms=start_ms + hold_ms, node=name))
    return Scenario(
        "drifting_clocks",
        steps,
        description="per-node clock steps and drift, then back to true",
    )


#: Name → builder for every canonical scenario.
SCENARIO_BUILDERS: dict[str, Callable[..., Scenario]] = {
    "symmetric_split": symmetric_split,
    "minority_partition": minority_partition,
    "majority_partition": majority_partition,
    "rolling_partitions": rolling_partitions,
    "flapping_wan_link": flapping_wan_link,
    "asymmetric_geo": asymmetric_geo,
    "leader_churn_loop": leader_churn_loop,
    "correlated_stall_storm": correlated_stall_storm,
    "partition_rtt_spike": partition_rtt_spike,
    "elastic_grow": elastic_grow,
    "elastic_shrink": elastic_shrink,
    "elastic_replace_all": elastic_replace_all,
    "gray_leader_egress": gray_leader_egress,
    "one_way_isolation": one_way_isolation,
    "drifting_clocks": drifting_clocks,
}


def scenario_names() -> tuple[str, ...]:
    """The library's scenario names, in canonical order."""
    return tuple(SCENARIO_BUILDERS)


def build_scenario(name: str, names: Sequence[str], **overrides: object) -> Scenario:
    """Instantiate one library scenario for a concrete node list."""
    builder = SCENARIO_BUILDERS.get(name)
    if builder is None:
        raise ValueError(
            f"unknown scenario {name!r}; expected one of {sorted(SCENARIO_BUILDERS)}"
        )
    return builder(names, **overrides)
