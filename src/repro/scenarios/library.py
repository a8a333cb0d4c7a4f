"""The canonical scenario library — the partition-heavy regimes BALLAST
stresses and the paper's §IV-C scripts cannot express.

Every builder takes the cluster's node names and returns a fully concrete
:class:`~repro.scenarios.scenario.Scenario` (pure data; dump any of them
with ``scenario.to_json()`` to seed a config file).  Timings are module
constants named after their builder and keep a whole scenario under ~40 s
of virtual time, so the full matrix stays CI-sized; only the ``elastic``
and ``grayfail`` grids' builders take the timing keywords those grids set.

The fifteen canonical entries:

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
``elastic_shrink``         members removed one at a time
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


SPLIT_START_MS = 5_000.0
SPLIT_HOLD_MS = 5_000.0
SPLIT_CYCLES = 2
SPLIT_GAP_MS = 10_000.0


def symmetric_split(names: Sequence[str]) -> Scenario:
    """Split the cluster down the middle, heal, and do it again."""
    names = _names(names)
    half = tuple(names[: (len(names) + 1) // 2])
    repeat = Repeat(every_ms=SPLIT_GAP_MS, times=SPLIT_CYCLES)
    return Scenario(
        "symmetric_split",
        [
            Partition(at_ms=SPLIT_START_MS, groups=(half,), repeat=repeat),
            Heal(at_ms=SPLIT_START_MS + SPLIT_HOLD_MS, repeat=repeat),
        ],
        description="half/half partition, heal, repeat",
    )


MINORITY_START_MS = 5_000.0
MINORITY_HOLD_MS = 8_000.0


def minority_partition(names: Sequence[str]) -> Scenario:
    """Island a leaderless minority; the majority keeps (or regains) quorum."""
    names = _names(names)
    minority = tuple(names[-((len(names) - 1) // 2) :])
    return Scenario(
        "minority_partition",
        [
            Partition(at_ms=MINORITY_START_MS, groups=(minority,)),
            Heal(at_ms=MINORITY_START_MS + MINORITY_HOLD_MS),
        ],
        description="leaderless minority islanded; majority sails on",
    )


MAJORITY_START_MS = 5_000.0
MAJORITY_HOLD_MS = 8_000.0
MAJORITY_CYCLES = 2
MAJORITY_GAP_MS = 12_000.0


def majority_partition(names: Sequence[str]) -> Scenario:
    """Island the *leader* (with one companion) away from the majority.

    The majority side must detect and re-elect; the heal forces the
    deposed leader to fall back in line — the history where stale tuned
    timeouts are most dangerous.
    """
    names = _names(names)
    repeat = Repeat(every_ms=MAJORITY_GAP_MS, times=MAJORITY_CYCLES)
    return Scenario(
        "majority_partition",
        [
            Partition(
                at_ms=MAJORITY_START_MS,
                groups=((LEADER_SELECTOR, names[0]),),
                repeat=repeat,
            ),
            Heal(at_ms=MAJORITY_START_MS + MAJORITY_HOLD_MS, repeat=repeat),
        ],
        description="leader islanded with a minority; majority re-elects",
    )


ROLLING_START_MS = 4_000.0
ROLLING_HOLD_MS = 4_000.0
ROLLING_GAP_MS = 6_000.0


def rolling_partitions(names: Sequence[str]) -> Scenario:
    """Isolate each node in turn, healing between victims."""
    names = _names(names)
    steps = []
    for i, name in enumerate(names):
        t = ROLLING_START_MS + i * ROLLING_GAP_MS
        steps.append(Partition(at_ms=t, groups=((name,),)))
        steps.append(Heal(at_ms=t + ROLLING_HOLD_MS))
    return Scenario(
        "rolling_partitions",
        steps,
        description="each node isolated in turn",
    )


FLAP_START_MS = 4_000.0
FLAP_DOWN_MS = 900.0
FLAP_PERIOD_MS = 2_400.0
FLAP_COUNT = 10


def flapping_wan_link(names: Sequence[str]) -> Scenario:
    """One inter-node link blinking down/up on a short period."""
    names = _names(names)
    return Scenario(
        "flapping_wan_link",
        [
            Flap(
                at_ms=FLAP_START_MS,
                a=names[0],
                b=names[1],
                down_ms=FLAP_DOWN_MS,
                repeat=Repeat(every_ms=FLAP_PERIOD_MS, times=FLAP_COUNT),
            )
        ],
        description="one WAN link flapping on a short period",
    )


GEO_START_MS = 5_000.0
GEO_HOLD_MS = 12_000.0
GEO_DEGRADED_RTT_MS = 320.0
GEO_DEGRADED_LOSS = 0.08
GEO_BASE_RTT_MS = 100.0


def asymmetric_geo(names: Sequence[str]) -> Scenario:
    """Degrade every path of one node (RTT + loss) while the rest stay clean."""
    names = _names(names)
    victim = names[0]
    end_ms = GEO_START_MS + GEO_HOLD_MS
    steps = []
    for peer in names[1:]:
        pair = (victim, peer)
        steps.append(SetRtt(at_ms=GEO_START_MS, rtt_ms=GEO_DEGRADED_RTT_MS, pair=pair))
        steps.append(SetLoss(at_ms=GEO_START_MS, loss=GEO_DEGRADED_LOSS, pair=pair))
        steps.append(SetRtt(at_ms=end_ms, rtt_ms=GEO_BASE_RTT_MS, pair=pair))
        steps.append(SetLoss(at_ms=end_ms, loss=0.0, pair=pair))
    return Scenario(
        "asymmetric_geo",
        steps,
        description="one node's paths impaired, everyone else clean",
    )


CHURN_START_MS = 5_000.0
CHURN_SLEEP_MS = 3_000.0
CHURN_PERIOD_MS = 9_000.0
CHURN_KILLS = 3


def leader_churn_loop(names: Sequence[str]) -> Scenario:
    """Put whoever currently leads to sleep, on a loop (declarative §IV-B1)."""
    _names(names)
    return Scenario(
        "leader_churn_loop",
        [
            Pause(
                at_ms=CHURN_START_MS,
                node=LEADER_SELECTOR,
                duration_ms=CHURN_SLEEP_MS,
                trace_kind=LEADER_FAILURE_KIND,
                repeat=Repeat(every_ms=CHURN_PERIOD_MS, times=CHURN_KILLS),
            )
        ],
        description="repeated leader container-sleeps",
    )


STALL_START_MS = 5_000.0
STALL_MS = 450.0
STALL_PERIOD_MS = 3_000.0
STALL_ROUNDS = 4


def correlated_stall_storm(names: Sequence[str]) -> Scenario:
    """Simultaneous sub-timeout stalls on several nodes (shared-host noise)."""
    names = _names(names)
    victims = names[: max(2, len(names) // 2)]
    return Scenario(
        "correlated_stall_storm",
        [
            Pause(
                at_ms=STALL_START_MS,
                node=name,
                duration_ms=STALL_MS,
                repeat=Repeat(every_ms=STALL_PERIOD_MS, times=STALL_ROUNDS),
            )
            for name in victims
        ],
        description="correlated short pauses across several nodes",
    )


SPIKE_START_MS = 4_000.0
SPIKE_RTT_MS = 500.0
SPIKE_BASE_RTT_MS = 100.0
SPIKE_PARTITION_AFTER_MS = 4_000.0
SPIKE_HOLD_MS = 6_000.0


def partition_rtt_spike(names: Sequence[str]) -> Scenario:
    """A split landing in the middle of an RTT spike.

    Dynatune's followers have just re-tuned upward for the spike when the
    partition cuts their sample streams — the regime SEER identifies as
    the breaking point of naive timeout tuning.
    """
    names = _names(names)
    minority = tuple(names[-((len(names) - 1) // 2) :])
    t_split = SPIKE_START_MS + SPIKE_PARTITION_AFTER_MS
    return Scenario(
        "partition_rtt_spike",
        [
            SetRtt(at_ms=SPIKE_START_MS, rtt_ms=SPIKE_RTT_MS),
            Partition(at_ms=t_split, groups=(minority,)),
            Heal(at_ms=t_split + SPIKE_HOLD_MS),
            SetRtt(at_ms=t_split + SPIKE_HOLD_MS + 2_000.0, rtt_ms=SPIKE_BASE_RTT_MS),
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
) -> Scenario:
    """Shrink the cluster one removal at a time.

    Removes the tail of the name list (defaults to shrinking down to three
    members, at least one removal).
    """
    names = _names(names)
    if removals is None:
        removals = max(1, len(names) - 3)
    if not (1 <= removals < len(names)):
        raise ValueError(
            f"removals must be in [1, {len(names) - 1}], got {removals!r}"
        )
    victims = list(reversed(names))[:removals]
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


GRAY_LOSS = 0.9
GRAY_EXTRA_DELAY_MS = 150.0
GRAY_DUPLICATE_P = 0.02


def gray_leader_egress(
    names: Sequence[str],
    *,
    start_ms: float = 5_000.0,
    hold_ms: float = 8_000.0,
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
    steps = [SetDuplicate(at_ms=start_ms - 1_000.0, duplicate_p=GRAY_DUPLICATE_P)]
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
                loss=GRAY_LOSS,
                one_way_ms=GRAY_EXTRA_DELAY_MS,
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


CLOCK_MAX_OFFSET_MS = 200.0
CLOCK_MAX_DRIFT = 0.02


def drifting_clocks(
    names: Sequence[str],
    *,
    start_ms: float = 4_000.0,
    hold_ms: float = 15_000.0,
) -> Scenario:
    """Step and drift every node's clock, then snap all clocks back to true.

    Offsets alternate sign and ramp up to ``CLOCK_MAX_OFFSET_MS``; drifts do
    the same up to ``CLOCK_MAX_DRIFT`` — nodes disagree on both *when* and *how
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
                offset_ms=sign * CLOCK_MAX_OFFSET_MS * scale,
                drift=sign * CLOCK_MAX_DRIFT * scale,
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
