"""Gray-failure experiment: partial faults, skewed clocks, a liveness gate.

The gray-failure counterpart of :mod:`repro.experiments.durability`: every
fault here leaves the cluster *technically* connected — the regime where
nothing crashes, no partition exists, and yet a naive Raft quietly stops
serving.  Each run boots a cluster under closed-loop client load, plays
one fault arm, and is judged by both oracles — the
:class:`~repro.scenarios.safety.SafetyChecker` (nothing bad) and the
:class:`~repro.scenarios.liveness.LivenessChecker` (the possible good
actually happens):

* ``control`` — no fault; both oracles must stay silent (the
  false-positive gate for the liveness checker).
* ``gray_egress`` — the leader's outbound paths degraded to heavy loss
  and delay while every return path stays clean
  (:func:`~repro.scenarios.library.gray_leader_egress`).  With
  ``check_quorum`` the leader notices its silence radius, steps down, and
  a cleanly-connected peer takes over within the outage bound.
* ``one_way`` — one node's *ingress* blocked: it campaigns out but never
  hears back (:func:`~repro.scenarios.library.one_way_isolation`).
  Without prevote each of its ever-growing terms deposes the live leader
  — the classic election livelock, which the liveness oracle must flag;
  with prevote the disruption is contained.
* ``skew_drift`` — per-node clock steps and drift
  (:func:`~repro.scenarios.library.drifting_clocks`).  Raft's safety
  never depends on synchronized clocks, so both oracles must stay silent
  with or without mitigations.

Each arm runs with mitigations (prevote + check_quorum) on and off, for
both the static-Raft and Dynatune systems.  Gates (:func:`check`): zero
safety violations everywhere; zero liveness flags in every *mitigated*
arm — faults included — which doubles as the oracle's false-positive
gate; bounded post-fault leader outage in mitigated fault arms; and the
unmitigated static-Raft ``one_way`` arm must actually reproduce the
livelock — the liveness oracle flags it and the cluster term inflates
well past its mitigated twin.  (Unmitigated Dynatune arms carry no
liveness gate: the adaptive timeout both partially self-dampens the
one-way disruptor and, fault-free, can churn on its own — each a
finding the report surfaces rather than a pass/fail.)

Run, digest and CLI come from :mod:`repro.experiments.grid` (``GRID``
below): ``python -m repro.experiments.grayfail [--smoke] [--digest]
[--arm A]``.
"""

from __future__ import annotations

import dataclasses
import sys
from typing import Sequence

from repro.cluster.builder import ClusterConfig
from repro.experiments import grid
from repro.fuzz.oracle import CheckedRun, RunVerdict
from repro.raft.types import RaftConfig
from repro.scenarios.library import build_scenario
from repro.scenarios.liveness import LivenessChecker

__all__ = ["ARMS", "GrayfailConfig", "GrayfailRunResult", "run_one", "check", "GRID"]

#: The four fault arms the grid covers.
ARMS: tuple[str, ...] = ("control", "gray_egress", "one_way", "skew_drift")

#: Arm → library scenario it installs (the control installs none).
_ARM_SCENARIOS: dict[str, str] = {
    "gray_egress": "gray_leader_egress",
    "one_way": "one_way_isolation",
    "skew_drift": "drifting_clocks",
}

#: The fault window opens here.
FAULT_START_MS = 5_000.0
#: Liveness-oracle bounds besides the per-config total-leaderless one:
#: tight enough to catch the unmitigated livelock inside the fault
#: window, loose enough that startup elections and mitigated recoveries
#: never flag.
LEADERLESS_BOUND_MS = 4_000.0
TERM_CHURN_BOUND = 12
COMMIT_STALL_BOUND_MS = 6_000.0


@dataclasses.dataclass(slots=True, frozen=True)
class GrayfailConfig:
    """One gray-failure run (the grid's cells derive variants)."""

    system: str = "raft"
    #: One of :data:`ARMS`.
    arm: str = "control"
    #: Prevote + check_quorum on (the gray-failure mitigations).
    mitigated: bool = True
    n_nodes: int = 5
    seed: int = 211
    #: The fault opens at :data:`FAULT_START_MS`, plays for ``hold_ms``,
    #: then ``settle_ms`` of tail for recovery to land.
    hold_ms: float = 20_000.0
    settle_ms: float = 8_000.0
    #: Liveness-oracle bound on total leaderless time (scales with the
    #: window, unlike the fixed bounds above).
    leaderless_total_bound_ms: float = 6_000.0

    def __post_init__(self) -> None:
        if self.arm not in ARMS:
            raise ValueError(f"arm must be one of {ARMS}, got {self.arm!r}")
        if self.n_nodes < 3:
            raise ValueError(f"n_nodes must be >= 3, got {self.n_nodes!r}")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(f"n{i}" for i in range(1, self.n_nodes + 1))

    @property
    def horizon_ms(self) -> float:
        return FAULT_START_MS + self.hold_ms + self.settle_ms


@dataclasses.dataclass(slots=True, frozen=True, kw_only=True)
class GrayfailRunResult(RunVerdict):
    """One run reduced to its headline numbers and gate inputs (picklable)."""

    system: str
    arm: str
    mitigated: bool
    n_nodes: int
    horizon_ms: float
    #: Election churn evidence.
    leader_changes: int
    max_term: int
    #: Post-``fault_start_ms`` leader outage (100 ms sampling).
    max_leaderless_ms: float
    total_leaderless_ms: float
    #: Cluster-wide commit watermark at horizon.
    commit_index: int
    #: Liveness verdict: violation strings plus a kind histogram.
    liveness: tuple[str, ...]
    liveness_kinds: tuple[str, ...]


#: Cadence of the leader-presence samples behind the outage numbers.
OUTAGE_SAMPLE_MS = 100.0


def _outages(leaderless: list[tuple[float, bool]]) -> tuple[float, float]:
    """``(longest, total)`` leader outage over ``(time, no leader?)``
    samples: a gap still open at a sample counts one interval past it
    toward the longest; only closed gaps count toward the total."""
    longest = total = 0.0
    gap_start: float | None = None
    for now, no_leader in leaderless:
        if no_leader:
            if gap_start is None:
                gap_start = now
            longest = max(longest, now - gap_start + OUTAGE_SAMPLE_MS)
        elif gap_start is not None:
            total += now - gap_start
            gap_start = None
    return longest, total


def run_one(cfg: GrayfailConfig) -> GrayfailRunResult:
    """Run one gray-failure variant end to end (run_tasks worker)."""
    run = CheckedRun(
        ClusterConfig(
            n_nodes=cfg.n_nodes,
            seed=cfg.seed,
            rtt_ms=grid.RTT_MS,
            raft=RaftConfig(prevote=cfg.mitigated, check_quorum=cfg.mitigated),
        ),
        cfg.system,
    )
    cluster = run.cluster
    liveness = LivenessChecker(
        cluster,
        leaderless_bound_ms=LEADERLESS_BOUND_MS,
        leaderless_total_bound_ms=cfg.leaderless_total_bound_ms,
        term_churn_bound=TERM_CHURN_BOUND,
        commit_stall_bound_ms=COMMIT_STALL_BOUND_MS,
    )
    liveness.install()
    leaderless: list[tuple[float, bool]] = []
    cluster.loop.every(
        OUTAGE_SAMPLE_MS,
        lambda: leaderless.append((cluster.loop.now, cluster.leader() is None)),
    )
    horizon = cfg.horizon_ms
    run.drive(grid.SUSTAINED_LOAD, horizon)

    cluster.start()
    scenario_name = _ARM_SCENARIOS.get(cfg.arm)
    if scenario_name is not None:
        names: tuple[str, ...] = cfg.names
        if cfg.arm == "one_way":
            # The one-way victim must be a *follower* when the fault lands:
            # a deaf leader is a different (commit-stall) experiment, and
            # the livelock under test needs a disruptor campaigning against
            # a live leader.  Rotate the initial leader to the front so the
            # builder's victim (the last name) is someone else.
            leader = cluster.run_until_leader(timeout_ms=FAULT_START_MS)
            names = (leader, *(n for n in cfg.names if n != leader))
        build_scenario(
            scenario_name,
            names,
            start_ms=FAULT_START_MS,
            hold_ms=cfg.hold_ms,
        ).install(cluster)
    verdict = run.finish()
    liveness_problems = tuple(liveness.verify())
    max_leaderless_ms, total_leaderless_ms = _outages(
        [s for s in leaderless if s[0] >= FAULT_START_MS]
    )
    return GrayfailRunResult(
        system=cfg.system,
        arm=cfg.arm,
        mitigated=cfg.mitigated,
        n_nodes=cfg.n_nodes,
        horizon_ms=horizon,
        leader_changes=len(cluster.trace.of_kind("become_leader")),
        max_term=max(n.current_term for n in cluster.nodes.values()),
        max_leaderless_ms=max_leaderless_ms,
        total_leaderless_ms=total_leaderless_ms,
        commit_index=max(n.commit_index for n in cluster.nodes.values()),
        liveness=liveness_problems,
        liveness_kinds=tuple(sorted(v.kind for v in liveness.violations)),
        **dataclasses.asdict(verdict),
    )


def _cells(
    base: GrayfailConfig, systems: tuple[str, ...]
) -> list[GrayfailConfig]:
    return [
        dataclasses.replace(base, system=system, arm=arm, mitigated=mitigated)
        for system in systems
        for arm in ARMS
        for mitigated in (True, False)
    ]


def check(runs: Sequence[GrayfailRunResult]) -> list[str]:
    """The gray-failure acceptance gates; empty list means all held."""
    problems: list[str] = []
    by_key = {(r.system, r.arm, r.mitigated): r for r in runs}
    for r in runs:
        tag = f"{r.system}/{r.arm}/{'mitigated' if r.mitigated else 'raw'}"
        problems += r.gates(tag)
        if r.commit_index < 1:
            problems.append(f"{tag}: the cluster never committed anything")
        if r.mitigated and r.liveness:
            # The liveness oracle's false-positive gate: with mitigations
            # on, every arm — including the gray faults — must recover
            # inside the oracle's bounds.  (Unmitigated control/skew arms
            # carry no liveness gate: an untamed adaptive policy may
            # legitimately churn, and flagging that is a true positive.)
            problems.append(f"{tag}: liveness flagged: {r.liveness[:3]}")
        if r.mitigated and r.arm in ("gray_egress", "one_way"):
            if r.max_leaderless_ms > _OUTAGE_BOUND_MS:
                problems.append(
                    f"{tag}: leader outage {r.max_leaderless_ms:g} ms exceeds "
                    f"the mitigated bound {_OUTAGE_BOUND_MS:g} ms"
                )
        if not r.mitigated and r.arm == "one_way" and r.system == "raft":
            # The livelock demonstration, pinned to the static-timeout
            # system (Dynatune's adaptive timeout partially self-dampens
            # the disruptor — a finding, not a gate): the oracle must flag
            # it and the disruptor's campaigns must inflate the term.
            if not r.liveness:
                problems.append(
                    f"{tag}: unmitigated one-way isolation did not trip "
                    f"the liveness oracle"
                )
            twin = by_key.get((r.system, r.arm, True))
            if twin is not None and r.max_term - twin.max_term < _MIN_INFLATION:
                problems.append(
                    f"{tag}: term inflated by only "
                    f"{r.max_term - twin.max_term} over the mitigated twin "
                    f"(expected >= {_MIN_INFLATION})"
                )
    return problems


#: Gate thresholds used by :func:`check` (kept module-level so a config
#: object is not needed to evaluate a pickled result).
_OUTAGE_BOUND_MS = 5_000.0
_MIN_INFLATION = 5


def _row(r: GrayfailRunResult) -> tuple[str, ...]:
    return (
        f"{r.system}/{r.arm}/{'mit' if r.mitigated else 'raw'}",
        f"{r.availability:.2f}",
        str(r.leader_changes),
        str(r.max_term),
        f"{r.max_leaderless_ms / 1000.0:.1f}s",
        f"{r.total_leaderless_ms / 1000.0:.1f}s",
        str(r.commit_index),
        str(len(r.liveness)),
    )


GRID = grid.Grid(
    name="grayfail",
    full=GrayfailConfig(),
    # CI budget: 3 nodes, a shorter fault window.
    smoke=GrayfailConfig(
        n_nodes=3,
        hold_ms=12_000.0,
        settle_ms=6_000.0,
        leaderless_total_bound_ms=4_000.0,
    ),
    cells=_cells,
    run_one=run_one,
    check=check,
    axes={"arm": ARMS},
    title=lambda c: (
        f"{c.n_nodes} nodes, fault at {FAULT_START_MS / 1000.0:g}s for "
        f"{c.hold_ms / 1000.0:g}s"
    ),
    columns=("run", "avail", "elects", "term", "out_max", "out_tot", "commit", "liveness"),
    row=_row,
    held=(
        "safety clean, controls silent, mitigated arms recovered, the "
        "unmitigated one-way arm livelocked and was flagged"
    ),
)

if __name__ == "__main__":  # pragma: no cover
    sys.exit(grid.main(GRID))
