"""Elastic-cluster experiment: membership churn under fault pressure.

The reconfiguration subsystem's end-to-end gate.  Each run drives one
membership *family* — grow 3→7, shrink 7→3, or rolling-replace-all —
through a live cluster carrying closed-loop client load while the
environment pushes back: a leader container-sleep (measured as a §IV-A
failure episode), a global RTT spike, and a leader-isolating partition
all land inside the membership window.  Per run the experiment reports:

* **availability** — client op completion ratio and the total leaderless
  time over the run (the OTS shading of Fig. 6, summed);
* **detection time** — leader failure → first follower election timeout
  for the induced leader pause, via the same measurement layer the
  election figures use;
* **config-change latency** — ``config_append`` → first ``config_commit``
  per log index, mean and max across every committed change.

Acceptance gates (:func:`check`): zero safety violations (the event-hooked
:class:`~repro.scenarios.safety.SafetyChecker` runs throughout, including
its membership invariants), zero abandoned membership proposals, every
change committed, every joiner caught up through a snapshot **before**
being promoted to voter (asserted via ``snapshots_installed`` metrics),
every removed node decommissioned, and the final committed voter set
exactly the family's target.

Run, digest and CLI come from :mod:`repro.experiments.grid` (``GRID``
below): ``python -m repro.experiments.elastic [--smoke] [--digest]``.
"""

from __future__ import annotations

import dataclasses
import sys
from typing import Sequence

from repro.cluster.builder import ClusterConfig
from repro.cluster.measurements import (
    extract_failure_episodes,
    leaderless_intervals,
    total_interval_length,
)
from repro.experiments import grid
from repro.fuzz.oracle import CheckedRun, RunVerdict
from repro.raft.types import RaftConfig
from repro.scenarios.library import elastic_grow, elastic_replace_all, elastic_shrink
from repro.scenarios.scenario import Scenario
from repro.scenarios.steps import Heal, Partition, Pause, SetRtt
from repro.sim.process import ProcessState

__all__ = ["FAMILIES", "ElasticConfig", "ElasticRunResult", "run_one", "check", "GRID"]

#: The three membership families the grid covers.
FAMILIES: tuple[str, ...] = ("grow", "shrink", "replace")

#: First membership event.
START_MS = 5_000.0
#: Small threshold so every joiner's catch-up *must* go through the
#: snapshot path (the leader has compacted far past an empty log by the
#: first join).
COMPACTION = RaftConfig(compaction_threshold=60, compaction_retain_margin=8)
#: Fault pressure inside the membership window.
LEADER_PAUSE_MS = 1_200.0
RTT_SPIKE_FACTOR = 4.0
PARTITION_HEAL_MS = 1_500.0


@dataclasses.dataclass(slots=True, frozen=True)
class ElasticConfig:
    """One elastic run (the grid's cells derive variants)."""

    system: str = "raft"
    #: One of :data:`FAMILIES`.
    family: str = "grow"
    #: Cluster size at boot.
    n_start: int = 3
    #: Membership events: joiners for ``grow``, removals for ``shrink``,
    #: members replaced for ``replace`` (= all of them for the default
    #: rolling-replace-all).
    changes: int = 4
    seed: int = 77
    #: Spacing between membership events.
    gap_ms: float = 8_000.0
    #: Tail after the last membership event for retries, the final commit
    #: and decommissioning to land.
    settle_ms: float = 10_000.0

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}, got {self.family!r}")
        if self.changes < 1:
            raise ValueError(f"changes must be >= 1, got {self.changes!r}")
        if self.family == "shrink" and self.n_start - self.changes < 1:
            raise ValueError("shrink cannot remove the whole cluster")
        if self.family == "replace" and self.changes > self.n_start:
            raise ValueError("cannot replace more members than the cluster has")

    @property
    def window_ms(self) -> float:
        """Length of the membership window (first event → one gap past the
        last)."""
        return self.changes * self.gap_ms

    @property
    def horizon_ms(self) -> float:
        return START_MS + self.window_ms + self.settle_ms

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(f"n{i}" for i in range(1, self.n_start + 1))

    @property
    def spawned(self) -> tuple[str, ...]:
        """Names the scenario will spawn (grow joiners / replacements) —
        matches the library builders' fresh-name derivation."""
        if self.family == "shrink":
            return ()
        return tuple(
            f"n{i}"
            for i in range(self.n_start + 1, self.n_start + 1 + self.changes)
        )

    @property
    def expected_final_voters(self) -> tuple[str, ...]:
        if self.family == "grow":
            return self.names + self.spawned
        if self.family == "shrink":
            return self.names[: self.n_start - self.changes]
        # replace: the first ``changes`` originals rotate out.
        return self.names[self.changes :] + self.spawned

    @property
    def expected_removed(self) -> tuple[str, ...]:
        if self.family == "grow":
            return ()
        if self.family == "shrink":
            return self.names[self.n_start - self.changes :]
        return self.names[: self.changes]

    @property
    def expected_config_commits(self) -> int:
        """Distinct committed config entries: a joiner costs add_learner +
        promote, a removal costs one entry."""
        per = {"grow": 2, "shrink": 1, "replace": 3}[self.family]
        return per * self.changes


@dataclasses.dataclass(slots=True, frozen=True, kw_only=True)
class ElasticRunResult(RunVerdict):
    """One run reduced to its headline numbers and gate inputs (picklable)."""

    system: str
    family: str
    n_start: int
    changes: int
    horizon_ms: float
    first_leader_ms: float | None
    leaderless_ms: float
    #: Detection latency of the induced leader pause (None if no episode).
    detection_ms: float | None
    #: Reconfiguration throughput and latency.
    config_commits: int
    config_commits_expected: int
    giveups: int
    mean_config_latency_ms: float
    max_config_latency_ms: float
    #: Joiner catch-up evidence, aligned with ``joiners``.
    joiners: tuple[str, ...]
    joiner_snapshot_installs: tuple[int, ...]
    #: Final cluster shape.
    final_voters: tuple[str, ...]
    expected_final_voters: tuple[str, ...]
    live_members: tuple[str, ...]
    removed_all_stopped: bool


def _membership_scenario(cfg: ElasticConfig) -> Scenario:
    names = list(cfg.names)
    if cfg.family == "grow":
        base = elastic_grow(
            names, start_ms=START_MS, gap_ms=cfg.gap_ms, joiners=cfg.changes
        )
    elif cfg.family == "shrink":
        base = elastic_shrink(
            names, start_ms=START_MS, gap_ms=cfg.gap_ms, removals=cfg.changes
        )
    else:
        base = elastic_replace_all(names, start_ms=START_MS, gap_ms=cfg.gap_ms)
    start, window = START_MS, cfg.window_ms
    pressure = [
        # Leader failure inside the first membership gap — measured as a
        # failure episode (detection time) by the §IV-A layer.
        Pause(
            at_ms=start + 0.10 * window,
            node="@leader",
            duration_ms=LEADER_PAUSE_MS,
            trace_kind="fault_leader_pause",
        ),
        # Global RTT spike while a change is typically in flight.
        SetRtt(at_ms=start + 0.35 * window, rtt_ms=grid.RTT_MS * RTT_SPIKE_FACTOR),
        SetRtt(at_ms=start + 0.50 * window, rtt_ms=grid.RTT_MS),
        # Isolate whoever leads late in the window; the retry machinery
        # must chase the replacement leader.
        Partition(at_ms=start + 0.60 * window, groups=(("@leader",),)),
        Heal(at_ms=start + 0.60 * window + PARTITION_HEAL_MS),
    ]
    return Scenario(
        f"elastic-{cfg.family}",
        [*base.steps, *pressure],
        description=(
            f"{cfg.family} {cfg.n_start}->{len(cfg.expected_final_voters)} "
            f"under leader-pause / RTT-spike / partition pressure"
        ),
    )


def _config_latencies(trace) -> list[float]:
    """``config_append`` → first ``config_commit`` per log index."""
    appended: dict[int, float] = {}
    for rec in trace.of_kind("config_append"):
        appended.setdefault(rec.get("index"), rec.time)
    committed: dict[int, float] = {}
    for rec in trace.of_kind("config_commit"):
        committed.setdefault(rec.get("index"), rec.time)
    return [
        committed[i] - appended[i] for i in sorted(committed) if i in appended
    ]


def run_one(cfg: ElasticConfig) -> ElasticRunResult:
    """Run one elastic variant end to end (module-level: run_tasks worker)."""
    run = CheckedRun(
        ClusterConfig(n_nodes=cfg.n_start, seed=cfg.seed, rtt_ms=grid.RTT_MS, raft=COMPACTION),
        cfg.system,
    )
    cluster = run.cluster
    _membership_scenario(cfg).install(cluster)
    horizon = cfg.horizon_ms
    run.drive(grid.SUSTAINED_LOAD, horizon)
    cluster.start()
    verdict = run.finish()
    trace = cluster.trace

    leaders = trace.of_kind("become_leader")
    episodes = extract_failure_episodes(trace)
    detections = [
        e.detection_latency_ms for e in episodes if e.detection_latency_ms is not None
    ]
    latencies = _config_latencies(trace)
    commits = {r.get("index") for r in trace.of_kind("config_commit")}

    final_voters: tuple[str, ...] = ()
    if commits:
        last = max(
            trace.of_kind("config_commit"), key=lambda r: r.get("index")
        )
        final_voters = tuple(sorted(last.get("voters", ())))
    joiners = cfg.spawned
    installs = tuple(
        cluster.nodes[j].metrics.snapshots_installed if j in cluster.nodes else 0
        for j in joiners
    )
    removed_all_stopped = all(
        name in cluster.nodes
        and cluster.nodes[name].state is ProcessState.STOPPED
        for name in cfg.expected_removed
    )
    return ElasticRunResult(
        system=cfg.system,
        family=cfg.family,
        n_start=cfg.n_start,
        changes=cfg.changes,
        horizon_ms=horizon,
        first_leader_ms=leaders[0].time if leaders else None,
        leaderless_ms=total_interval_length(
            leaderless_intervals(trace, t_end=horizon)
        ),
        detection_ms=sum(detections) / len(detections) if detections else None,
        config_commits=len(commits),
        config_commits_expected=cfg.expected_config_commits,
        giveups=len(trace.of_kind("membership_giveup")),
        mean_config_latency_ms=(
            sum(latencies) / len(latencies) if latencies else 0.0
        ),
        max_config_latency_ms=max(latencies) if latencies else 0.0,
        joiners=joiners,
        joiner_snapshot_installs=installs,
        final_voters=final_voters,
        expected_final_voters=tuple(sorted(cfg.expected_final_voters)),
        live_members=tuple(sorted(cluster.members())),
        removed_all_stopped=removed_all_stopped,
        **dataclasses.asdict(verdict),
    )


def _cells(base: ElasticConfig, systems: tuple[str, ...]) -> list[ElasticConfig]:
    """Per system: grow 3→3+C, shrink (3+C)→3, rolling-replace-all of a
    C-node cluster (C = ``base.changes``)."""
    tasks: list[ElasticConfig] = []
    for system in systems:
        tasks.append(dataclasses.replace(base, system=system, family="grow"))
        tasks.append(
            dataclasses.replace(
                base,
                system=system,
                family="shrink",
                n_start=base.n_start + base.changes,
            )
        )
        tasks.append(
            dataclasses.replace(
                base,
                system=system,
                family="replace",
                n_start=max(base.n_start, base.changes),
                changes=max(base.n_start, base.changes),
            )
        )
    return tasks


#: Client availability floor: membership churn plus the pressure faults may
#: cost ops, but anything below this means the cluster effectively stalled.
MIN_AVAILABILITY = 0.5


def check(runs: Sequence[ElasticRunResult]) -> list[str]:
    """The elastic acceptance gates; empty list means all held."""
    problems: list[str] = []
    for r in runs:
        tag = f"{r.system}/{r.family}"
        problems += r.gates(tag, MIN_AVAILABILITY)
        if r.giveups:
            problems.append(f"{tag}: {r.giveups} membership proposal(s) abandoned")
        if r.config_commits != r.config_commits_expected:
            problems.append(
                f"{tag}: {r.config_commits} config entries committed, "
                f"expected {r.config_commits_expected}"
            )
        if r.final_voters != r.expected_final_voters:
            problems.append(
                f"{tag}: final voters {list(r.final_voters)} != expected "
                f"{list(r.expected_final_voters)}"
            )
        for joiner, installs in zip(r.joiners, r.joiner_snapshot_installs):
            if installs < 1:
                problems.append(
                    f"{tag}: joiner {joiner} was promoted without a snapshot "
                    f"catch-up (snapshots_installed={installs})"
                )
            if joiner not in r.final_voters:
                problems.append(f"{tag}: joiner {joiner} never became a voter")
        if not r.removed_all_stopped:
            problems.append(f"{tag}: a removed node was never decommissioned")
    return problems


def _row(r: ElasticRunResult) -> tuple[str, ...]:
    return (
        f"{r.system}/{r.family}",
        f"{r.availability:.2f}",
        f"{r.leaderless_ms:.0f}ms",
        f"{r.detection_ms:.0f}ms" if r.detection_ms is not None else "-",
        f"{r.config_commits}/{r.config_commits_expected}",
        f"{r.mean_config_latency_ms:.0f}ms",
        f"{r.max_config_latency_ms:.0f}ms",
        str(len(r.final_voters)),
    )


GRID = grid.Grid(
    name="elastic",
    full=ElasticConfig(),
    # CI budget: grow 3->5, shrink 5->3, replace-all of 3 with short gaps.
    smoke=ElasticConfig(changes=2, gap_ms=5_000.0, settle_ms=8_000.0),
    cells=_cells,
    run_one=run_one,
    check=check,
    title=lambda c: f"{c.changes} changes/run, gap {c.gap_ms / 1000.0:g}s",
    columns=("run", "avail", "ots", "detect", "commits", "cfg lat", "max lat", "voters"),
    row=_row,
    held=(
        "safety clean, every change committed, joiners snapshot-caught-up, "
        "removals decommissioned"
    ),
)

if __name__ == "__main__":  # pragma: no cover
    sys.exit(grid.main(GRID))
