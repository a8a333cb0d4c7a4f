"""Long-horizon soak: bounded memory and history-independent catch-up.

The compaction subsystem's two promises, measured end to end on a live
cluster under sustained client load with periodic leader churn:

* **bounded memory** — with compaction enabled, the peak *retained* log
  entry count (``last_index − last_included_index``, sampled cluster-wide
  on a fixed cadence) stays below ``compaction_threshold +
  compaction_retain_margin + RETAINED_SLACK`` no matter how long the run
  is.  Without compaction it grows linearly with the op count — the exact
  O(total-ops) behaviour that blocked long-horizon runs.

* **flat catch-up** — a follower that crashed early and returns after the
  cluster committed N more ops catches up via one InstallSnapshot plus
  the retained tail: the number of entries it replays (and the virtual
  catch-up time) is independent of N.  The control runs the same timeline
  with compaction off, where the follower replays the entire history —
  the soak reports the replay ratio, which must be ≥ 10× at the default
  durations.

Every run also carries an event-hooked
:class:`~repro.scenarios.safety.SafetyChecker`, so the soak doubles as a
long-window safety gate for the compaction path (election safety, monotone
commit, no-committed-entry-loss with the frontier rules).

Run, digest and CLI come from :mod:`repro.experiments.grid` (``GRID``
below): ``python -m repro.experiments.soak [--smoke] [--digest]`` runs the
5/10-minute windows.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
from typing import Sequence

from repro.cluster.builder import Cluster, ClusterConfig
from repro.experiments import grid
from repro.fuzz.oracle import CheckedRun
from repro.raft.types import RaftConfig
from repro.scenarios.scenario import Scenario
from repro.scenarios.steps import Pause, Repeat

__all__ = ["RETAINED_SLACK", "SoakConfig", "SoakRunResult", "run_one", "check", "GRID"]

#: Transient headroom above ``threshold + margin`` the memory bound grants:
#: an apply batch can overshoot the trigger by up to one replication batch
#: (64 entries) before ``_maybe_compact`` runs, and a
#: leaderless churn window buffers a handful of uncommitted client entries.
RETAINED_SLACK = 128

#: A denser load than the other grids carry: the soak is about log volume.
LOAD = dataclasses.replace(
    grid.SUSTAINED_LOAD, n_clients=4, n_keys=8, think_min_ms=5.0, think_max_ms=40.0
)
#: Each periodic leader churn is a container sleep this long.
CHURN_DOWN_MS = 1_500.0
#: Tail after the catch-up window before the final safety verdict.
SETTLE_MS = 2_000.0
#: Cadence of the retained-entries sampler.
SAMPLE_INTERVAL_MS = 250.0


@dataclasses.dataclass(slots=True, frozen=True)
class SoakConfig:
    """One soak run (the grid's cells derive variants from this)."""

    system: str = "raft"
    seed: int = 42
    #: Load window before the lagging follower returns; the grid also
    #: runs a 2x window per system to probe catch-up flatness.
    duration_ms: float = 300_000.0
    #: Compaction knobs; ``compaction_threshold=0`` is the full-replay control.
    compaction_threshold: int = 800
    compaction_margin: int = 32
    #: Periodic leader churn (container sleep on whoever currently leads).
    churn_every_ms: float = 12_000.0
    #: The deliberately lagging follower: crashed here, recovered at
    #: ``duration_ms``, then timed until it reaches the commit frontier.
    lag_start_ms: float = 5_000.0
    catchup_timeout_ms: float = 30_000.0

    def __post_init__(self) -> None:
        if self.duration_ms <= self.lag_start_ms:
            raise ValueError("duration_ms must exceed lag_start_ms")
        if self.compaction_threshold < 0 or self.compaction_margin < 0:
            raise ValueError("compaction knobs must be >= 0")

    @property
    def memory_bound(self) -> int:
        """Peak retained entries a compaction-enabled run must stay under."""
        return self.compaction_threshold + self.compaction_margin + RETAINED_SLACK


@dataclasses.dataclass(slots=True, frozen=True)
class SoakRunResult:
    """One run reduced to the soak's headline numbers (picklable)."""

    system: str
    compaction: bool
    duration_ms: float
    #: Client throughput over the load window.
    ops_completed: int
    sustained_ops_per_s: float
    #: Memory trajectory (entry counts; cluster-wide maxima).
    peak_retained: int
    final_retained: int
    compactions: int
    snapshots_taken: int
    memory_bound: int
    #: Catch-up of the lagging follower.
    lagger: str
    committed_at_recover: int
    lagger_match_at_recover: int
    catchup_ms: float
    caught_up: bool
    replayed_entries: int
    snapshot_installs: int
    #: Safety verdict over the whole run.
    violations: tuple[str, ...]


def _churn_scenario(cfg: SoakConfig) -> Scenario | None:
    horizon = cfg.duration_ms + cfg.catchup_timeout_ms
    every = cfg.churn_every_ms
    times = int((horizon - CHURN_DOWN_MS - 2_000.0) // every)
    if times < 1:
        return None
    repeat = Repeat(every_ms=every, times=times) if times > 1 else None
    return Scenario(
        "soak-churn",
        [
            Pause(
                at_ms=every,
                node="@leader",
                duration_ms=CHURN_DOWN_MS,
                repeat=repeat,
            )
        ],
        description="periodic container-sleep of the current leader",
    )


def _retained(cluster: Cluster) -> int:
    """Cluster-wide maximum of retained log entries, right now."""
    return max(
        n.log.last_index - n.log.last_included_index for n in cluster.nodes.values()
    )


def run_one(cfg: SoakConfig) -> SoakRunResult:
    """Run one soak variant end to end (module-level: run_tasks worker)."""
    compaction = cfg.compaction_threshold > 0
    run = CheckedRun(
        ClusterConfig(
            seed=cfg.seed,
            rtt_ms=grid.RTT_MS,
            raft=RaftConfig(
                compaction_threshold=cfg.compaction_threshold,
                compaction_retain_margin=cfg.compaction_margin,
            ),
        ),
        cfg.system,
    )
    cluster, history = run.cluster, run.history
    scenario = _churn_scenario(cfg)
    if scenario is not None:
        scenario.install(cluster)
    # Clients keep issuing through the whole catch-up window: the lagger
    # chases a moving frontier.
    load_end = cfg.duration_ms + cfg.catchup_timeout_ms
    run.drive(LOAD, load_end + SETTLE_MS, stop_ms=load_end)
    retained: list[int] = []
    cluster.loop.every(SAMPLE_INTERVAL_MS, lambda: retained.append(_retained(cluster)))

    cluster.start()
    leader = cluster.run_until_leader()
    cluster.run_until(cfg.lag_start_ms)

    # Crash the deliberately lagging follower (first non-leader by name).
    current = cluster.leader() or leader
    lagger = next(n for n in cluster.names if n != current)
    cluster.node(lagger).crash()

    cluster.run_until(cfg.duration_ms)

    # Recover and time the catch-up to the commit frontier of this instant.
    target = max(
        n.commit_index for n in cluster.nodes.values() if n.name != lagger
    )
    follower = cluster.node(lagger)
    match_at_recover = max(
        (
            n.progress[lagger].match
            for n in cluster.nodes.values()
            if n.is_leader and lagger in n.progress
        ),
        default=0,
    )
    # Throughput over the load window proper: ops completed up to the
    # recovery instant, over the time it took — the catch-up and settle
    # tails would otherwise dilute the denominator by a duration-dependent
    # amount and make the D vs 2D rows incomparable.
    ops_at_recover = sum(1 for o in history.ops() if o.completed)
    applied_before = follower.metrics.entries_applied
    installs_before = follower.metrics.snapshots_installed
    recover_at = cluster.loop.now
    follower.recover()
    deadline = recover_at + cfg.catchup_timeout_ms
    caught_up = False
    while cluster.loop.now < deadline:
        if follower.last_applied >= target:
            caught_up = True
            break
        cluster.run_for(25.0)
    catchup_ms = cluster.loop.now - recover_at
    replayed = follower.metrics.entries_applied - applied_before
    installs = follower.metrics.snapshots_installed - installs_before

    cluster.run_for(SETTLE_MS)
    violations = tuple(run.checker.verify())

    return SoakRunResult(
        system=cfg.system,
        compaction=compaction,
        duration_ms=cfg.duration_ms,
        ops_completed=ops_at_recover,
        sustained_ops_per_s=ops_at_recover / (recover_at / 1_000.0),
        peak_retained=max(retained, default=0),
        final_retained=_retained(cluster),
        compactions=sum(n.metrics.compactions for n in cluster.nodes.values()),
        snapshots_taken=sum(n.metrics.snapshots_taken for n in cluster.nodes.values()),
        memory_bound=cfg.memory_bound,
        lagger=lagger,
        committed_at_recover=target,
        lagger_match_at_recover=match_at_recover,
        catchup_ms=catchup_ms,
        caught_up=caught_up,
        replayed_entries=replayed,
        snapshot_installs=installs,
        violations=violations,
    )


def _cells(base: SoakConfig, systems: tuple[str, ...]) -> list[SoakConfig]:
    """The soak grid: per system, compaction at D and 2D plus the
    full-replay control at D."""
    tasks: list[SoakConfig] = []
    for system in systems:
        cfg = dataclasses.replace(base, system=system)
        tasks.append(cfg)  # compaction on, duration D
        tasks.append(
            dataclasses.replace(cfg, duration_ms=2.0 * base.duration_ms)
        )  # compaction on, duration 2D — the flatness probe
        tasks.append(
            dataclasses.replace(cfg, compaction_threshold=0)
        )  # full-replay control at D
    return tasks


#: Required replay advantage of snapshot catch-up over full replay.
MIN_REPLAY_RATIO = 10.0

#: Headroom the catch-up *time* flatness gate grants the longer run: the
#: recovery instant can land inside a churn window, adding one leaderless
#: interval (churn down time + detection + re-election) that has nothing
#: to do with history length.  The replayed-entry gate is the strict
#: history-independence check; the time gate only has to catch O(N) decay.
CATCHUP_TIME_SLACK_MS = 6_000.0


def check(
    runs: Sequence[SoakRunResult], *, min_replay_ratio: float = MIN_REPLAY_RATIO
) -> list[str]:
    """The soak's acceptance gates; empty list means all held."""
    problems: list[str] = []
    for r in runs:
        tag = f"{r.system}/{'compact' if r.compaction else 'replay'}@{r.duration_ms:g}ms"
        if r.violations:
            problems.append(f"{tag}: safety violations: {r.violations[:3]}")
        if not r.caught_up:
            problems.append(
                f"{tag}: lagger failed to catch up within the window "
                f"(replayed {r.replayed_entries}/{r.committed_at_recover})"
            )
        if r.compaction:
            if r.compactions < 1:
                problems.append(f"{tag}: compaction never triggered")
            if r.peak_retained > r.memory_bound:
                problems.append(
                    f"{tag}: peak retained {r.peak_retained} exceeds the "
                    f"bound {r.memory_bound}"
                )
            if r.snapshot_installs < 1:
                problems.append(f"{tag}: lagger caught up without a snapshot")

    systems = sorted({r.system for r in runs})
    durations = sorted({r.duration_ms for r in runs if r.compaction})
    if not durations:
        # A base threshold of 0 turns every grid cell into a control run:
        # there is nothing to gate, which is itself a gate failure.
        problems.append("no compaction-enabled runs in the soak grid")
        return problems
    for system in systems:
        short = grid.find(
            runs, system=system, compaction=True, duration_ms=durations[0]
        )
        try:
            control = grid.find(
                runs, system=system, compaction=False, duration_ms=durations[0]
            )
        except KeyError:
            control = None
        if control is not None and control.caught_up:
            # max(1, ·): replaying *zero* entries (the snapshot covered
            # everything) is the best case, not a division hazard.
            ratio = control.replayed_entries / max(1, short.replayed_entries)
            if ratio < min_replay_ratio:
                problems.append(
                    f"{system}: snapshot catch-up replayed only {ratio:.1f}x "
                    f"fewer entries than full replay (need >= {min_replay_ratio:g}x)"
                )
        if len(durations) > 1:
            long = grid.find(
                runs, system=system, compaction=True, duration_ms=durations[-1]
            )
            # Flatness: doubling the history must not scale the catch-up.
            if long.replayed_entries > 2 * short.replayed_entries + 100:
                problems.append(
                    f"{system}: catch-up replay grew with history "
                    f"({short.replayed_entries} -> {long.replayed_entries})"
                )
            if long.catchup_ms > 2.0 * short.catchup_ms + CATCHUP_TIME_SLACK_MS:
                problems.append(
                    f"{system}: catch-up time grew with history "
                    f"({short.catchup_ms:.0f} -> {long.catchup_ms:.0f} ms)"
                )
    return problems


def _row(r: SoakRunResult) -> tuple[str, ...]:
    return (
        f"{r.system}/{'compact' if r.compaction else 'replay'}@{r.duration_ms / 1000.0:g}s",
        f"{r.sustained_ops_per_s:.1f}",
        str(r.peak_retained),
        str(r.memory_bound) if r.compaction else "-",
        str(r.compactions),
        f"{r.catchup_ms:.0f}ms",
        str(r.replayed_entries),
        str(r.committed_at_recover),
        str(r.snapshot_installs),
    )


def _summary(runs: Sequence[SoakRunResult]) -> list[str]:
    """The headline per system: each full-replay control against its
    compaction twin."""
    return [
        f"{control.system}: snapshot catch-up replays "
        f"{control.replayed_entries / max(1, twin.replayed_entries):.1f}x fewer "
        f"entries than full replay ({twin.replayed_entries} vs "
        f"{control.replayed_entries})"
        for control in runs
        if not control.compaction
        for twin in runs
        if twin.compaction
        and (twin.system, twin.duration_ms) == (control.system, control.duration_ms)
    ]


GRID = grid.Grid(
    name="soak",
    full=SoakConfig(),
    # CI budget: short windows, a small threshold; the short history caps
    # the achievable replay ratio, hence the lower gate.
    smoke=SoakConfig(
        duration_ms=15_000.0,
        compaction_threshold=250,
        churn_every_ms=6_000.0,
        lag_start_ms=3_000.0,
    ),
    smoke_check=functools.partial(check, min_replay_ratio=4.0),
    cells=_cells,
    run_one=run_one,
    check=check,
    title=lambda c: (
        f"{c.duration_ms / 1000.0:g}s/{2 * c.duration_ms / 1000.0:g}s windows, "
        f"threshold {c.compaction_threshold}, margin {c.compaction_margin}"
    ),
    columns=(
        "run", "ops/s", "peak ret", "bound", "compact", "catchup", "replayed",
        "history", "snap",
    ),
    row=_row,
    summary=_summary,
    held="bounded memory, flat catch-up, safety clean",
)

if __name__ == "__main__":  # pragma: no cover
    sys.exit(grid.main(GRID))
