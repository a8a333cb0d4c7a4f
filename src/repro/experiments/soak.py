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

Runs fan out across ``REPRO_JOBS`` via :func:`~repro.experiments.runner.
run_tasks`; each is an independent simulation keyed by the config, so
results are byte-identical for any job count.

CLI::

    python -m repro.experiments.soak             # quick grid (~1 min)
    python -m repro.experiments.soak --smoke     # CI budget: one short pair
    REPRO_SCALE=paper python -m repro.experiments.soak
"""

from __future__ import annotations

import dataclasses
import sys

from repro.cluster.builder import ClusterConfig, build_cluster
from repro.experiments.common import get_scale, make_policy_factory
from repro.experiments.runner import run_tasks
from repro.fuzz.history import OpHistory
from repro.fuzz.workload import WorkloadConfig, WorkloadDriver
from repro.raft.types import RaftConfig
from repro.scenarios.safety import SafetyChecker
from repro.scenarios.scenario import Scenario
from repro.scenarios.steps import Pause, Repeat
from repro.sim.events import PRIORITY_CONTROL

__all__ = [
    "RETAINED_SLACK",
    "SoakConfig",
    "SoakRunResult",
    "SoakResult",
    "run_one",
    "run",
    "check",
    "main",
]

#: Transient headroom above ``threshold + margin`` the memory bound grants:
#: an apply batch can overshoot the trigger by up to one replication batch
#: (64 entries) before ``_maybe_compact`` runs, and a
#: leaderless churn window buffers a handful of uncommitted client entries.
RETAINED_SLACK = 128


@dataclasses.dataclass(slots=True, frozen=True)
class SoakConfig:
    """One soak run (the grid in :func:`run` derives variants from this)."""

    system: str = "raft"
    n_nodes: int = 5
    seed: int = 42
    rtt_ms: float = 50.0
    #: Load window before the lagging follower returns.
    duration_ms: float = 60_000.0
    #: Compaction knobs; ``compaction_threshold=0`` is the full-replay control.
    compaction_threshold: int = 800
    compaction_margin: int = 32
    #: Sustained closed-loop client load.
    n_clients: int = 4
    n_keys: int = 8
    think_min_ms: float = 5.0
    think_max_ms: float = 40.0
    op_timeout_ms: float = 1_500.0
    #: Periodic leader churn (container sleep on whoever currently leads).
    churn_every_ms: float = 12_000.0
    churn_down_ms: float = 1_500.0
    #: The deliberately lagging follower: crashed here, recovered at
    #: ``duration_ms``, then timed until it reaches the commit frontier.
    lag_start_ms: float = 5_000.0
    catchup_timeout_ms: float = 30_000.0
    settle_ms: float = 2_000.0
    sample_interval_ms: float = 250.0

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


@dataclasses.dataclass(slots=True, frozen=True)
class SoakResult:
    runs: tuple[SoakRunResult, ...]

    def find(self, system: str, *, compaction: bool, duration_ms: float) -> SoakRunResult:
        for r in self.runs:
            if (
                r.system == system
                and r.compaction is compaction
                and r.duration_ms == duration_ms
            ):
                return r
        raise KeyError(f"no soak run ({system}, compaction={compaction}, {duration_ms})")


def _churn_scenario(cfg: SoakConfig) -> Scenario | None:
    horizon = cfg.duration_ms + cfg.catchup_timeout_ms
    every = cfg.churn_every_ms
    times = int((horizon - cfg.churn_down_ms - 2_000.0) // every)
    if times < 1:
        return None
    repeat = Repeat(every_ms=every, times=times) if times > 1 else None
    return Scenario(
        "soak-churn",
        [
            Pause(
                at_ms=every,
                node="@leader",
                duration_ms=cfg.churn_down_ms,
                repeat=repeat,
            )
        ],
        description="periodic container-sleep of the current leader",
    )


class _RetainedSampler:
    """Samples the cluster-wide retained-entry maximum on a fixed cadence."""

    __slots__ = ("cluster", "interval_ms", "peak")

    def __init__(self, cluster, interval_ms: float) -> None:
        self.cluster = cluster
        self.interval_ms = interval_ms
        self.peak = 0

    def install(self) -> None:
        self.cluster.loop.schedule(
            self.interval_ms, self, priority=PRIORITY_CONTROL
        )

    def __call__(self) -> None:
        peak = self.peak
        for node in self.cluster.nodes.values():
            log = node.log
            retained = log.last_index - log.last_included_index
            if retained > peak:
                peak = retained
        self.peak = peak
        self.cluster.loop.schedule(
            self.interval_ms, self, priority=PRIORITY_CONTROL
        )


def run_one(cfg: SoakConfig) -> SoakRunResult:
    """Run one soak variant end to end (module-level: run_tasks worker)."""
    compaction = cfg.compaction_threshold > 0
    cluster = build_cluster(
        ClusterConfig(
            n_nodes=cfg.n_nodes,
            seed=cfg.seed,
            rtt_ms=cfg.rtt_ms,
            raft=RaftConfig(
                compaction_threshold=cfg.compaction_threshold,
                compaction_retain_margin=cfg.compaction_margin,
            ),
        ),
        make_policy_factory(cfg.system),
    )
    checker = SafetyChecker(cluster)
    checker.install(event_hooks=True)
    scenario = _churn_scenario(cfg)
    if scenario is not None:
        scenario.install(cluster)
    history = OpHistory()
    horizon = cfg.duration_ms + cfg.catchup_timeout_ms + cfg.settle_ms
    driver = WorkloadDriver(
        cluster,
        WorkloadConfig(
            n_clients=cfg.n_clients,
            n_keys=cfg.n_keys,
            op_timeout_ms=cfg.op_timeout_ms,
            think_min_ms=cfg.think_min_ms,
            think_max_ms=cfg.think_max_ms,
            start_ms=400.0,
            max_ops_per_client=1_000_000,
        ),
        history,
        stop_ms=cfg.duration_ms + cfg.catchup_timeout_ms,
    )
    driver.install()
    sampler = _RetainedSampler(cluster, cfg.sample_interval_ms)
    sampler.install()

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

    cluster.run_for(cfg.settle_ms)
    violations = tuple(checker.verify())

    final_retained = max(
        n.log.last_index - n.log.last_included_index for n in cluster.nodes.values()
    )
    return SoakRunResult(
        system=cfg.system,
        compaction=compaction,
        duration_ms=cfg.duration_ms,
        ops_completed=ops_at_recover,
        sustained_ops_per_s=ops_at_recover / (recover_at / 1_000.0),
        peak_retained=sampler.peak,
        final_retained=final_retained,
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


def _grid(base: SoakConfig, systems: tuple[str, ...]) -> list[SoakConfig]:
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


def run(
    config: SoakConfig | None = None,
    *,
    systems: tuple[str, ...] = ("raft", "dynatune"),
    jobs: int | None = None,
) -> SoakResult:
    """Run the soak grid (parallel across ``REPRO_JOBS``, bit-stable)."""
    base = config if config is not None else SoakConfig(
        duration_ms=get_scale().soak_duration_ms
    )
    results = run_tasks(run_one, _grid(base, systems), jobs=jobs)
    return SoakResult(runs=tuple(results))


#: Required replay advantage of snapshot catch-up over full replay.
MIN_REPLAY_RATIO = 10.0

#: Headroom the catch-up *time* flatness gate grants the longer run: the
#: recovery instant can land inside a churn window, adding one leaderless
#: interval (churn down time + detection + re-election) that has nothing
#: to do with history length.  The replayed-entry gate is the strict
#: history-independence check; the time gate only has to catch O(N) decay.
CATCHUP_TIME_SLACK_MS = 6_000.0


def check(result: SoakResult, *, min_replay_ratio: float = MIN_REPLAY_RATIO) -> list[str]:
    """The soak's acceptance gates; empty list means all held."""
    problems: list[str] = []
    for r in result.runs:
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

    systems = sorted({r.system for r in result.runs})
    durations = sorted({r.duration_ms for r in result.runs if r.compaction})
    if not durations:
        # e.g. --threshold 0 turned every grid cell into a control run:
        # there is nothing to gate, which is itself a gate failure.
        problems.append("no compaction-enabled runs in the soak grid")
        return problems
    for system in systems:
        short = result.find(system, compaction=True, duration_ms=durations[0])
        try:
            control = result.find(
                system, compaction=False, duration_ms=durations[0]
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
            long = result.find(system, compaction=True, duration_ms=durations[-1])
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


def main(argv: list[str] | None = None) -> int:  # pragma: no cover - CLI
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--duration-ms", type=float, default=None, help="load window (default: scale preset)"
    )
    parser.add_argument(
        "--threshold",
        type=int,
        default=None,
        help="compaction threshold (entries; default 800, or 250 with --smoke)",
    )
    parser.add_argument(
        "--margin",
        type=int,
        default=None,
        help="retain margin (entries; default 32)",
    )
    parser.add_argument(
        "--system", action="append", default=None, help="restrict systems (repeatable)"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=(
            "CI budget: short windows, small threshold — still asserts "
            "compaction triggers, the memory bound holds, and the lagger "
            "returns via snapshot"
        ),
    )
    args = parser.parse_args(argv)

    if args.smoke:
        # Explicit flags still win over the smoke preset — silently
        # ignoring them would report gates against knobs the operator
        # never chose.
        base = SoakConfig(
            seed=args.seed,
            duration_ms=(
                args.duration_ms if args.duration_ms is not None else 15_000.0
            ),
            compaction_threshold=(
                args.threshold if args.threshold is not None else 250
            ),
            compaction_margin=args.margin if args.margin is not None else 32,
            churn_every_ms=6_000.0,
            lag_start_ms=3_000.0,
        )
        min_ratio = 4.0  # the short smoke history caps the achievable ratio
    else:
        base = SoakConfig(
            seed=args.seed,
            duration_ms=(
                args.duration_ms
                if args.duration_ms is not None
                else get_scale().soak_duration_ms
            ),
            compaction_threshold=(
                args.threshold if args.threshold is not None else 800
            ),
            compaction_margin=args.margin if args.margin is not None else 32,
        )
        min_ratio = MIN_REPLAY_RATIO
    systems = tuple(args.system) if args.system else ("raft", "dynatune")
    result = run(base, systems=systems)

    print(
        f"# soak — {base.duration_ms / 1000.0:g}s/{2 * base.duration_ms / 1000.0:g}s "
        f"windows, threshold {base.compaction_threshold}, margin "
        f"{base.compaction_margin}, seed {base.seed}"
    )
    header = (
        f"{'run':<26} {'ops/s':>7} {'peak ret':>9} {'bound':>6} {'compact':>8} "
        f"{'catchup':>9} {'replayed':>9} {'history':>8} {'snap':>5}"
    )
    print(header)
    for r in result.runs:
        tag = f"{r.system}/{'compact' if r.compaction else 'replay '}@{r.duration_ms / 1000.0:g}s"
        print(
            f"{tag:<26} {r.sustained_ops_per_s:>7.1f} {r.peak_retained:>9} "
            f"{r.memory_bound if r.compaction else '-':>6} {r.compactions:>8} "
            f"{r.catchup_ms:>7.0f}ms {r.replayed_entries:>9} "
            f"{r.committed_at_recover:>8} {r.snapshot_installs:>5}"
        )
    for system in systems:
        try:
            short = result.find(system, compaction=True, duration_ms=base.duration_ms)
            control = result.find(system, compaction=False, duration_ms=base.duration_ms)
        except KeyError:
            continue
        print(
            f"{system}: snapshot catch-up replays "
            f"{control.replayed_entries / max(1, short.replayed_entries):.1f}x fewer "
            f"entries than full replay ({short.replayed_entries} vs "
            f"{control.replayed_entries})"
        )

    problems = check(result, min_replay_ratio=min_ratio)
    if problems:
        print(f"\n{len(problems)} soak gate(s) failed:", file=sys.stderr)
        for p in problems:
            print(f"  {p}", file=sys.stderr)
        return 1
    print("\nall soak gates held (bounded memory, flat catch-up, safety clean).")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
