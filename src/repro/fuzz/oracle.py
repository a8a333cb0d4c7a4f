"""One checked run, and the fuzz trial built on it.

:class:`CheckedRun` is the block every experiment that judges a cluster
by "nothing broke" shares: build the cluster from an explicit seed, hook
the event-driven :class:`~repro.scenarios.safety.SafetyChecker` in,
record an :class:`~repro.fuzz.history.OpHistory` under closed-loop client
load, run to a horizon, and reduce to ``(violations, ops issued, ops
completed)``.  The grid experiments (elastic, durability, grayfail, soak,
serving, the scenario matrix) and :func:`run_trial` each add only what is
theirs: a scenario, observers, a mid-run script, result fields.

``run_trial(config, scenario)`` is the pure function campaign workers,
the shrinker and the regression harness are built from: one checked run
with the scenario installed, reduced to a picklable :class:`TrialResult`
whose ``violations`` tuple is empty iff every checked property held:

* the partition-safety properties (one leader per term — sampled *and*
  event-driven —, monotone commit, no committed-entry loss), and
* linearizability of the recorded client history against the KV spec.

An undecided linearizability search (budget exhausted) is reported via
``lin_undecided`` rather than folded into ``violations`` — an oracle must
not cry wolf on timeouts.
"""

from __future__ import annotations

import dataclasses
import math

from repro.cluster.builder import Cluster, ClusterConfig, build_cluster
from repro.storage import DiskFaultConfig
from repro.experiments.common import make_policy_factory
from repro.fuzz.bugs import install_bug
from repro.fuzz.history import OpHistory
from repro.fuzz.linearizability import DEFAULT_BUDGET, check_history
from repro.fuzz.workload import WorkloadConfig, WorkloadDriver
from repro.raft.types import RaftConfig
from repro.scenarios.safety import SafetyChecker
from repro.scenarios.scenario import Scenario

__all__ = [
    "CheckedRun",
    "RunVerdict",
    "FuzzTrialConfig",
    "TrialOutcome",
    "TrialResult",
    "run_trial",
]


@dataclasses.dataclass(slots=True, frozen=True, kw_only=True)
class RunVerdict:
    """What every :class:`CheckedRun` reduces to.  The grid experiments'
    result records extend it with their own measurements."""

    #: Safety verdict over the whole run.
    violations: tuple[str, ...]
    #: Client-visible availability.
    ops_issued: int
    ops_completed: int

    @property
    def availability(self) -> float:
        return self.ops_completed / self.ops_issued if self.ops_issued else 0.0

    def gates(self, tag: str, min_availability: float | None = None) -> list[str]:
        """The gates loaded runs share: nothing broke and, given a floor,
        clients were served (completion ratio at or over it)."""
        problems = []
        if self.violations:
            problems.append(f"{tag}: safety violations: {self.violations[:3]}")
        if min_availability is not None and (
            self.ops_issued == 0 or self.availability < min_availability
        ):
            problems.append(
                f"{tag}: availability {self.availability:.3f} below "
                f"{min_availability:g} ({self.ops_completed}/{self.ops_issued} ops)"
            )
        return problems


class CheckedRun:
    """A cluster under the event-hooked SafetyChecker and a recorded
    closed-loop workload.

    Construction builds the cluster and installs the checker;
    :meth:`drive` installs the clients; the caller starts the cluster;
    :meth:`finish` runs to the horizon and reduces.  They are separate
    calls because install order is part of every digest (event ``seq``
    breaks ties at equal time and priority): each caller installs its
    scenario, observers (``cluster.loop.every``) or planted bug between
    them exactly where its recorded digests put them.
    """

    __slots__ = ("cluster", "checker", "history", "horizon_ms")

    def __init__(self, cluster_config: ClusterConfig, system: str) -> None:
        self.cluster: Cluster = build_cluster(
            cluster_config, make_policy_factory(system)
        )
        self.checker = SafetyChecker(self.cluster, interval_ms=SAFETY_INTERVAL_MS)
        self.checker.install(event_hooks=True)
        self.history = OpHistory()
        self.horizon_ms = 0.0

    def drive(
        self,
        workload: WorkloadConfig,
        horizon_ms: float,
        *,
        stop_ms: float | None = None,
    ) -> None:
        """Install the closed-loop clients for a run ending at ``horizon_ms``.

        By default they stop issuing two op-timeouts before the horizon,
        so the tail of ops can settle (or be abandoned) before the end.
        """
        self.horizon_ms = horizon_ms
        if stop_ms is None:
            stop_ms = max(
                workload.start_ms, horizon_ms - 2.0 * workload.op_timeout_ms
            )
        WorkloadDriver(self.cluster, workload, self.history, stop_ms=stop_ms).install()

    def finish(self) -> RunVerdict:
        """Run to the horizon and reduce."""
        self.cluster.run_until(self.horizon_ms)
        ops = self.history.ops()
        return RunVerdict(
            violations=tuple(self.checker.verify()),
            ops_issued=len(ops),
            ops_completed=sum(1 for o in ops if o.completed),
        )


#: Pairwise RTT of a fuzz trial's cluster (its loss starts at 0; the
#: scenario's steps move both).
TRIAL_RTT_MS = 50.0
#: Period of the SafetyChecker's sampled pass beside its event hooks.
SAFETY_INTERVAL_MS = 250.0
#: Keys a v1 reproducer's trial config may carry from when these were
#: fields, each with the one value that loads: the constant that replaced
#: it (``lin_budget`` is the linearizability search's ``DEFAULT_BUDGET``).
RETIRED_KEYS = {
    "rtt_ms": TRIAL_RTT_MS,
    "loss": 0.0,
    "safety_interval_ms": SAFETY_INTERVAL_MS,
    "lin_budget": DEFAULT_BUDGET,
}


@dataclasses.dataclass(slots=True, frozen=True)
class FuzzTrialConfig:
    """Everything one trial needs besides the scenario itself.

    The pair ``(config, scenario)`` fully determines a trial — that is
    what the shrinker holds fixed (config) and minimizes (scenario), and
    what a reproducer file serializes.
    """

    system: str = "raft"
    n_nodes: int = 5
    seed: int = 1
    #: Run past the scenario's last effect (heal + converge window).
    settle_ms: float = 6_000.0
    #: Floor on total run time, so shrinking steps away cannot shrink the
    #: run under an injected bug's fire time.
    min_run_ms: float = 12_000.0
    workload: WorkloadConfig = dataclasses.field(default_factory=WorkloadConfig)
    #: Optional injected bug (see :mod:`repro.fuzz.bugs`) — used to
    #: validate the oracle; reproducer files never carry it.
    inject: str | None = None
    inject_at_ms: float = 9_000.0
    #: Log-compaction pressure: with a small threshold the cluster keeps
    #: snapshotting under the fuzz workload and any lagging/recovered node
    #: exercises the InstallSnapshot path under the full oracle.  ``0``
    #: (the default, and what every existing reproducer file implies)
    #: disables compaction — bit-identical to the pre-compaction trials.
    compaction_threshold: int = 0
    compaction_margin: int = 8
    #: Dynamic membership: when ``True`` the scenario's AddNode/RemoveNode/
    #: ReplaceNode steps actually reconfigure the cluster (and the
    #: reconfiguration invariants join the oracle); when ``False`` (the
    #: default, and what every existing reproducer file implies) membership
    #: steps are traced no-ops — pre-membership timelines replay
    #: bit-identically.
    membership: bool = False
    #: Client-serving fast path under the oracle.  All three default off
    #: (what every existing reproducer file implies — pre-fast-path
    #: timelines replay bit-identically).  ``batching`` turns on
    #: leader-side append batching (2 ms window), ``pipelining`` the
    #: optimistic per-follower append stream, and ``lease_reads`` lease
    #: serving for fast-path gets (the workload's ``read_fastpath`` knob
    #: controls whether gets take the fast path at all).
    batching: bool = False
    pipelining: bool = False
    lease_reads: bool = False
    #: Durable storage under the oracle.  ``True`` runs every node on the
    #: simdisk backend (checksummed WAL, auto-recovery 1.5 s) so the
    #: scenario's DiskFault windows actually inject, and the durability
    #: invariant (synced committed state survives recovery) joins the
    #: oracle.  ``False`` (the default, and what every existing
    #: reproducer file implies) keeps ideal storage — pre-storage
    #: timelines replay bit-identically.
    disk: bool = False

    def __post_init__(self) -> None:
        # A NaN or infinite window never ends the run (nor does a NaN
        # bug time ever fire); NaN fails every comparison, hence the
        # negated form.
        for name in ("settle_ms", "min_run_ms", "inject_at_ms"):
            value = getattr(self, name)
            if not (0.0 <= value < math.inf):
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
        if self.compaction_threshold < 0 or self.compaction_margin < 0:
            raise ValueError("compaction_threshold and compaction_margin must be >= 0")

    def end_ms(self, scenario: Scenario) -> float:
        return max(scenario.end_ms + self.settle_ms, self.min_run_ms)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "FuzzTrialConfig":
        payload = dict(data)
        for key, value in RETIRED_KEYS.items():
            if key in payload and payload.pop(key) != value:
                raise ValueError(
                    f"reproducer key {key!r} is retired: only {value!r} loads, "
                    f"got {data[key]!r}"
                )
        if "workload" in payload:
            payload["workload"] = WorkloadConfig(**payload["workload"])
        return cls(**payload)


@dataclasses.dataclass(slots=True, frozen=True, kw_only=True)
class TrialOutcome:
    """A trial's oracle verdict and coverage counters — the part of a
    trial a campaign record keeps (and digests) field for field."""

    violations: tuple[str, ...]
    lin_undecided: bool
    n_ops: int
    n_completed: int
    steps_applied: int
    steps_skipped: int
    duration_ms: float
    #: Compaction coverage (0 when compaction is disabled).
    compactions: int = 0
    snapshots_installed: int = 0
    #: Membership coverage (all 0 when the membership knob is off).
    config_commits: int = 0
    nodes_added: int = 0
    nodes_removed: int = 0
    #: Fast-path coverage (all 0 with batching/read knobs off).
    batches_flushed: int = 0
    reads_readindex: int = 0
    reads_lease: int = 0
    #: Disk-fault coverage (all 0 with the disk knob off).
    disk_crash_points: int = 0
    disk_recoveries: int = 0
    wal_truncations: int = 0
    disk_corruptions: int = 0
    #: Gray-fault / clock-skew coverage (0 with the gray knobs off):
    #: applied one-way blocks + gray degradations, and applied clock sets.
    gray_faults: int = 0
    clock_skews: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclasses.dataclass(slots=True, frozen=True, kw_only=True)
class TrialResult(TrialOutcome):
    """One trial reduced to its oracle verdict and coverage counters."""

    n_open: int
    first_leader_ms: float | None
    lin_configs: int


def run_trial(config: FuzzTrialConfig, scenario: Scenario) -> TrialResult:
    """Run one (config, scenario) trial and return its oracle verdict."""
    run = CheckedRun(
        ClusterConfig(
            n_nodes=config.n_nodes,
            seed=config.seed,
            rtt_ms=TRIAL_RTT_MS,
            raft=RaftConfig(
                compaction_threshold=config.compaction_threshold,
                compaction_retain_margin=config.compaction_margin,
                client_batching=config.batching,
                client_batch_window_ms=2.0 if config.batching else 0.0,
                replication_pipelining=config.pipelining,
                lease_reads=config.lease_reads,
            ),
            storage="simdisk" if config.disk else "ideal",
            disk_faults=(
                # Fault probabilities stay 0 until a DiskFault step turns
                # them on; auto-recovery keeps crash-point kills from
                # becoming permanent node loss (the oracle wants the
                # recovery path exercised, not an ever-shrinking cluster).
                DiskFaultConfig(auto_recover_ms=1_500.0) if config.disk else None
            ),
        ),
        config.system,
    )
    cluster = run.cluster
    scenario.install(cluster, membership_enabled=config.membership)
    end = config.end_ms(scenario)
    run.drive(config.workload, end)
    if config.inject is not None:
        install_bug(cluster, config.inject, config.inject_at_ms)
    cluster.start()
    verdict = run.finish()
    n_ops, n_completed = verdict.ops_issued, verdict.ops_completed

    violations = list(verdict.violations)
    lin = check_history(run.history.ops())
    if lin.decided and not lin.ok:
        violations.append(f"linearizability: {lin.reason}")

    trace = cluster.trace
    leaders = trace.of_kind("become_leader")
    steps = trace.of_kind("scenario_step")
    skipped = sum(1 for r in steps if r.get("skipped"))
    applied_kinds = [r.get("step") for r in steps if not r.get("skipped")]
    config_commits = trace.of_kind("config_commit")
    metrics = [cluster.node(n).metrics for n in cluster.names]
    return TrialResult(
        violations=tuple(violations),
        lin_undecided=not lin.decided,
        n_ops=n_ops,
        n_completed=n_completed,
        n_open=n_ops - n_completed,
        steps_applied=len(steps) - skipped,
        steps_skipped=skipped,
        first_leader_ms=leaders[0].time if leaders else None,
        duration_ms=end,
        lin_configs=lin.configs_explored,
        compactions=len(trace.of_kind("log_compact")),
        snapshots_installed=len(trace.of_kind("snapshot_install")),
        config_commits=len({r.get("index") for r in config_commits}),
        nodes_added=len(
            {r.get("index") for r in config_commits if r.get("change") == "promote"}
        ),
        nodes_removed=len(trace.of_kind("node_decommissioned")),
        batches_flushed=sum(m.batches_flushed for m in metrics),
        reads_readindex=sum(m.reads_served_readindex for m in metrics),
        reads_lease=sum(m.reads_served_lease for m in metrics),
        disk_crash_points=len(trace.of_kind("disk_crash_point"))
        + len(trace.of_kind("disk_io_error")),
        disk_recoveries=len(trace.of_kind("disk_recover")),
        wal_truncations=len(trace.of_kind("wal_truncated")),
        disk_corruptions=len(trace.of_kind("disk_corruption")),
        gray_faults=sum(1 for k in applied_kinds if k in ("block_link", "gray_link")),
        clock_skews=sum(1 for k in applied_kinds if k == "set_clock"),
    )
