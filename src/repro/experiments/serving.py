"""Closed-loop serving bench: the client fast path end to end.

Five modes share one workload — N sequential clients hammering a 5-node
cluster with a read-heavy KV mix — and differ only in which fast-path
knobs are on:

* ``baseline`` — the seed serving path: every op (reads included) is one
  log entry, one AppendEntries per follower per request;
* ``batched`` — leader-side append batching + replication pipelining;
  reads still go through the log;
* ``readindex`` — batching/pipelining plus ReadIndex fast-path reads
  (quorum probe round, no log entry);
* ``lease`` — lease serving on top: reads answered locally while the
  leader holds a quorum-anchored lease derived from the policy's Et
  bound (Dynatune's tuned Et under the default system);
* ``lease-drift`` — the safety control: the same lease mode with an
  absurd injected clock-drift margin, under which the lease must *never*
  validate — every read must fall back to ReadIndex and still be served.

The topology is the paper's serving shape: a geo-replicated quorum
(inter-node RTT ``rtt_ms``) with clients co-located at the leader's
serving edge (``client_rtt_ms`` ≪ ``rtt_ms``).  On the seed path every
read pays the full consensus round trip on top of the client hop; the
lease path answers it in one client hop, so closed-loop throughput is
bounded by the fast path, not the WAN.

Each mode runs under the event-hooked
:class:`~repro.scenarios.safety.SafetyChecker`; :func:`check` gates on
zero violations everywhere, full fast-path coverage (batches flushed,
ReadIndex and lease reads actually served, the drift control falling
back every single time), and the headline number: the ``lease`` mode
completing at least :data:`MIN_SPEEDUP` (3×) the ops/sec of
``baseline`` in **simulated** time — a seed-deterministic quantity, so
the gate cannot flake on a loaded CI machine.  Wall-clock throughput is
reported alongside (machine-dependent, excluded from the digest).

Modes run serially (never fanned out) so the advisory wall-clock
comparison is not distorted by CPU contention between workers.

Run, digest and CLI come from :mod:`repro.experiments.grid` (``GRID``
below): ``python -m repro.experiments.serving [--smoke] [--digest]``.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from typing import ClassVar, Sequence

from repro.cluster.builder import ClusterConfig
from repro.experiments import grid
from repro.fuzz.oracle import CheckedRun, RunVerdict
from repro.fuzz.workload import WorkloadConfig
from repro.raft.types import RaftConfig

__all__ = [
    "MODES",
    "MIN_SPEEDUP",
    "ServingConfig",
    "ServingRunResult",
    "run_one",
    "speedup",
    "check",
    "GRID",
]

#: The mode grid, in execution order.
MODES: tuple[str, ...] = ("baseline", "batched", "readindex", "lease", "lease-drift")

#: The acceptance gate: ``lease`` simulated ops/sec over ``baseline``.
MIN_SPEEDUP = 3.0

#: A drift margin no real deployment has (an hour of clock skew per
#: beat): with it injected the lease arithmetic must reject every read.
DRIFT_MARGIN_MS = 3_600_000.0


@dataclasses.dataclass(slots=True, frozen=True)
class ServingConfig:
    """One serving bench (the grid's cells derive the modes)."""

    system: str = "dynatune"
    seed: int = 42
    n_nodes: ClassVar[int] = 5
    #: Inter-node RTT: a geo-replicated quorum, the regime where the
    #: Dynatune-tuned Et (and hence the lease bound) is RTT-scale.
    rtt_ms: ClassVar[float] = 80.0
    #: Client↔cluster RTT: clients co-located with the serving edge.
    client_rtt_ms: ClassVar[float] = 10.0
    #: Closed-loop client pool — large enough that the baseline's
    #: one-append-per-op behaviour is the visible bottleneck.
    n_clients: int = 128
    duration_ms: float = 25_000.0
    op_timeout_ms: float = 2_000.0
    #: Read-heavy serving mix (the remainder are deletes).
    p_put: float = 0.12
    p_get: float = 0.85

    def __post_init__(self) -> None:
        if self.n_clients < 1:
            raise ValueError(f"n_clients must be >= 1, got {self.n_clients!r}")
        if self.duration_ms <= 0.0:
            raise ValueError(f"duration_ms must be > 0, got {self.duration_ms!r}")

    def raft_config(self, mode: str) -> RaftConfig:
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        if mode == "baseline":
            return RaftConfig()
        return RaftConfig(
            client_batching=True,
            client_batch_window_ms=5.0,
            replication_pipelining=True,
            lease_reads=mode in ("lease", "lease-drift"),
            lease_drift_margin_ms=(
                DRIFT_MARGIN_MS
                if mode == "lease-drift"
                else RaftConfig().lease_drift_margin_ms
            ),
        )

    def workload(self, mode: str) -> WorkloadConfig:
        return WorkloadConfig(
            n_clients=self.n_clients,
            n_keys=32,
            op_timeout_ms=self.op_timeout_ms,
            think_min_ms=1.0,
            think_max_ms=8.0,
            p_put=self.p_put,
            p_get=self.p_get,
            start_ms=400.0,
            max_ops_per_client=1_000_000,
            read_fastpath=mode in ("readindex", "lease", "lease-drift"),
            client_rtt_ms=self.client_rtt_ms,
        )


@dataclasses.dataclass(slots=True, frozen=True, kw_only=True)
class ServingRunResult(RunVerdict):
    """One mode reduced to its throughput and coverage numbers."""

    mode: str
    system: str
    n_nodes: int
    n_clients: int
    duration_ms: float
    mean_latency_ms: float
    #: Cluster-wide message/replication load over the run.
    messages_sent: int
    appends_sent: int
    #: Fast-path coverage counters (all zero in ``baseline``).
    batches_flushed: int
    batched_commands: int
    reads_readindex: int
    reads_lease: int
    lease_fallbacks: int
    #: Wall seconds for the run (machine-dependent; not in the digest).
    wall_s: float

    @property
    def ops_per_sim_s(self) -> float:
        return self.ops_completed / (self.duration_ms / 1_000.0)

    @property
    def ops_per_wall_s(self) -> float:
        if self.wall_s <= 0.0:
            return float("inf")
        return self.ops_completed / self.wall_s

    @property
    def messages_per_op(self) -> float:
        if not self.ops_completed:
            return float("inf")
        return self.messages_sent / self.ops_completed


def run_one(task: tuple[ServingConfig, str]) -> ServingRunResult:
    """Run one serving mode end to end (calm network, full safety oracle)."""
    config, mode = task
    t0 = time.perf_counter()
    run = CheckedRun(
        ClusterConfig(
            n_nodes=config.n_nodes,
            seed=config.seed,
            rtt_ms=config.rtt_ms,
            raft=config.raft_config(mode),
        ),
        config.system,
    )
    run.drive(config.workload(mode), config.duration_ms)
    run.cluster.start()
    verdict = run.finish()
    wall_s = time.perf_counter() - t0

    latencies = [o.return_ms - o.invoke_ms for o in run.history.ops() if o.completed]
    nodes = run.cluster.nodes.values()
    return ServingRunResult(
        mode=mode,
        system=config.system,
        n_nodes=config.n_nodes,
        n_clients=config.n_clients,
        duration_ms=config.duration_ms,
        mean_latency_ms=sum(latencies) / len(latencies) if latencies else 0.0,
        messages_sent=run.cluster.network.total_stats().sent,
        appends_sent=sum(n.metrics.appends_sent for n in nodes),
        batches_flushed=sum(n.metrics.batches_flushed for n in nodes),
        batched_commands=sum(n.metrics.batched_commands for n in nodes),
        reads_readindex=sum(n.metrics.reads_served_readindex for n in nodes),
        reads_lease=sum(n.metrics.reads_served_lease for n in nodes),
        lease_fallbacks=sum(n.metrics.lease_fallbacks for n in nodes),
        wall_s=wall_s,
        **dataclasses.asdict(verdict),
    )


def _cells(
    base: ServingConfig, systems: tuple[str, ...]
) -> list[tuple[ServingConfig, str]]:
    if len(systems) != 1:
        raise ValueError("the serving bench compares modes within one system")
    return [(dataclasses.replace(base, system=systems[0]), mode) for mode in MODES]


def speedup(runs: Sequence[ServingRunResult], metric: str = "ops_per_sim_s") -> float:
    """``lease`` over ``baseline`` ops/sec — simulated time is the
    headline; ``ops_per_wall_s`` gives the advisory machine-dependent one."""
    base = getattr(grid.find(runs, mode="baseline"), metric)
    return getattr(grid.find(runs, mode="lease"), metric) / base if base else float("inf")


#: Completion-ratio floor on a calm network: anything lower means the
#: serving path dropped requests rather than served them.
MIN_AVAILABILITY = 0.98


def check(runs: Sequence[ServingRunResult]) -> list[str]:
    """The serving acceptance gates; empty list means all held."""
    problems: list[str] = []
    for r in runs:
        problems += r.gates(r.mode, MIN_AVAILABILITY)
    base = grid.find(runs, mode="baseline")
    if base.batches_flushed or base.reads_readindex or base.reads_lease:
        problems.append("baseline: fast-path counters moved with all knobs off")
    for mode in ("batched", "readindex", "lease", "lease-drift"):
        r = grid.find(runs, mode=mode)
        if r.batches_flushed == 0:
            problems.append(f"{mode}: batching enabled but no batch ever flushed")
        if r.appends_sent >= base.appends_sent:
            problems.append(
                f"{mode}: {r.appends_sent} AppendEntries vs baseline's "
                f"{base.appends_sent} — batching saved nothing"
            )
    for mode in ("readindex", "lease", "lease-drift"):
        if grid.find(runs, mode=mode).reads_readindex == 0:
            problems.append(f"{mode}: no read was ever served via ReadIndex")
    lease = grid.find(runs, mode="lease")
    if lease.reads_lease == 0:
        problems.append("lease: lease serving never engaged")
    drift = grid.find(runs, mode="lease-drift")
    if drift.reads_lease > 0:
        problems.append(
            f"lease-drift: {drift.reads_lease} read(s) served on a lease the "
            f"injected {DRIFT_MARGIN_MS:g} ms drift margin should have killed"
        )
    if drift.lease_fallbacks == 0:
        problems.append("lease-drift: the drift margin never forced a fallback")
    if speedup(runs) < MIN_SPEEDUP:
        problems.append(
            f"serving speedup {speedup(runs):.2f}x below the "
            f"{MIN_SPEEDUP:g}x gate ({lease.ops_per_sim_s:.0f} vs "
            f"{base.ops_per_sim_s:.0f} ops/sim-s)"
        )
    return problems


def _row(r: ServingRunResult) -> tuple[str, ...]:
    return (
        f"{r.system}/{r.mode}",
        str(r.ops_completed),
        f"{r.availability:.3f}",
        f"{r.mean_latency_ms:.0f}ms",
        f"{r.ops_per_sim_s:.0f}",
        f"{r.ops_per_wall_s:.0f}",
        f"{r.messages_per_op:.1f}",
        str(r.batches_flushed),
        str(r.reads_readindex),
        str(r.reads_lease),
    )


GRID = grid.Grid(
    name="serving",
    full=ServingConfig(),
    # CI budget: fewer clients, a shorter run.
    smoke=ServingConfig(n_clients=64, duration_ms=18_000.0),
    systems=("dynatune",),
    jobs=1,
    cells=_cells,
    run_one=run_one,
    check=check,
    digest_exclude=("wall_s",),
    title=lambda c: (
        f"{c.n_nodes} nodes (RTT {c.rtt_ms:g} ms), {c.n_clients} closed-loop "
        f"clients at {c.client_rtt_ms:g} ms, {c.duration_ms / 1_000.0:g}s sim"
    ),
    columns=(
        "run", "ops", "avail", "lat", "op/sim-s", "op/wall-s", "msg/op",
        "batches", "ri", "lease",
    ),
    row=_row,
    summary=lambda runs: [
        f"serving speedup (lease vs baseline): {speedup(runs):.2f}x simulated "
        f"(gate: >= {MIN_SPEEDUP:g}x), {speedup(runs, 'ops_per_wall_s'):.2f}x "
        "wall-clock"
    ],
    held="safety clean, fast paths covered, drift control fell back, speedup over gate",
)

if __name__ == "__main__":  # pragma: no cover
    sys.exit(grid.main(GRID))
