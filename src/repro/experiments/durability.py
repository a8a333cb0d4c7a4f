"""Durability experiment: rolling disk-fault storms with a recovery oracle.

The storage subsystem's end-to-end gate.  Each run boots a cluster on the
fallible :class:`~repro.storage.simdisk.SimDiskStorage` backend (or the
ideal backend, as the control), carries closed-loop client load, and
sweeps a *rolling disk storm* across the members: every node gets one
fault window, staggered so the windows are disjoint — a disk-level
rolling-failure drill.  The fault *family* picks what the window does:

* ``ideal`` — control: ideal storage, process-level crash churn.  The
  storage abstraction must be invisible (no disk events traced) and
  recovery from always-durable state must stay clean.
* ``lossy_fsync`` — crash points at persist barriers plus occasional
  fail-stop IO errors: recovery replays the synced WAL region and loses
  only the unsynced tail.
* ``torn_tail`` — every crash-point crash also tears the record being
  written: recovery must detect the torn tail via checksum, truncate it
  (traced as ``wal_truncated``) and rejoin cleanly.
* ``corrupt_tail`` — one designated node's crash flips a bit *below* its
  synced frontier: recovery must refuse (traced as ``disk_corruption``)
  and the node must stay down while the remaining quorum keeps serving.

Throughout, the event-hooked :class:`~repro.scenarios.safety.SafetyChecker`
runs with its crash-recovery durability invariant: synced term/vote/
entries captured at each crash must be reproduced at ``disk_recover``.

Acceptance gates (:func:`check`): zero safety violations, the family's
expected repair events actually traced (and *only* those — the control
must trace none), corruption-refusing nodes stay down, bounded recovery
replay (compaction keeps the replayed tail short), surviving replicas
converge to the same applied state, and a client availability floor.

Run, digest and CLI come from :mod:`repro.experiments.grid` (``GRID``
below): ``python -m repro.experiments.durability [--smoke] [--digest]
[--family F]``.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from typing import Sequence

from repro.cluster.builder import ClusterConfig
from repro.experiments import grid
from repro.fuzz.oracle import CheckedRun, RunVerdict
from repro.raft.types import RaftConfig
from repro.scenarios.scenario import Scenario
from repro.scenarios.steps import Churn, DiskFault, Repeat, Step
from repro.sim.process import ProcessState
from repro.storage import DiskFaultConfig

__all__ = [
    "FAMILIES",
    "DurabilityConfig",
    "DurabilityRunResult",
    "run_one",
    "check",
    "GRID",
]

#: The four fault families the grid covers.
FAMILIES: tuple[str, ...] = ("ideal", "lossy_fsync", "torn_tail", "corrupt_tail")

#: Crashed disks reboot this long after the crash (except corruption
#: refusals, which are fail-fatal and stay down).
AUTO_RECOVER_MS = 1_200.0
#: Compaction keeps the recovery replay bounded; :func:`check` asserts it
#: actually did.
COMPACTION = RaftConfig(compaction_threshold=40, compaction_retain_margin=8)
MAX_RECOVERY_REPLAY = 150


@dataclasses.dataclass(slots=True, frozen=True)
class DurabilityConfig:
    """One durability run (the grid's cells derive variants)."""

    system: str = "raft"
    #: One of :data:`FAMILIES`.
    family: str = "lossy_fsync"
    n_nodes: int = 5
    seed: int = 101
    #: Rolling storm shape: node ``i``'s fault window opens at
    #: ``storm_start_ms + i * stagger_ms`` and lasts ``window_ms``.
    #: ``window_ms < stagger_ms`` keeps the windows disjoint — at most one
    #: member is storming at a time.
    storm_start_ms: float = 4_000.0
    window_ms: float = 4_000.0
    stagger_ms: float = 4_500.0
    #: Tail after the last window for auto-recoveries and replication
    #: repair to land.
    settle_ms: float = 8_000.0

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}, got {self.family!r}")
        if self.n_nodes < 3:
            raise ValueError(f"n_nodes must be >= 3, got {self.n_nodes!r}")
        if self.window_ms >= self.stagger_ms:
            raise ValueError(
                "window_ms must be < stagger_ms (the storm is rolling: "
                f"windows must not overlap), got {self.window_ms!r} >= "
                f"{self.stagger_ms!r}"
            )

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(f"n{i}" for i in range(1, self.n_nodes + 1))

    @property
    def corrupt_node(self) -> str:
        """The one member whose window corrupts below the synced frontier
        (``corrupt_tail`` family only) — a single node so the refusal can
        never cost the quorum."""
        return self.names[0]

    @property
    def horizon_ms(self) -> float:
        last_window_end = (
            self.storm_start_ms
            + (self.n_nodes - 1) * self.stagger_ms
            + self.window_ms
        )
        return last_window_end + self.settle_ms


@dataclasses.dataclass(slots=True, frozen=True, kw_only=True)
class DurabilityRunResult(RunVerdict):
    """One run reduced to its headline numbers and gate inputs (picklable)."""

    system: str
    family: str
    n_nodes: int
    horizon_ms: float
    #: Disk-event counts over the whole run (all zero for the control).
    crash_points: int
    io_errors: int
    recoveries: int
    truncations: int
    corruptions: int
    #: Process-level churn evidence (the control's crash/recover cycle).
    process_crashes: int
    process_recoveries: int
    #: Recovery replay cost (entries re-applied past the snapshot floor)
    #: and the config's bound on it.
    max_replay: int
    mean_replay: float
    replay_bound: int
    #: Corruption-refusing nodes, and whether every one stayed down.
    refused: tuple[str, ...]
    refused_stayed_down: bool
    #: Applied-state agreement across every running replica at horizon.
    machines_consistent: bool


#: Per-family window knobs (crash probabilities are per fsync, so even a
#: short window sees many draws; 1.0 knobs make the family's signature
#: repair event certain rather than merely likely).
_FAMILY_KNOBS: dict[str, dict[str, float]] = {
    "lossy_fsync": {"p_crash_point": 0.5, "p_io_error": 0.1},
    "torn_tail": {"p_crash_point": 0.8, "p_torn_tail": 1.0},
    "corrupt_tail": {"p_crash_point": 0.5},
}

_CORRUPT_KNOBS: dict[str, float] = {"p_crash_point": 1.0, "p_bitflip": 1.0}


def _storm_scenario(cfg: DurabilityConfig) -> Scenario:
    steps: list[Step] = []
    if cfg.family == "ideal":
        # Process-level rolling crash churn: one occurrence per member,
        # spaced like the disk windows, each down for the same reboot
        # delay the fallible backends use.
        steps.append(
            Churn(
                at_ms=cfg.storm_start_ms,
                nodes=cfg.names,
                down_ms=AUTO_RECOVER_MS,
                fault="crash",
                repeat=Repeat(every_ms=cfg.stagger_ms, times=cfg.n_nodes),
            )
        )
    else:
        for i, name in enumerate(cfg.names):
            if cfg.family == "corrupt_tail" and name == cfg.corrupt_node:
                knobs = _CORRUPT_KNOBS
            else:
                knobs = _FAMILY_KNOBS[cfg.family]
            steps.append(
                DiskFault(
                    at_ms=cfg.storm_start_ms + i * cfg.stagger_ms,
                    node=name,
                    duration_ms=cfg.window_ms,
                    **knobs,
                )
            )
    return Scenario(
        f"disk-storm-{cfg.family}",
        steps,
        description=(
            f"rolling {cfg.family} storm over {cfg.n_nodes} nodes, "
            f"{cfg.window_ms:g}ms window every {cfg.stagger_ms:g}ms"
        ),
    )


def run_one(cfg: DurabilityConfig) -> DurabilityRunResult:
    """Run one durability variant end to end (module-level: run_tasks
    worker)."""
    ideal = cfg.family == "ideal"
    run = CheckedRun(
        ClusterConfig(
            n_nodes=cfg.n_nodes,
            seed=cfg.seed,
            rtt_ms=grid.RTT_MS,
            raft=COMPACTION,
            storage="ideal" if ideal else "simdisk",
            disk_faults=(
                None if ideal else DiskFaultConfig(auto_recover_ms=AUTO_RECOVER_MS)
            ),
        ),
        cfg.system,
    )
    cluster = run.cluster
    _storm_scenario(cfg).install(cluster)
    horizon = cfg.horizon_ms
    run.drive(grid.SUSTAINED_LOAD, horizon)
    cluster.start()
    verdict = run.finish()
    trace = cluster.trace

    replays = [r.get("replayed", 0) for r in trace.of_kind("disk_recover")]
    refused = tuple(
        sorted({r.node for r in trace.of_kind("disk_corruption")})
    )
    refused_stayed_down = all(
        cluster.nodes[name].state is ProcessState.CRASHED for name in refused
    )
    running_states = [
        json.dumps(node.state_machine.snapshot(), sort_keys=True)
        for node in (cluster.nodes[n] for n in cluster.names)
        if node.state is ProcessState.RUNNING
    ]
    return DurabilityRunResult(
        system=cfg.system,
        family=cfg.family,
        n_nodes=cfg.n_nodes,
        horizon_ms=horizon,
        crash_points=len(trace.of_kind("disk_crash_point")),
        io_errors=len(trace.of_kind("disk_io_error")),
        recoveries=len(trace.of_kind("disk_recover")),
        truncations=len(trace.of_kind("wal_truncated")),
        corruptions=len(trace.of_kind("disk_corruption")),
        process_crashes=len(trace.of_kind("process_crashed")),
        process_recoveries=len(trace.of_kind("process_recovered")),
        max_replay=max(replays) if replays else 0,
        mean_replay=sum(replays) / len(replays) if replays else 0.0,
        replay_bound=MAX_RECOVERY_REPLAY,
        refused=refused,
        refused_stayed_down=refused_stayed_down,
        machines_consistent=len(set(running_states)) <= 1,
        **dataclasses.asdict(verdict),
    )


def _cells(
    base: DurabilityConfig, systems: tuple[str, ...]
) -> list[DurabilityConfig]:
    return [
        dataclasses.replace(base, system=system, family=family)
        for system in systems
        for family in FAMILIES
    ]


#: Client availability floor: a rolling storm takes one member at a time,
#: so the quorum — and client progress — should survive throughout.
MIN_AVAILABILITY = 0.5


def check(runs: Sequence[DurabilityRunResult]) -> list[str]:
    """The durability acceptance gates; empty list means all held."""
    problems: list[str] = []
    for r in runs:
        tag = f"{r.system}/{r.family}"
        problems += r.gates(tag, MIN_AVAILABILITY)
        if r.family == "ideal":
            disk_events = (
                r.crash_points + r.io_errors + r.recoveries
                + r.truncations + r.corruptions
            )
            if disk_events:
                problems.append(
                    f"{tag}: control run traced {disk_events} disk event(s) "
                    f"on ideal storage"
                )
            if r.process_crashes < 1 or r.process_recoveries < 1:
                problems.append(f"{tag}: the crash churn never fired")
        else:
            if r.crash_points + r.io_errors < 1:
                problems.append(f"{tag}: the disk storm never crashed a node")
            if r.recoveries < 1:
                problems.append(f"{tag}: no node came back through disk recovery")
        if r.family == "torn_tail" and r.truncations < 1:
            problems.append(f"{tag}: no torn tail was ever truncated")
        if r.family == "corrupt_tail":
            if r.corruptions < 1:
                problems.append(f"{tag}: the corruption window never fired")
            if not r.refused_stayed_down:
                problems.append(
                    f"{tag}: a corruption-refusing node rejoined "
                    f"(refused={list(r.refused)})"
                )
        elif r.corruptions:
            problems.append(
                f"{tag}: {r.corruptions} corruption refusal(s) outside the "
                f"corrupt_tail family"
            )
        if r.family != "corrupt_tail" and r.truncations and r.family != "torn_tail":
            problems.append(
                f"{tag}: {r.truncations} torn-tail truncation(s) without a "
                f"torn window"
            )
        if r.max_replay > r.replay_bound:
            problems.append(
                f"{tag}: recovery replayed {r.max_replay} entries "
                f"(bound {r.replay_bound}) — compaction is not bounding "
                f"the replay"
            )
        if not r.machines_consistent:
            problems.append(f"{tag}: surviving replicas diverged at horizon")
    return problems


def _row(r: DurabilityRunResult) -> tuple[str, ...]:
    return (
        f"{r.system}/{r.family}",
        f"{r.availability:.2f}",
        str(r.crash_points + r.io_errors + r.process_crashes),
        str(r.recoveries + r.process_recoveries),
        str(r.truncations),
        str(r.corruptions),
        str(r.max_replay),
        str(r.machines_consistent),
    )


GRID = grid.Grid(
    name="durability",
    full=DurabilityConfig(),
    # CI budget: 3 nodes, short windows.
    smoke=DurabilityConfig(
        n_nodes=3,
        storm_start_ms=3_000.0,
        window_ms=2_500.0,
        stagger_ms=3_000.0,
        settle_ms=6_000.0,
    ),
    cells=_cells,
    run_one=run_one,
    check=check,
    axes={"family": FAMILIES},
    title=lambda c: (
        f"{c.n_nodes} nodes, {c.window_ms / 1000.0:g}s windows every "
        f"{c.stagger_ms / 1000.0:g}s"
    ),
    columns=("run", "avail", "crash", "recov", "torn", "corrupt", "replay", "consistent"),
    row=_row,
    held=(
        "safety clean, repair events traced, refusals stayed down, replay "
        "bounded, replicas converged"
    ),
)

if __name__ == "__main__":  # pragma: no cover
    sys.exit(grid.main(GRID))
