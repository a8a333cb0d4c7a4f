"""The fuzz feature sets: one table, from which the campaign CLI's
per-feature flags, their validation and their coverage lines are generated.

A feature set names a subsystem to put under the oracle: the generator
overrides that make scenarios exercise it, the trial (and workload)
overrides that switch it on in the cluster, and the
:class:`~repro.fuzz.oracle.TrialOutcome` counters that prove it ran.
Sets compose — their overrides touch disjoint knobs (or agree), so
applying several in any order gives the same pair of configs.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Mapping

from repro.fuzz.generator import GenConfig
from repro.fuzz.oracle import FuzzTrialConfig

__all__ = ["FeatureSet", "FEATURE_SETS"]


@dataclasses.dataclass(frozen=True)
class FeatureSet:
    """One row of :data:`FEATURE_SETS`."""

    #: What the campaign flag's ``--help`` says.
    help: str
    #: ``(TrialOutcome counter, label)`` pairs of the coverage line.
    coverage: tuple[tuple[str, str], ...]
    #: Overrides at the strength the bare flag selects.
    gen: Mapping[str, float] = dataclasses.field(default_factory=dict)
    trial: Mapping[str, Any] = dataclasses.field(default_factory=dict)
    workload: Mapping[str, Any] = dataclasses.field(default_factory=dict)
    #: The override keys the flag's optional value replaces: generator
    #: probabilities (a float in (0, 1]) or a trial count (an int >= 1);
    #: empty for an on/off feature.
    tunes: tuple[str, ...] = ()

    @property
    def default_strength(self) -> float | int | None:
        if not self.tunes:
            return None
        return {**self.gen, **self.trial}[self.tunes[0]]

    def strength_error(self, strength: float | int) -> str | None:
        """Why ``strength`` is not a valid value for this set's flag."""
        if isinstance(self.default_strength, int):
            return None if strength >= 1 else "threshold must be >= 1"
        return None if 0.0 < strength <= 1.0 else "probability must be in (0, 1]"

    def apply(
        self,
        gen: GenConfig,
        trial: FuzzTrialConfig,
        strength: float | int | None = None,
    ) -> tuple[GenConfig, FuzzTrialConfig]:
        """``(gen, trial)`` with this set switched on."""
        g, t = dict(self.gen), dict(self.trial)
        if strength is not None:
            for key in self.tunes:
                (g if key in g else t)[key] = strength
        if self.workload:
            t["workload"] = dataclasses.replace(trial.workload, **self.workload)
        return dataclasses.replace(gen, **g), dataclasses.replace(trial, **t)


FEATURE_SETS: dict[str, FeatureSet] = {
    "compaction": FeatureSet(
        help=(
            "run trials with log compaction on (threshold entries) and bias "
            "half the scenarios toward a long-lagging crashed node, so "
            "snapshot installs happen under the oracle"
        ),
        gen={"p_compaction_lag": 0.5},
        trial={"compaction_threshold": 40, "compaction_margin": 8},
        tunes=("compaction_threshold",),
        coverage=(
            ("compactions", "compactions"),
            ("snapshots_installed", "snapshot installs"),
        ),
    ),
    "membership": FeatureSet(
        help=(
            "give each generated scenario this probability of carrying a "
            "membership add (often paired with a later remove, sometimes of "
            "@leader) and make the steps live in the trial, so elastic "
            "reconfiguration runs under the oracle"
        ),
        gen={"p_membership": 0.6},
        trial={"membership": True},
        tunes=("p_membership",),
        coverage=(
            ("config_commits", "config commits"),
            ("nodes_added", "promotions"),
            ("nodes_removed", "decommissions"),
        ),
    ),
    "serving": FeatureSet(
        help=(
            "run trials with the client-serving fast path on (leader-side "
            "append batching, replication pipelining, lease reads) and route "
            "the workload's gets over ReadIndex/lease serving"
        ),
        trial={"batching": True, "pipelining": True, "lease_reads": True},
        workload={"read_fastpath": True},
        coverage=(
            ("batches_flushed", "batches flushed"),
            ("reads_readindex", "ReadIndex reads"),
            ("reads_lease", "lease reads"),
        ),
    ),
    "disk": FeatureSet(
        help=(
            "give each generated scenario this probability of carrying "
            "disk-fault windows and run every node on the fallible simdisk "
            "backend, so crash points at persist barriers, torn WAL tails "
            "and corruption recovery run under the oracle (durability "
            "invariant included)"
        ),
        gen={"p_disk_fault": 0.7},
        trial={"disk": True},
        tunes=("p_disk_fault",),
        coverage=(
            ("disk_crash_points", "crash/IO-error points"),
            ("disk_recoveries", "recoveries"),
            ("wal_truncations", "torn-tail truncations"),
            ("disk_corruptions", "corruption refusals"),
        ),
    ),
    # Gray campaigns stress the read fast path: lease serving on, and one
    # read-only observer client that stays parked on whichever node keeps
    # answering — the client that notices a fenced-off leader serving
    # stale lease reads.  The larger op budget keeps the observer issuing
    # through late fault windows.
    "gray": FeatureSet(
        help=(
            "give each generated scenario this probability of carrying a "
            "gray fault (a one-way link block or an asymmetric loss/delay "
            "degradation) and, independently, of carrying per-node clock "
            "skew/drift windows; also turns on lease reads + fast-path gets, "
            "since skewed clocks stress exactly the lease-validity arithmetic"
        ),
        gen={"p_gray": 0.6, "p_clock_skew": 0.6},
        trial={"lease_reads": True},
        workload={
            "read_fastpath": True,
            "n_clients": 4,
            "read_only_clients": 1,
            "max_ops_per_client": 120,
        },
        tunes=("p_gray", "p_clock_skew"),
        coverage=(
            ("gray_faults", "asymmetric link faults"),
            ("clock_skews", "clock set/skew windows"),
            ("reads_lease", "lease reads"),
        ),
    ),
}
