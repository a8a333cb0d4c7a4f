"""Experiment harness: cluster wiring, faults, workloads, measurements.

This package plays the role of the paper's experiment scripts: it builds
clusters (§IV-A), injects leader failures by "putting the container to
sleep" (§IV-B1), samples randomizedTimeout and CPU utilisation (billed
from outside the servers, as ``docker stats`` reads it), and extracts
detection/OTS times from the trace the same way the paper greps server logs.
"""

from repro.cluster.builder import Cluster, ClusterConfig, build_cluster
from repro.cluster.capacity import DEFAULT_COSTS_MS, CostModel
from repro.cluster.faults import pause_for
from repro.cluster.harness import ClusterHarness
from repro.cluster.measurements import (
    FailureEpisode,
    extract_failure_episodes,
    leaderless_intervals,
    randomized_timeout_matrix,
)
from repro.cluster.workload import (
    FluidWorkloadConfig,
    LoadLevelResult,
    OpenLoopDriver,
    run_rps_staircase,
)

__all__ = [
    "Cluster",
    "ClusterConfig",
    "ClusterHarness",
    "CostModel",
    "DEFAULT_COSTS_MS",
    "FailureEpisode",
    "FluidWorkloadConfig",
    "LoadLevelResult",
    "OpenLoopDriver",
    "build_cluster",
    "extract_failure_episodes",
    "leaderless_intervals",
    "pause_for",
    "randomized_timeout_matrix",
    "run_rps_staircase",
]
