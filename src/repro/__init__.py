"""repro — reproduction of *Dynatune: Dynamic Tuning of Raft Election
Parameters Using Network Measurement* (Shiozaki & Nakamura, IPPS 2025,
arXiv:2507.15154).

Subpackages
-----------
``repro.sim``
    Deterministic discrete-event substrate (clock, loop, timers, RNG,
    tracing).
``repro.net``
    Network fabric: links, delay/loss models, UDP/TCP channel semantics,
    scripted schedules, topologies (the ``tc``/Docker substitute).
``repro.raft``
    Complete Raft: elections with pre-vote and lease protection, log
    replication, KV state machine, clients (the etcd substitute).
``repro.dynatune``
    The paper's contribution: heartbeat-based RTT/loss measurement and
    dynamic tuning of election timeout and heartbeat interval.
``repro.cluster``
    Experiment harness: cluster builder, fault injection, workloads, CPU
    cost model, measurement extraction.
``repro.analysis``
    CDFs, summary statistics, time-series utilities.
``repro.experiments``
    One module per paper figure; each regenerates the corresponding
    series/rows (README, "Running experiments").

Quickstart
----------
>>> from repro import build_cluster, ClusterConfig, DynatunePolicy
>>> cluster = build_cluster(ClusterConfig(n_nodes=5, rtt_ms=100.0),
...                         lambda name: DynatunePolicy())
>>> cluster.start()
>>> leader = cluster.run_until_leader()
"""

from repro.cluster import (
    Cluster,
    ClusterConfig,
    ClusterHarness,
    CostModel,
    build_cluster,
    extract_failure_episodes,
)
from repro.dynatune import DynatuneConfig, DynatunePolicy, StaticPolicy
from repro.net import Network
from repro.raft import KVStore, RaftClient, RaftConfig, RaftNode, Role, kv_get, kv_put
from repro.sim import EventLoop, TraceLog

__version__ = "1.0.0"

__all__ = [
    "Cluster",
    "ClusterConfig",
    "ClusterHarness",
    "CostModel",
    "DynatuneConfig",
    "DynatunePolicy",
    "EventLoop",
    "KVStore",
    "Network",
    "RaftClient",
    "RaftConfig",
    "RaftNode",
    "Role",
    "StaticPolicy",
    "TraceLog",
    "build_cluster",
    "extract_failure_episodes",
    "kv_get",
    "kv_put",
    "__version__",
]
