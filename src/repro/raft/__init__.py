"""A complete Raft implementation (the etcd substitute).

See :mod:`repro.raft.node` for the protocol state machine: a faithful Raft
with per-follower heartbeat timers, the substrate Dynatune retunes.
"""

from repro.raft.client import RaftClient
from repro.raft.log import LogEntry, RaftLog
from repro.raft.messages import (
    AppendEntriesRequest,
    AppendEntriesResponse,
    ClientRequest,
    ClientResponse,
    HeartbeatRequest,
    HeartbeatResponse,
    PreVoteRequest,
    PreVoteResponse,
    VoteRequest,
    VoteResponse,
)
from repro.raft.metrics import NodeMetrics
from repro.raft.node import RaftNode
from repro.raft.state_machine import KVCommand, KVStore, StateMachine, kv_delete, kv_get, kv_put
from repro.raft.types import RaftConfig, Role

__all__ = [
    "AppendEntriesRequest",
    "AppendEntriesResponse",
    "ClientRequest",
    "ClientResponse",
    "HeartbeatRequest",
    "HeartbeatResponse",
    "KVCommand",
    "KVStore",
    "LogEntry",
    "NodeMetrics",
    "PreVoteRequest",
    "PreVoteResponse",
    "RaftClient",
    "RaftConfig",
    "RaftLog",
    "RaftNode",
    "Role",
    "StateMachine",
    "VoteRequest",
    "VoteResponse",
    "kv_delete",
    "kv_get",
    "kv_put",
]
