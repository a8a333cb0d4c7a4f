"""Dynatune — the paper's contribution (§III).

Dynatune dynamically tunes Raft's two election parameters per
leader-follower path:

* the follower's **election timeout** ``Et = μ_RTT + s·σ_RTT`` (§III-D1),
  computed from RTT samples the leader measures via heartbeat timestamps
  and echoes back (§III-C1);
* the leader's per-follower **heartbeat interval** ``h = Et / K`` with
  ``K = ⌈log_p(1 − x)⌉`` (§III-D2), where ``p`` is the packet-loss rate the
  follower measures from gaps in heartbeat sequence IDs (§III-C2).

The package layout mirrors the paper's section structure:

* :mod:`~repro.dynatune.metadata` — the fields piggybacked on heartbeats
  and responses (Fig. 3);
* :mod:`~repro.dynatune.measurement` — the follower's ``RTTs`` and ``ids``
  lists with ``minListSize``/``maxListSize`` semantics (§III-C, §III-E):
  ``record`` stores a heartbeat in O(1), ``estimate`` derives
  ``(μ_RTT, σ_RTT, p)``;
* :mod:`~repro.dynatune.tuner` — the ``Et``/``K``/``h`` formulas with
  clamping and edge-case handling;
* :mod:`~repro.dynatune.policy` — pluggable
  :class:`~repro.dynatune.policy.TuningPolicy` implementations:
  :class:`~repro.dynatune.policy.DynatunePolicy` (the paper's system),
  :class:`~repro.dynatune.policy.StaticPolicy` (Raft and Raft-Low
  baselines) and the Fix-K ablation (``DynatuneConfig(fixed_k=10)``).
"""

from repro.dynatune.config import DynatuneConfig
from repro.dynatune.measurement import PathMeasurement
from repro.dynatune.metadata import HeartbeatMeta, HeartbeatResponseMeta
from repro.dynatune.policy import DynatunePolicy, StaticPolicy, TuningPolicy
from repro.dynatune.tuner import required_heartbeats, tune_election_timeout, tune_heartbeat

__all__ = [
    "DynatuneConfig",
    "DynatunePolicy",
    "HeartbeatMeta",
    "HeartbeatResponseMeta",
    "PathMeasurement",
    "StaticPolicy",
    "TuningPolicy",
    "required_heartbeats",
    "tune_election_timeout",
    "tune_heartbeat",
]
