"""Ablation studies for Dynatune's design choices (§III).

The paper fixes ``s = 2``, ``x = 0.999``, ``minListSize = 10``,
``maxListSize = 1000``, pre-vote on, and the discard-on-timeout fallback,
without measuring the alternatives.  Each study of :data:`STUDIES` varies
one of them over a few values; every (study, value) point is one cell of
:data:`GRID` and one Dynatune simulation:

* ``prevote`` — Fig. 6b's zero-OTS result with and without the pre-vote
  phase;
* ``safety_factor`` — detection speed vs false-detection rate as ``s``
  varies;
* ``arrival_probability`` — heartbeat cost vs missed-heartbeat fallbacks
  as ``x`` varies under loss;
* ``min_list_size`` — warm-up length vs time-to-first-tune;
* ``window`` — ``maxListSize`` vs adaptation lag after an RTT drop;
* ``fallback`` — the §III-B discard rule vs keeping tuned state through
  suspected failures, under the radical RTT spike.

Run with ``python -m repro.experiments.ablations [--study S]``; the
whole grid takes under a second, so ``--smoke`` runs it all too.  The
orderings each study should show are tier-1 tests, not gates here.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from typing import Any, Callable

from repro.cluster.builder import Cluster, ClusterConfig, build_cluster
from repro.cluster.harness import ClusterHarness
from repro.cluster.measurements import extract_failure_episodes, leaderless_intervals, total_interval_length
from repro.dynatune.config import DynatuneConfig
from repro.dynatune.policy import DynatunePolicy
from repro.experiments import grid
from repro.raft.types import RaftConfig
from repro.scenarios.profiles import radical_rtt_profile

__all__ = ["AblationConfig", "AblationPoint", "STUDIES", "GRID", "run_one"]

N_NODES = 5
SEED = 21
#: Dwell of each level of the radical spike (prevote, fallback).
SPIKE_DWELL_MS = 12_000.0
#: Leader kills per safety-factor point, under raised jitter so σ matters.
N_FAILURES = 12
JITTER_SIGMA_MS = 5.0
#: Loss rate and measured span of the arrival-probability study.
LOSS = 0.2
DURATION_MS = 60_000.0
#: The window study's RTT step (ms): Fig. 6a's descending direction.
RTT_STEP = (150.0, 50.0)


@dataclasses.dataclass(slots=True, frozen=True)
class AblationConfig:
    """One point of one study (the grid's cells derive one per value)."""

    system: str = "dynatune"
    study: str = "prevote"
    value: float = 1.0

    def __post_init__(self) -> None:
        if self.system != "dynatune":
            raise ValueError(f"the ablations vary Dynatune alone, not {self.system!r}")


@dataclasses.dataclass(slots=True, frozen=True)
class AblationPoint:
    """One configuration point of a study with its measured outcomes."""

    system: str
    study: str
    label: str
    value: float
    metrics: dict[str, float]


def _cluster(
    dynatune: DynatuneConfig = DynatuneConfig(),
    *,
    jitter_sigma_ms: float = 0.1,
    **network: Any,
) -> Cluster:
    """A started Dynatune cluster; ``network`` overrides ClusterConfig, and
    ``jitter_sigma_ms`` keeps ClusterConfig's 0.1 ms unless a study raises it."""
    cluster = build_cluster(
        ClusterConfig(
            n_nodes=N_NODES, seed=SEED, jitter_sigma_ms=jitter_sigma_ms, **network
        ),
        lambda name: DynatunePolicy(dynatune),
    )
    cluster.start()
    return cluster


def _install_radical_spike(cluster: Cluster) -> float:
    """Fig. 6b's 50 → 500 → 50 ms spike; returns the run's end."""
    schedule = radical_rtt_profile(
        base_ms=50.0, spike_ms=500.0, dwell_ms=SPIKE_DWELL_MS, start_ms=10_000.0
    )
    schedule.install(cluster)
    return schedule.end_ms + SPIKE_DWELL_MS


def _first_leader_and_ots(cluster: Cluster, end: float) -> tuple[float, float]:
    """Time of the first election, and leaderless time after it."""
    leaders = cluster.trace.of_kind("become_leader")
    t0 = leaders[0].time if leaders else 0.0
    return t0, total_interval_length(leaderless_intervals(cluster.trace, t_start=t0, t_end=end))


def _fallbacks(cluster: Cluster) -> int:
    return sum(node.policy.fallbacks for node in cluster.nodes.values())


def _prevote(on: float) -> dict[str, float]:
    """With pre-vote, false detections abort when the live leader speaks
    up (Fig. 6b).  Without it, the first false-detecting candidate
    increments its term, which deposes the leader and forces a real
    election — OTS."""
    cluster = _cluster(raft=RaftConfig(prevote=bool(on)), rtt_ms=50.0)
    end = _install_radical_spike(cluster)
    cluster.run_until(end)
    t0, ots = _first_leader_and_ots(cluster, end)
    return {
        "ots_ms": ots,
        "unnecessary_elections": float(
            sum(1 for r in cluster.trace.of_kind("election_start") if r.time > t0)
        ),
        "leader_changes": float(len(cluster.trace.of_kind("become_leader")) - 1),
    }


def _safety_factor(s: float) -> dict[str, float]:
    """Larger ``s`` widens ``Et = μ + s·σ`` and therefore slows detection —
    the trade of §III-D1.  With ``K = 1`` the heartbeat interval ``h = Et``
    scales *with* Et, so the spurious-timeout rate (the ``draw − h`` margin
    against delivery jitter) is only weakly affected by ``s``; it is
    recorded for reference."""
    cluster = _cluster(DynatuneConfig(safety_factor=s), jitter_sigma_ms=JITTER_SIGMA_MS)
    ClusterHarness(cluster).run_leader_failure_loop(
        N_FAILURES, warmup_ms=8_000.0, sleep_ms=6_000.0, settle_ms=8_000.0
    )
    detections = [
        e.detection_latency_ms
        for e in extract_failure_episodes(cluster.trace, cluster_size=N_NODES)
        if e.resolved
    ]
    # Tuned Et across live tuned followers at end of run.
    ets = [
        node.policy.tuned_et_ms
        for node in cluster.nodes.values()
        if node.policy.tuned_et_ms is not None
    ]
    seconds = cluster.loop.now / 1000.0
    return {
        "mean_detection_ms": sum(detections) / len(detections) if detections else math.nan,
        "mean_tuned_et_ms": sum(ets) / len(ets) if ets else math.nan,
        "resolved_episodes": float(len(detections)),
        "fallbacks_per_node_minute": _fallbacks(cluster) / N_NODES / (seconds / 60.0),
    }


def _arrival_probability(x: float) -> dict[str, float]:
    """Lower ``x`` → smaller K → cheaper heartbeats but more windows with
    no arrival → more fallbacks to the conservative defaults (RTT 200 ms)."""
    cluster = _cluster(DynatuneConfig(arrival_probability=x), rtt_ms=200.0, loss=LOSS)
    cluster.run_until_leader()
    # Initial formation under loss can take a few split rounds; only
    # count elections after the regime is warmed up and tuned.
    cluster.run_for(10_000.0)
    t_stable = cluster.loop.now
    leader = cluster.node(cluster.run_until_leader())
    hb_before = leader.metrics.heartbeats_sent
    cluster.run_for(DURATION_MS)
    return {
        "leader_heartbeats_per_s": (leader.metrics.heartbeats_sent - hb_before)
        / (DURATION_MS / 1000.0),
        "fallbacks": float(_fallbacks(cluster)),
        "unnecessary_elections": float(
            sum(1 for r in cluster.trace.of_kind("election_start") if r.time > t_stable)
        ),
    }


def _min_list_size(m: float) -> dict[str, float]:
    """Warm-up cost: virtual time from first leadership to all followers
    tuned."""
    cluster = _cluster(DynatuneConfig(min_list_size=int(m)))
    leader = cluster.run_until_leader()
    t0 = cluster.loop.now
    followers = [cluster.node(n) for n in cluster.names if n != leader]
    deadline = t0 + 120_000.0
    while cluster.loop.now < deadline:
        if all(f.policy.tuned_et_ms is not None for f in followers):
            break
        cluster.loop.step()
    tuned = all(f.policy.tuned_et_ms is not None for f in followers)
    return {
        "time_to_tuned_ms": cluster.loop.now - t0 if tuned else math.inf,
        "all_tuned": float(tuned),
    }


def _window(w: float) -> dict[str, float]:
    """Adaptation lag on Fig. 6a's descending leg: time after an RTT drop
    until every follower's tuned Et is within 20 % of the new RTT, and the
    §III-B fallbacks meanwhile.  The window is the paper's only smoothing
    mechanism: a 1000-sample window at h ≈ Et means minutes of memory.  (On
    an RTT rise the followers time out and discard their window, so the
    lag there measures the fallback, not the window.)"""
    before, after = RTT_STEP
    cluster = _cluster(DynatuneConfig(max_list_size=int(w)), rtt_ms=before)
    leader = cluster.run_until_leader()
    cluster.run_for(15_000.0)
    cluster.network.set_all_rtt(after)
    t_step, fallbacks_before = cluster.loop.now, _fallbacks(cluster)
    followers = [cluster.node(n) for n in cluster.names if n != leader]
    deadline = t_step + 600_000.0
    converged = None
    while cluster.loop.now < deadline:
        ets = [f.policy.tuned_et_ms for f in followers]
        if all(et is not None and et <= 1.2 * after for et in ets):
            converged = cluster.loop.now
            break
        cluster.loop.step()
    return {
        "adaptation_lag_ms": converged - t_step if converged is not None else math.inf,
        "fallbacks": float(_fallbacks(cluster) - fallbacks_before),
    }


def _fallback(on: float) -> dict[str, float]:
    """One half of the paper's fallback is architectural either way: a
    node that lost sight of its leader arms retry timers from the
    *default* Et, because the tuned value is bound to a known leader.  What
    the discard rule adds is throwing away the measurement window — no
    stale-environment data survives a suspected failure — at the price of
    **time spent untuned** while ``minListSize`` fresh samples accumulate:
    untuned follower-seconds, with OTS checked to be unharmed."""
    cluster = _cluster(DynatuneConfig(fallback_on_timeout=bool(on)), rtt_ms=50.0)
    end = _install_radical_spike(cluster)
    cluster.run_until_leader()
    untuned_seconds = 0.0
    while cluster.loop.now < end:
        cluster.run_for(1_000.0)
        current = cluster.leader()
        untuned_seconds += sum(
            1.0
            for name, node in cluster.nodes.items()
            if name != current and node.alive and node.policy.tuned_et_ms is None
        )
    t0, ots = _first_leader_and_ots(cluster, end)
    return {
        "untuned_follower_seconds": untuned_seconds,
        "false_detections": float(
            sum(1 for r in cluster.trace.of_kind("election_timeout") if r.time > t0)
        ),
        "fallbacks": float(_fallbacks(cluster)),
        "ots_ms": ots,
    }


@dataclasses.dataclass(frozen=True)
class Study:
    """One design choice: the values it takes, a point's label, and the
    measurement of one value."""

    values: tuple[float, ...]
    label: Callable[[float], str]
    measure: Callable[[float], dict[str, float]]


STUDIES: dict[str, Study] = {
    "prevote": Study((1.0, 0.0), lambda v: "prevote-on" if v else "prevote-off", _prevote),
    "safety_factor": Study((0.0, 1.0, 2.0, 4.0), "s={:g}".format, _safety_factor),
    "arrival_probability": Study(
        (0.9, 0.99, 0.999, 0.9999), "x={:g}".format, _arrival_probability
    ),
    "min_list_size": Study((2.0, 10.0, 50.0, 100.0), "minList={:g}".format, _min_list_size),
    "window": Study((30.0, 100.0, 1000.0), "window={:g}".format, _window),
    "fallback": Study((1.0, 0.0), lambda v: "fallback-on" if v else "fallback-off", _fallback),
}


def run_one(config: AblationConfig) -> AblationPoint:
    study = STUDIES[config.study]
    return AblationPoint(
        system=config.system,
        study=config.study,
        label=study.label(config.value),
        value=config.value,
        metrics=study.measure(config.value),
    )


GRID = grid.Grid(
    name="ablations",
    full=AblationConfig(),
    smoke=AblationConfig(),
    cells=lambda base, systems: [
        AblationConfig(system=system, study=name, value=value)
        for name, study in STUDIES.items()
        for value in study.values
        for system in systems
    ],
    run_one=run_one,
    check=lambda runs: [],
    title=lambda c: f"Dynatune §III design choices, {N_NODES} nodes, seed {SEED}",
    columns=("study", "point", "metrics"),
    row=lambda r: (
        r.study,
        r.label,
        ", ".join(f"{k} {v:.4g}" for k, v in r.metrics.items()),
    ),
    held=grid.NO_GATES,
    axes={"study": tuple(STUDIES)},
    systems=("dynatune",),
)

if __name__ == "__main__":  # pragma: no cover
    sys.exit(grid.main(GRID))
