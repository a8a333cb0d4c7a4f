"""Ablation studies for Dynatune's design choices (§III).

The paper fixes ``s = 2``, ``x = 0.999``, ``minListSize = 10``,
``maxListSize = 1000``, pre-vote on, and the discard-on-timeout fallback,
without measuring the alternatives.  These sweeps quantify each choice:

* :func:`prevote_ablation` — Fig. 6b's zero-OTS result with and without
  the pre-vote phase;
* :func:`safety_factor_sweep` — detection speed vs false-detection rate
  as ``s`` varies;
* :func:`arrival_probability_sweep` — heartbeat cost vs missed-heartbeat
  fallbacks as ``x`` varies under loss;
* :func:`min_list_size_sweep` — warm-up length vs time-to-first-tune;
* :func:`window_sweep` — ``maxListSize`` vs adaptation lag after an RTT
  step;
* :func:`fallback_ablation` — the §III-B discard rule vs keeping tuned
  state through suspected failures, under the radical RTT spike.
"""

from __future__ import annotations

import dataclasses
import math

from repro.cluster.builder import ClusterConfig, build_cluster
from repro.cluster.harness import ClusterHarness
from repro.cluster.measurements import extract_failure_episodes, leaderless_intervals, total_interval_length
from repro.dynatune.config import DynatuneConfig
from repro.dynatune.policy import DynatunePolicy
from repro.raft.types import RaftConfig
from repro.scenarios.profiles import radical_rtt_profile

__all__ = [
    "AblationPoint",
    "prevote_ablation",
    "safety_factor_sweep",
    "arrival_probability_sweep",
    "min_list_size_sweep",
    "window_sweep",
    "fallback_ablation",
]


@dataclasses.dataclass(slots=True, frozen=True)
class AblationPoint:
    """One configuration point of a sweep with its measured outcomes."""

    label: str
    value: float
    metrics: dict[str, float]


def _dynatune_cluster(
    *,
    n: int = 5,
    seed: int = 21,
    rtt_ms: float = 100.0,
    jitter_sigma_ms: float = 0.1,
    loss: float = 0.0,
    dynatune: DynatuneConfig | None = None,
    raft: RaftConfig | None = None,
):
    cfg = dynatune if dynatune is not None else DynatuneConfig()
    cluster = build_cluster(
        ClusterConfig(
            n_nodes=n,
            seed=seed,
            rtt_ms=rtt_ms,
            jitter_sigma_ms=jitter_sigma_ms,
            loss=loss,
            raft=raft if raft is not None else RaftConfig(),
        ),
        lambda name: DynatunePolicy(cfg),
    )
    cluster.start()
    return cluster


# --------------------------------------------------------------------- #
# pre-vote
# --------------------------------------------------------------------- #


def prevote_ablation(*, dwell_ms: float = 12_000.0, seed: int = 21) -> list[AblationPoint]:
    """Radical RTT spike with pre-vote on vs off.

    With pre-vote, false detections abort when the live leader speaks up
    (Fig. 6b).  Without it, the first false-detecting candidate increments
    its term, which deposes the leader and forces a real election — OTS.
    """
    points = []
    for prevote in (True, False):
        cluster = _dynatune_cluster(
            raft=RaftConfig(prevote=prevote), seed=seed, rtt_ms=50.0
        )
        schedule = radical_rtt_profile(
            base_ms=50.0, spike_ms=500.0, dwell_ms=dwell_ms, start_ms=10_000.0
        )
        schedule.install(cluster)
        end = schedule.end_ms + dwell_ms
        cluster.run_until(end)
        leaders = cluster.trace.of_kind("become_leader")
        t0 = leaders[0].time if leaders else 0.0
        ots = total_interval_length(
            leaderless_intervals(cluster.trace, t_start=t0, t_end=end)
        )
        elections = [
            r for r in cluster.trace.of_kind("election_start") if r.time > t0
        ]
        points.append(
            AblationPoint(
                label="prevote-on" if prevote else "prevote-off",
                value=float(prevote),
                metrics={
                    "ots_ms": ots,
                    "unnecessary_elections": float(len(elections)),
                    "leader_changes": float(len(leaders) - 1),
                },
            )
        )
    return points


# --------------------------------------------------------------------- #
# safety factor s
# --------------------------------------------------------------------- #


def safety_factor_sweep(
    *,
    factors: tuple[float, ...] = (0.0, 1.0, 2.0, 4.0),
    n_failures: int = 12,
    jitter_sigma_ms: float = 5.0,
    seed: int = 21,
) -> list[AblationPoint]:
    """Tuned Et and detection latency vs ``s``.

    Larger ``s`` widens ``Et = μ + s·σ`` and therefore slows detection —
    the trade the paper describes in §III-D1.  Note that with ``K = 1`` the
    heartbeat interval ``h = Et`` scales *with* Et, so the spurious-timeout
    rate (driven by the ``draw − h`` margin against delivery jitter) is
    only weakly affected by ``s``; the sweep records it for reference.
    Jitter is raised above the testbed default so σ is meaningfully large.
    """
    points = []
    for s in factors:
        cluster = _dynatune_cluster(
            dynatune=DynatuneConfig(safety_factor=s),
            jitter_sigma_ms=jitter_sigma_ms,
            seed=seed,
        )
        harness = ClusterHarness(cluster)
        harness.run_leader_failure_loop(
            n_failures, warmup_ms=8_000.0, sleep_ms=6_000.0, settle_ms=8_000.0
        )
        episodes = [
            e
            for e in extract_failure_episodes(cluster.trace, cluster_size=5)
            if e.resolved
        ]
        detections = [e.detection_latency_ms for e in episodes]
        # Tuned Et across live tuned followers at end of run.
        ets = [
            node.policy.tuned_et_ms
            for node in cluster.nodes.values()
            if isinstance(node.policy, DynatunePolicy)
            and node.policy.tuned_et_ms is not None
        ]
        fallbacks = sum(
            node.policy.fallbacks
            for node in cluster.nodes.values()
            if isinstance(node.policy, DynatunePolicy)
        )
        wall_s = cluster.loop.now / 1000.0
        points.append(
            AblationPoint(
                label=f"s={s:g}",
                value=s,
                metrics={
                    "mean_detection_ms": (
                        sum(detections) / len(detections) if detections else math.nan
                    ),
                    "mean_tuned_et_ms": (
                        sum(ets) / len(ets) if ets else math.nan
                    ),
                    "resolved_episodes": float(len(episodes)),
                    "fallbacks_per_node_minute": fallbacks / 5.0 / (wall_s / 60.0),
                },
            )
        )
    return points


# --------------------------------------------------------------------- #
# arrival probability x
# --------------------------------------------------------------------- #


def arrival_probability_sweep(
    *,
    probabilities: tuple[float, ...] = (0.9, 0.99, 0.999, 0.9999),
    loss: float = 0.2,
    duration_ms: float = 60_000.0,
    seed: int = 21,
) -> list[AblationPoint]:
    """Heartbeat rate vs missed-heartbeat fallbacks as ``x`` varies at a
    fixed 20 % loss rate (RTT 200 ms).

    Lower ``x`` → smaller K → cheaper heartbeats but more windows with no
    arrival → more fallbacks to the conservative defaults.
    """
    points = []
    for x in probabilities:
        cluster = _dynatune_cluster(
            dynatune=DynatuneConfig(arrival_probability=x),
            rtt_ms=200.0,
            loss=loss,
            seed=seed,
        )
        cluster.run_until_leader()
        # Initial formation under loss can take a few split rounds; only
        # count elections after the regime is warmed up and tuned.
        cluster.run_for(10_000.0)
        t_stable = cluster.loop.now
        leader = cluster.run_until_leader()
        leader_node = cluster.node(leader)
        hb_before = leader_node.metrics.heartbeats_sent
        cluster.run_for(duration_ms)
        hb_rate = (leader_node.metrics.heartbeats_sent - hb_before) / (
            duration_ms / 1000.0
        )
        fallbacks = sum(
            node.policy.fallbacks
            for node in cluster.nodes.values()
            if isinstance(node.policy, DynatunePolicy)
        )
        elections = [
            r
            for r in cluster.trace.of_kind("election_start")
            if r.time > t_stable
        ]
        points.append(
            AblationPoint(
                label=f"x={x:g}",
                value=x,
                metrics={
                    "leader_heartbeats_per_s": hb_rate,
                    "fallbacks": float(fallbacks),
                    "unnecessary_elections": float(len(elections)),
                },
            )
        )
    return points


# --------------------------------------------------------------------- #
# minListSize
# --------------------------------------------------------------------- #


def min_list_size_sweep(
    *,
    sizes: tuple[int, ...] = (2, 10, 50, 100),
    seed: int = 21,
) -> list[AblationPoint]:
    """Warm-up cost: virtual time from first leadership to all followers
    tuned, per ``minListSize``."""
    points = []
    for m in sizes:
        cluster = _dynatune_cluster(
            dynatune=DynatuneConfig(min_list_size=m), seed=seed
        )
        leader = cluster.run_until_leader()
        t0 = cluster.loop.now
        followers = [cluster.node(n) for n in cluster.names if n != leader]
        deadline = t0 + 120_000.0
        while cluster.loop.now < deadline:
            if all(f.policy.tuned_et_ms is not None for f in followers):
                break
            cluster.loop.step()
        tuned = all(f.policy.tuned_et_ms is not None for f in followers)
        points.append(
            AblationPoint(
                label=f"minList={m}",
                value=float(m),
                metrics={
                    "time_to_tuned_ms": cluster.loop.now - t0 if tuned else math.inf,
                    "all_tuned": float(tuned),
                },
            )
        )
    return points


# --------------------------------------------------------------------- #
# maxListSize (estimator window)
# --------------------------------------------------------------------- #


def window_sweep(
    *,
    windows: tuple[int, ...] = (30, 100, 1000),
    rtt_step: tuple[float, float] = (50.0, 150.0),
    seed: int = 21,
) -> list[AblationPoint]:
    """Adaptation lag after an RTT step, per ``maxListSize``.

    The window is the paper's only smoothing mechanism: a 1000-sample
    window at h ≈ Et means minutes of memory, so the descending legs of
    Fig. 6a lag.  This sweep measures time until the tuned Et reaches
    within 20 % of the new RTT.
    """
    lo, hi = rtt_step
    points = []
    for w in windows:
        cluster = _dynatune_cluster(
            dynatune=DynatuneConfig(max_list_size=w), rtt_ms=lo, seed=seed
        )
        leader = cluster.run_until_leader()
        cluster.run_for(15_000.0)
        cluster.network.set_all_rtt(hi)
        t_step = cluster.loop.now
        followers = [cluster.node(n) for n in cluster.names if n != leader]
        deadline = t_step + 600_000.0
        converged = None
        while cluster.loop.now < deadline:
            ets = [f.policy.tuned_et_ms for f in followers]
            if all(et is not None and et >= 0.8 * hi for et in ets):
                converged = cluster.loop.now
                break
            cluster.loop.step()
        points.append(
            AblationPoint(
                label=f"window={w}",
                value=float(w),
                metrics={
                    "adaptation_lag_ms": (
                        converged - t_step if converged is not None else math.inf
                    ),
                },
            )
        )
    return points


# --------------------------------------------------------------------- #
# fallback rule
# --------------------------------------------------------------------- #


def fallback_ablation(
    *, dwell_ms: float = 12_000.0, seed: int = 21
) -> list[AblationPoint]:
    """§III-B measurement-discard rule vs keeping data, under the spike.

    Note that one half of the paper's fallback is architectural either
    way: a node that lost sight of its leader arms retry timers from the
    *default* Et because the tuned value is bound to a known leader.  What
    the discard rule adds is throwing away the measurement window — buying
    conservatism (no stale-environment data survives a suspected failure)
    at the price of **time spent untuned** while ``minListSize`` fresh
    samples accumulate.  This sweep quantifies exactly that trade:
    untuned follower-seconds over a radical-spike run, with availability
    (OTS) checked to be unharmed in both variants.
    """
    points = []
    for fallback in (True, False):
        cluster = _dynatune_cluster(
            dynatune=DynatuneConfig(fallback_on_timeout=fallback),
            rtt_ms=50.0,
            seed=seed,
        )
        schedule = radical_rtt_profile(
            base_ms=50.0, spike_ms=500.0, dwell_ms=dwell_ms, start_ms=10_000.0
        )
        schedule.install(cluster)
        end = schedule.end_ms + dwell_ms
        leader = cluster.run_until_leader()
        untuned_seconds = 0.0
        while cluster.loop.now < end:
            cluster.run_for(1_000.0)
            current = cluster.leader()
            for name in cluster.names:
                node = cluster.node(name)
                if (
                    name != current
                    and node.alive
                    and isinstance(node.policy, DynatunePolicy)
                    and node.policy.tuned_et_ms is None
                ):
                    untuned_seconds += 1.0
        leaders = cluster.trace.of_kind("become_leader")
        t0 = leaders[0].time if leaders else 0.0
        timeouts = [
            r for r in cluster.trace.of_kind("election_timeout") if r.time > t0
        ]
        ots = total_interval_length(
            leaderless_intervals(cluster.trace, t_start=t0, t_end=end)
        )
        fallbacks = sum(
            node.policy.fallbacks
            for node in cluster.nodes.values()
            if isinstance(node.policy, DynatunePolicy)
        )
        points.append(
            AblationPoint(
                label="fallback-on" if fallback else "fallback-off",
                value=float(fallback),
                metrics={
                    "untuned_follower_seconds": untuned_seconds,
                    "false_detections": float(len(timeouts)),
                    "fallbacks": float(fallbacks),
                    "ots_ms": ots,
                },
            )
        )
    return points
