"""Workloads: real open-loop clients and the Fig. 5 fluid throughput model.

Two layers, for two different regimes:

* :class:`OpenLoopDriver` — drives a real :class:`~repro.raft.client.
  RaftClient` with Poisson arrivals through the actual Raft replication
  path.  Used by examples and integration tests at rates where simulating
  every request is sensible.

* :func:`run_rps_staircase` — the §IV-B2 experiment at etcd-scale rates
  (thousands of req/s, where per-request discrete events would dominate
  the whole benchmark suite for no informational gain).  A fluid
  single-queue model of the leader: offered load accumulates in a FIFO
  backlog drained at the CPU-capacity service rate; per-tick latency is
  backlog/rate (FIFO waiting time) plus the fixed commit path
  (client→leader hop + one replication round trip).  Peak throughput is
  where the drain rate saturates — exactly the knee the paper reports.
  Dynatune's tuning overhead enters as a calibrated multiplicative factor
  on per-request service cost (the ~6 % gap is an implementation
  overhead the paper measures but does not derive; we reproduce it as a
  parameter, not a prediction).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable

import numpy as np

from repro.raft.client import RaftClient
from repro.sim.loop import EventLoop

__all__ = [
    "OpenLoopDriver",
    "FluidWorkloadConfig",
    "LoadLevelResult",
    "run_rps_staircase",
    "peak_throughput",
]


class OpenLoopDriver:
    """Poisson open-loop submission onto a :class:`RaftClient`.

    Requests are generated by ``command_factory(i)`` (defaults to
    ``kv_put("k<i>", i)`` if ``None``); arrivals are exponential with mean
    ``1000 / rps`` ms.  The driver does not wait for completions — that is
    what "open loop" means — so queueing shows up as client latency.
    """

    def __init__(
        self,
        loop: EventLoop,
        client: RaftClient,
        *,
        rps: float,
        rng: np.random.Generator,
        command_factory: Callable[[int], Any] | None = None,
    ) -> None:
        if rps <= 0:
            raise ValueError(f"rps must be > 0, got {rps!r}")
        self.loop = loop
        self.client = client
        self.rps = float(rps)
        self.rng = rng
        self.submitted = 0
        if command_factory is None:
            from repro.raft.state_machine import kv_put

            command_factory = lambda i: kv_put(f"k{i}", i)  # noqa: E731
        self._command_factory = command_factory
        self._stopped = False

    def start(self) -> None:
        self._schedule_next()

    def stop(self) -> None:
        self._stopped = True

    def _schedule_next(self) -> None:
        gap = float(self.rng.exponential(1000.0 / self.rps))
        self.loop.schedule(gap, self._fire)

    def _fire(self) -> None:
        if self._stopped:
            return
        self.client.submit(self._command_factory(self.submitted))
        self.submitted += 1
        self._schedule_next()


# --------------------------------------------------------------------- #
# Fig. 5 fluid model
# --------------------------------------------------------------------- #

#: Load-independent commit latency: client→leader hop plus one majority
#: replication round trip (2 × RTT/2 each at RTT = 100 ms → 200 ms, the
#: low-load plateau of Fig. 5).
BASE_LATENCY_MS = 200.0


@dataclasses.dataclass(slots=True, frozen=True)
class FluidWorkloadConfig:
    """Calibration of the leader's request-processing pipeline.

    Attributes:
        service_cost_ms: CPU-milliseconds of leader work per request
            (parse + append + replicate + commit bookkeeping + respond).
        cores: leader CPU allocation (4 in §IV-A).
        overhead_factor: multiplicative service-cost factor; 1.0 for Raft,
            calibrated ≈ 1.068 for Dynatune (§IV-B2 measures a 6.4 % peak
            gap from tuning overhead).
        heartbeat_cpu_ms_per_s: CPU the leader spends on heartbeats per
            wall second (reduces capacity; identical for Raft and Dynatune
            at the stable-network operating point since both send at
            ≈ 100 ms intervals there).
        service_cv2: squared coefficient of variation of the bottleneck
            service time, for the M/G/1 congestion-wait term
            ``W = ρ/(1−ρ) · (1+CV²)/2 · E[S]``.  etcd's request path is
            punctuated by WAL fsyncs and GC pauses that cost milliseconds
            against a ~0.3 ms mean — a heavy tail (CV² ≫ 1) — which is why
            the paper's latency climbs smoothly from 200 ms toward 700 ms
            *before* the knee rather than jumping at saturation.
    """

    service_cost_ms: float = 0.29
    cores: float = 4.0
    overhead_factor: float = 1.0
    heartbeat_cpu_ms_per_s: float = 12.8
    service_cv2: float = 40.0

    def __post_init__(self) -> None:
        if self.service_cost_ms <= 0:
            raise ValueError("service_cost_ms must be > 0")
        if self.cores <= 0:
            raise ValueError("cores must be > 0")
        if self.overhead_factor < 1.0:
            raise ValueError("overhead_factor must be >= 1.0")
        if self.heartbeat_cpu_ms_per_s < 0:
            raise ValueError("heartbeat_cpu_ms_per_s must be >= 0")
        if self.service_cv2 < 0:
            raise ValueError("service_cv2 must be >= 0")

    @property
    def capacity_rps(self) -> float:
        """Saturation service rate (requests/second)."""
        cpu_ms_per_s = self.cores * 1000.0 - self.heartbeat_cpu_ms_per_s
        return cpu_ms_per_s / (self.service_cost_ms * self.overhead_factor)


@dataclasses.dataclass(slots=True, frozen=True)
class LoadLevelResult:
    """Aggregate result of one RPS level of the staircase."""

    offered_rps: float
    throughput_rps: float
    mean_latency_ms: float
    p99_latency_ms: float


def run_rps_staircase(
    config: FluidWorkloadConfig,
    *,
    levels: list[float] | None = None,
    dwell_s: float = 10.0,
    tick_ms: float = 10.0,
    rng: np.random.Generator | None = None,
    arrival_noise: float = 0.05,
) -> list[LoadLevelResult]:
    """Replay the §IV-B2 staircase: +1000 req/s every ``dwell_s`` seconds.

    The backlog persists across levels (the paper's clients never stop),
    which is what makes average latency climb steeply past the knee.

    Args:
        arrival_noise: relative Gaussian noise on per-tick arrivals, so
            repeated runs produce realistic spread rather than identical
            curves.
    """
    if levels is None:
        levels = [1000.0 * k for k in range(1, 16)]
    if rng is None:
        rng = np.random.default_rng(0)
    mu_per_ms = config.capacity_rps / 1000.0  # requests drained per ms
    backlog = 0.0  # requests queued at the leader
    results: list[LoadLevelResult] = []
    ticks_per_level = int(round(dwell_s * 1000.0 / tick_ms))

    for rps in levels:
        completed = 0.0
        latencies: list[float] = []
        weights: list[float] = []
        # Stochastic congestion wait at this utilisation (M/G/1; see
        # FluidWorkloadConfig.service_cv2).  The fluid backlog below only
        # captures sustained overload; this term captures the pre-knee
        # queueing that a deterministic fluid has none of.  ρ is capped at
        # 0.95: past saturation the formula diverges and the deterministic
        # backlog term below is the physically meaningful wait.
        rho = min(rps / config.capacity_rps, 0.95)
        w_mg1 = (
            rho
            / (1.0 - rho)
            * (1.0 + config.service_cv2)
            / 2.0
            * config.service_cost_ms
            * config.overhead_factor
        )
        for _ in range(ticks_per_level):
            arrivals = rps * tick_ms / 1000.0
            if arrival_noise > 0:
                arrivals = max(0.0, arrivals * (1.0 + rng.normal(0.0, arrival_noise)))
            backlog += arrivals
            drained = min(backlog, mu_per_ms * tick_ms)
            backlog -= drained
            completed += drained
            if drained > 0:
                # FIFO: work completing now waited (backlog ahead)/rate.
                wait_ms = backlog / mu_per_ms
                latencies.append(BASE_LATENCY_MS + w_mg1 + wait_ms)
                weights.append(drained)
        if completed > 0:
            lat = np.asarray(latencies)
            w = np.asarray(weights)
            mean_latency = float(np.average(lat, weights=w))
            order = np.argsort(lat)
            cum = np.cumsum(w[order]) / w.sum()
            p99 = float(lat[order][np.searchsorted(cum, 0.99)])
        else:
            mean_latency = BASE_LATENCY_MS
            p99 = BASE_LATENCY_MS
        results.append(
            LoadLevelResult(
                offered_rps=rps,
                throughput_rps=completed / dwell_s,
                mean_latency_ms=mean_latency,
                p99_latency_ms=p99,
            )
        )
    return results


def peak_throughput(results: list[LoadLevelResult]) -> float:
    """Peak sustained throughput over a staircase run (req/s)."""
    return max(r.throughput_rps for r in results) if results else 0.0
