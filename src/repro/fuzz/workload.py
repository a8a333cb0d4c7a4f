"""Concurrent-client KV workload whose operations form a checkable history.

The driver attaches a handful of at-most-once clients
(``resubmit_on_timeout=False`` — see :class:`~repro.raft.client.RaftClient`)
to a cluster and runs each as a sequential loop: submit one operation,
wait for its completion *or* its abandonment, think, submit the next.
Every operation lands in a shared :class:`~repro.fuzz.history.OpHistory`
the linearizability checker consumes afterwards.

Design constraints, all load-bearing for the oracle:

* **sequential clients** — a client never has two of its own ops open by
  choice (an abandoned op may still complete late; that only tightens the
  history), matching the sequential-process model linearizability assumes;
* **contended keys** — the key space is tiny by default so concurrent
  clients collide, which is where linearizability violations live;
* **unique put values** — every put writes ``"<client>:<seq>"``, so the
  checker can distinguish every write (the Jepsen register recipe);
* **determinism** — all randomness comes from named streams of the
  cluster's :class:`~repro.sim.rng.RngRegistry`, so a (seed, scenario)
  pair replays bit-for-bit.
"""

from __future__ import annotations

import dataclasses
import math
from functools import partial

from repro.cluster.builder import Cluster
from repro.fuzz.history import OpHistory
from repro.raft.state_machine import kv_delete, kv_get, kv_put
from repro.sim.events import PRIORITY_CONTROL
from repro.sim.timers import DeadlineQueue

__all__ = ["WorkloadConfig", "WorkloadDriver"]


@dataclasses.dataclass(slots=True, frozen=True)
class WorkloadConfig:
    """Shape of the fuzz workload.

    Attributes:
        n_clients: concurrent sequential clients.
        n_keys: size of the (deliberately small) key space.
        op_timeout_ms: client abandon timeout per operation.
        think_min_ms / think_max_ms: uniform gap between an op settling
            and the next submission.
        p_put / p_get: op mix (the remainder are deletes).
        start_ms: first submissions (staggered per client).
        max_ops_per_client: hard cap keeping per-key sub-histories small
            enough for the checker.
        read_fastpath: route gets over the leader's read fast path
            (ReadIndex / lease serving) instead of log serialization.
            ``False`` is the default and what every existing reproducer
            file implies — fast-path reads are *claimed* linearizable,
            and this knob puts that claim in front of the checker.
        read_only_clients: the first this-many clients issue only gets
            (monitors/dashboards — the consumers read leases exist for).
            A read-only client never hits the write path's timeouts, so
            it stays parked on whichever node keeps answering — exactly
            the observer that notices a fenced-off leader serving stale
            lease reads.  ``0`` is the default and what every existing
            reproducer file implies.
        client_rtt_ms: client↔server RTT; ``None`` (the default, and what
            every existing reproducer file implies) keeps the cluster's
            pairwise RTT.  The serving bench sets it low to model clients
            co-located with the serving edge of a geo-replicated cluster.
    """

    n_clients: int = 3
    n_keys: int = 2
    op_timeout_ms: float = 1200.0
    think_min_ms: float = 40.0
    think_max_ms: float = 260.0
    p_put: float = 0.5
    p_get: float = 0.35
    start_ms: float = 400.0
    max_ops_per_client: int = 40
    read_fastpath: bool = False
    read_only_clients: int = 0
    client_rtt_ms: float | None = None

    def __post_init__(self) -> None:
        if self.n_clients < 1 or self.n_keys < 1:
            raise ValueError("workload needs >= 1 client and >= 1 key")
        if not (0 <= self.read_only_clients <= self.n_clients):
            raise ValueError("need 0 <= read_only_clients <= n_clients")
        # A reproducer's JSON may carry NaN, which fails every
        # comparison: hence the negated, finite forms.
        if not (0.0 < self.op_timeout_ms < math.inf):
            raise ValueError("op_timeout_ms must be finite and > 0")
        if not (0.0 <= self.p_put and 0.0 <= self.p_get and self.p_put + self.p_get <= 1.0):
            raise ValueError("op mix probabilities must be in [0, 1] and sum <= 1")
        if not (0.0 <= self.think_min_ms <= self.think_max_ms < math.inf):
            raise ValueError("need 0 <= think_min_ms <= think_max_ms, both finite")
        if not (0.0 <= self.start_ms < math.inf):
            raise ValueError("start_ms must be finite and >= 0")
        rtt = self.client_rtt_ms
        if rtt is not None and not (0.0 <= rtt < math.inf):
            raise ValueError("client_rtt_ms must be None, or finite and >= 0")


class WorkloadDriver:
    """Runs the closed-loop clients of one fuzz trial."""

    def __init__(
        self,
        cluster: Cluster,
        config: WorkloadConfig,
        history: OpHistory,
        *,
        stop_ms: float,
    ) -> None:
        self.cluster = cluster
        self.config = config
        self.history = history
        self.stop_ms = stop_ms
        self.clients = []
        self._keys = [f"k{i + 1}" for i in range(config.n_keys)]
        # Each key's get and delete are built once and shared by every op
        # that draws them (a command is immutable); a put's value is
        # unique, so each put builds its own.
        self._gets = [kv_get(key) for key in self._keys]
        self._deletes = [kv_delete(key) for key in self._keys]
        #: per-client issued-op counter; doubles as the chaining token.
        self._issued: list[int] = []
        self._settled: list[bool] = []
        #: per-client fallback deadlines (op token -> move on regardless).
        self._fallbacks: list[DeadlineQueue] = []
        self._rngs = []
        #: per-client completion callback (one for all of a client's ops).
        self._on_done = []

    def install(self) -> None:
        """Attach the clients and schedule their first submissions."""
        cfg = self.config
        loop = self.cluster.loop
        for i in range(cfg.n_clients):
            name = f"fc{i + 1}"
            client = self.cluster.add_client(
                name,
                rtt_ms=cfg.client_rtt_ms,
                retry_timeout_ms=cfg.op_timeout_ms,
                history=self.history,
                resubmit_on_timeout=False,
            )
            self.clients.append(client)
            self._issued.append(0)
            self._settled.append(True)
            self._fallbacks.append(
                DeadlineQueue(
                    loop,
                    cfg.op_timeout_ms + cfg.think_max_ms,
                    partial(self._settle, i),
                    partial(self._unsettled, i),
                    PRIORITY_CONTROL,
                )
            )
            self._rngs.append(self.cluster.rngs.stream(f"fuzz/client/{name}"))
            self._on_done.append(partial(self._completed, i))
            # Stagger the first ops so clients do not march in lockstep.
            first = cfg.start_ms + float(self._rngs[i].uniform(0.0, cfg.think_max_ms))
            loop.schedule_at(
                first, _IssueOp(self, i, 0), priority=PRIORITY_CONTROL
            )

    # ------------------------------------------------------------------ #
    # per-client loop
    # ------------------------------------------------------------------ #

    def _issue(self, ci: int, token: int) -> None:
        if token != self._issued[ci]:
            return  # a newer op already superseded this chain link
        cfg = self.config
        now = self.cluster.loop.now
        if now >= self.stop_ms or self._issued[ci] >= cfg.max_ops_per_client:
            return
        rng = self._rngs[ci]
        client = self.clients[ci]
        k = int(rng.integers(cfg.n_keys))
        seq = self._issued[ci]
        is_read = False
        if ci < cfg.read_only_clients:
            command = self._gets[k]
            is_read = cfg.read_fastpath
        else:
            draw = float(rng.random())
            if draw < cfg.p_put:
                command = kv_put(self._keys[k], client.name + ":" + str(seq))
            elif draw < cfg.p_put + cfg.p_get:
                command = self._gets[k]
                is_read = cfg.read_fastpath
            else:
                command = self._deletes[k]
        self._issued[ci] = seq + 1
        self._settled[ci] = False
        client.submit(command, on_complete=self._on_done[ci], read=is_read)
        # Fallback: if the op neither completes nor is superseded by the
        # time the client has abandoned it, move on regardless.
        self._fallbacks[ci].add(seq + 1)

    def _unsettled(self, ci: int, token: int) -> bool:
        return token == self._issued[ci] and not self._settled[ci]

    def _completed(self, ci: int, request_id: int) -> None:
        # The clients are this driver's own, so a request id is the number
        # of ops issued before it: the op's token less one.
        self._settle(ci, request_id + 1)

    def _settle(self, ci: int, token: int) -> None:
        """An op completed or timed out; chain the next submission once."""
        if not self._unsettled(ci, token):
            return
        self._settled[ci] = True
        cfg = self.config
        lo = cfg.think_min_ms
        # Generator.uniform(lo, hi) to the bit, value and stream position.
        think = lo + (cfg.think_max_ms - lo) * self._rngs[ci].random()
        self.cluster.loop.schedule(
            think, _IssueOp(self, ci, token), priority=PRIORITY_CONTROL
        )

    # -- stats ----------------------------------------------------------- #

    @property
    def ops_issued(self) -> int:
        return sum(self._issued)


class _IssueOp:
    """Bound issue callback (no late-binding closures in the event loop)."""

    __slots__ = ("_driver", "_ci", "_token")

    def __init__(self, driver: WorkloadDriver, ci: int, token: int) -> None:
        self._driver = driver
        self._ci = ci
        self._token = token

    def __call__(self) -> None:
        self._driver._issue(self._ci, self._token)
