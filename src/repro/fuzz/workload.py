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
  pair replays bit-for-bit.  A client's op draws are served from blocks
  of its private ``fuzz/client/<name>`` stream (:class:`_BlockDraws`),
  like a quiet :class:`~repro.net.link.Link`'s jitter block: the same
  values, in the same order, as scalar ``Generator`` calls.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from repro.cluster.builder import Cluster
from repro.fuzz.history import OpHistory
from repro.raft.client import RaftClient
from repro.raft.state_machine import kv_delete, kv_get, kv_put
from repro.sim.events import PRIORITY_CONTROL

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
        # A reproducer's JSON may carry 2.0 or true where a count belongs;
        # both compare like the integer and fail only later, deep in
        # install() or the draws.
        for name in ("n_clients", "n_keys", "read_only_clients", "max_ops_per_client"):
            value = getattr(self, name)
            if type(value) is bool or not isinstance(value, int):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if self.n_clients < 1 or self.n_keys < 1:
            raise ValueError("workload needs >= 1 client and >= 1 key")
        if not (0 <= self.read_only_clients <= self.n_clients):
            raise ValueError("need 0 <= read_only_clients <= n_clients")
        if self.max_ops_per_client < 0:
            raise ValueError("max_ops_per_client must be >= 0")
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
        self.clients: list[RaftClient] = []
        self._keys = [f"k{i + 1}" for i in range(config.n_keys)]
        # Each key's get and delete are built once and shared by every op
        # that draws them (a command is immutable); a put's value is
        # unique, so each put builds its own.
        self._gets = [kv_get(key) for key in self._keys]
        self._deletes = [kv_delete(key) for key in self._keys]
        #: From an op's issue to its fallback deadline: the client's
        #: abandon timeout plus the longest think.
        self._fallback_ms = config.op_timeout_ms + config.think_max_ms
        self._loops: list[_ClientLoop] = []

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
            rng = self.cluster.rngs.stream(f"fuzz/client/{name}")
            # Stagger the first ops so clients do not march in lockstep.
            first = cfg.start_ms + float(rng.uniform(0.0, cfg.think_max_ms))
            ops = _ClientLoop(self, client, _BlockDraws(rng), i < cfg.read_only_clients)
            self._loops.append(ops)
            loop.schedule_at(first, ops.issue, priority=PRIORITY_CONTROL)

    # -- stats ----------------------------------------------------------- #

    @property
    def ops_issued(self) -> int:
        return sum(ops.issued for ops in self._loops)


class _ClientLoop:
    """One sequential client: issue an op, settle it, think, issue the next.

    An op settles when its client reports it complete (``settle`` is the
    client's ``on_complete``) or, failing that, at its fallback deadline,
    whichever comes first; a late answer to an op already settled is
    ignored.  Only the newest op can be open, so the fallback deadlines
    need one slot, not a queue.  Each issue stores its deadline and
    reserves the loop sequence number an eager ``schedule`` would have
    taken then.  At most one event is armed, for the op open when it was
    armed, at that op's ``(time, priority, seq)`` key; if that op has
    settled by then, the event re-arms for the op open now, at its stored
    key — as :class:`~repro.sim.timers.DeadlineQueue` re-arms for its
    first live entry.  Every expiry therefore runs at the same instant and
    in the same order as one scheduled per op.
    """

    __slots__ = (
        "_driver",
        "_loop",
        "_client",
        "_draws",
        "_read_only",
        "issued",
        "_open",
        "_fb_deadline",
        "_fb_seq",
        "_armed",
        "_issue_cb",
        "_settle_cb",
        "_expire_cb",
    )

    def __init__(
        self,
        driver: WorkloadDriver,
        client: RaftClient,
        draws: _BlockDraws,
        read_only: bool,
    ) -> None:
        self._driver = driver
        self._loop = driver.cluster.loop
        self._client = client
        self._draws = draws
        self._read_only = read_only
        #: Ops issued so far; the next put's value suffix.
        self.issued = 0
        #: Request id of the open op, ``-1`` while none is.
        self._open = -1
        #: The fallback key the newest op reserved.
        self._fb_deadline = 0.0
        self._fb_seq = 0
        #: Request id the armed fallback event is for, ``-1`` if none is.
        self._armed = -1
        # Bound once: the loop and the client hold these, not a fresh
        # bound method per op.
        self._issue_cb = self.issue
        self._settle_cb = self.settle
        self._expire_cb = self._expire

    def issue(self) -> None:
        driver = self._driver
        cfg = driver.config
        loop = self._loop
        seq = self.issued
        if loop.now >= driver.stop_ms or seq >= cfg.max_ops_per_client:
            return
        draws = self._draws
        k = draws.integers(cfg.n_keys)
        is_read = False
        if self._read_only:
            command = driver._gets[k]
            is_read = cfg.read_fastpath
        else:
            draw = draws.random()
            if draw < cfg.p_put:
                command = kv_put(driver._keys[k], self._client.name + ":" + str(seq))
            elif draw < cfg.p_put + cfg.p_get:
                command = driver._gets[k]
                is_read = cfg.read_fastpath
            else:
                command = driver._deletes[k]
        self.issued = seq + 1
        req = self._open = self._client.submit(
            command, on_complete=self._settle_cb, read=is_read
        )
        # Fallback: if no answer settles the op by its deadline, move on
        # regardless.
        fb_seq = self._fb_seq = loop._reserve_seq()
        deadline = self._fb_deadline = loop.now + driver._fallback_ms
        if self._armed < 0:
            self._armed = req
            loop._push_reserved(deadline, PRIORITY_CONTROL, fb_seq, self._expire_cb)

    def settle(self, req_id: int) -> None:
        """Op ``req_id`` completed or timed out; chain the next issue once."""
        if req_id != self._open:
            return
        self._open = -1
        cfg = self._driver.config
        lo = cfg.think_min_ms
        # Generator.uniform(lo, hi) to the bit, value and stream position.
        think = lo + (cfg.think_max_ms - lo) * self._draws.random()
        self._loop.schedule(think, self._issue_cb, priority=PRIORITY_CONTROL)

    def _expire(self) -> None:
        """The armed fallback event: settle its op if that is still open;
        else arm for the open op, the newest, if there is one."""
        armed = self._armed
        self._armed = -1
        if armed == self._open:
            self.settle(armed)
        elif self._open >= 0:
            self._armed = self._open
            self._loop._push_reserved(
                self._fb_deadline, PRIORITY_CONTROL, self._fb_seq, self._expire_cb
            )


#: Raw 64-bit outputs a client's stream draws at once: 128 clients hold
#: 8 192 of them, about 0.3 MB.
_DRAW_BLOCK = 64
_LOW32 = 0xFFFFFFFF
#: 2**-53: numpy's ``next_double`` scale for the top 53 bits of an output.
_TO_UNIT = 1.0 / 9007199254740992.0


class _BlockDraws:
    """``random()`` and ``integers(n)`` of a PCG64 ``Generator``, served
    from blocks of ``bit_generator.random_raw`` output.

    The arithmetic is numpy's own, bit for bit: ``random()`` is
    ``next_double`` (the top 53 bits of one 64-bit output, scaled), and
    ``integers(n)`` for ``1 <= n <= 2**32`` is Lemire's bounded draw on
    ``next_uint32``, which serves the high half of a 64-bit output on the
    call after the one that took its low half.  That buffered half is
    carried over from the generator at construction, so the values and
    their order equal scalar ``Generator`` calls from where the stream
    stood.  The generator itself runs up to one block ahead: nothing else
    may draw from it afterwards.
    """

    __slots__ = ("_bitgen", "_raw", "_pos", "_half")

    def __init__(self, rng: np.random.Generator) -> None:
        bitgen = self._bitgen = rng.bit_generator
        state = bitgen.state
        if state["bit_generator"] != "PCG64":
            raise TypeError(f"block draws replicate PCG64, not {state['bit_generator']}")
        #: The buffered high half of the last output ``next_uint32`` split.
        self._half: int | None = state["uinteger"] if state["has_uint32"] else None
        self._raw: list[int] = []
        self._pos = _DRAW_BLOCK

    def random(self) -> float:
        pos = self._pos
        if pos == _DRAW_BLOCK:
            self._raw = self._bitgen.random_raw(_DRAW_BLOCK).tolist()
            pos = 0
        self._pos = pos + 1
        return (self._raw[pos] >> 11) * _TO_UNIT

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        pos = self._pos
        if pos == _DRAW_BLOCK:
            self._raw = self._bitgen.random_raw(_DRAW_BLOCK).tolist()
            pos = 0
        self._pos = pos + 1
        raw = self._raw[pos]
        self._half = raw >> 32
        return raw & _LOW32

    def integers(self, n: int) -> int:
        """A uniform int in ``[0, n)``; ``1 <= n <= 2**32``."""
        if n == 1:
            return 0  # one value: numpy draws nothing
        m = self._next32() * n
        if m & _LOW32 < n:
            # Reject the low 2**32 % n products (numpy's threshold).
            threshold = (1 << 32) % n
            while m & _LOW32 < threshold:
                m = self._next32() * n
        return m >> 32
