"""Client sessions for the replicated KV service.

A :class:`RaftClient` is a simulated process that submits commands, follows
leader redirects, retries on silence, and records per-request latency.  It
is the building block of the examples and the correctness tests; the
high-rate open-loop load of Fig. 5 uses the fluid model in
:mod:`repro.cluster.workload` instead.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterator, Sequence
from itertools import starmap
from operator import sub
from typing import Any, Callable, overload

from repro.raft.messages import ClientReadRequest, ClientRequest, ClientResponse
from repro.sim.clock import NodeClock
from repro.sim.events import PRIORITY_MESSAGE
from repro.sim.loop import EventLoop
from repro.sim.timers import DeadlineQueue
from repro.sim.tracing import TraceLog

__all__ = ["RaftClient", "CompletedRequest", "CompletedRequests"]

#: Retransmissions (timeouts and redirects) before a client gives a
#: request up; tests lower a client's ``max_retries`` to reach that path.
MAX_RETRIES = 50


@dataclasses.dataclass(slots=True)
class CompletedRequest:
    """Outcome of one client command."""

    request_id: int
    command: Any
    submitted_ms: float
    completed_ms: float
    result: Any
    retries: int

    @property
    def latency_ms(self) -> float:
        return self.completed_ms - self.submitted_ms


#: Fields per row of a client's completion record, in
#: :class:`CompletedRequest` order.
_ROW = 6


class CompletedRequests(Sequence[CompletedRequest]):
    """Read-only, live view of a client's completions, oldest first.

    The client keeps each completion as one flat row of atomic values in
    a single list, so a finished operation leaves no object behind for
    the cyclic collector; this view builds a :class:`CompletedRequest`
    for whoever reads one.  It behaves like the list it replaces: ``len``,
    indexing (negative and slices too), iteration, and ``==`` against a
    list or another view; it sees every later completion.
    """

    __slots__ = ("_rows",)

    def __init__(self, rows: list[Any]) -> None:
        self._rows = rows

    def __len__(self) -> int:
        return len(self._rows) // _ROW

    @overload
    def __getitem__(self, index: int) -> CompletedRequest: ...

    @overload
    def __getitem__(self, index: slice) -> list[CompletedRequest]: ...

    def __getitem__(
        self, index: int | slice
    ) -> CompletedRequest | list[CompletedRequest]:
        rows = self._rows
        at = range(0, len(rows), _ROW)[index]
        if isinstance(at, range):
            return [CompletedRequest(*rows[i : i + _ROW]) for i in at]
        return CompletedRequest(*rows[at : at + _ROW])

    def __iter__(self) -> Iterator[CompletedRequest]:
        return starmap(CompletedRequest, zip(*[iter(self._rows)] * _ROW))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CompletedRequests):
            return self._rows == other._rows
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented

    def __repr__(self) -> str:
        return repr(list(self))


class RaftClient:
    """A client endpoint attached to the cluster network.

    The client starts by guessing a contact node; on redirect it follows
    ``leader_hint``; on timeout (no answer within ``retry_timeout_ms``) it
    retries round-robin across the cluster.  This mirrors how etcd clients
    ride out leader failures and is what the quickstart example
    demonstrates.

    Two hooks exist for the fuzz oracle:

    * ``history`` — an operation recorder (``invoke``/``complete``/
      ``abandon``) fed at submit, success and give-up time.  The
      linearizability checker consumes these records.
    * ``resubmit_on_timeout=False`` — at-most-once mode: a timed-out
      request is *abandoned* (left in flight so a late answer can still
      complete it, but never retransmitted).  Resending after a timeout
      can duplicate a command in the log — the contacted leader may have
      appended it before dying — and a duplicated write makes the service
      genuinely non-linearizable, so the oracle's workload must not
      resend.  Redirect-following stays on: a non-leader never appends,
      so a redirect proves the previous copy left no trace.
    """

    def __init__(
        self,
        loop: EventLoop,
        name: str,
        network: Any,
        cluster: list[str],
        *,
        retry_timeout_ms: float = 1000.0,
        trace: TraceLog | None = None,
        history: Any = None,
        resubmit_on_timeout: bool = True,
    ) -> None:
        if not cluster:
            raise ValueError("client needs at least one cluster node")
        self.loop = loop
        self.name = name
        self.network = network
        self.cluster = list(cluster)
        self.retry_timeout_ms = float(retry_timeout_ms)
        self.max_retries = MAX_RETRIES
        self.trace = trace if trace is not None else TraceLog()
        self.history = history
        self.resubmit_on_timeout = bool(resubmit_on_timeout)
        self.alive = True
        # Clients always carry an identity clock: skew injection targets
        # servers, and the linearizability oracle's history timestamps
        # must stay in one shared frame.  Routing reads through it keeps
        # the clock discipline uniform (``node-clock-hygiene``).
        self.clock = NodeClock(loop)
        self._now: Callable[[], float] = self.clock.now

        # One flat row per completion (see ``_ROW``), read through the
        # ``completed`` view.
        self._done: list[Any] = []
        self._completed = CompletedRequests(self._done)
        self.failed: list[int] = []
        self._next_id = 0
        self._contact = self.cluster[0]
        self._rr = 0
        # request_id -> [command, submitted, retries, callback, read flag]
        self._inflight: dict[int, list[Any]] = {}
        # Every retry/abandon timeout of this client behind one loop event.
        # A transmission's token is (request_id, retries at send time): it
        # stops being live when the request settles or is sent again, so
        # nothing is ever cancelled.
        self._deadlines = DeadlineQueue(
            loop,
            self.retry_timeout_ms,
            self._on_timeout,
            self._awaiting,
            PRIORITY_MESSAGE,
        )

    # -- network endpoint protocol ----------------------------------------- #

    def deliver(self, sender: str, payload: Any) -> None:  # noqa: ARG002
        if isinstance(payload, ClientResponse):
            self._on_response(payload)

    # -- API ------------------------------------------------------------------ #

    def submit(
        self,
        command: Any,
        *,
        on_complete: Callable[[CompletedRequest], None] | None = None,
        read: bool = False,
    ) -> int:
        """Submit a command; returns the request id.

        ``read=True`` routes the command over the leader's read fast path
        (ReadIndex / lease serving, no log entry) as a
        :class:`ClientReadRequest`.  Only meaningful for read-only
        commands; redirects, timeouts and retries behave identically.

        Completion (or final failure after ``max_retries``) is recorded in
        :attr:`completed` / :attr:`failed` and reported to ``on_complete``.
        """
        req_id = self._next_id
        self._next_id += 1
        now = self._now()
        state = [command, now, 0, on_complete, read]
        self._inflight[req_id] = state
        if self.history is not None:
            self.history.invoke(self.name, req_id, command, now)
        self._transmit(req_id, state)
        return req_id

    @property
    def completed(self) -> CompletedRequests:
        """Every completed request, oldest first: a read-only, live view
        that builds each :class:`CompletedRequest` when it is read."""
        return self._completed

    @property
    def inflight_count(self) -> int:
        return len(self._inflight)

    def mean_latency_ms(self) -> float:
        rows = self._done
        if not rows:
            return 0.0
        # completed_ms - submitted_ms of each row, summed in order.
        total: float = sum(map(sub, rows[3::_ROW], rows[2::_ROW]))
        return total / (len(rows) // _ROW)

    def add_server(self, name: str) -> None:
        """Add a server to the retry rotation (dynamic membership)."""
        if name not in self.cluster:
            self.cluster.append(name)

    def forget_server(self, name: str) -> None:
        """Drop a removed server from the rotation (dynamic membership).

        The last server is never dropped — a client with an empty rotation
        could not even time out sanely; requests to a fully-removed cluster
        simply go unanswered, which is the truthful outcome anyway.
        Requests already in flight toward the departed contact fall back to
        the ordinary timeout-and-rotate path.
        """
        if name not in self.cluster or len(self.cluster) == 1:
            return
        idx = self.cluster.index(name)
        del self.cluster[idx]
        # Keep the rotation pointer on the server it pointed at: removing
        # an entry below it shifts every later index down by one, and the
        # old ``_rr %= len`` clamp silently skipped a server there.
        if idx < self._rr:
            self._rr -= 1
        self._rr %= len(self.cluster)
        if self._contact == name:
            self._contact = self.cluster[self._rr]

    # -- internals --------------------------------------------------------------- #

    def _transmit(self, req_id: int, state: list[Any]) -> None:
        if state[4]:
            payload: Any = ClientReadRequest(req_id, state[0])
        else:
            payload = ClientRequest(req_id, state[0])
        self.network.transmit(self.name, self._contact, payload, "tcp", 160)
        self._deadlines.add((req_id, state[2]))

    def _awaiting(self, token: tuple[int, int]) -> bool:
        """Whether the transmission ``(request_id, retries)`` is still the
        request's latest and unanswered."""
        state = self._inflight.get(token[0])
        return state is not None and state[2] == token[1]

    def _on_timeout(self, token: tuple[int, int]) -> None:
        req_id = token[0]
        state = self._inflight[req_id]
        state[2] += 1
        if not self.resubmit_on_timeout:
            # At-most-once mode: never retransmit after a timeout (the
            # silent contact may have appended the command).  The request
            # stays in flight so a late answer still completes it; rotate
            # the believed contact so *future* submissions try elsewhere.
            self._rr = (self._rr + 1) % len(self.cluster)
            self._contact = self.cluster[self._rr]
            self.trace.record(
                self._now(), self.name, "client_abandon", request=req_id
            )
            if self.history is not None:
                self.history.abandon(self.name, req_id, self._now())
            return
        if state[2] > self.max_retries:
            self._give_up(req_id)
            return
        # No answer: the contact may be dead or partitioned; rotate.
        self._rr = (self._rr + 1) % len(self.cluster)
        self._contact = self.cluster[self._rr]
        self._transmit(req_id, state)

    def _give_up(self, req_id: int) -> None:
        del self._inflight[req_id]
        self.failed.append(req_id)
        self.trace.record(self._now(), self.name, "client_giveup", request=req_id)
        if self.history is not None:
            self.history.abandon(self.name, req_id, self._now())

    def _on_response(self, resp: ClientResponse) -> None:
        req_id = resp.request_id
        state = self._inflight.get(req_id)
        if state is None:
            return  # duplicate/stale answer for an already-settled request
        if resp.ok:
            del self._inflight[req_id]
            now = self._now()
            result = resp.result
            self._done += (req_id, state[0], state[1], now, result, state[2])
            if self.history is not None:
                self.history.complete(self.name, req_id, result, now)
            on_complete = state[3]
            if on_complete is not None:
                on_complete(
                    CompletedRequest(req_id, state[0], state[1], now, result, state[2])
                )
            return
        # Redirect: update the believed leader and retransmit immediately.
        # A hint equal to the current contact still needs a retransmit —
        # the earlier copy went to a different node before the contact was
        # updated.  With no hint (mid-election), the retry deadline handles it.
        if resp.leader_hint is not None:
            if resp.leader_hint in self.cluster:
                self._contact = resp.leader_hint
            else:
                # A hint naming a server outside the rotation (a removed
                # member the responder has not unlearned yet) must not
                # strand the client on an unreachable contact: fall back
                # to the round-robin rotation instead.
                self._rr = (self._rr + 1) % len(self.cluster)
                self._contact = self.cluster[self._rr]
            state[2] += 1  # also retires the superseded copy's deadline
            if state[2] > self.max_retries:
                self._give_up(req_id)
                return
            self._transmit(req_id, state)
