"""Client sessions for the replicated KV service.

A :class:`RaftClient` is a simulated process that submits commands, follows
leader redirects and retries on silence; what it observed lands in its
``history`` recorder.  It is the building block of the examples and the
correctness tests; the high-rate open-loop load of Fig. 5 uses the fluid
model in :mod:`repro.cluster.workload` instead.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.raft.messages import ClientReadRequest, ClientRequest, ClientResponse
from repro.raft.state_machine import KVCommand
from repro.sim.clock import NodeClock
from repro.sim.events import PRIORITY_MESSAGE
from repro.sim.loop import EventLoop
from repro.sim.timers import DeadlineQueue
from repro.sim.tracing import TraceLog

__all__ = ["RaftClient"]

#: Retransmissions (timeouts and redirects) before a client gives a
#: request up; tests lower a client's ``max_retries`` to reach that path.
MAX_RETRIES = 50


class RaftClient:
    """A client endpoint attached to the cluster network.

    The client starts by guessing a contact node; on redirect it follows
    ``leader_hint``; on timeout (no answer within ``retry_timeout_ms``) it
    retries round-robin across the cluster.  This mirrors how etcd clients
    ride out leader failures and is what the quickstart example
    demonstrates.

    Two hooks exist for the fuzz oracle:

    * ``history`` — an operation recorder (``invoke``/``complete``/
      ``abandon``) fed at submit, success and give-up time.  It is the
      one record of each operation's times and result (the client keeps
      no completion log of its own), and the linearizability checker
      consumes it.  A give-up is also traced as ``client_giveup``.
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

        self._next_id = 0
        self._contact = self.cluster[0]
        self._rr = 0
        # request_id -> [command, retries, callback, read flag]
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
        on_complete: Callable[[int], None] | None = None,
        read: bool = False,
    ) -> int:
        """Submit a command; returns the request id.

        ``read=True`` routes the command over the leader's read fast path
        (ReadIndex / lease serving, no log entry) as a
        :class:`ClientReadRequest`; redirects, timeouts and retries behave
        identically.  The fast path serves a KV ``get`` only.

        Completion is recorded in :attr:`history` and reported to
        ``on_complete`` with the request id; a final failure after
        ``max_retries`` is traced (``client_giveup``) and leaves the
        history's operation open.

        Raises:
            ValueError: ``read=True`` with anything but a KV ``get``,
                which the leader's state machine would refuse mid-run.
        """
        if read and not (isinstance(command, KVCommand) and command.op == "get"):
            raise ValueError(f"read=True serves only a KV 'get', got {command!r}")
        req_id = self._next_id
        self._next_id += 1
        state = [command, 0, on_complete, read]
        self._inflight[req_id] = state
        if self.history is not None:
            self.history.invoke(self.name, req_id, command, self._now())
        self._transmit(req_id, state)
        return req_id

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
        if state[3]:
            payload: Any = ClientReadRequest(req_id, state[0])
        else:
            payload = ClientRequest(req_id, state[0])
        self.network.transmit(self.name, self._contact, payload, "tcp", 160)
        self._deadlines.add((req_id, state[1]))

    def _awaiting(self, token: tuple[int, int]) -> bool:
        """Whether the transmission ``(request_id, retries)`` is still the
        request's latest and unanswered."""
        state = self._inflight.get(token[0])
        return state is not None and state[1] == token[1]

    def _on_timeout(self, token: tuple[int, int]) -> None:
        req_id = token[0]
        state = self._inflight[req_id]
        state[1] += 1
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
        if state[1] > self.max_retries:
            self._give_up(req_id)
            return
        # No answer: the contact may be dead or partitioned; rotate.
        self._rr = (self._rr + 1) % len(self.cluster)
        self._contact = self.cluster[self._rr]
        self._transmit(req_id, state)

    def _give_up(self, req_id: int) -> None:
        del self._inflight[req_id]
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
            if self.history is not None:
                self.history.complete(self.name, req_id, resp.result, self._now())
            on_complete = state[2]
            if on_complete is not None:
                on_complete(req_id)
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
            state[1] += 1  # also retires the superseded copy's deadline
            if state[1] > self.max_retries:
                self._give_up(req_id)
                return
            self._transmit(req_id, state)
