"""RaftClient's lazy deadline queue against per-request schedule + cancel.

The client keeps every retry/abandon timeout behind one loop event
(:class:`~repro.sim.timers.DeadlineQueue`).  The reference below restores
the discipline it replaced — each transmission schedules its own timeout
event, and a reply that settles or re-sends the request cancels it — and
both are driven through the same scripted network: open-loop submissions,
replies that are ok / redirect (known, unknown or no hint) / never sent,
early or later than the timeout, in both ``resubmit_on_timeout`` modes.
Everything observable goes into one ordered log that must agree exactly:
when each timeout fired (``==`` on floats), every transmission, every
record of the client's ``history`` hook and trace (invocation,
completion, give-up and abandonment), every ``on_complete`` call, and the
order of all of them — also among events of the same instant.
"""

from hypothesis import given, settings, strategies as st

from repro.raft.client import RaftClient
from repro.raft.messages import ClientResponse
from repro.raft.state_machine import kv_get, kv_put
from repro.sim.loop import EventLoop
from repro.sim.tracing import TraceLog

SERVERS = ["n1", "n2", "n3"]
TIMEOUT_MS = 300.0


class ScriptedNetwork:
    """Answers the client's ``i``-th transmission with ``script[i]``."""

    def __init__(self, loop, script, log):
        self.loop = loop
        self.script = script
        self.log = log
        self.client = None
        self.sent = 0

    def transmit(self, src, dst, payload, channel, size_bytes):
        i = self.sent
        self.sent += 1
        self.log.append(
            (self.loop.now, "sent", dst, type(payload).__name__, payload.request_id)
        )
        if i >= len(self.script):
            return  # silence
        kind, delay, hint = self.script[i]
        if kind == "silence":
            return
        resp = ClientResponse(
            payload.request_id,
            ok=kind == "ok",
            result=i,
            leader_hint=hint if kind == "redirect" else None,
        )
        self.loop.schedule(delay, lambda: self.client.deliver(dst, resp))


class LoggedHistory:
    """The client's ``history`` hook, writing into the shared log."""

    def __init__(self, log):
        self.log = log

    def invoke(self, client, req_id, command, t):
        self.log.append((t, "invoke", req_id, command))

    def complete(self, client, req_id, result, t):
        self.log.append((t, "done", req_id, result))

    def abandon(self, client, req_id, t):
        self.log.append((t, "abandon", req_id))


class LoggingClient(RaftClient):
    def _on_timeout(self, token):
        self.network.log.append((self.loop.now, "timeout", token))
        super()._on_timeout(token)


class _PerRequestTimers:
    """The replaced discipline, behind the queue's ``add``: one scheduled
    event per transmission, kept as a handle to cancel."""

    def __init__(self, client):
        self.client = client
        self.handles = {}

    def add(self, token):
        client = self.client
        self.handles[token[0]] = client.loop.schedule(
            client.retry_timeout_ms, lambda: self._timed_out(token)
        )

    def _timed_out(self, token):
        del self.handles[token[0]]
        self.client._on_timeout(token)

    def cancel(self, req_id):
        handle = self.handles.pop(req_id, None)
        if handle is not None:
            handle.cancel()


class PerRequestTimerClient(LoggingClient):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._deadlines = _PerRequestTimers(self)

    def _on_response(self, resp):
        if resp.request_id in self._inflight and (resp.ok or resp.leader_hint is not None):
            self._deadlines.cancel(resp.request_id)
        super()._on_response(resp)


def run(client_cls, submissions, script, resubmit):
    loop = EventLoop()
    log = []
    network = ScriptedNetwork(loop, script, log)
    trace = TraceLog()
    trace.subscribe(lambda r: log.append((r.time, r.kind, r.fields)))
    client = client_cls(
        loop,
        "cl",
        network,
        SERVERS,
        retry_timeout_ms=TIMEOUT_MS,
        trace=trace,
        history=LoggedHistory(log),
        resubmit_on_timeout=resubmit,
    )
    client.max_retries = 3
    network.client = client
    t = 0.0
    for i, (gap, read) in enumerate(submissions):
        t += gap
        command = kv_get("k") if read else kv_put("k", i)
        loop.schedule_at(
            t,
            lambda c=command, r=read: client.submit(
                c,
                read=r,
                on_complete=lambda req_id: log.append((loop.now, "answered", req_id)),
            ),
        )
    loop.run()
    log.append((None, "end", sorted(client._inflight)))
    return log


# Round values on purpose beside the arbitrary floats: they make a reply
# land on the very instant of another request's deadline, where only the
# event sequence numbers decide the order.
replies = st.tuples(
    st.sampled_from(["ok", "ok", "redirect", "nohint", "silence"]),
    st.floats(min_value=0.25, max_value=3.0 * TIMEOUT_MS)
    | st.sampled_from([50.0, TIMEOUT_MS - 50.0, TIMEOUT_MS, TIMEOUT_MS + 50.0]),
    st.sampled_from(SERVERS + ["ghost"]),
)
submits = st.tuples(
    st.floats(min_value=0.0, max_value=250.0) | st.sampled_from([0.0, 50.0]), st.booleans()
)


@settings(max_examples=300, deadline=None)
@given(
    submissions=st.lists(submits, min_size=1, max_size=12),
    script=st.lists(replies, max_size=40),
    resubmit=st.booleans(),
)
def test_deadline_queue_client_matches_per_request_timers(submissions, script, resubmit):
    got = run(LoggingClient, submissions, script, resubmit)
    assert got == run(PerRequestTimerClient, submissions, script, resubmit)


def test_scripted_schedule_exercises_every_path():
    """The harness itself: one hand-written schedule that hits timeout,
    late answer after abandonment, redirects and give-up, so a vacuous
    equivalence (nothing ever fires) cannot pass unnoticed."""
    submissions = [(0.0, False), (10.0, True), (10.0, False)]  # at 0, 10, 20
    script = [
        ("silence", 0.0, None),  # req 0: times out at 300
        ("redirect", 5.0, "n2"),  # req 1: redirected at 15 ...
        ("ok", 400.0, None),  # ... re-sent, answered after its deadline (315)
        ("nohint", 5.0, None),  # req 2: mid-election, waits for its deadline (320)
    ]
    for resubmit in (True, False):
        got = run(LoggingClient, submissions, script, resubmit)
        assert got == run(PerRequestTimerClient, submissions, script, resubmit)
        timeouts = [e for e in got if e[1] == "timeout"]
        assert timeouts[:3] == [
            (300.0, "timeout", (0, 0)),
            (315.0, "timeout", (1, 1)),
            (320.0, "timeout", (2, 0)),
        ]
        assert (415.0, "done", 1, 2) in got
        assert (415.0, "answered", 1) in got
        kinds = {e[1] for e in got if e[1].startswith("client_")}
        assert kinds == ({"client_giveup"} if resubmit else {"client_abandon"})
