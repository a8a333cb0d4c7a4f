"""``RaftClient.completed`` against the list of objects it replaced.

The client keeps its completions as flat rows behind a read-only view.
The reference client below restores the old bookkeeping — one
:class:`CompletedRequest` per completion, appended to a list — and both
are driven through the same scripted network (ok answers at any delay,
redirects, silences, late answers after a timeout).  The view must equal
the list under ``==``, ``len``, every index (negative too), slices and
iteration, a view taken before the run must see every later completion,
and ``mean_latency_ms`` and ``on_complete``'s argument must be equal.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.raft.client import CompletedRequest, RaftClient
from repro.raft.messages import ClientResponse
from repro.raft.state_machine import kv_get, kv_put
from repro.sim.loop import EventLoop

SERVERS = ["n1", "n2", "n3"]
TIMEOUT_MS = 300.0


class ScriptedNetwork:
    """Answers the client's ``i``-th transmission with ``script[i]``."""

    def __init__(self, loop, script):
        self.loop = loop
        self.script = script
        self.client = None
        self.sent = 0

    def transmit(self, src, dst, payload, channel, size_bytes):
        i = self.sent
        self.sent += 1
        if i >= len(self.script) or self.script[i][0] == "silence":
            return
        kind, delay = self.script[i]
        resp = ClientResponse(
            payload.request_id,
            ok=kind == "ok",
            result=f"r{i}",
            leader_hint="n2" if kind == "redirect" else None,
        )
        self.loop.schedule(delay, lambda: self.client.deliver(dst, resp))


class ReferenceClient(RaftClient):
    """The list-of-objects bookkeeping, as it was."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.completed_list = []

    def _on_response(self, resp):
        state = self._inflight.get(resp.request_id)
        if state is None or not resp.ok:
            super()._on_response(resp)
            return
        del self._inflight[resp.request_id]
        done = CompletedRequest(
            request_id=resp.request_id,
            command=state[0],
            submitted_ms=state[1],
            completed_ms=self._now(),
            result=resp.result,
            retries=state[2],
        )
        self.completed_list.append(done)
        if state[3] is not None:
            state[3](done)

    def mean_latency_ms(self):
        if not self.completed_list:
            return 0.0
        return sum(c.latency_ms for c in self.completed_list) / len(self.completed_list)


def run(client_cls, submissions, script, resubmit):
    loop = EventLoop()
    network = ScriptedNetwork(loop, script)
    client = client_cls(
        loop,
        "cl",
        network,
        SERVERS,
        retry_timeout_ms=TIMEOUT_MS,
        resubmit_on_timeout=resubmit,
    )
    client.max_retries = 3
    network.client = client
    answers = []
    t = 0.0
    for i, (gap, read) in enumerate(submissions):
        t += gap
        command = kv_get("k") if read else kv_put("k", i)
        loop.schedule_at(
            t, lambda c=command, r=read: client.submit(c, read=r, on_complete=answers.append)
        )
    loop.run()
    return client, answers


replies = st.tuples(
    st.sampled_from(["ok", "ok", "ok", "redirect", "silence"]),
    st.floats(min_value=0.25, max_value=2.0 * TIMEOUT_MS) | st.sampled_from([10.0, TIMEOUT_MS]),
)
submits = st.tuples(st.floats(min_value=0.0, max_value=200.0) | st.just(0.0), st.booleans())


@settings(max_examples=200, deadline=None)
@given(
    submissions=st.lists(submits, max_size=12),
    script=st.lists(replies, max_size=30),
    resubmit=st.booleans(),
)
def test_completed_view_matches_the_list_of_objects(submissions, script, resubmit):
    got, got_answers = run(RaftClient, submissions, script, resubmit)
    ref, ref_answers = run(ReferenceClient, submissions, script, resubmit)
    want = ref.completed_list
    view = got.completed
    assert view == want and want == view
    assert not (view != want)
    assert len(view) == len(want) and bool(view) == bool(want)
    assert list(view) == want
    assert [view[i] for i in range(-len(want), len(want))] == want + want
    assert view[1:] == want[1:] and view[::-1] == want[::-1]
    assert got.mean_latency_ms() == ref.mean_latency_ms()
    assert got_answers == ref_answers == want
    assert got.failed == ref.failed


def test_a_view_is_live_and_read_only():
    loop = EventLoop()
    network = ScriptedNetwork(loop, [("ok", 5.0), ("silence", 0.0), ("ok", 50.0)])
    client = RaftClient(loop, "cl", network, SERVERS, retry_timeout_ms=TIMEOUT_MS)
    network.client = client
    view = client.completed
    assert view == [] and len(view) == 0 and not view
    assert client.mean_latency_ms() == 0.0
    client.submit(kv_put("a", 1))
    loop.run_until(100.0)
    assert len(view) == 1 and view[0].request_id == 0 and view[-1].latency_ms == 5.0
    client.submit(kv_get("a"))  # silent once, answered on the retry
    loop.run()
    assert [c.request_id for c in view] == [0, 1]
    assert view[1].retries == 1 and view[1].result == "r2"
    assert client.mean_latency_ms() == (5.0 + TIMEOUT_MS + 50.0) / 2
    assert view == client.completed and view != [view[0]]
    with pytest.raises(AttributeError):
        view.append(None)
    with pytest.raises(TypeError):
        view[0] = None
    with pytest.raises(IndexError):
        view[2]
