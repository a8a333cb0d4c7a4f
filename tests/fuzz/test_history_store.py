"""``OpHistory``'s flat rows against the object-per-op recorder they replaced.

The reference below is the recorder as it was when every operation was a
:class:`KVOp` in a dict keyed by ``(client, req_id)``.  Both are driven by
the same interleavings of ``invoke`` / ``complete`` / ``abandon`` over one
to four clients — equal invoke times across clients, ops completed after
they were abandoned, repeated completions, unknown and duplicate ops and
non-KV commands — and must agree after every step on ``ops()``,
``completed_ops()``, ``len()`` and every error raised (type and
arguments).
"""

from typing import Any

from hypothesis import given, settings, strategies as st

from repro.fuzz.history import KVOp, OpHistory
from repro.raft.state_machine import KVCommand, kv_delete, kv_get, kv_put


class ReferenceHistory:
    """The object-per-op recorder, as it was."""

    def __init__(self) -> None:
        self._ops: dict[tuple[str, int], KVOp] = {}

    def invoke(self, client: str, req_id: int, command: Any, t: float) -> None:
        if not isinstance(command, KVCommand):
            raise TypeError(
                f"history can only record KVCommand ops, got {type(command).__name__}"
            )
        key = (client, req_id)
        if key in self._ops:
            raise ValueError(f"duplicate invocation for {key}")
        self._ops[key] = KVOp(
            client=client,
            req_id=req_id,
            op=command.op,
            key=command.key,
            value=command.value,
            invoke_ms=t,
        )

    def complete(self, client: str, req_id: int, result: Any, t: float) -> None:
        op = self._ops[(client, req_id)]
        op.return_ms = t
        op.result = result

    def abandon(self, client: str, req_id: int, t: float) -> None:
        if (client, req_id) not in self._ops:
            raise KeyError(f"abandon for unknown op {(client, req_id)}")

    def ops(self) -> list[KVOp]:
        return sorted(self._ops.values(), key=lambda o: (o.invoke_ms, o.client, o.req_id))

    def completed_ops(self) -> list[KVOp]:
        return [o for o in self.ops() if o.completed]

    def __len__(self) -> int:
        return len(self._ops)


CLIENTS = ["fc1", "fc2", "fc10", "fc3"]  # "fc10" sorts before "fc2"
COMMANDS = [kv_put("k1", "fc1:0"), kv_get("k1"), kv_delete("k2"), kv_get("k2"), ("not", "kv")]


def _call(recorder: Any, step: tuple) -> tuple:
    """Apply one step; return what it raised (type and args), if anything."""
    method, args = step
    try:
        getattr(recorder, method)(*args)
    except Exception as exc:  # noqa: BLE001 - the error is the observation
        return (type(exc), exc.args)
    return ()


def _observe(recorder: Any) -> tuple:
    return (recorder.ops(), recorder.completed_ops(), len(recorder))


def assert_same(steps: list[tuple]) -> None:
    got, ref = OpHistory(), ReferenceHistory()
    for step in steps:
        assert _call(got, step) == _call(ref, step), step
        assert _observe(got) == _observe(ref), step


def _steps(draw: Any, monotone: bool) -> list[tuple]:
    n_clients = draw(st.integers(1, 4))
    clients = CLIENTS[:n_clients]
    now = 0.0
    steps = []
    for _ in range(draw(st.integers(0, 30))):
        if monotone:
            now += draw(st.sampled_from([0.0, 0.0, 0.5, 1.0]))
            t = now
        else:
            t = draw(st.sampled_from([0.0, 1.0, 2.0]) | st.floats(0.0, 10.0))
        client = draw(st.sampled_from(clients))
        req_id = draw(st.integers(0, 4))
        method = draw(st.sampled_from(["invoke", "invoke", "complete", "abandon"]))
        if method == "invoke":
            args = (client, req_id, draw(st.sampled_from(COMMANDS)), t)
        elif method == "complete":
            args = (client, req_id, draw(st.sampled_from([None, "v", 7])), t)
        else:
            args = (client, req_id, t)
        steps.append((method, args))
    return steps


@st.composite
def interleavings(draw: Any) -> list[tuple]:
    return _steps(draw, monotone=draw(st.booleans()))


@settings(max_examples=300, deadline=None)
@given(steps=interleavings())
def test_op_history_matches_the_object_per_op_recorder(steps):
    assert_same(steps)


def test_named_cases_match_the_reference():
    put, get = COMMANDS[0], COMMANDS[1]
    assert_same(
        [
            # the same invoke instant on three clients, out of name order
            ("invoke", ("fc2", 0, put, 5.0)),
            ("invoke", ("fc10", 0, get, 5.0)),
            ("invoke", ("fc1", 0, get, 5.0)),
            # abandoned, then answered late
            ("abandon", ("fc2", 0, 900.0)),
            ("complete", ("fc2", 0, "fc1:0", 950.0)),
            # completed twice: the later answer wins
            ("complete", ("fc1", 0, None, 10.0)),
            ("complete", ("fc1", 0, "fc1:0", 12.0)),
            # each error
            ("invoke", ("fc1", 0, put, 13.0)),
            ("invoke", ("fc1", 1, ("not", "kv"), 13.0)),
            ("complete", ("fc3", 0, None, 14.0)),
            ("complete", ("fc1", 9, None, 14.0)),
            ("abandon", ("fc3", 0, 14.0)),
            ("abandon", ("fc1", 9, 14.0)),
            # a caller's own clock running back
            ("invoke", ("fc3", 4, get, 1.0)),
        ]
    )
    history = OpHistory()
    history.invoke("fc2", 0, put, 5.0)
    history.invoke("fc1", 0, get, 5.0)
    assert [(o.client, o.completed) for o in history.ops()] == [("fc1", False), ("fc2", False)]
