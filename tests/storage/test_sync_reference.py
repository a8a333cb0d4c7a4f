"""``SimDiskStorage.sync()`` against its per-record reference.

``sync()`` moves a contiguous append-only tail into the durable region in
one step; ``_materialize`` is the record-by-record definition of what a
barrier does.  Over random tails mixing every record kind they must leave
the same durable region — and fail the same way on an out-of-order append.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.raft.log import LogEntry, Snapshot
from repro.storage import SimDiskStorage

# One op = (kind, a, b).  ``append`` carries an offset from the index a
# well-formed journal would write next (0 = contiguous, the common case).
_OPS = st.one_of(
    st.tuples(st.just("append"), st.sampled_from([0, 0, 0, 0, 0, 0, 1, -1, 2]), st.integers(1, 3)),
    st.tuples(st.just("truncate"), st.integers(0, 12), st.just(0)),
    st.tuples(st.just("compact"), st.integers(0, 12), st.integers(1, 3)),
    st.tuples(st.just("reset"), st.integers(0, 12), st.integers(1, 3)),
    st.tuples(st.just("hard"), st.integers(0, 5), st.just(0)),
    st.tuples(st.just("snapshot"), st.integers(0, 12), st.integers(1, 3)),
    st.tuples(st.just("sync"), st.just(0), st.just(0)),
)


def reference_sync(store: SimDiskStorage) -> None:
    for rec in store._pending:
        store._materialize(rec)
    store._pending.clear()


def durable(store: SimDiskStorage):
    state = store.recover()
    return (
        store.durable_view(),
        state.term,
        state.voted_for,
        state.snapshot,
        state.log.last_included_index,
        state.log.last_included_term,
        state.log.entries(),
        state.replayed,
    )


@settings(max_examples=300, deadline=None)
@given(st.lists(_OPS, max_size=40))
def test_sync_equals_per_record_materialize(ops):
    fast, ref = (SimDiskStorage(np.random.default_rng(0)) for _ in range(2))
    fast.attach(object())
    nxt = 1  # what a well-formed journal would append next
    for kind, a, b in [*ops, ("sync", 0, 0)]:
        if kind == "sync":
            try:
                reference_sync(ref)
            except RuntimeError as exc:
                with pytest.raises(RuntimeError) as caught:
                    fast.sync()
                assert str(caught.value) == str(exc)
                assert "out of order" in str(exc)
                assert fast.durable_view() == ref.durable_view()
                return
            assert fast.sync() and fast._pending == []
            assert durable(fast) == durable(ref)
            continue
        for store in (fast, ref):
            if kind == "append":
                store.wal_append(LogEntry(b, max(1, nxt + a), ("cmd", nxt)))
            elif kind == "truncate":
                store.wal_truncate(a)
            elif kind == "compact":
                store.wal_compact(a, b)
            elif kind == "reset":
                store.wal_reset(a, b)
            elif kind == "hard":
                store.save_hard_state(a, f"n{a}")
            else:
                store.save_snapshot(Snapshot(a, b, {"k": a}))
        if kind == "append":
            nxt = max(1, nxt + a) + 1
        elif kind == "truncate":
            nxt = max(1, a)
        elif kind == "reset":
            nxt = a + 1


def test_append_only_tail_takes_the_whole_tail_and_checks_every_index():
    store = SimDiskStorage(np.random.default_rng(0))
    store.attach(object())
    good = [LogEntry(1, i, i) for i in (1, 2, 3)]
    for entry in good:
        store.wal_append(entry)
    assert store.sync() and store._entries == good
    # Endpoints that look contiguous are not enough: 4, 4, 6 must raise.
    for index in (4, 4, 6):
        store.wal_append(LogEntry(1, index, index))
    with pytest.raises(RuntimeError, match="index 4, expected 5"):
        store.sync()
