"""One encoded WAL record per log entry, shared by every replica — and
faults that tamper a copy, never the shared record."""

import copy
import dataclasses
import pickle

import numpy as np
import pytest

from repro.raft.log import LogEntry, RaftLog
from repro.raft.state_machine import kv_put
from repro.storage import DiskFaultConfig, SimDiskStorage
from repro.storage.base import DiskCorruptionError


def replicas(n=5):
    """``n`` disks journaling the logs of ``n`` replicas; none needs a
    real node (no sync-time fault is ever configured here)."""
    stores = [SimDiskStorage(np.random.default_rng(40 + i)) for i in range(n)]
    for store in stores:
        store.attach(object())
    return stores


def replicate(stores, n_entries):
    """Leader-style: the first replica creates the entries, the others
    receive the same objects (in-process message passing shares them)."""
    logs = [RaftLog() for _ in stores]
    for log, store in zip(logs, stores):
        log.journal = store
    entries = [logs[0].append_new(1, kv_put(f"k{i}", i)) for i in range(n_entries)]
    for log in logs[1:]:
        assert log.try_append(0, 0, entries) == (True, n_entries, None)
    for store in stores:
        assert store.sync()
    return entries


def set_faults(store, **kwargs):
    store.faults = dataclasses.replace(DiskFaultConfig(), **kwargs)


def test_every_replica_holds_the_same_record_object():
    stores = replicas()
    entries = replicate(stores, 8)
    for i, entry in enumerate(entries):
        held = [store._entries[i] for store in stores]
        assert all(e is entry for e in held)
        assert all(e._wal.blob is entry._wal.blob for e in held)
        assert entry._wal.intact()
    # ...and so do the pending tails, before the barrier.
    tail = LogEntry(1, 9, kv_put("x", 1))
    for store in stores:
        store.wal_append(tail)
    assert all(store._pending == [tail] and store._pending[0] is tail for store in stores)
    assert tail._wal is not None


def test_bitflip_on_one_replica_corrupts_that_replica_alone():
    stores = replicas()
    entries = replicate(stores, 6)
    shared = [e._wal for e in entries]
    victim = stores[2]
    set_faults(victim, p_bitflip=1.0)
    victim.on_crash()
    with pytest.raises(DiskCorruptionError):
        victim.recover()
    for store in stores[:2] + stores[3:]:
        state = store.recover()
        assert state.replayed == 6
        assert list(state.log.entries()) == entries
    # The shared records were never touched: the victim holds one copy.
    assert all(e._wal is r and r.intact() for e, r in zip(entries, shared))
    tampered = [
        i for i, e in enumerate(victim._entries) if e is not entries[i]
    ]
    assert len(tampered) == 1
    bad = victim._entries[tampered[0]]
    assert bad == entries[tampered[0]]  # same value, its own record
    assert not bad._wal.intact() and bad._wal.crc == shared[tampered[0]].crc


def test_bitflip_may_hit_the_private_hard_state_record():
    """Hard-state and snapshot records are per replica, but take the same
    copy-on-tamper route; every durable record is still validated."""
    (store,) = replicas(1)
    store.save_hard_state(3, "n2")
    assert store.sync()
    set_faults(store, p_bitflip=1.0)
    store.on_crash()
    with pytest.raises(DiskCorruptionError, match="hard-state"):
        store.recover()


def test_torn_tail_truncates_only_that_replica():
    stores = replicas()
    entries = replicate(stores, 4)
    tail = LogEntry(1, 5, kv_put("tail", 5))
    for store in stores:
        store.wal_append(tail)
    victim, others = stores[0], stores[1:]
    for store in others:
        assert store.sync()
    set_faults(victim, p_torn_tail=1.0)
    victim.on_crash()  # its tail was never synced: torn, then truncated
    assert victim._torn is not None and not victim._torn.intact()
    assert victim._torn is not tail._wal and tail._wal.intact()
    state = victim.recover()
    assert (state.wal_truncated, state.replayed) == (1, 4)
    assert list(state.log.entries()) == entries
    for store in others:
        state = store.recover()
        assert (state.wal_truncated, state.replayed) == (0, 5)
        assert state.log.entry_at(5) is tail


def test_recovered_log_does_not_alias_the_durable_region():
    (store,) = replicas(1)
    replicate([store], 3)
    log = store.recover().log
    log.append_new(1, kv_put("later", 1))  # pending, not durable
    assert len(store._entries) == 3 and log.last_index == 4


def test_caching_the_record_leaves_the_entry_value_unchanged():
    entry = LogEntry(term=2, index=7, command=kv_put("k", "v"))
    twin = LogEntry(2, 7, kv_put("k", "v"))
    before = (hash(entry), repr(entry), pickle.loads(pickle.dumps(entry)))
    (store,) = replicas(1)
    store.wal_append(entry)
    assert entry._wal is not None and twin._wal is None
    assert entry == twin and hash(entry) == hash(twin) == before[0]
    assert repr(entry) == repr(twin) == before[1]
    assert "_wal" not in repr(entry)
    for clone in (pickle.loads(pickle.dumps(entry)), copy.deepcopy(entry)):
        assert clone == entry == before[2] and hash(clone) == before[0]
        assert repr(clone) == before[1]
    with pytest.raises(TypeError):
        LogEntry(2, 7, None, None)  # not a constructor argument
    with pytest.raises(dataclasses.FrozenInstanceError):
        entry._wal = None  # only the storage module's encoder writes it
