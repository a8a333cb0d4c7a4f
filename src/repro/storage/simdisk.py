"""A simulated WAL-style disk with seeded fault injection.

The backend models what etcd-style persistence actually guarantees — and
what it doesn't:

* every mutation (hard state, log append/truncate/compact/reset,
  snapshot) becomes a checksummed WAL *record* appended to a pending
  tail;
* :meth:`SimDiskStorage.sync` is the fsync barrier: it materializes the
  pending records, in order, into the durable region.  Until then they
  are the **unsynced suffix** a crash simply loses;
* at a crash, the tail record may additionally survive **torn** (a
  partial write — detected and truncated at recovery, which is safe:
  no acknowledged ``sync()`` ever covered it);
* a **bit flip** may corrupt a record *below* the synced frontier — at
  recovery the checksum mismatch is fatal (:class:`DiskCorruptionError`):
  the node may have acked state it can no longer reproduce, so it must
  refuse to rejoin rather than silently truncate;
* fsync itself can fail (**IO error** → fail-stop, the post-fsync-errors
  consensus) or **stall** (the process freezes around a slow fsync —
  the write completes, but the node is unresponsive for the duration).

Every replica journals the *same* immutable ``LogEntry`` object, so its
append record is encoded and checksummed once, cached on the entry
(``LogEntry._wal``) and shared by every replica's WAL, whose pending tail
and durable log region hold the entries themselves.  Faults therefore
never mutate a record: a torn tail or a bit flip puts a tampered *copy*
into the one replica's slot it hits.

All randomness comes from the node's dedicated ``disk/<name>`` stream of
the sim RNG registry; every probability defaults to 0.0 and is guarded,
so a fault-free ``SimDiskStorage`` draws nothing.

Atomicity by record order: compound mutations (snapshot-then-compact,
snapshot-then-reset on InstallSnapshot) are written as ordered record
pairs within one pending tail, so a crash can lose the *suffix* of the
pair but never the prefix — recovery always sees a consistent
(snapshot, log-frontier) pair with the snapshot at or ahead of the
frontier.
"""

from __future__ import annotations

import dataclasses
import zlib
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.raft.log import LogEntry, RaftLog, Snapshot
from repro.sim.events import PRIORITY_CONTROL
from repro.sim.process import ProcessState
from repro.storage.base import DiskCorruptionError, DurableView, RecoveredState

if TYPE_CHECKING:  # pragma: no cover - hints only
    from repro.raft.node import RaftNode

__all__ = ["DiskFaultConfig", "SimDiskStorage"]


@dataclasses.dataclass(slots=True, frozen=True)
class DiskFaultConfig:
    """Fault-injection knobs; every probability defaults to off (0.0).

    Attributes:
        p_crash_point: per-``sync()`` probability of power loss at the
            persist point — the node crashes and the pending tail is lost.
        p_io_error: per-``sync()`` probability the fsync fails — the node
            fail-stops (the only safe reaction to a failed fsync).
        p_stall: per-``sync()`` probability of an fsync stall — the write
            completes but the node freezes for ``stall_ms · [0.5, 1.5)``.
        p_torn_tail: at-crash probability the first pending record
            survives as a torn partial write (truncated at recovery).
        p_bitflip: at-crash probability one durable record gets a flipped
            bit (fatal checksum mismatch at recovery).
        stall_ms: stall duration scale.
        auto_recover_ms: when > 0, a crashed node is automatically
            recovered after this delay (generation-guarded) — the
            "operations restarts the box" loop that turns disk faults
            into crash-*recovery* coverage instead of permanent loss.
    """

    p_crash_point: float = 0.0
    p_io_error: float = 0.0
    p_stall: float = 0.0
    p_torn_tail: float = 0.0
    p_bitflip: float = 0.0
    stall_ms: float = 40.0
    auto_recover_ms: float = 0.0

    def __post_init__(self) -> None:
        for field in ("p_crash_point", "p_io_error", "p_stall", "p_torn_tail", "p_bitflip"):
            p = getattr(self, field)
            if not (0.0 <= p <= 1.0):
                raise ValueError(f"{field} must be in [0, 1], got {p!r}")
        if self.stall_ms <= 0.0:
            raise ValueError(f"stall_ms must be > 0, got {self.stall_ms!r}")
        if self.auto_recover_ms < 0.0:
            raise ValueError(
                f"auto_recover_ms must be >= 0, got {self.auto_recover_ms!r}"
            )


class _Record:
    """One WAL record: a kind tag, its payload, and checksummed bytes.

    ``blob`` is a stable byte encoding of the record used *only* for
    checksumming and fault simulation (a torn tail shortens it, a bit
    flip changes it — each in a :meth:`tampered` copy) — recovery
    validates ``crc32(blob)`` and then reads the structured ``payload``,
    mirroring how a real WAL validates framing before decoding.  An
    append record has no payload: it hangs off the entry it encodes.
    """

    __slots__ = ("op", "payload", "blob", "crc")

    def __init__(self, op: str, payload: Any, blob: bytes) -> None:
        self.op = op
        self.payload = payload
        self.blob = blob
        self.crc = zlib.crc32(blob)

    def intact(self) -> bool:
        return zlib.crc32(self.blob) == self.crc

    def tampered(self, blob: bytes) -> "_Record":
        """A copy carrying ``blob`` under the original checksum."""
        rec = _Record(self.op, self.payload, blob)
        rec.crc = self.crc
        return rec


def _hard_record(term: int, voted_for: str | None) -> _Record:
    return _Record(
        "hard", (term, voted_for), repr(("hard", term, voted_for)).encode()
    )


def _encode_entry(entry: LogEntry, rec: "_Record | None" = None) -> LogEntry:
    """Cache ``entry``'s append record on it — the one writer of
    ``LogEntry._wal``.  ``rec`` is only ever a tampered copy (faults)."""
    if rec is None:
        blob = repr(("append", entry.term, entry.index, repr(entry.command))).encode()
        rec = _Record("append", None, blob)
    object.__setattr__(entry, "_wal", rec)
    return entry


def _snapshot_record(snapshot: Snapshot) -> _Record:
    blob = repr(
        (
            "snapshot",
            snapshot.last_included_index,
            snapshot.last_included_term,
            repr(snapshot.data),
            repr(snapshot.config),
        )
    ).encode()
    return _Record("snapshot", snapshot, blob)


class SimDiskStorage:
    """Simulated durable disk (see module docstring)."""

    __slots__ = (
        "_node",
        "_rng",
        "faults",
        "wal",
        "_pending",
        "_hard",
        "_snap",
        "_base_index",
        "_base_term",
        "_entries",
        "_torn",
        "_fatal",
        "_epoch",
    )

    kind: str = "simdisk"

    def __init__(
        self, rng: np.random.Generator, faults: DiskFaultConfig | None = None
    ) -> None:
        self._node: "RaftNode | None" = None
        self._rng = rng
        self.faults = faults if faults is not None else DiskFaultConfig()
        #: The node's log journals its mutations straight into this backend.
        self.wal: "SimDiskStorage" = self
        #: Unsynced WAL tail, in write order (an append is its entry).
        self._pending: list[_Record | LogEntry] = []
        # Durable (synced) region.
        self._hard: _Record | None = None
        self._snap: _Record | None = None
        self._base_index = 0
        self._base_term = 0
        self._entries: list[LogEntry] = []
        #: Torn partial record surviving the last crash, if any.
        self._torn: _Record | None = None
        #: Fatal corruption was detected: stay down (no auto-recovery).
        self._fatal = False
        #: Crash generation token guarding stale auto-recovery timers.
        self._epoch = 0

    def attach(self, node: "RaftNode") -> None:
        self._node = node

    # ------------------------------------------------------------------ #
    # write side (everything is pending until sync)
    # ------------------------------------------------------------------ #

    def save_hard_state(self, term: int, voted_for: str | None) -> None:
        self._pending.append(_hard_record(term, voted_for))

    def save_snapshot(self, snapshot: Snapshot) -> None:
        self._pending.append(_snapshot_record(snapshot))

    def wal_append(self, entry: LogEntry) -> None:
        if entry._wal is None:
            _encode_entry(entry)  # first journal to see it; the rest share
        self._pending.append(entry)

    def wal_truncate(self, from_index: int) -> None:
        self._pending.append(
            _Record("truncate", from_index, repr(("truncate", from_index)).encode())
        )

    def wal_compact(self, upto: int, term: int) -> None:
        self._pending.append(
            _Record("compact", (upto, term), repr(("compact", upto, term)).encode())
        )

    def wal_reset(self, last_index: int, last_term: int) -> None:
        self._pending.append(
            _Record(
                "reset",
                (last_index, last_term),
                repr(("reset", last_index, last_term)).encode(),
            )
        )

    # ------------------------------------------------------------------ #
    # the fsync barrier
    # ------------------------------------------------------------------ #

    def sync(self) -> bool:
        pending = self._pending
        if not pending:
            return True  # nothing to flush: no fsync, no fault exposure
        f = self.faults
        node = self._node
        assert node is not None, "SimDiskStorage.sync() before attach()"
        if f.p_crash_point > 0.0 or f.p_io_error > 0.0 or f.p_stall > 0.0:
            rng = self._rng
            if f.p_crash_point > 0.0 and float(rng.random()) < f.p_crash_point:
                node.trace.record(
                    node.loop.now,
                    node.name,
                    "disk_crash_point",
                    pending=len(pending),
                )
                node.crash()  # on_crash() drops the tail (torn/bit-flip draws)
                return False
            if f.p_io_error > 0.0 and float(rng.random()) < f.p_io_error:
                node.trace.record(
                    node.loop.now, node.name, "disk_io_error", pending=len(pending)
                )
                node.crash()  # fail-stop: never run past a failed fsync
                return False
            if f.p_stall > 0.0 and float(rng.random()) < f.p_stall:
                self._stall(float(rng.random()))
        # Nearly every tail is a contiguous run of appends: check that in
        # one pass and move it over whole.  Anything else is replayed
        # record by record from the start (nothing was touched yet).
        entries = self._entries
        expect = self._base_index + len(entries)
        for rec in pending:
            expect += 1
            if rec.__class__ is not LogEntry or rec.index != expect:
                break
        else:
            entries.extend(pending)
            pending.clear()
            return True
        for rec in pending:
            self._materialize(rec)
        pending.clear()
        return True

    def _materialize(self, rec: "_Record | LogEntry") -> None:
        """Apply one pending record to the durable region (the reference
        :meth:`sync` must agree with)."""
        if rec.__class__ is LogEntry:
            expect = self._base_index + len(self._entries) + 1
            if rec.index != expect:
                raise RuntimeError(
                    f"WAL append out of order: index {rec.index}, expected {expect}"
                )
            self._entries.append(rec)
            return
        op = rec.op
        if op == "hard":
            self._hard = rec
        elif op == "truncate":
            idx: int = rec.payload
            if idx > self._base_index:
                del self._entries[idx - self._base_index - 1 :]
        elif op == "compact":
            upto, term = rec.payload
            if upto > self._base_index:
                del self._entries[: upto - self._base_index]
                self._base_index = upto
                self._base_term = term
        elif op == "reset":
            last_index, last_term = rec.payload
            self._entries = []
            self._base_index = last_index
            self._base_term = last_term
        elif op == "snapshot":
            self._snap = rec
        else:  # pragma: no cover - exhaustive over record constructors
            raise RuntimeError(f"unknown WAL record op {op!r}")

    def _stall(self, u: float) -> None:
        """Freeze the node around a slow fsync (the write still lands)."""
        node = self._node
        assert node is not None
        duration = self.faults.stall_ms * (0.5 + u)
        node.trace.record(
            node.loop.now, node.name, "disk_stall", duration_ms=duration
        )
        node.pause_for(duration)

    # ------------------------------------------------------------------ #
    # crash / recovery
    # ------------------------------------------------------------------ #

    def on_crash(self) -> None:
        self._epoch += 1
        if self._fatal:
            self._pending = []
            return
        f = self.faults
        rng = self._rng
        pending = self._pending
        if pending:
            # The unsynced suffix is lost; its first record may survive torn.
            if f.p_torn_tail > 0.0 and float(rng.random()) < f.p_torn_tail:
                head = pending[0]
                rec = head._wal if head.__class__ is LogEntry else head
                self._torn = rec.tampered(rec.blob[: max(1, len(rec.blob) // 2)])
            self._pending = []
        if f.p_bitflip > 0.0 and float(rng.random()) < f.p_bitflip:
            self._flip_bit(rng)
        if f.auto_recover_ms > 0.0:
            self._schedule_auto_recover()

    def _flip_bit(self, rng: np.random.Generator) -> None:
        """Corrupt one durable record (hard state, log entries, snapshot,
        in that order) — as a copy in this replica's slot."""
        entries = self._entries
        has_hard = self._hard is not None
        count = has_hard + len(entries) + (self._snap is not None)
        if count == 0:
            return
        pick = int(rng.integers(count)) - has_hard  # -1 = hard state
        in_log = 0 <= pick < len(entries)
        rec = entries[pick]._wal if in_log else self._hard if pick < 0 else self._snap
        assert rec is not None
        blob = bytearray(rec.blob)
        byte = int(rng.integers(len(blob)))
        blob[byte] ^= 1 << int(rng.integers(8))
        bad = rec.tampered(bytes(blob))
        if in_log:
            e = entries[pick]
            entries[pick] = _encode_entry(LogEntry(e.term, e.index, e.command), bad)
        elif pick < 0:
            self._hard = bad
        else:
            self._snap = bad

    def _schedule_auto_recover(self) -> None:
        node = self._node
        assert node is not None
        token = self._epoch

        def _recover() -> None:
            if node.state is ProcessState.CRASHED and self._epoch == token:
                node.recover()

        node.loop.schedule(
            self.faults.auto_recover_ms, _recover, priority=PRIORITY_CONTROL
        )

    def recover(self) -> RecoveredState:
        truncated = 0
        if self._torn is not None:
            # The torn record was, by construction, never covered by an
            # acknowledged sync — truncating it is the safe WAL repair.
            self._torn = None
            truncated = 1
        self._pending = []
        hard = self._hard
        if hard is not None and not hard.intact():
            self._fatal = True
            raise DiskCorruptionError("hard-state record failed checksum")
        snap_rec = self._snap
        if snap_rec is not None and not snap_rec.intact():
            self._fatal = True
            raise DiskCorruptionError(
                "snapshot record failed checksum (committed state unrecoverable)"
            )
        for entry in self._entries:
            if not entry._wal.intact():
                self._fatal = True
                raise DiskCorruptionError(
                    f"log record at index {entry.index} failed checksum "
                    "below the synced frontier"
                )
        term, voted_for = hard.payload if hard is not None else (0, None)
        log = RaftLog.from_frontier(self._base_index, self._base_term, self._entries)
        log.journal = self
        return RecoveredState(
            term=term,
            voted_for=voted_for,
            snapshot=snap_rec.payload if snap_rec is not None else None,
            log=log,
            wal_truncated=truncated,
            replayed=len(self._entries),
        )

    def durable_view(self) -> DurableView:
        hard = self._hard
        snap_rec = self._snap
        return DurableView(
            term=hard.payload[0] if hard is not None else 0,
            voted_for=hard.payload[1] if hard is not None else None,
            snapshot_index=(
                snap_rec.payload.last_included_index if snap_rec is not None else 0
            ),
            base_index=self._base_index,
            base_term=self._base_term,
            entry_terms={e.index: e.term for e in self._entries},
        )
