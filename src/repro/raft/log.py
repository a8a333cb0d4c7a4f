"""The replicated log, with log compaction (§7 of the Raft paper).

Indexing is 1-based as in the Raft paper; index 0 is a virtual sentinel
with term 0.  The log enforces the two structural invariants everything
else leans on:

* **append-only within a term** — entries are only removed by conflict
  truncation driven by a newer leader (or released by compaction, which
  never touches uncommitted state);
* **term monotonicity** — ``term(i) <= term(j)`` for ``i <= j``.

``try_append`` implements the receiver side of AppendEntries (§5.3 of the
Raft paper) including the conflict-index optimisation that lets a leader
skip back over an entire conflicting term per round trip instead of one
entry at a time.

**Compaction model.**  The log is *offset-indexed*: a compacted prefix is
summarised by the ``(last_included_index, last_included_term)`` frontier
and the retained entries live in a plain list starting at
:attr:`first_index` ``= last_included_index + 1``.  Every read path stays
O(1) — a logical index maps to a physical slot by subtracting the
frontier.  :meth:`compact` releases an applied prefix (the caller owns a
state-machine snapshot covering it); :meth:`install_snapshot` is the
receiver side of InstallSnapshot, replacing the log wholesale unless a
retained suffix already matches.  Entries at or below the frontier are,
by construction, committed — compaction is only ever driven past applied
state — so the frontier can stand in for them in every consistency check.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Iterable, Protocol

__all__ = ["LogEntry", "RaftLog", "Snapshot", "WalJournal"]


@dataclasses.dataclass(slots=True, frozen=True)
class LogEntry:
    """One log slot.

    Attributes:
        term: leader term that created the entry.
        index: 1-based log position.
        command: state-machine command; ``None`` marks a leader no-op (the
            entry each new leader appends to commit its predecessors' tail,
            §5.4.2 of the Raft paper / etcd's empty entry).

    ``_wal`` is not part of the value: it caches the entry's checksummed
    WAL record, built by the first durable journal that writes the entry
    and shared by every replica's.  Only :mod:`repro.storage.simdisk`
    writes it.
    """

    term: int
    index: int
    command: Any = None
    _wal: Any = dataclasses.field(default=None, init=False, repr=False, compare=False)


@dataclasses.dataclass(slots=True, frozen=True)
class Snapshot:
    """A durable state-machine image at ``(last_included_index, _term)``.

    ``data`` is whatever the state machine's ``snapshot()`` returned;
    immutable by convention (it is shared leader→follower in-process the
    same way message payloads are).

    ``config`` is the cluster configuration as of the snapshot index —
    membership is replicated state, so a snapshot that replaces the log
    prefix must also carry the configuration that prefix established
    (§4.1 of the Raft dissertation).  ``None`` only for snapshots taken
    before dynamic membership existed (and in membership-free tests);
    recovery then keeps the node's construction-time configuration.
    """

    last_included_index: int
    last_included_term: int
    data: Any
    config: Any = None


class WalJournal(Protocol):
    """Write-ahead mirror of log mutations (see :mod:`repro.storage`).

    A log with an attached journal reports every mutation *in the order
    it applies it*, so the journal's record stream replayed from empty
    reproduces the log exactly.  ``None`` (the default) disables
    mirroring at the cost of one attribute check per mutation.
    """

    def wal_append(self, entry: "LogEntry") -> None: ...

    def wal_truncate(self, from_index: int) -> None: ...

    def wal_compact(self, upto: int, term: int) -> None: ...

    def wal_reset(self, last_index: int, last_term: int) -> None: ...


class RaftLog:
    """Offset-indexed replicated log with 1-based logical indexing.

    ``last_index`` is a maintained plain attribute (always equal to
    ``last_included_index + len(self._entries)``): it is read on every
    heartbeat and every replication message, where a property's descriptor
    call is measurable.  ``last_included_index``/``last_included_term``
    are likewise plain attributes — the frontier of the compacted prefix
    ((0, 0) for an uncompacted log) — updated only by :meth:`compact` and
    :meth:`install_snapshot`; treat all three as read-only from outside.
    """

    __slots__ = (
        "_entries",
        "last_index",
        "last_included_index",
        "last_included_term",
        "journal",
    )

    def __init__(self) -> None:
        self._entries: list[LogEntry] = []
        self.last_index: int = 0
        self.last_included_index: int = 0
        self.last_included_term: int = 0
        #: Optional write-ahead mirror of every mutation (durability layer).
        self.journal: WalJournal | None = None

    @classmethod
    def from_frontier(
        cls, base_index: int, base_term: int, entries: Iterable[LogEntry]
    ) -> "RaftLog":
        """Rebuild a log from a compaction frontier plus retained entries
        (the storage recovery path; ``entries`` must be contiguous from
        ``base_index + 1``)."""
        log = cls()
        log.last_included_index = base_index
        log.last_included_term = base_term
        log._entries = list(entries)
        log.last_index = base_index + len(log._entries)
        return log

    # -- inspection --------------------------------------------------------- #

    def __len__(self) -> int:
        """Number of *retained* (physically present) entries."""
        return len(self._entries)

    @property
    def retained(self) -> int:
        """Retained entry count (``last_index - last_included_index``)."""
        return len(self._entries)

    @property
    def first_index(self) -> int:
        """Lowest logical index still physically present (``last_included_index + 1``)."""
        return self.last_included_index + 1

    @property
    def last_term(self) -> int:
        return self._entries[-1].term if self._entries else self.last_included_term

    def term_at(self, index: int) -> int:
        """Term of the entry at ``index`` (frontier term at the frontier;
        0 for the sentinel of an uncompacted log).

        Raises:
            IndexError: if ``index`` is outside
                ``[last_included_index, last_index]`` — below the frontier
                the entry has been compacted away and its term is no
                longer individually known.
        """
        base = self.last_included_index
        if index == base:
            return self.last_included_term
        if not (base < index <= self.last_index):
            raise IndexError(
                f"log index {index} out of range {base}..{self.last_index} "
                f"(entries below {base} are compacted)"
            )
        return self._entries[index - base - 1].term

    def entry_at(self, index: int) -> LogEntry:
        base = self.last_included_index
        if not (base < index <= self.last_index):
            raise IndexError(
                f"log index {index} out of range {base + 1}..{self.last_index} "
                f"(entries below {base + 1} are compacted)"
            )
        return self._entries[index - base - 1]

    def slice_from(self, start: int, limit: int) -> tuple[LogEntry, ...]:
        """Up to ``limit`` entries beginning at index ``start``.

        Raises:
            IndexError: if ``start`` falls below :attr:`first_index` (the
            caller must fall back to snapshot transfer there).
        """
        if start < self.first_index:
            raise IndexError(
                f"slice start must be >= first_index {self.first_index}, got {start}"
            )
        phys = start - self.last_included_index - 1
        return tuple(self._entries[phys : phys + limit])

    def entries(self) -> tuple[LogEntry, ...]:
        """All retained entries (the compacted prefix is not included)."""
        return tuple(self._entries)

    def up_to_date(self, last_index: int, last_term: int) -> bool:
        """The voter rule of §5.4.1: is ``(last_term, last_index)`` at least
        as complete as this log?"""
        if last_term != self.last_term:
            return last_term > self.last_term
        return last_index >= self.last_index

    # -- mutation ------------------------------------------------------------ #

    def append_new(self, term: int, command: Any) -> LogEntry:
        """Leader-side append of a fresh entry.

        Raises:
            ValueError: if ``term`` would break term monotonicity.
        """
        if term < self.last_term:
            raise ValueError(
                f"term regression: appending term {term} after {self.last_term}"
            )
        entry = LogEntry(term=term, index=self.last_index + 1, command=command)
        self._entries.append(entry)
        self.last_index = entry.index
        j = self.journal
        if j is not None:
            j.wal_append(entry)
        return entry

    def try_append(
        self,
        prev_log_index: int,
        prev_log_term: int,
        entries: Iterable[LogEntry],
    ) -> tuple[bool, int, int | None]:
        """Follower-side AppendEntries application.

        A ``prev_log_index`` at or below the frontier always passes the
        consistency check: the compacted prefix is committed state, and a
        committed ``(index, term)`` is unique cluster-wide (Log Matching +
        Leader Completeness), so the leader's entries there necessarily
        match what the snapshot covers.  Incoming entries at or below the
        frontier are skipped for the same reason.

        Returns:
            ``(success, match_index, conflict_index)``:

            * success + the highest index now known to match the leader, or
            * failure + a hint: the index the leader should retry from
              (first index of the conflicting term, or just past our log's
              end if we are simply short).
        """
        base = self.last_included_index
        # Consistency check on the previous entry.
        if prev_log_index > self.last_index:
            return False, 0, self.last_index + 1
        if prev_log_index > base and self.term_at(prev_log_index) != prev_log_term:
            conflict_term = self.term_at(prev_log_index)
            first = prev_log_index
            while first > base + 1 and self.term_at(first - 1) == conflict_term:
                first -= 1
            return False, 0, first

        # Walk the new entries; truncate at the first term conflict.
        match = prev_log_index if prev_log_index > base else base
        j = self.journal
        for entry in entries:
            idx = entry.index
            if idx <= base:
                continue  # covered by the snapshot frontier (committed)
            if idx != match + 1:
                raise ValueError(
                    f"non-contiguous AppendEntries: expected index {match + 1}, "
                    f"got {idx}"
                )
            if idx <= self.last_index:
                if self.term_at(idx) == entry.term:
                    match = idx
                    continue  # already have it
                del self._entries[idx - base - 1 :]  # conflict: drop our suffix
                self.last_index = idx - 1
                if j is not None:
                    j.wal_truncate(idx)
            self._entries.append(entry)
            self.last_index = idx
            match = idx
            if j is not None:
                j.wal_append(entry)
        return True, match, None

    # -- compaction ----------------------------------------------------------- #

    def compact(self, upto: int) -> int:
        """Release the prefix through ``upto``, moving the frontier there.

        The caller is responsible for ``upto`` being *applied* state it
        holds a snapshot for — the log itself only refuses to compact past
        its own end.  Compacting at or below the current frontier is a
        no-op (idempotent under repeated triggers).

        Returns:
            Number of entries released.
        """
        base = self.last_included_index
        if upto <= base:
            return 0
        if upto > self.last_index:
            raise ValueError(
                f"cannot compact to {upto}: log ends at {self.last_index}"
            )
        term = self.term_at(upto)
        drop = upto - base
        del self._entries[:drop]
        self.last_included_index = upto
        self.last_included_term = term
        j = self.journal
        if j is not None:
            j.wal_compact(upto, term)
        return drop

    def install_snapshot(self, last_index: int, last_term: int) -> bool:
        """Receiver side of InstallSnapshot (§7): adopt a snapshot frontier.

        If a retained entry at ``last_index`` already carries
        ``last_term``, the suffix beyond it is kept (the snapshot is just
        a faster prefix) — otherwise the entire log is replaced by the
        frontier.  A snapshot at or below the current frontier is stale
        and ignored.

        Returns:
            True if the log changed.
        """
        if last_index <= self.last_included_index:
            return False
        if last_index <= self.last_index and self.term_at(last_index) == last_term:
            self.compact(last_index)
            return True
        self._entries = []
        self.last_index = last_index
        self.last_included_index = last_index
        self.last_included_term = last_term
        j = self.journal
        if j is not None:
            j.wal_reset(last_index, last_term)
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RaftLog(len={self.last_index}, last_term={self.last_term}, "
            f"first={self.first_index})"
        )
