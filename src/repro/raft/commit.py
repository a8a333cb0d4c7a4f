"""Incremental quorum-match tracking for leader commit advancement.

The textbook rule — "commit the largest index replicated on a majority" —
is usually implemented by sorting the match indices on every AppendEntries
response and picking the quorum-th largest.  That is O(n log n) *per
response* (plus a list allocation), which at 101 nodes under an append
storm is the protocol layer's single hottest line.

:class:`CommitTracker` maintains the same quantity incrementally.  It
exploits two structural facts of a Raft leadership:

* a follower's ``match_index`` only moves forward during one reign (the
  leader resets the whole table when it is elected), and
* the quorum frontier — the largest index acknowledged by at least
  ``acks_needed`` voter followers — is therefore monotone too.

It keeps one counter per *uncommitted* index ("how many followers have
acknowledged at least this index"), bumps the counters only for the index
range a response newly covers, and walks the frontier forward over
indices whose counter has reached the threshold.  Every index is counted
once per follower and crossed by the frontier once, so the cost is O(1)
amortized per acknowledged entry — independent of cluster size.

The term restriction of §5.4.2 (only current-term entries commit by
counting) stays in the node: the tracker answers "what is the largest
quorum-replicated index", the node decides whether it may become the
commit index.
"""

from __future__ import annotations

__all__ = ["CommitTracker"]


class CommitTracker:
    """Count-indexed match table for one leader reign.

    Args:
        acks_needed: voter-follower acknowledgements required for quorum
            — the leader's ``Quorum.acks`` (its own log is never counted
            here; ``acks`` already discounts it while the leader votes).
            Only voters' progress may be reported.

    Usage::

        tracker = CommitTracker(quorum.acks)      # on become_leader
        frontier = tracker.advance(old_match, new_match)
        if frontier > commit and log.term_at(frontier) == current_term:
            commit = frontier
            tracker.discard_through(commit)       # free the bookkeeping
    """

    __slots__ = ("acks_needed", "_acks", "_frontier", "_floor")

    def __init__(self, acks_needed: int) -> None:
        if acks_needed < 0:
            raise ValueError(f"acks_needed must be >= 0, got {acks_needed!r}")
        self.acks_needed = acks_needed
        #: index -> followers that have acknowledged at least this index
        #: (kept only for indices above ``_floor``).
        self._acks: dict[int, int] = {}
        #: Largest index with >= acks_needed acknowledgements (monotone).
        self._frontier = 0
        #: Indices at or below this have been discarded (committed).
        self._floor = 0

    @property
    def frontier(self) -> int:
        """Largest index currently replicated on a quorum (0 if none)."""
        return self._frontier

    @property
    def pending(self) -> int:
        """Number of indices with partial-quorum bookkeeping (diagnostics)."""
        return len(self._acks)

    def advance(self, old_match: int, new_match: int) -> int:
        """Record one follower's progress ``old_match → new_match``.

        ``old_match`` must be the value this tracker last saw for the
        follower (0 right after election); each follower must be reported
        with non-decreasing values.  Returns the updated frontier.

        With ``acks_needed == 0`` (single-voter degenerate case) there is
        no follower evidence to track; callers use the leader's own
        ``last_index`` directly.
        """
        need = self.acks_needed
        if need == 0 or new_match <= old_match:
            return self._frontier
        acks = self._acks
        start = old_match if old_match > self._floor else self._floor
        for index in range(start + 1, new_match + 1):
            acks[index] = acks.get(index, 0) + 1
        frontier = self._frontier
        get = acks.get
        while get(frontier + 1, 0) >= need:
            frontier += 1
        self._frontier = frontier
        return frontier

    def discard_through(self, index: int) -> None:
        """Drop counters for indices ``<= index`` (they are committed).

        The frontier is raised to ``index`` too: a committed index is by
        definition quorum-replicated.  On the ordinary commit path this is
        a no-op (the frontier *produced* the commit), but it makes a fresh
        tracker rebasable — a leader rebuilding its tracker mid-reign
        after a configuration change seeds it with
        ``discard_through(commit_index)`` so the frontier walk resumes
        from committed state instead of index 0.
        """
        if index <= self._floor:
            return
        acks = self._acks
        for i in range(self._floor + 1, index + 1):
            acks.pop(i, None)
        self._floor = index
        if index > self._frontier:
            self._frontier = index

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CommitTracker(need={self.acks_needed}, frontier={self._frontier}, "
            f"pending={len(self._acks)})"
        )
