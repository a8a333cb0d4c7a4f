"""Structured trace log — the simulator's substitute for server log files.

The paper computes detection time and out-of-service (OTS) time by grepping
timestamps out of each etcd server's log (§IV-A): when the leader was failed,
when a follower's election timer expired ("detect failure"), and when a new
leader announced itself.  :class:`TraceLog` records exactly those structured
events with virtual timestamps; :mod:`repro.cluster.measurements` plays the
role of the log-scraping scripts.

Records are append-only and kept in one flat list for the whole cluster so
that cross-node ordering queries ("first detection after this failure") are
single scans.  Query helpers return lists rather than iterators so call
sites can index and len() them freely.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Iterable

__all__ = ["TraceRecord", "TraceLog"]


@dataclasses.dataclass(slots=True, frozen=True)
class TraceRecord:
    """One structured log line.

    Attributes:
        time: virtual timestamp (ms).
        node: name of the emitting component.
        kind: event kind, e.g. ``"election_timeout"``, ``"become_leader"``.
        fields: free-form structured payload (term numbers, timer values...).
    """

    time: float
    node: str
    kind: str
    fields: dict[str, Any] = dataclasses.field(default_factory=dict)

    def get(self, key: str, default: Any = None) -> Any:
        return self.fields.get(key, default)


class TraceLog:
    """Append-only structured event log shared by a simulated cluster.

    Live consumers (safety monitors, fuzz oracles) can :meth:`subscribe`
    a listener invoked synchronously on every appended record — the
    event-driven alternative to polling the log on a sampling cadence,
    which can miss violations whose whole window fits between samples.
    Listeners must not record into the log they observe (no re-entrant
    appends) and should be cheap: they run on the simulation hot path.
    """

    def __init__(self) -> None:
        self._records: list[TraceRecord] = []
        self._kind_index: dict[str, list[TraceRecord]] = {}
        self._listeners: list[Callable[[TraceRecord], None]] = []

    def record(self, time: float, node: str, kind: str, **fields: Any) -> TraceRecord:
        """Append a record, notify listeners, and return it."""
        rec = TraceRecord(time=time, node=node, kind=kind, fields=fields)
        self._records.append(rec)
        self._kind_index.setdefault(kind, []).append(rec)
        if self._listeners:
            for listener in self._listeners:
                listener(rec)
        return rec

    # -- live subscriptions ------------------------------------------------ #

    def subscribe(self, listener: Callable[[TraceRecord], None]) -> None:
        """Invoke ``listener(record)`` synchronously for every new record."""
        self._listeners.append(listener)

    def unsubscribe(self, listener: Callable[[TraceRecord], None]) -> None:
        """Remove a previously subscribed listener (no-op if absent)."""
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

    # -- queries ---------------------------------------------------------- #

    def __len__(self) -> int:
        return len(self._records)

    def all(self) -> list[TraceRecord]:
        """All records in emission order (which is also time order)."""
        return list(self._records)

    def of_kind(self, kind: str) -> list[TraceRecord]:
        """All records with the given kind, in time order (O(1) lookup)."""
        return list(self._kind_index.get(kind, ()))

    def of_kinds(self, *kinds: str) -> list[TraceRecord]:
        """Records matching any of ``kinds``, merged in time order."""
        wanted = set(kinds)
        return [r for r in self._records if r.kind in wanted]

    def where(
        self,
        predicate: Callable[[TraceRecord], bool],
        *,
        kind: str | None = None,
    ) -> list[TraceRecord]:
        """Records satisfying ``predicate`` (optionally pre-filtered by kind)."""
        pool: Iterable[TraceRecord]
        pool = self._kind_index.get(kind, ()) if kind is not None else self._records
        return [r for r in pool if predicate(r)]

    def first_after(
        self, t: float, *, kind: str | None = None, node: str | None = None
    ) -> TraceRecord | None:
        """Earliest record with ``time >= t`` matching the filters."""
        pool: Iterable[TraceRecord]
        pool = self._kind_index.get(kind, ()) if kind is not None else self._records
        for r in pool:
            if r.time >= t and (node is None or r.node == node):
                return r
        return None

    def last_before(
        self, t: float, *, kind: str | None = None, node: str | None = None
    ) -> TraceRecord | None:
        """Latest record with ``time <= t`` matching the filters."""
        pool: list[TraceRecord]
        pool = self._kind_index.get(kind, []) if kind is not None else self._records
        best: TraceRecord | None = None
        for r in pool:
            if r.time > t:
                break
            if node is None or r.node == node:
                best = r
        return best

    def clear(self) -> None:
        self._records.clear()
        self._kind_index.clear()
