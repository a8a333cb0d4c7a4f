"""Outside-in span tracing for the traced benchmark run.

Nothing under ``src/`` knows about spans.  :func:`installed` replaces the
program's *public* entry points (class attributes, plus two public names
in ``repro.fuzz.oracle``'s namespace) with timing wrappers before a
cluster is built and puts the originals back afterwards; objects built in
between bind the wrappers the same way they would bind the originals.

A span has a name, a start, an end and a parent (the innermost open span
— one stack, the simulation is single-threaded).  Self time is duration
minus the time covered by child spans.  Spans are aggregated in memory
per ``(name, parent)``; the first :data:`RAW_LIMIT` raw spans of a round
can additionally be kept for a Chrome trace-event file.

Wrapper cost (two clock reads, a push/pop and a dict update, ~1 us) is
charged to the *parent's* self time, so a layer that makes many calls
into wrapped layers looks somewhat heavier traced than it is untraced;
``trace.overhead_ratio`` says by how much in total.
"""

from __future__ import annotations

import contextlib
import json
from time import perf_counter_ns
from typing import Any, Callable, Iterator

import repro.fuzz.oracle as oracle
from repro.cluster.builder import Cluster
from repro.dynatune.policy import DynatunePolicy
from repro.net.network import Network
from repro.raft.client import RaftClient
from repro.raft.node import RaftNode
from repro.raft.state_machine import KVStore
from repro.scenarios.safety import SafetyChecker
from repro.scenarios.scenario import Scenario
from repro.sim.loop import EventLoop
from repro.sim.timers import Timer, TimerService
from repro.sim.tracing import TraceLog
from repro.storage.simdisk import SimDiskStorage

RAW_LIMIT = 20_000

#: Spans that drive the event loop; their self time is the kernel's.
KERNEL = "sim.kernel"

#: The timed body of a round; shares are taken over its wall.
BODY = "bench.body"


class NullTracer:
    """Untraced runs: call-site spans cost one shared no-op context."""

    _null = contextlib.nullcontext()

    def span(self, name: str) -> Any:  # noqa: ARG002
        return self._null

    def body(self) -> Any:
        return self._null


class _Span:
    __slots__ = ("_tracer", "_name", "_exit")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> None:
        self._exit = self._tracer._open(self._name)

    def __exit__(self, *exc: object) -> None:
        self._exit()


class Tracer:
    """In-memory span aggregator (one per traced round)."""

    def __init__(self, *, keep_raw: bool = False) -> None:
        #: Stack of ``[name, child_ns]`` frames; the sentinel root has no name.
        self._stack: list[list[Any]] = [["", 0]]
        #: ``(name, parent) -> [count, total_ns, self_ns]`` of spans closed
        #: inside the timed body, and of those closed outside it (set-up,
        #: measurement) — rates and shares use the first only.
        self.inside: dict[tuple[str, str], list[int]] = {}
        self.outside: dict[tuple[str, str], list[int]] = {}
        self.agg = self.outside
        #: ``(name, parent, start_ns, dur_ns)`` of the first RAW_LIMIT spans.
        self.raw: list[tuple[str, str, int, int]] | None = [] if keep_raw else None
        # Exact counts taken inside the body at wrapped boundaries (see
        # installed()): events the loop reports having run, storage
        # records written, syncs with something to flush, records replayed.
        self.kernel_events = 0
        self.storage_records = 0
        self.storage_syncs = 0
        self.recover_records = 0

    # -- recording ------------------------------------------------------ #

    def _open(self, name: str) -> Callable[[], None]:
        stack = self._stack
        parent = stack[-1]
        frame = [name, 0]
        stack.append(frame)
        t0 = perf_counter_ns()

        def close() -> None:
            dt = perf_counter_ns() - t0
            stack.pop()
            self._close(name, parent, t0, dt, frame[1])

        return close

    def _close(self, name: str, parent: list[Any], t0: int, dt: int, child: int) -> None:
        parent[1] += dt
        key = (name, parent[0])
        a = self.agg.get(key)
        if a is None:
            self.agg[key] = [1, dt, dt - child]
        else:
            a[0] += 1
            a[1] += dt
            a[2] += dt - child
        raw = self.raw
        if raw is not None and len(raw) < RAW_LIMIT:
            raw.append((name, parent[0], t0, dt))

    def span(self, name: str) -> _Span:
        """Context manager for the benchmark's own call sites."""
        return _Span(self, name)

    @contextlib.contextmanager
    def body(self) -> Iterator[None]:
        """The timed body: one :data:`BODY` span, aggregated apart."""
        self.agg = self.inside
        try:
            with self.span(BODY):
                yield
        finally:
            self.agg = self.outside

    @property
    def in_body(self) -> bool:
        return self.agg is self.inside

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` timed as a span called ``name`` (the hot-path form)."""
        stack = self._stack
        close = self._close

        def span(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1]
            frame = [name, 0]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                stack.pop()
                close(name, parent, t0, dt, frame[1])

        return span

    # -- queries (all in seconds / plain counts) ------------------------- #

    # Queries default to spans inside the timed body; ``anywhere`` adds
    # set-up and measurement.

    def _rows(self, anywhere: bool) -> Iterator[tuple[tuple[str, str], list[int]]]:
        yield from self.inside.items()
        if anywhere:
            yield from self.outside.items()

    def count(
        self,
        name: str,
        *,
        parent: str | None = None,
        not_parent: str | None = None,
        anywhere: bool = False,
    ) -> int:
        return sum(
            a[0]
            for (n, p), a in self._rows(anywhere)
            if n == name and (parent is None or p == parent) and p != not_parent
        )

    def total_s(self, name: str, *, anywhere: bool = False) -> float:
        """Inclusive time of ``name`` (spans nested in themselves excluded)."""
        return sum(a[1] for (n, p), a in self._rows(anywhere) if n == name and p != name) / 1e9

    def self_s(self, name: str) -> float:
        return sum(a[2] for (n, _), a in self.inside.items() if n == name) / 1e9

    def names(self) -> list[str]:
        return sorted({n for n, _ in self.inside})

    def merge(self, other: "Tracer") -> None:
        for mine, theirs in ((self.inside, other.inside), (self.outside, other.outside)):
            for key, a in theirs.items():
                row = mine.setdefault(key, [0, 0, 0])
                for i in range(3):
                    row[i] += a[i]
        self.kernel_events += other.kernel_events
        self.storage_records += other.storage_records
        self.storage_syncs += other.storage_syncs
        self.recover_records += other.recover_records
        if self.raw is not None and not self.raw and other.raw:
            self.raw = other.raw

    def table(self) -> list[tuple[str, int, float, float, float]]:
        """``(name, count, total_s, self_s, self share of the body)`` rows,
        heaviest self time first — the printed span table."""
        denom = self.total_s(BODY) or 1.0
        rows = [
            (n, self.count(n), self.total_s(n), self.self_s(n), self.self_s(n) / denom)
            for n in self.names()
        ]
        return sorted(rows, key=lambda r: -r[3])

    def write_chrome_trace(self, path: str) -> None:
        """Raw spans as Chrome/Perfetto complete ("X") events."""
        raw = self.raw or []
        t_min = min((r[2] for r in raw), default=0)
        events = [
            {
                "name": name,
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": (t0 - t_min) / 1e3,
                "dur": dt / 1e3,
                "args": {"parent": parent},
            }
            for name, parent, t0, dt in raw
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ns"}, fh)


#: ``(owner, attributes, span name)`` of every plainly wrapped entry point.
_ENTRY_POINTS: list[tuple[Any, tuple[str, ...], str]] = [
    # run_until_leader single-steps the loop; step() itself stays
    # unwrapped (one span per event would be the overhead).
    (Cluster, ("run_until_leader",), KERNEL),
    (Timer, ("start", "reset", "cancel"), "sim.timer"),
    (TraceLog, ("record",), "sim.trace"),
    (Network, ("transmit", "send", "broadcast"), "net.send"),
    (RaftNode, ("deliver",), "raft.deliver"),
    (RaftClient, ("deliver",), "raft.client.deliver"),
    (RaftClient, ("submit",), "raft.client.submit"),
    (KVStore, ("apply", "read"), "raft.apply"),
    (
        DynatunePolicy,
        ("on_heartbeat", "on_heartbeat_response", "heartbeat_meta", "on_election_timeout"),
        "dynatune.policy",
    ),
    (Scenario, ("install",), "scenarios.install"),
    (SafetyChecker, ("check_now", "sample"), "scenarios.safety"),
    (SafetyChecker, ("verify",), "scenarios.verify"),
]


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[None]:
    """Wrap the program's public entry points for the duration of the block."""
    undo: list[tuple[Any, str, Any]] = []

    def patch(owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        original = getattr(owner, attr)
        undo.append((owner, attr, original))
        setattr(owner, attr, make(original))

    for owner, attrs, name in _ENTRY_POINTS:
        for attr in attrs:
            patch(owner, attr, lambda orig, name=name: tracer.wrap(name, orig))

    # Public names run_trial looks up in its own module namespace.
    patch(oracle, "build_cluster", lambda orig: tracer.wrap("cluster.build", orig))
    patch(oracle, "check_history", lambda orig: tracer.wrap("fuzz.lin_check", orig))

    def draining(orig: Any) -> Any:
        timed = tracer.wrap(KERNEL, orig)

        def drain(self: Any, *args: Any, **kwargs: Any) -> int:
            executed = timed(self, *args, **kwargs)
            if tracer.in_body:
                tracer.kernel_events += executed
            return executed

        return drain

    patch(EventLoop, "run_until", draining)
    patch(EventLoop, "run", draining)

    # Callbacks handed to the loop/timer/trace services get spans of their
    # own, so what is left in the kernel's self time is dispatch alone.
    def scheduling(orig: Any) -> Any:
        timed = tracer.wrap("sim.schedule", orig)

        def schedule(self: Any, when: float, callback: Any, **kwargs: Any) -> Any:
            return timed(self, when, tracer.wrap("sim.callback", callback), **kwargs)

        return schedule

    patch(EventLoop, "schedule", scheduling)
    patch(EventLoop, "schedule_at", scheduling)
    patch(
        TimerService,
        "timer",
        lambda orig: lambda self, name, callback: orig(
            self, name, tracer.wrap("raft.timer_cb", callback)
        ),
    )
    patch(
        TraceLog,
        "subscribe",
        lambda orig: lambda self, listener: orig(
            self, tracer.wrap("scenarios.safety", listener)
        ),
    )

    # Storage: spans plus exact counts of records written and of syncs
    # that had something to flush (tracked here, per storage object).
    # Keyed by id with the object held, so an id is never reused while
    # its entry lives and the counts stay exact.
    dirty: dict[int, Any] = {}

    def writing(orig: Any) -> Any:
        timed = tracer.wrap("storage.io", orig)

        def write(self: Any, *args: Any) -> Any:
            if tracer.in_body:
                tracer.storage_records += 1
                dirty[id(self)] = self
            return timed(self, *args)

        return write

    for attr in (
        "save_hard_state",
        "save_snapshot",
        "wal_append",
        "wal_truncate",
        "wal_compact",
        "wal_reset",
    ):
        patch(SimDiskStorage, attr, writing)

    def syncing(orig: Any) -> Any:
        timed = tracer.wrap("storage.io", orig)

        def sync(self: Any) -> Any:
            if dirty.pop(id(self), None) is not None:
                tracer.storage_syncs += 1
            return timed(self)

        return sync

    patch(SimDiskStorage, "sync", syncing)

    def recovering(orig: Any) -> Any:
        timed = tracer.wrap("storage.recover", orig)

        def recover(self: Any) -> Any:
            state = timed(self)
            if tracer.in_body:
                tracer.recover_records += state.replayed
            return state

        return recover

    patch(SimDiskStorage, "recover", recovering)

    try:
        yield
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
