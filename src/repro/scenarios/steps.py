"""Typed scenario steps — the vocabulary of the declarative timeline.

Each step is a frozen dataclass naming one fault or network mutation at an
absolute virtual time ``at_ms``, optionally replayed on a cadence via
``repeat``.  Steps are *data*: every step round-trips through
``to_dict``/``step_from_dict`` (and therefore JSON), so a scenario can live
in a config file as easily as in code.

The step vocabulary spans all three impairment layers:

* network weather — :class:`SetRtt`, :class:`SetLoss`,
  :class:`SetDuplicate` (global or per-pair, the generalized ``tc``
  knobs);
* connectivity — :class:`Partition`, :class:`Heal`, :class:`Flap` (one
  link blinking down and up), and the gray-failure pair
  :class:`BlockLink` / :class:`GrayLink` (one *direction* blocked or
  degraded — the asymmetric faults that livelock naive elections);
* node faults — :class:`Pause`, :class:`Crash`, :class:`Recover`,
  :class:`Churn` (a rolling crash/pause cycle over a node list), and
  :class:`SetClock` (skew/drift one node's local clock).

Node references are *selectors*: either a concrete node name or the
dynamic ``"@leader"``, resolved against the live cluster at the instant
the step applies (a leader-churn loop keeps chasing whoever currently
leads).  A selector that resolves to nothing — no leader during an
outage — skips that occurrence and records the skip in the trace rather
than failing the run: fault timelines must be robust to the very outages
they create.
"""

from __future__ import annotations

import dataclasses
import math
import typing
from typing import Any, Callable, ClassVar

from repro.cluster.faults import crash as crash_node
from repro.cluster.faults import pause_for, recover_node
from repro.net.network import Network
from repro.sim.events import PRIORITY_CONTROL
from repro.sim.process import ProcessState

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints
    from repro.scenarios.scenario import ScenarioRuntime

__all__ = [
    "LEADER_SELECTOR",
    "Repeat",
    "Step",
    "SetRtt",
    "SetLoss",
    "SetDuplicate",
    "Partition",
    "Heal",
    "Pause",
    "Crash",
    "Recover",
    "Flap",
    "BlockLink",
    "GrayLink",
    "SetClock",
    "Churn",
    "DiskFault",
    "AddNode",
    "RemoveNode",
    "ReplaceNode",
    "step_from_dict",
    "STEP_TYPES",
]

#: Dynamic selector resolved to the current leader at apply time.
LEADER_SELECTOR = "@leader"


@dataclasses.dataclass(slots=True, frozen=True)
class Repeat:
    """Replay a step ``times`` times, ``every_ms`` apart (first at ``at_ms``)."""

    every_ms: float
    times: int

    def __post_init__(self) -> None:
        _check_ms(self.every_ms, "every_ms", positive=True)
        if self.times < 1:
            raise ValueError(f"times must be >= 1, got {self.times!r}")

    def to_dict(self) -> dict[str, Any]:
        return {"every_ms": self.every_ms, "times": self.times}


def _check_ms(value: float, field: str, *, positive: bool = False) -> None:
    """Reject a negative (with ``positive``, also a zero), NaN or infinite
    time: a reproducer is JSON, Python's ``json`` reads ``NaN``, and a NaN
    or infinite time makes a window or a run that never ends.  NaN fails
    every comparison, hence the negated form."""
    if not (0.0 <= value < math.inf) or (positive and value == 0.0):
        bound = "> 0" if positive else ">= 0"
        raise ValueError(f"{field} must be finite and {bound}, got {value!r}")


def _check_selector(value: str, field: str) -> None:
    if not isinstance(value, str) or not value:
        raise ValueError(f"{field} must be a non-empty node selector, got {value!r}")
    if value.startswith("@") and value != LEADER_SELECTOR:
        # A typo'd dynamic selector would pass install-time name validation
        # (which exempts "@"-tokens) and then silently skip every
        # occurrence — fail at construction instead.
        raise ValueError(
            f"{field}: unknown dynamic selector {value!r} "
            f"(only {LEADER_SELECTOR!r} is defined)"
        )


class Step:
    """Base behaviour shared by every step dataclass.

    Subclasses declare ``kind`` (the serialized tag), a ``_TUPLE_FIELDS``
    map for JSON list→tuple coercion, and implement
    :meth:`apply`; duration-carrying steps also override
    :meth:`effect_duration_ms`.
    """

    kind: ClassVar[str]
    #: Fields whose JSON form is a (possibly nested) list.
    _TUPLE_FIELDS: ClassVar[tuple[str, ...]] = ()
    #: Membership steps reference nodes that may not exist at install time
    #: (a joiner spawned mid-run) — install-time name validation skips them.
    _DYNAMIC_NODES: ClassVar[bool] = False

    # These annotations are provided by every subclass dataclass.
    at_ms: float
    repeat: Repeat | None

    def _validate_base(self) -> None:
        _check_ms(self.at_ms, "at_ms")

    #: All the validation a step with no field of its own needs (the
    #: intermediate bases below alias their validators the same way).
    __post_init__ = _validate_base

    def occurrence_times(self) -> list[float]:
        """Absolute times this step applies (one per repeat occurrence)."""
        if self.repeat is None:
            return [self.at_ms]
        return [
            self.at_ms + i * self.repeat.every_ms for i in range(self.repeat.times)
        ]

    def effect_duration_ms(self) -> float:
        """How long one occurrence's effect takes to play out (0 = instant)."""
        return 0.0

    @property
    def extent_ms(self) -> float:
        """Time the step's last occurrence has fully played out."""
        return self.occurrence_times()[-1] + self.effect_duration_ms()

    def apply(self, rt: "ScenarioRuntime", occurrence: int) -> dict[str, Any]:
        """Execute one occurrence; return trace fields (``skipped`` flags)."""
        raise NotImplementedError

    # -- serialization ----------------------------------------------------- #

    def to_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {"kind": self.kind}
        for f in dataclasses.fields(self):  # type: ignore[arg-type]
            value = getattr(self, f.name)
            if f.name == "repeat":
                if value is not None:
                    d["repeat"] = value.to_dict()
                continue
            if isinstance(value, tuple):
                value = _tuple_to_list(value)
            d[f.name] = value
        return d


def _tuple_to_list(value: Any) -> Any:
    if isinstance(value, tuple):
        return [_tuple_to_list(v) for v in value]
    return value


def _list_to_tuple(value: Any) -> Any:
    if isinstance(value, (list, tuple)):
        return tuple(_list_to_tuple(v) for v in value)
    return value


def step_from_dict(data: dict[str, Any]) -> Step:
    """Reconstruct a step from its ``to_dict`` form (strict: no extra keys)."""
    if "kind" not in data:
        raise ValueError(f"step dict needs a 'kind' key, got {sorted(data)}")
    payload = dict(data)
    kind = payload.pop("kind")
    cls = STEP_TYPES.get(kind)
    if cls is None:
        raise ValueError(
            f"unknown step kind {kind!r}; expected one of {sorted(STEP_TYPES)}"
        )
    field_names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(payload) - field_names
    if unknown:
        raise ValueError(f"step {kind!r} got unknown keys {sorted(unknown)}")
    repeat = payload.pop("repeat", None)
    if repeat is not None:
        repeat = Repeat(**repeat)
    for name in cls._TUPLE_FIELDS:
        if payload.get(name) is not None:
            payload[name] = _list_to_tuple(payload[name])
    return cls(repeat=repeat, **payload)


# --------------------------------------------------------------------- #
# network weather
# --------------------------------------------------------------------- #


class _Weather(Step):
    """Shared body of the network-weather trio: one value retargeted on
    every link, or on ``pair`` only.  A subclass names its value field
    (also the trace key), whether it is a probability, and the fabric's
    ``(set-everywhere, set-one-pair)`` setters."""

    _TUPLE_FIELDS: ClassVar[tuple[str, ...]] = ("pair",)
    _FIELD: ClassVar[str]
    _PROBABILITY: ClassVar[bool] = True
    _SETTERS: ClassVar[tuple[Callable[..., None], Callable[..., None]]]

    pair: tuple[str, str] | None

    def __post_init__(self) -> None:
        self._validate_base()
        value = getattr(self, self._FIELD)
        if self._PROBABILITY:
            if not (0.0 <= value <= 1.0):
                raise ValueError(f"{self._FIELD} must be in [0, 1], got {value!r}")
        else:
            _check_ms(value, self._FIELD)
        if self.pair is not None:
            if len(self.pair) != 2:
                raise ValueError(f"pair must name two nodes, got {self.pair!r}")
            for sel in self.pair:
                _check_selector(sel, "pair")

    def apply(self, rt: "ScenarioRuntime", occurrence: int) -> dict[str, Any]:
        value = getattr(self, self._FIELD)
        set_all, set_pair = self._SETTERS
        if self.pair is None:
            set_all(rt.network, value)
            return {self._FIELD: value}
        a, b = (rt.resolve(s) for s in self.pair)
        if a is None or b is None or a == b:
            return {"skipped": True, "reason": "pair unresolved"}
        set_pair(rt.network, a, b, value)
        return {self._FIELD: value, "a": a, "b": b}


@dataclasses.dataclass(slots=True, frozen=True)
class SetRtt(_Weather):
    """Retarget RTT — of every pair, or of ``pair`` only."""

    kind: ClassVar[str] = "set_rtt"
    _FIELD: ClassVar[str] = "rtt_ms"
    _PROBABILITY: ClassVar[bool] = False
    _SETTERS = (Network.set_all_rtt, Network.set_rtt)

    at_ms: float
    rtt_ms: float
    pair: tuple[str, str] | None = None
    repeat: Repeat | None = None


@dataclasses.dataclass(slots=True, frozen=True)
class SetLoss(_Weather):
    """Retarget loss rate — of every link, or of ``pair`` only."""

    kind: ClassVar[str] = "set_loss"
    _FIELD: ClassVar[str] = "loss"
    _SETTERS = (Network.set_all_loss, Network.set_loss)

    at_ms: float
    loss: float
    pair: tuple[str, str] | None = None
    repeat: Repeat | None = None


@dataclasses.dataclass(slots=True, frozen=True)
class SetDuplicate(_Weather):
    """Retarget UDP duplication probability — every link, or ``pair`` only.

    Completes the network-weather trio (RTT / loss / duplication):
    ``Link.duplicate_p`` existed from the start, but until this step no
    timeline could drive it.  The paper's measurement design handles
    duplicates explicitly (§III-C2), so weather scenarios should too.
    """

    kind: ClassVar[str] = "set_duplicate"
    _FIELD: ClassVar[str] = "duplicate_p"
    _SETTERS = (Network.set_all_duplicate, Network.set_duplicate)

    at_ms: float
    duplicate_p: float
    pair: tuple[str, str] | None = None
    repeat: Repeat | None = None


# --------------------------------------------------------------------- #
# connectivity
# --------------------------------------------------------------------- #


@dataclasses.dataclass(slots=True, frozen=True)
class Partition(Step):
    """Install partition groups (unlisted nodes form the implicit rest).

    Groups may use selectors: ``(("@leader",),)`` isolates whoever leads
    at the instant the step fires.
    """

    kind: ClassVar[str] = "partition"
    _TUPLE_FIELDS: ClassVar[tuple[str, ...]] = ("groups",)

    at_ms: float
    groups: tuple[tuple[str, ...], ...]
    repeat: Repeat | None = None

    def __post_init__(self) -> None:
        self._validate_base()
        if not self.groups:
            raise ValueError("partition needs at least one group")
        for group in self.groups:
            if not group:
                raise ValueError("partition groups must be non-empty")
            for sel in group:
                _check_selector(sel, "group member")

    def apply(self, rt: "ScenarioRuntime", occurrence: int) -> dict[str, Any]:
        resolved: list[set[str]] = []
        seen: set[str] = set()
        for group in self.groups:
            names = {n for n in (rt.resolve(s) for s in group) if n is not None}
            names -= seen  # "@leader" may coincide with an explicit member
            if not names:
                return {"skipped": True, "reason": "group unresolved"}
            seen |= names
            resolved.append(names)
        rt.network.set_partitions(resolved)
        return {"groups": [sorted(g) for g in resolved]}


@dataclasses.dataclass(slots=True, frozen=True)
class Heal(Step):
    """Clear all partitions."""

    kind: ClassVar[str] = "heal"

    at_ms: float
    repeat: Repeat | None = None

    def apply(self, rt: "ScenarioRuntime", occurrence: int) -> dict[str, Any]:
        rt.network.clear_partitions()
        return {}


class _PairStep(Step):
    """Shared plumbing of the steps aimed at the ``a``↔``b`` link: selector
    validation, and resolution at apply time (an unresolvable or
    degenerate pair is a traced skip) before ``_apply_pair(rt, a, b)``."""

    a: str
    b: str

    def _validate_pair(self) -> None:
        self._validate_base()
        _check_selector(self.a, "a")
        _check_selector(self.b, "b")

    def apply(self, rt: "ScenarioRuntime", occurrence: int) -> dict[str, Any]:
        a, b = rt.resolve(self.a), rt.resolve(self.b)
        if a is None or b is None or a == b:
            return {"skipped": True, "reason": "pair unresolved"}
        return self._apply_pair(rt, a, b)


@dataclasses.dataclass(slots=True, frozen=True)
class Flap(_PairStep):
    """Blink the ``a``↔``b`` link down for ``down_ms`` (both directions).

    One occurrence is one blink; a flapping link is a ``Flap`` with a
    ``repeat`` whose ``every_ms`` is the flap period.
    """

    kind: ClassVar[str] = "flap"

    at_ms: float
    a: str
    b: str
    down_ms: float
    repeat: Repeat | None = None

    def __post_init__(self) -> None:
        self._validate_pair()
        _check_ms(self.down_ms, "down_ms", positive=True)
        if self.repeat is not None and self.repeat.every_ms <= self.down_ms:
            raise ValueError("flap period must exceed down_ms (link must come back up)")

    def effect_duration_ms(self) -> float:
        return self.down_ms

    def _apply_pair(self, rt: "ScenarioRuntime", a: str, b: str) -> dict[str, Any]:
        links = [rt.network.link(a, b), rt.network.link(b, a)]
        for link in links:
            link.up = False

        def _up(key: tuple[str, ...]) -> None:
            for link in links:
                link.up = True

        rt.window([("flap", min(a, b), max(a, b))], self.down_ms, _up)
        return {"a": a, "b": b, "down_ms": self.down_ms}


_DIRECTIONS = ("both", "a_to_b", "b_to_a")


class _DirectedStep(_PairStep):
    """Shared plumbing of the gray-failure pair: one or both *directions*
    of the link, for ``duration_ms`` (``None`` = the rest of the run)."""

    direction: str
    duration_ms: float | None

    def _validate_directed(self) -> None:
        self._validate_pair()
        if self.direction not in _DIRECTIONS:
            raise ValueError(
                f"direction must be one of {_DIRECTIONS}, got {self.direction!r}"
            )
        if self.duration_ms is not None:
            _check_ms(self.duration_ms, "duration_ms", positive=True)

    __post_init__ = _validate_directed

    def effect_duration_ms(self) -> float:
        return self.duration_ms if self.duration_ms is not None else 0.0

    def _keys(self, family: str, a: str, b: str) -> list[tuple[str, ...]]:
        """This occurrence's window keys: ``(family, src, dst)`` per
        ordered link the step touches."""
        if self.direction == "a_to_b":
            return [(family, a, b)]
        if self.direction == "b_to_a":
            return [(family, b, a)]
        return [(family, a, b), (family, b, a)]


@dataclasses.dataclass(slots=True, frozen=True)
class BlockLink(_DirectedStep):
    """Block the ``a``↔``b`` link in one (or both) directions.

    The asymmetric cousin of :class:`Flap`: ``direction="a_to_b"`` drops
    only traffic flowing ``a → b`` while the return path stays perfect —
    the "can send but cannot hear" gray failure that livelocks naive
    elections (the isolated node campaigns forever; its ever-growing
    terms still reach the cluster).  ``duration_ms=None`` blocks for the
    rest of the run; a finite window restores only the directions this
    occurrence blocked, and only those it is still the latest block on.
    """

    kind: ClassVar[str] = "block_link"

    at_ms: float
    a: str
    b: str
    direction: str = "both"
    duration_ms: float | None = None
    repeat: Repeat | None = None

    def _apply_pair(self, rt: "ScenarioRuntime", a: str, b: str) -> dict[str, Any]:
        net = rt.network
        keys = self._keys("block", a, b)
        for _, src, dst in keys:
            net.block_direction(src, dst)
        rt.window(
            keys, self.duration_ms, lambda key: net.unblock_direction(key[1], key[2])
        )
        return {
            "a": a,
            "b": b,
            "direction": self.direction,
            "duration_ms": self.duration_ms,
        }


@dataclasses.dataclass(slots=True, frozen=True)
class GrayLink(_DirectedStep):
    """Gray-degrade the ``a``↔``b`` link: heavy loss and/or delay, one way.

    Unlike :class:`BlockLink` the link still *works* — packets trickle
    through — which is exactly what makes gray failures hard: failure
    detectors keyed on total silence never fire, while quorum progress
    collapses.  ``loss`` (a rate, not a blackout) and ``one_way_ms`` (the
    direction's new base one-way delay) apply to each affected direction;
    a finite ``duration_ms`` restores the previous values afterwards, per
    direction and latest-window-wins like :class:`BlockLink`.
    """

    kind: ClassVar[str] = "gray_link"

    at_ms: float
    a: str
    b: str
    direction: str = "a_to_b"
    loss: float | None = None
    one_way_ms: float | None = None
    duration_ms: float | None = None
    repeat: Repeat | None = None

    def __post_init__(self) -> None:
        self._validate_directed()
        if self.loss is None and self.one_way_ms is None:
            raise ValueError("gray_link needs loss and/or one_way_ms")
        if self.loss is not None and not (0.0 <= self.loss <= 1.0):
            raise ValueError(f"loss must be in [0, 1], got {self.loss!r}")
        if self.one_way_ms is not None:
            _check_ms(self.one_way_ms, "one_way_ms")

    def _apply_pair(self, rt: "ScenarioRuntime", a: str, b: str) -> dict[str, Any]:
        net = rt.network
        loss, one_way_ms = self.loss, self.one_way_ms
        prev = {
            key: net.degrade_direction(key[1], key[2], loss=loss, one_way_ms=one_way_ms)
            for key in self._keys("gray", a, b)
        }

        def _restore(key: tuple[str, ...]) -> None:
            was_loss, was_one_way_ms = prev[key]
            net.degrade_direction(
                key[1],
                key[2],
                loss=was_loss if loss is not None else None,
                one_way_ms=was_one_way_ms if one_way_ms is not None else None,
            )

        rt.window(prev, self.duration_ms, _restore)
        return {
            "a": a,
            "b": b,
            "direction": self.direction,
            "loss": loss,
            "one_way_ms": one_way_ms,
            "duration_ms": self.duration_ms,
        }


# --------------------------------------------------------------------- #
# node faults
# --------------------------------------------------------------------- #


class _NodeStep(Step):
    """Shared plumbing of the steps aimed at one ``node`` selector:
    validation, and resolution at apply time (no such node right now —
    no leader during an outage — is a traced skip) before
    ``_apply_node(rt, proc)``."""

    node: str

    def _validate_node(self) -> None:
        self._validate_base()
        _check_selector(self.node, "node")

    __post_init__ = _validate_node

    def apply(self, rt: "ScenarioRuntime", occurrence: int) -> dict[str, Any]:
        proc = rt.process(self.node)
        if proc is None:
            return {"skipped": True, "reason": "node unresolved"}
        return self._apply_node(rt, proc)


@dataclasses.dataclass(slots=True, frozen=True)
class Pause(_NodeStep):
    """Container-sleep ``node`` for ``duration_ms`` (auto-resume).

    ``trace_kind`` is the trace record :func:`~repro.cluster.faults.
    pause_for` emits at pause time; pass ``"fault_leader_pause"`` when the
    pause *is* a leader failure so the measurement layer counts it.
    """

    kind: ClassVar[str] = "pause"

    at_ms: float
    node: str
    duration_ms: float
    trace_kind: str = "fault_pause"
    repeat: Repeat | None = None

    def __post_init__(self) -> None:
        self._validate_node()
        _check_ms(self.duration_ms, "duration_ms", positive=True)

    def effect_duration_ms(self) -> float:
        return self.duration_ms

    def _apply_node(self, rt: "ScenarioRuntime", proc: Any) -> dict[str, Any]:
        if proc.state is not ProcessState.RUNNING:
            return {"skipped": True, "reason": f"node {proc.name} not running"}
        pause_for(rt.loop, proc, self.duration_ms, kind=self.trace_kind)
        return {"target": proc.name, "duration_ms": self.duration_ms}


@dataclasses.dataclass(slots=True, frozen=True)
class Crash(_NodeStep):
    """Crash ``node`` (volatile state lost; recover via :class:`Recover`)."""

    kind: ClassVar[str] = "crash"

    at_ms: float
    node: str
    repeat: Repeat | None = None

    def _apply_node(self, rt: "ScenarioRuntime", proc: Any) -> dict[str, Any]:
        if proc.state is ProcessState.STOPPED:
            return {"skipped": True, "reason": f"node {proc.name} removed"}
        if proc.state is ProcessState.CRASHED:
            return {"skipped": True, "reason": f"node {proc.name} already crashed"}
        crash_node(proc)
        return {"target": proc.name}


@dataclasses.dataclass(slots=True, frozen=True)
class Recover(_NodeStep):
    """Restart a crashed ``node`` (no-op on a node that is not crashed)."""

    kind: ClassVar[str] = "recover"

    at_ms: float
    node: str
    repeat: Repeat | None = None

    def _apply_node(self, rt: "ScenarioRuntime", proc: Any) -> dict[str, Any]:
        if proc.state is not ProcessState.CRASHED:
            return {"skipped": True, "reason": f"node {proc.name} not crashed"}
        recover_node(proc)
        return {"target": proc.name}


@dataclasses.dataclass(slots=True, frozen=True)
class Churn(Step):
    """Rolling fault over ``nodes``: occurrence ``i`` hits ``nodes[i % n]``.

    With ``fault="crash"`` each hit is a crash followed by a recovery
    after ``down_ms``; with ``fault="pause"`` it is a container sleep.
    Pair with ``repeat`` to cycle through the list (and around it).
    """

    kind: ClassVar[str] = "churn"
    _TUPLE_FIELDS: ClassVar[tuple[str, ...]] = ("nodes",)

    at_ms: float
    nodes: tuple[str, ...]
    down_ms: float
    fault: str = "crash"
    repeat: Repeat | None = None

    def __post_init__(self) -> None:
        self._validate_base()
        if not self.nodes:
            raise ValueError("churn needs at least one node")
        for sel in self.nodes:
            _check_selector(sel, "node")
        _check_ms(self.down_ms, "down_ms", positive=True)
        if self.fault not in ("crash", "pause"):
            raise ValueError(f"fault must be 'crash' or 'pause', got {self.fault!r}")

    def effect_duration_ms(self) -> float:
        return self.down_ms

    def apply(self, rt: "ScenarioRuntime", occurrence: int) -> dict[str, Any]:
        selector = self.nodes[occurrence % len(self.nodes)]
        proc = rt.process(selector)
        if proc is None:
            return {"skipped": True, "reason": "node unresolved"}
        if proc.state is ProcessState.STOPPED:
            # A churn list may name a node that was removed mid-run; hitting
            # it is a traced no-op, never a resurrection.
            return {"skipped": True, "reason": f"node {proc.name} removed"}
        if self.fault == "pause":
            if proc.state is not ProcessState.RUNNING:
                return {"skipped": True, "reason": f"node {proc.name} not running"}
            pause_for(rt.loop, proc, self.down_ms, kind="fault_pause")
            return {"target": proc.name, "fault": "pause", "down_ms": self.down_ms}
        if proc.state is ProcessState.CRASHED:
            return {"skipped": True, "reason": f"node {proc.name} already crashed"}
        crash_node(proc)
        # Generation guard (node-level, shared with every other crasher, so
        # not a scenario window): if anything crashes this node again before
        # the timer fires, the newer crash's downtime wins and this is stale.
        token = proc._crash_generation

        def _recover(p=proc) -> None:
            if p.state is ProcessState.CRASHED and p._crash_generation == token:
                recover_node(p)

        rt.loop.schedule(self.down_ms, _recover, priority=PRIORITY_CONTROL)
        return {"target": proc.name, "fault": "crash", "down_ms": self.down_ms}


#: The probabilities a :class:`DiskFault` retargets (its fields, the
#: :class:`~repro.storage.DiskFaultConfig` fields and the trace keys).
_DISK_KNOBS = ("p_crash_point", "p_io_error", "p_stall", "p_torn_tail", "p_bitflip")


@dataclasses.dataclass(slots=True, frozen=True)
class DiskFault(_NodeStep):
    """Retarget ``node``'s disk-fault probabilities (simdisk storage only).

    One occurrence swaps the node's fault knobs for ``duration_ms``
    (0 = the rest of the run), then restores the previous knobs — unless
    a later occurrence on the node has replaced them meanwhile (latest
    window wins; the stale revert no-ops).  Knobs not listed here
    (``stall_ms``, ``auto_recover_ms``) are preserved from the backend's
    configuration.

    On a cluster built with ideal storage the step is a traced skip: a
    fault timeline must degrade, not fail, when the storage layer under
    it cannot fault.
    """

    kind: ClassVar[str] = "disk_fault"

    at_ms: float
    node: str
    p_crash_point: float = 0.0
    p_io_error: float = 0.0
    p_stall: float = 0.0
    p_torn_tail: float = 0.0
    p_bitflip: float = 0.0
    duration_ms: float = 0.0
    repeat: Repeat | None = None

    def __post_init__(self) -> None:
        self._validate_node()
        for field in _DISK_KNOBS:
            p = getattr(self, field)
            if not (0.0 <= p <= 1.0):
                raise ValueError(f"{field} must be in [0, 1], got {p!r}")
        _check_ms(self.duration_ms, "duration_ms")

    def effect_duration_ms(self) -> float:
        return self.duration_ms

    def _apply_node(self, rt: "ScenarioRuntime", proc: Any) -> dict[str, Any]:
        store = getattr(proc, "storage", None)
        if store is None or store.kind != "simdisk":
            return {"skipped": True, "reason": "ideal storage"}
        knobs = {field: getattr(self, field) for field in _DISK_KNOBS}
        prev = store.faults
        store.faults = dataclasses.replace(prev, **knobs)

        def _revert(key: tuple[str, ...]) -> None:
            store.faults = prev

        rt.window(
            [("disk", proc.name)],
            self.duration_ms if self.duration_ms > 0.0 else None,
            _revert,
        )
        return {"target": proc.name, "duration_ms": self.duration_ms, **knobs}


@dataclasses.dataclass(slots=True, frozen=True)
class SetClock(_NodeStep):
    """Skew ``node``'s local clock: fixed ``offset_ms`` plus ``drift`` rate.

    Applies to the node's live :class:`~repro.sim.clock.NodeClock` — its
    view of time shifts while the simulation clock (the physics) is
    untouched.  ``SetClock(offset_ms=0, drift=0)`` restores the identity
    clock.  The effect persists until the next ``SetClock`` on the same
    node; already-armed timers keep their old deadlines (a clock step on
    a real host does not re-fire armed timers either).
    """

    kind: ClassVar[str] = "set_clock"

    at_ms: float
    node: str
    offset_ms: float = 0.0
    drift: float = 0.0
    repeat: Repeat | None = None

    def __post_init__(self) -> None:
        self._validate_node()
        if not math.isfinite(self.offset_ms):
            raise ValueError(f"offset_ms must be finite, got {self.offset_ms!r}")
        if not (-1.0 < self.drift < math.inf):  # also rejects NaN
            raise ValueError(f"drift must be finite and > -1, got {self.drift!r}")

    def _apply_node(self, rt: "ScenarioRuntime", proc: Any) -> dict[str, Any]:
        clock = getattr(proc, "clock", None)
        if clock is None:
            return {"skipped": True, "reason": f"node {proc.name} has no clock"}
        clock.set(offset_ms=self.offset_ms, drift=self.drift)
        return {
            "target": proc.name,
            "offset_ms": self.offset_ms,
            "drift": self.drift,
        }


# --------------------------------------------------------------------- #
# dynamic membership
# --------------------------------------------------------------------- #


def _propose_with_retry(
    rt: "ScenarioRuntime",
    change: str,
    target: str,
    retry_ms: float,
    max_retries: int,
    after: str | None = None,
) -> None:
    """Keep proposing ``change`` at whoever currently leads until a leader
    *appends* it (commit and any follow-on promotion are the protocol's
    business), giving up after ``max_retries`` re-attempts.

    Retries absorb the two transient rejection causes a live timeline
    produces: no leader right now (election in progress) and the
    one-at-a-time gate (an earlier config change still uncommitted).
    Permanent rejections (unknown node, double-add) burn retries too and
    end in a traced ``membership_giveup`` — a fault timeline must not
    fail the run.

    With ``after``, ``change`` is proposed only once that node is a voter
    in the current leader's configuration; while that configuration does
    not hold it at all (its append was lost with a deposed leader), each
    attempt re-proposes its ``add_learner`` instead.
    """
    state = [0]  # attempts so far

    def _try() -> None:
        leader = rt.cluster.leader()
        accepted = False
        if leader is not None:
            node = rt.cluster.nodes[leader]
            if after is None or after in node.membership.voters:
                accepted = node.propose_config_change(change, target)
            elif after not in node.membership:
                node.propose_config_change("add_learner", after)
        if accepted:
            return
        state[0] += 1
        if state[0] > max_retries:
            rt.trace.record(
                rt.loop.now,
                "scenario",
                "membership_giveup",
                change=change,
                target=target,
                attempts=state[0],
            )
            return
        rt.loop.schedule(retry_ms, _try, priority=PRIORITY_CONTROL)

    _try()


class _MembershipStep(Step):
    """Shared validation/plumbing for the membership step family."""

    _DYNAMIC_NODES: ClassVar[bool] = True

    retry_ms: float
    max_retries: int

    def _validate_retry(self) -> None:
        _check_ms(self.retry_ms, "retry_ms", positive=True)
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries!r}")

    def effect_duration_ms(self) -> float:
        # Worst case: the proposal is retried to exhaustion.
        return self.retry_ms * (self.max_retries + 1)


@dataclasses.dataclass(slots=True, frozen=True)
class AddNode(_MembershipStep):
    """Grow the cluster: spawn ``node`` fresh and propose ``add_learner``.

    The joiner enters as a non-voting learner, is caught up by the leader
    (through the snapshot path when it starts behind the compaction
    frontier) and auto-promoted to voter once caught up — one step covers
    the whole §4.1 join flow.  ``node`` must be a concrete fresh name;
    names are never reused.
    """

    kind: ClassVar[str] = "add_node"

    at_ms: float
    node: str
    retry_ms: float = 500.0
    max_retries: int = 40
    repeat: Repeat | None = None

    def __post_init__(self) -> None:
        self._validate_base()
        self._validate_retry()
        if not isinstance(self.node, str) or not self.node or self.node.startswith("@"):
            raise ValueError(f"add_node needs a concrete fresh name, got {self.node!r}")

    def apply(self, rt: "ScenarioRuntime", occurrence: int) -> dict[str, Any]:
        if not rt.membership_enabled:
            return {"skipped": True, "reason": "membership disabled"}
        cluster = rt.cluster
        if self.node in cluster.nodes:
            return {"skipped": True, "reason": f"node {self.node} already exists"}
        cluster.spawn_node(self.node)
        _propose_with_retry(rt, "add_learner", self.node, self.retry_ms, self.max_retries)
        return {"target": self.node}


@dataclasses.dataclass(slots=True, frozen=True)
class RemoveNode(_MembershipStep):
    """Shrink the cluster: propose removing ``node`` (selectors allowed).

    ``"@leader"`` resolves at apply time, pinning whoever leads *now*; the
    proposal then chases the current leader on each retry (removing a
    leader makes it step down once the entry commits, so the retry target
    and the victim diverge by design).  The committed removal is finalized
    by the cluster: the node stops and detaches, never to return.
    """

    kind: ClassVar[str] = "remove_node"

    at_ms: float
    node: str
    retry_ms: float = 500.0
    max_retries: int = 40
    repeat: Repeat | None = None

    def __post_init__(self) -> None:
        self._validate_base()
        self._validate_retry()
        _check_selector(self.node, "node")

    def apply(self, rt: "ScenarioRuntime", occurrence: int) -> dict[str, Any]:
        if not rt.membership_enabled:
            return {"skipped": True, "reason": "membership disabled"}
        name = rt.resolve(self.node)
        if name is None:
            return {"skipped": True, "reason": "node unresolved"}
        if rt.cluster.nodes[name].state is ProcessState.STOPPED:
            return {"skipped": True, "reason": f"node {name} already removed"}
        rt.cluster.enable_membership()
        _propose_with_retry(rt, "remove", name, self.retry_ms, self.max_retries)
        return {"target": name}


@dataclasses.dataclass(slots=True, frozen=True)
class ReplaceNode(_MembershipStep):
    """Rolling replacement: add ``replacement`` first, then remove ``node``.

    Add-before-remove preserves fault-tolerance capacity through the swap:
    the removal is proposed only once the replacement votes in the current
    leader's configuration, and an addition lost with a deposed leader is
    proposed again (see ``_propose_with_retry``'s ``after``).
    """

    kind: ClassVar[str] = "replace_node"

    at_ms: float
    node: str
    replacement: str
    retry_ms: float = 500.0
    max_retries: int = 40
    repeat: Repeat | None = None

    def __post_init__(self) -> None:
        self._validate_base()
        self._validate_retry()
        _check_selector(self.node, "node")
        if (
            not isinstance(self.replacement, str)
            or not self.replacement
            or self.replacement.startswith("@")
        ):
            raise ValueError(
                f"replace_node needs a concrete fresh replacement name, "
                f"got {self.replacement!r}"
            )

    def apply(self, rt: "ScenarioRuntime", occurrence: int) -> dict[str, Any]:
        if not rt.membership_enabled:
            return {"skipped": True, "reason": "membership disabled"}
        cluster = rt.cluster
        victim = rt.resolve(self.node)
        if victim is None:
            return {"skipped": True, "reason": "node unresolved"}
        if victim == self.replacement:
            return {"skipped": True, "reason": "replacement equals victim"}
        if cluster.nodes[victim].state is ProcessState.STOPPED:
            return {"skipped": True, "reason": f"node {victim} already removed"}
        if self.replacement in cluster.nodes:
            return {"skipped": True, "reason": f"node {self.replacement} already exists"}
        cluster.spawn_node(self.replacement)
        _propose_with_retry(
            rt, "remove", victim, self.retry_ms, self.max_retries, after=self.replacement
        )
        return {"target": victim, "replacement": self.replacement}


#: Registry used by :func:`step_from_dict` (kind tag → class).
STEP_TYPES: dict[str, type[Step]] = {
    cls.kind: cls
    for cls in (
        SetRtt,
        SetLoss,
        SetDuplicate,
        Partition,
        Heal,
        Pause,
        Crash,
        Recover,
        Flap,
        BlockLink,
        GrayLink,
        SetClock,
        Churn,
        DiskFault,
        AddNode,
        RemoveNode,
        ReplaceNode,
    )
}
