"""The :class:`Scenario`: a named, replayable fault/network timeline.

A scenario is a list of timed, typed steps that *installs* onto a cluster
as control-priority events and holds no run state, so one scenario object
can drive any number of independent runs.  It spans all three layers
(weather, connectivity, node faults) and is pure data:
``Scenario.from_dict``/``to_dict`` (and the JSON convenience wrappers)
round-trip the whole timeline, so a scenario can be checked into a repo
as a ``.json`` file and replayed bit-for-bit.

Every applied step occurrence emits one ``scenario_step`` trace record
(node ``"scenario"``) carrying the scenario name, step kind, occurrence
index and the step's resolved effect — the ground truth experiment
reports overlay on their measured series.
"""

from __future__ import annotations

import functools
import json
from typing import Any, Callable, Iterable

from repro.cluster.builder import Cluster
from repro.scenarios.steps import LEADER_SELECTOR, Step, step_from_dict
from repro.sim.events import PRIORITY_CONTROL
from repro.sim.process import Process

__all__ = ["Scenario", "ScenarioRuntime"]


class ScenarioRuntime:
    """Resolution context handed to steps at apply time."""

    __slots__ = (
        "cluster",
        "network",
        "loop",
        "trace",
        "membership_enabled",
        "_windows",
    )

    def __init__(self, cluster: Cluster, *, membership_enabled: bool = True) -> None:
        self.cluster = cluster
        self.network = cluster.network
        self.loop = cluster.loop
        self.trace = cluster.trace
        #: When ``False`` the membership steps (AddNode/RemoveNode/
        #: ReplaceNode) are traced no-ops — how a replayed fuzz timeline
        #: with its membership knob off stays bit-identical.
        self.membership_enabled = membership_enabled
        #: Latest window token per key (see :meth:`window`).
        self._windows: dict[tuple[str, ...], int] = {}

    def window(
        self,
        keys: Iterable[tuple[str, ...]],
        duration_ms: float | None,
        restore: Callable[[tuple[str, ...]], None],
    ) -> None:
        """Open a fault window on each of ``keys``: latest window wins.

        The one rule every timed fault shares.  After ``duration_ms`` the
        window calls ``restore(key)`` for each key it is *still the latest
        window on* — a stale timer from an earlier, overlapping window must
        not cut a newer one short (same guard as ``pause_for``).  A
        permanent window (``None``) schedules nothing but still takes the
        keys, silencing any earlier finite window's restore.

        Windows contend only within a key: ``("flap", lo, hi)`` is the
        unordered pair, ``("block" | "gray", src, dst)`` the *directed*
        link (a window on ``a → b`` must not invalidate one on ``b → a``,
        nor a block's restore no-op a gray window's), ``("disk", node)``
        one node's fault knobs.
        """
        tokens = self._windows
        held = []
        for key in keys:
            token = tokens[key] = tokens.get(key, 0) + 1
            held.append((key, token))
        if duration_ms is None:
            return

        def _close() -> None:
            for key, token in held:
                if tokens[key] == token:
                    restore(key)

        self.loop.schedule(duration_ms, _close, priority=PRIORITY_CONTROL)

    def resolve(self, selector: str) -> str | None:
        """Selector → concrete node name (``None`` if unresolvable now)."""
        if selector == LEADER_SELECTOR:
            return self.cluster.leader()
        return selector if selector in self.cluster.nodes else None

    def process(self, selector: str) -> Process | None:
        name = self.resolve(selector)
        return self.cluster.nodes.get(name) if name is not None else None


class Scenario:
    """A named sequence of typed steps (see :mod:`repro.scenarios.steps`).

    Args:
        name: identifier used in traces and reports.
        steps: the timeline; order is irrelevant (times are absolute).
        description: one-line human summary.
    """

    def __init__(
        self, name: str, steps: list[Step] | tuple[Step, ...], *, description: str = ""
    ) -> None:
        if not name:
            raise ValueError("scenario needs a non-empty name")
        self.name = name
        self.steps: tuple[Step, ...] = tuple(steps)
        self.description = description

    def __len__(self) -> int:
        return len(self.steps)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Scenario({self.name!r}, {len(self.steps)} steps, end={self.end_ms:g} ms)"

    @property
    def end_ms(self) -> float:
        """Time the last step occurrence has fully played out."""
        return max((s.extent_ms for s in self.steps), default=0.0)

    def with_steps(self, steps: list[Step] | tuple[Step, ...]) -> "Scenario":
        """A copy of this scenario with a different timeline.

        The mutation primitive the fuzz shrinker is built on: removing or
        simplifying steps always goes through here, so the result carries
        the original name/description and re-runs the constructor checks.
        """
        return Scenario(self.name, steps, description=self.description)

    def referenced_nodes(self) -> set[str]:
        """Concrete node names the timeline mentions (selectors excluded)."""
        names: set[str] = set()
        for step in self.steps:
            if step._DYNAMIC_NODES:
                # Membership steps may legally reference nodes that do not
                # exist yet (spawned mid-run) or that an earlier step adds.
                continue
            for field in ("node", "a", "b"):
                value = getattr(step, field, None)
                if isinstance(value, str):
                    names.add(value)
            pair = getattr(step, "pair", None)
            if pair is not None:
                names.update(pair)
            for group in getattr(step, "groups", ()) or ():
                names.update(group)
            names.update(getattr(step, "nodes", ()) or ())
        return {n for n in names if not n.startswith("@")}

    def validate_against(self, known_names: set[str]) -> None:
        """Raise if the timeline names nodes the cluster does not have."""
        unknown = self.referenced_nodes() - known_names
        if unknown:
            raise ValueError(
                f"scenario {self.name!r} references unknown nodes {sorted(unknown)}"
            )

    # ------------------------------------------------------------------ #
    # installation
    # ------------------------------------------------------------------ #

    def install(
        self,
        cluster: Cluster,
        *,
        on_apply: Callable[[Step], None] | None = None,
        membership_enabled: bool = True,
    ) -> None:
        """Register every step occurrence as a future control event.

        Args:
            cluster: the wired cluster (install before or at time zero of
                the timeline; occurrences in the past are rejected by the
                loop).
            on_apply: optional observer invoked after each occurrence.
            membership_enabled: pass ``False`` to turn membership steps
                into traced no-ops (fuzz replays with the knob off).
        """
        self.validate_against(set(cluster.names))
        rt = ScenarioRuntime(cluster, membership_enabled=membership_enabled)
        for step in self.steps:
            for occurrence, t in enumerate(step.occurrence_times()):
                cluster.loop.schedule_at(
                    t,
                    functools.partial(self._play, rt, step, occurrence, on_apply),
                    priority=PRIORITY_CONTROL,
                )

    def _play(
        self,
        rt: ScenarioRuntime,
        step: Step,
        occurrence: int,
        observer: Callable[[Step], None] | None,
    ) -> None:
        """Apply one step occurrence, trace it, tell the observer."""
        fields = step.apply(rt, occurrence)
        rt.trace.record(
            rt.loop.now,
            "scenario",
            "scenario_step",
            scenario=self.name,
            step=step.kind,
            occurrence=occurrence,
            **fields,
        )
        if observer is not None:
            observer(step)

    # ------------------------------------------------------------------ #
    # serialization
    # ------------------------------------------------------------------ #

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "description": self.description,
            "steps": [s.to_dict() for s in self.steps],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Scenario":
        unknown = set(data) - {"name", "description", "steps"}
        if unknown:
            raise ValueError(f"scenario dict got unknown keys {sorted(unknown)}")
        if "name" not in data or "steps" not in data:
            raise ValueError("scenario dict needs 'name' and 'steps'")
        return cls(
            data["name"],
            [step_from_dict(s) for s in data["steps"]],
            description=data.get("description", ""),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        return cls.from_dict(json.loads(text))
