"""Instrumentation planes: declarative specs for what a run observes.

FireSim makes instrumentation a *runtime config artifact* — AutoCounter
and TracerV are YAML stanzas, not RTL edits.  An
:class:`InstrumentationPlane` is the same idea over :mod:`repro.obs`:
one YAML/JSON document that says which metrics to keep (glob patterns
over dotted names), how often probes sample (globally and per
category), which trace categories record, and *when* tracing is live
(triggers).  The spec is pure data, so one file drives a ``repro
trace`` run, every job of a farm fleet, and each worker of a
partitioned prototype identically — and its content hash lands in the
:class:`~repro.obs.archive.RunArchive` manifest so ``repro diff``
can refuse to compare runs instrumented differently.

Spec shape (YAML or JSON; every key optional)::

    metrics:                    # keep only matching metric names
      - "node*.tile*.bpc.*"     #   (fnmatch globs over dotted paths;
      - "*.utilization"         #   obs.* accounting always kept)
    sample_interval: 200        # default probe interval, cycles
    sample_intervals:           # per-category overrides
      noc: 64
    trace:
      enabled: true
      categories: [noc, cache]  # default: every category
      ring_capacity: 65536      # ring tracer bound (null = unbounded)
      stream_series: true       # spill probe series to the JSONL
                                #   stream instead of memory
    triggers:
      - {kind: start_at, cycle: 2000}
      - {kind: stop_after, cycles: 5000}
      - {kind: arm_on_event, event: "cache.miss"}
      - {kind: arm_on_metric, metric: "node0.dram.bank_backlog",
         above: 4}

Triggers compile into a :class:`GatedTracer` wrapped around the real
recording backend **only when the spec declares any** — a trigger-free
plane keeps the raw tracer, so the existing branch-free null-object
path is untouched, and an armed-but-idle gate costs one integer
comparison per recorded event.  ``start_at`` opens the gate at a cycle;
``stop_after`` closes it that many cycles after it opened;
``arm_on_event`` opens it on the first matching ``category.name`` event
(the arming event itself is recorded); ``arm_on_metric`` opens it the
first time the metric reads at or above the threshold at a probe
sample.
"""

from __future__ import annotations

import fnmatch
import hashlib
import json
import re
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ReproError

_INF = float("inf")

#: Trigger kinds a spec may declare.
TRIGGER_KINDS = ("start_at", "stop_after", "arm_on_event",
                 "arm_on_metric")


def _require_mapping(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ReproError(
            f"instrument: {what} must be a mapping, "
            f"got {type(value).__name__}")
    return value


def _positive_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ReproError(
            f"instrument: {what} must be an integer, got {value!r}")
    if value < 1:
        raise ReproError(f"instrument: {what} must be >= 1, got {value}")
    return value


@dataclass(frozen=True)
class Trigger:
    """One parsed trigger clause of an instrumentation plane."""

    kind: str
    cycle: Optional[int] = None       # start_at
    cycles: Optional[int] = None      # stop_after
    event: Optional[str] = None       # arm_on_event ("category.name")
    metric: Optional[str] = None      # arm_on_metric
    above: Optional[float] = None     # arm_on_metric threshold

    @classmethod
    def from_dict(cls, data: dict) -> "Trigger":
        data = _require_mapping(data, "every triggers entry")
        kind = data.get("kind")
        if kind not in TRIGGER_KINDS:
            raise ReproError(
                f"instrument: unknown trigger kind {kind!r} "
                f"(known: {list(TRIGGER_KINDS)})")
        fields = {"start_at": {"kind", "cycle"},
                  "stop_after": {"kind", "cycles"},
                  "arm_on_event": {"kind", "event"},
                  "arm_on_metric": {"kind", "metric", "above"}}[kind]
        unknown = set(data) - fields
        if unknown:
            raise ReproError(
                f"instrument: trigger {kind!r} has unknown keys "
                f"{sorted(unknown)} (takes {sorted(fields - {'kind'})})")
        if kind == "start_at":
            if "cycle" not in data:
                raise ReproError("instrument: start_at needs 'cycle'")
            return cls(kind, cycle=_positive_int(data["cycle"],
                                                 "start_at cycle"))
        if kind == "stop_after":
            if "cycles" not in data:
                raise ReproError("instrument: stop_after needs 'cycles'")
            return cls(kind, cycles=_positive_int(data["cycles"],
                                                  "stop_after cycles"))
        if kind == "arm_on_event":
            event = data.get("event")
            if (not isinstance(event, str) or "." not in event
                    or event.startswith(".") or event.endswith(".")):
                raise ReproError(
                    f"instrument: arm_on_event needs event "
                    f"'category.name' (e.g. 'cache.miss'), got {event!r}")
            return cls(kind, event=event)
        metric = data.get("metric")
        if not isinstance(metric, str) or not metric:
            raise ReproError(
                "instrument: arm_on_metric needs a 'metric' name")
        above = data.get("above")
        if isinstance(above, bool) or not isinstance(above, (int, float)):
            raise ReproError(
                f"instrument: arm_on_metric needs a numeric 'above' "
                f"threshold, got {above!r}")
        return cls(kind, metric=metric, above=float(above))

    def to_dict(self) -> dict:
        out = {"kind": self.kind}
        for key in ("cycle", "cycles", "event", "metric", "above"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out

    def describe(self) -> str:
        if self.kind == "start_at":
            return f"start tracing at cycle {self.cycle}"
        if self.kind == "stop_after":
            return f"stop {self.cycles} cycles after the gate opens"
        if self.kind == "arm_on_event":
            return f"arm on first {self.event!r} event"
        return f"arm when {self.metric} >= {self.above:g}"


@dataclass(frozen=True)
class InstrumentationPlane:
    """A validated instrumentation spec (see module docstring)."""

    metrics: Optional[Tuple[str, ...]] = None
    sample_interval: int = 1000
    sample_intervals: Dict[str, int] = field(default_factory=dict)
    tracing: bool = True
    trace_categories: Optional[Tuple[str, ...]] = None
    ring_capacity: Optional[int] = 65536
    stream_series: bool = False
    triggers: Tuple[Trigger, ...] = ()

    # -- construction ---------------------------------------------------
    @classmethod
    def from_dict(cls, data: dict) -> "InstrumentationPlane":
        data = _require_mapping(data, "the spec")
        known = {"metrics", "sample_interval", "sample_intervals",
                 "trace", "triggers", "_comment"}
        unknown = set(data) - known
        if unknown:
            raise ReproError(
                f"instrument: unknown spec keys {sorted(unknown)} "
                f"(known: {sorted(known - {'_comment'})})")
        metrics = data.get("metrics")
        if metrics is not None:
            if (isinstance(metrics, (str, dict))
                    or not isinstance(metrics, Sequence) or not metrics
                    or not all(isinstance(p, str) and p for p in metrics)):
                raise ReproError(
                    "instrument: metrics must be a non-empty list of "
                    "glob patterns")
            metrics = tuple(metrics)
        interval = _positive_int(data.get("sample_interval", 1000),
                                 "sample_interval")
        intervals = _require_mapping(data.get("sample_intervals") or {},
                                     "sample_intervals")
        intervals = {str(cat): _positive_int(value,
                                             f"sample_intervals[{cat!r}]")
                     for cat, value in intervals.items()}
        trace = _require_mapping(data.get("trace") or {}, "trace")
        trace_known = {"enabled", "categories", "ring_capacity",
                       "stream_series"}
        unknown = set(trace) - trace_known
        if unknown:
            raise ReproError(
                f"instrument: unknown trace keys {sorted(unknown)} "
                f"(known: {sorted(trace_known)})")
        tracing = trace.get("enabled", True)
        if not isinstance(tracing, bool):
            raise ReproError(
                f"instrument: trace.enabled must be true/false, "
                f"got {tracing!r}")
        categories = trace.get("categories")
        if categories is not None:
            from .observer import TRACE_CATEGORIES
            if (isinstance(categories, (str, dict))
                    or not isinstance(categories, Sequence)):
                raise ReproError(
                    "instrument: trace.categories must be a list")
            bad = [c for c in categories if c not in TRACE_CATEGORIES]
            if bad:
                raise ReproError(
                    f"instrument: unknown trace categories {bad} "
                    f"(known: {list(TRACE_CATEGORIES)})")
            categories = tuple(categories)
        ring_capacity = trace.get("ring_capacity", 65536)
        if ring_capacity is not None:
            ring_capacity = _positive_int(ring_capacity,
                                          "trace.ring_capacity")
        stream_series = trace.get("stream_series", False)
        if not isinstance(stream_series, bool):
            raise ReproError(
                f"instrument: trace.stream_series must be true/false, "
                f"got {stream_series!r}")
        raw_triggers = data.get("triggers") or []
        if isinstance(raw_triggers, (str, dict)) \
                or not isinstance(raw_triggers, Sequence):
            raise ReproError("instrument: triggers must be a list")
        triggers = tuple(Trigger.from_dict(entry)
                         for entry in raw_triggers)
        for kind in ("start_at", "stop_after", "arm_on_metric"):
            if sum(1 for t in triggers if t.kind == kind) > 1:
                raise ReproError(
                    f"instrument: at most one {kind} trigger is allowed")
        return cls(metrics=metrics, sample_interval=interval,
                   sample_intervals=intervals,
                   tracing=tracing, trace_categories=categories,
                   ring_capacity=ring_capacity,
                   stream_series=stream_series, triggers=triggers)

    def to_dict(self) -> dict:
        """The canonical JSON-able spec (round-trips ``from_dict``)."""
        out: dict = {}
        if self.metrics is not None:
            out["metrics"] = list(self.metrics)
        if self.sample_interval != 1000:
            out["sample_interval"] = self.sample_interval
        if self.sample_intervals:
            out["sample_intervals"] = dict(self.sample_intervals)
        trace: dict = {}
        if not self.tracing:
            trace["enabled"] = False
        if self.trace_categories is not None:
            trace["categories"] = list(self.trace_categories)
        if self.ring_capacity != 65536:
            trace["ring_capacity"] = self.ring_capacity
        if self.stream_series:
            trace["stream_series"] = True
        if trace:
            out["trace"] = trace
        if self.triggers:
            out["triggers"] = [t.to_dict() for t in self.triggers]
        return out

    @property
    def spec_hash(self) -> str:
        """A stable short hash of the canonical spec content."""
        payload = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    # -- derived views --------------------------------------------------
    def metric_filter(self) -> Optional[Callable[[str], object]]:
        """A compiled name predicate, or None when everything is kept."""
        if self.metrics is None:
            return None
        pattern = re.compile("|".join(
            fnmatch.translate(glob) for glob in self.metrics))
        return pattern.match

    @property
    def metric_triggers(self) -> Tuple[Trigger, ...]:
        return tuple(t for t in self.triggers
                     if t.kind == "arm_on_metric")

    @property
    def gated(self) -> bool:
        """Whether the plane needs a :class:`GatedTracer` at all."""
        return bool(self.triggers)

    def describe_rows(self) -> List[List[str]]:
        """Resolved selection as table rows (``repro obs validate``)."""
        from .observer import TRACE_CATEGORIES
        categories = (self.trace_categories if self.trace_categories
                      is not None else TRACE_CATEGORIES)
        rows = [
            ["metrics", ("all" if self.metrics is None
                         else ", ".join(self.metrics))],
            ["sample interval", str(self.sample_interval)],
            ["per-category intervals",
             (", ".join(f"{cat}={cycles}" for cat, cycles
                        in sorted(self.sample_intervals.items()))
              or "-")],
            ["tracing", "enabled" if self.tracing else "disabled"],
            ["trace categories", ", ".join(categories)],
            ["ring capacity", ("unbounded" if self.ring_capacity is None
                               else str(self.ring_capacity))],
            ["stream series", "yes" if self.stream_series else "no"],
        ]
        if self.triggers:
            for index, trigger in enumerate(self.triggers):
                rows.append([f"trigger {index}", trigger.describe()])
        else:
            rows.append(["triggers", "none (gate-free hot path)"])
        rows.append(["spec hash", self.spec_hash])
        return rows


def as_plane(value) -> Optional[InstrumentationPlane]:
    """Coerce None / dict / InstrumentationPlane to a plane (or None)."""
    if value is None or isinstance(value, InstrumentationPlane):
        return value
    if isinstance(value, dict):
        return InstrumentationPlane.from_dict(value)
    raise ReproError(
        f"instrument: expected a spec mapping or InstrumentationPlane, "
        f"got {type(value).__name__}")


def canonical_plane(spec) -> Optional[dict]:
    """A plane spec in its canonical ``to_dict()`` form (None stays None).

    Store keys and farm job hashes go through this, so every spelling
    of one plane (``{}`` and ``{"sample_interval": 1000}``) addresses
    one entry, and a bad spec is refused before anything runs.
    """
    plane = as_plane(spec)
    return None if plane is None else plane.to_dict()


def plane_hash(spec) -> Optional[str]:
    """The content hash of a plane spec; None for no plane and for the
    default plane (a run observed the default way records none)."""
    plane = as_plane(spec)
    if plane is None or not plane.to_dict():
        return None
    return plane.spec_hash


def load_plane(path: str) -> InstrumentationPlane:
    """Parse a YAML/JSON instrumentation spec file."""
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as error:
        raise ReproError(f"instrument: cannot read spec {path}: {error}")
    if str(path).endswith((".yaml", ".yml")):
        try:
            import yaml
        except ImportError:
            raise ReproError(
                "instrument: YAML specs need PyYAML, which is not "
                "installed; use a .json spec instead")
        try:
            data = yaml.safe_load(text)
        except yaml.YAMLError as error:
            raise ReproError(
                f"instrument: {path} is not valid YAML ({error})")
    else:
        try:
            data = json.loads(text)
        except ValueError as error:
            raise ReproError(
                f"instrument: {path} is not valid JSON ({error})")
    if not isinstance(data, dict):
        raise ReproError(
            f"instrument: spec {path} must be a mapping, "
            f"got {type(data).__name__}")
    return InstrumentationPlane.from_dict(data)


class GatedTracer:
    """Trigger gate wrapped around a recording backend.

    Installed by :class:`~repro.obs.observer.Observer` only when the
    plane declares triggers; trigger-free planes keep the raw tracer, so
    the gate costs nothing unless asked for.  While the gate is closed
    (armed but idle) every recorded event pays one integer comparison
    (``ts < open_from``, with ``open_from`` at infinity for arm-only
    gates) plus a set lookup only when event arms exist; while it is
    open the cost is that comparison plus the close check.  Suppressed
    events are counted, and each trigger's firing is counted once, so
    ``obs.plane.triggers.fired`` / ``obs.plane.trace.suppressed`` land
    in the exported metrics.

    Non-recording attributes (``write``, ``to_chrome``, ``flush``,
    ``event_count``...) delegate to the wrapped tracer.
    """

    def __init__(self, tracer, plane: InstrumentationPlane) -> None:
        self._tracer = tracer
        self.plane = plane
        self.suppressed = 0
        self.fired = 0
        self._arm_events = frozenset(
            tuple(t.event.split(".", 1)) for t in plane.triggers
            if t.kind == "arm_on_event")
        start = next((t for t in plane.triggers
                      if t.kind == "start_at"), None)
        stop = next((t for t in plane.triggers
                     if t.kind == "stop_after"), None)
        self._stop_after = stop.cycles if stop is not None else None
        armed_only = (start is None
                      and (self._arm_events or plane.metric_triggers))
        if armed_only:
            self._open_from = _INF
        elif start is not None:
            self._open_from = start.cycle
        else:
            self._open_from = 0
        # start_at's firing is observed lazily: the flag flips on the
        # first admitted event past the cycle.
        self._start_pending = start is not None
        self._stop_fired = False
        if self._stop_after is None:
            self._close_at = _INF
        elif self._open_from is _INF:
            self._close_at = _INF      # set when an arm trigger opens
        else:
            self._close_at = self._open_from + self._stop_after

    @property
    def armed(self) -> int:
        """Triggers declared by the plane (the archive's counter)."""
        return len(self.plane.triggers)

    @property
    def raw(self):
        """The wrapped recording backend (tests, export paths)."""
        return self._tracer

    def __getattr__(self, name):
        return getattr(self._tracer, name)

    # -- the gate -------------------------------------------------------
    def open_at(self, now: int) -> None:
        """Open the gate at ``now`` (arm triggers firing)."""
        if now < self._open_from:
            self._open_from = now
            self._start_pending = False
            self.fired += 1
            if self._stop_after is not None:
                self._close_at = now + self._stop_after

    def _admit(self, category: str, name: str, ts) -> bool:
        if ts < self._open_from:
            if self._arm_events and (category, name) in self._arm_events:
                self.open_at(ts)
                return True
            self.suppressed += 1
            return False
        if self._start_pending:
            self._start_pending = False
            self.fired += 1
        if ts < self._close_at:
            return True
        if not self._stop_fired:
            self._stop_fired = True
            self.fired += 1
        self.suppressed += 1
        return False

    # -- recording surface ---------------------------------------------
    def wants(self, category: str) -> bool:
        return self._tracer.wants(category)

    def complete(self, category, component, name, ts, dur,
                 args=None) -> None:
        if self._admit(category, name, ts):
            self._tracer.complete(category, component, name, ts, dur,
                                  args)

    def instant(self, category, component, name, ts, args=None) -> None:
        if self._admit(category, name, ts):
            self._tracer.instant(category, component, name, ts, args)

    def counter(self, category, component, name, ts, values) -> None:
        if self._admit(category, name, ts):
            self._tracer.counter(category, component, name, ts, values)
