"""Per-layer host-time spans for the end-to-end benchmark.

:class:`SpanTracer` times the simulator from outside.  It wraps public
calls of the ``repro`` package while it is installed, records each call
as a span on one stack, and accumulates per-layer *self* time (span
duration minus the time covered by its child spans) and call counts.
Nothing under ``src/`` knows about it.

What is wrapped, and the layer each span is charged to:

* every sink handed to ``Simulator.channel``, ``Simulator.schedule``
  (``schedule_at`` delegates to it) and ``Link(...)``: the
  ``repro.<package>`` that owns the sink (``noc``, ``cache``, ``axi`` ...),
  so one executed event is exactly one sink span;
* ``ConstLatencyChannel.send*`` -> ``engine.channel``; ``Link.send*`` ->
  ``engine.link``; ``StatGroup.inc/observe`` and ``Histogram.add`` ->
  ``engine.stats``; ``Simulator.run/run_until`` -> ``engine.drain`` (its
  self time is the drain loop around the sinks);
* ``Prototype.__init__`` -> ``core.build``; ``measure_pair_latency`` ->
  ``core``; ``run_sweep`` -> ``parallel``;
  ``IntSortModel.runtime_seconds`` -> ``workloads``;
  ``ResultStore.load/put`` -> ``store``.

Install before anything is built: sinks are wrapped when the channel,
link or event is created.  Only work done in this process is traced.

Aggregates stay in memory.  The spans of one chosen unit can also be kept
(up to :data:`CHROME_CAP` of them) and written as a Chrome trace.
"""

from __future__ import annotations

import functools
import json
import os
import time
from typing import Callable, Dict, List

#: Layer charged with the harness's own time inside a unit (the unit's
#: self time: everything no wrapped call covers).
OTHER = "other"

#: Spans kept for the Chrome trace of one unit (a Fig. 7 matrix has
#: ~700k); later ones are counted as dropped.
CHROME_CAP = 20000

_clock = time.perf_counter


def owner_layer(sink) -> str:
    """``repro.<package>`` of the object (or module) owning ``sink``."""
    while isinstance(sink, functools.partial):
        sink = sink.func
    owner = getattr(sink, "__self__", None)
    if owner is not None and not isinstance(owner, type(os)):
        module = type(owner).__module__
    else:
        module = getattr(sink, "__module__", None) or ""
    parts = module.split(".")
    if parts[0] == "repro" and len(parts) > 1:
        return parts[1]
    # A callback with no repro owner, e.g. the ``list.append`` a blocking
    # helper hands down as its completion callback.
    return "callback"


class SpanTracer:
    """Stack-based span recorder with per-layer self-time aggregates."""

    def __init__(self) -> None:
        self.layers: List[str] = []
        self._index: Dict[str, int] = {}
        self.self_s: List[float] = []
        self.calls: List[int] = []
        #: [sink spans, events executed by the drains]
        self.counts = [0, 0]
        self._stack: List[float] = [0.0]
        self._suppress = [0]
        self._record = [False]
        self._spans: List[tuple] = []
        self.chrome_dropped = 0
        self._saved: List[tuple] = []
        self.installed = False
        self._layer(OTHER)

    # ------------------------------------------------------------------
    # Span wrappers
    # ------------------------------------------------------------------
    def _layer(self, name: str) -> int:
        index = self._index.get(name)
        if index is None:
            index = self._index[name] = len(self.layers)
            self.layers.append(name)
            self.self_s.append(0.0)
            self.calls.append(0)
        return index

    def wrap(self, fn: Callable, layer: str, sink: bool = False,
             drain: bool = False) -> Callable:
        """``fn`` as a span charged to ``layer``.

        A ``sink`` call counts as one sink span; a ``drain`` call adds
        its return value (events executed) to the executed-events count.
        """
        index = self._layer(layer)
        self_s, calls, stack = self.self_s, self.calls, self._stack
        counts, record = self.counts, self._record
        tracer = self

        def span(*args, **kwargs):
            stack.append(0.0)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = _clock() - start
                self_s[index] += duration - stack.pop()
                calls[index] += 1
                stack[-1] += duration
                if sink:
                    counts[0] += 1
                if record[0]:
                    tracer._keep(index, start, duration)
            if drain:
                counts[1] += result
            return result

        span.e2e_span = True
        return span

    def sink(self, fn: Callable) -> Callable:
        """Wrap an event sink, charged to the package that owns it."""
        if getattr(fn, "e2e_span", False):
            return fn
        return self.wrap(fn, owner_layer(fn), sink=True)

    def _keep(self, index: int, start: float, duration: float) -> None:
        if len(self._spans) < CHROME_CAP:
            self._spans.append((index, start, duration))
        else:
            self.chrome_dropped += 1

    # ------------------------------------------------------------------
    # Install / uninstall
    # ------------------------------------------------------------------
    def _patch(self, owner, name: str, replacement) -> None:
        self._saved.append((owner, name, owner.__dict__.get(name)))
        setattr(owner, name, replacement)

    def install(self) -> None:
        """Wrap the layer boundaries listed in the module docstring."""
        if self.installed:
            return
        from repro import parallel
        from repro.core import prototype
        from repro.engine import link, simulator, stats
        from repro.parallel import sweep
        from repro.store import ResultStore
        from repro.workloads.intsort import IntSortModel

        sim_cls = simulator.Simulator
        tracer = self
        suppress = self._suppress
        original_schedule = sim_cls.schedule
        original_channel = sim_cls.channel
        original_link_init = link.Link.__init__

        def schedule(sim, delay, callback, *args, **kwargs):
            return original_schedule(sim, delay, tracer.sink(callback),
                                     *args, **kwargs)

        def channel(sim, delay, sink):
            if not suppress[0]:
                sink = tracer.sink(sink)
            return original_channel(sim, delay, sink)

        def link_init(link_obj, sim, name, sink, *args, **kwargs):
            # The link's own channel gets the already-wrapped sink (or a
            # closure around it), so it must not be wrapped a second time.
            suppress[0] += 1
            try:
                original_link_init(link_obj, sim, name, tracer.sink(sink),
                                   *args, **kwargs)
            finally:
                suppress[0] -= 1

        self._patch(sim_cls, "schedule", schedule)
        self._patch(sim_cls, "channel", channel)
        self._patch(link.Link, "__init__", link_init)
        for name in ("run", "run_until"):
            self._patch(sim_cls, name, self.wrap(
                getattr(sim_cls, name), "engine.drain", drain=True))
        methods = [
            (simulator.ConstLatencyChannel,
             ("send", "send_after", "send_many", "send_after_many"),
             "engine.channel"),
            (link.Link, ("send", "send_many"), "engine.link"),
            (stats.StatGroup, ("inc", "observe"), "engine.stats"),
            (stats.Histogram, ("add",), "engine.stats"),
            (prototype.Prototype, ("__init__",), "core.build"),
            (prototype.Prototype, ("measure_pair_latency",), "core"),
            (IntSortModel, ("runtime_seconds",), "workloads"),
            (ResultStore, ("load", "put"), "store"),
        ]
        for owner, names, layer in methods:
            for name in names:
                self._patch(owner, name,
                            self.wrap(getattr(owner, name), layer))
        traced_sweep = self.wrap(sweep.run_sweep, "parallel")
        self._patch(sweep, "run_sweep", traced_sweep)
        self._patch(parallel, "run_sweep", traced_sweep)
        self.installed = True

    def uninstall(self) -> None:
        """Restore every patched attribute (objects already built keep
        their wrapped sinks)."""
        while self._saved:
            owner, name, original = self._saved.pop()
            if original is None:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
        self.installed = False

    # ------------------------------------------------------------------
    # Units
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, float]:
        """Cumulative self time and calls per layer, plus the counts."""
        out: Dict[str, float] = {}
        for name, seconds, calls in zip(self.layers, self.self_s,
                                        self.calls):
            out[f"{name}.self_s"] = seconds
            out[f"{name}.calls"] = calls
        out["sink_spans"] = self.counts[0]
        out["events"] = self.counts[1]
        return out

    def unit(self, fn: Callable, *args, chrome: bool = False):
        """Run ``fn(*args)`` as a root span.

        Returns ``(result, seconds, deltas)``: ``deltas`` holds this
        unit's per-layer self time and calls (``other.self_s`` is the
        unit's own self time), so the ``*.self_s`` deltas sum to
        ``seconds``.  ``chrome=True`` keeps this unit's spans for
        :meth:`write_chrome`.
        """
        before = self.snapshot()
        if chrome:
            self._spans.clear()
            self.chrome_dropped = 0
            self._record[0] = True
        other = self._layer(OTHER)
        stack = self._stack
        stack.append(0.0)
        start = _clock()
        try:
            result = fn(*args)
        finally:
            seconds = _clock() - start
            self.self_s[other] += seconds - stack.pop()
            self.calls[other] += 1
            stack[-1] += seconds
            if chrome:
                self._keep(other, start, seconds)
                self._record[0] = False
        after = self.snapshot()
        deltas = {name: after[name] - before.get(name, 0)
                  for name in after}
        return result, seconds, deltas

    def write_chrome(self, path: str, label: str) -> str:
        """The kept unit as a Chrome ``trace_event`` file (Perfetto)."""
        if not self._spans:
            return ""
        origin = min(start for _i, start, _d in self._spans)
        events = [{"name": self.layers[index], "cat": label, "ph": "X",
                   "pid": 0, "tid": 0,
                   "ts": round((start - origin) * 1e6, 3),
                   "dur": round(duration * 1e6, 3)}
                  for index, start, duration in self._spans]
        events.sort(key=lambda event: (event["ts"], -event["dur"]))
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"traceEvents": events,
                       "otherData": {"unit": label,
                                     "dropped_spans": self.chrome_dropped}},
                      handle)
        return path
