"""Cycle-accurate event tracing with Chrome ``trace_event`` export.

The tracer records typed events — *complete* spans (``ph="X"``: a flit
hop occupying a link, a cache op lifetime, an AXI beat train, a PCIe
transfer), *instants* (``ph="i"``: a credit stall, a miss issue), and
*counters* (``ph="C"``: sampled occupancy series) — into per-component
ring buffers.  Each record is a plain tuple, so the enabled hot path is
one ``deque.append``.

Export is the Chrome ``trace_event`` JSON object format, loadable
directly in Perfetto / ``chrome://tracing``: one *thread* per component,
one *process* per node-level prefix (``n0``, ``fabric``...), timestamps
in prototype cycles (``displayTimeUnit`` left at microseconds — read
1 us as 1 cycle).

Memory is bounded in ring mode: ``ring_capacity`` caps events *per
component*, keeping the tail of a long run instead of dying on it.
``ring_capacity=None`` keeps everything.  Evictions are counted per
component (:meth:`Tracer.dropped_by_component`) so a truncated ring is
visible in the exported metrics, not silently partial.

For runs whose event count dwarfs any reasonable ring,
:class:`StreamingTracer` shares the recording API but spills events to a
newline-delimited JSONL file (optionally gzipped) in bounded chunks —
memory stays flat no matter how long the run is, and
:func:`chrome_from_jsonl` reassembles the stream into the same
Perfetto-loadable object the ring tracer exports.
"""

from __future__ import annotations

import gzip
import json
from collections import deque
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from ..errors import ReproError

#: Record layout: (ts, dur, ph, category, component, name, args)
#: ``dur`` is 0 for instants; ``args`` is None or a small dict.
_PH_COMPLETE = "X"
_PH_INSTANT = "i"
_PH_COUNTER = "C"


class Tracer:
    """Typed per-component event rings with category filtering."""

    def __init__(self, categories: Optional[Sequence[str]] = None,
                 ring_capacity: Optional[int] = 65536) -> None:
        self._categories = None if categories is None else set(categories)
        self._capacity = ring_capacity
        self._rings: Dict[str, deque] = {}
        self._dropped: Dict[str, int] = {}   # per-component ring evictions

    def wants(self, category: str) -> bool:
        """Category filter (checked once per hook at observer setup)."""
        return self._categories is None or category in self._categories

    def _ring(self, component: str) -> deque:
        ring = self._rings.get(component)
        if ring is None:
            ring = self._rings[component] = deque(maxlen=self._capacity)
        return ring

    @property
    def dropped(self) -> int:
        """Total events evicted by full rings (bounded mode)."""
        return sum(self._dropped.values())

    def dropped_by_component(self) -> Dict[str, int]:
        """Ring evictions per component — which rings are truncated."""
        return dict(self._dropped)

    def _drop(self, component: str) -> None:
        dropped = self._dropped
        if component in dropped:
            dropped[component] += 1
        else:
            dropped[component] = 1

    # ------------------------------------------------------------------
    # Recording (enabled hot path: one append)
    # ------------------------------------------------------------------
    def complete(self, category: str, component: str, name: str,
                 ts: int, dur: int, args: Optional[dict] = None) -> None:
        ring = self._ring(component)
        if ring.maxlen is not None and len(ring) == ring.maxlen:
            self._drop(component)
        ring.append((ts, dur, _PH_COMPLETE, category, name, args))

    def instant(self, category: str, component: str, name: str,
                ts: int, args: Optional[dict] = None) -> None:
        ring = self._ring(component)
        if ring.maxlen is not None and len(ring) == ring.maxlen:
            self._drop(component)
        ring.append((ts, 0, _PH_INSTANT, category, name, args))

    def counter(self, category: str, component: str, name: str,
                ts: int, values: dict) -> None:
        ring = self._ring(component)
        if ring.maxlen is not None and len(ring) == ring.maxlen:
            self._drop(component)
        ring.append((ts, 0, _PH_COUNTER, category, name, values))

    # ------------------------------------------------------------------
    # Introspection / export
    # ------------------------------------------------------------------
    def event_count(self) -> int:
        return sum(len(ring) for ring in self._rings.values())

    def events(self, component: Optional[str] = None) -> Iterable[tuple]:
        """Raw records, optionally for one component (tests)."""
        if component is not None:
            return list(self._rings.get(component, ()))
        out: List[tuple] = []
        for ring in self._rings.values():
            out.extend(ring)
        return out

    def to_chrome(self) -> dict:
        """The Chrome ``trace_event`` JSON object (Perfetto-loadable)."""
        return _chrome_object(self._rings, self.dropped)

    def write(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_chrome(), handle)

    # Streaming-API compatibility: ring tracers buffer nothing outside
    # their rings, so flush/close have nothing to do.
    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


class StreamingTracer:
    """Tracer-compatible recorder spilling events to a JSONL file.

    Shares the :class:`Tracer` recording surface (``wants`` /
    ``complete`` / ``instant`` / ``counter`` / ``dropped`` /
    ``event_count``) but holds at most ``chunk_events`` records in
    memory: each record is serialized into a line buffer and the buffer
    is written out whenever it fills (and on :meth:`flush` /
    :meth:`close`).  Arbitrarily long runs therefore trace with flat
    memory and nothing is ever dropped.

    One line per event::

        {"ts": 5, "dur": 12, "ph": "X", "cat": "cache",
         "comp": "n0/t0/bpc", "name": "load", "args": {"addr": "0x0"}}

    ``dur`` is omitted for instants/counters and ``args`` when empty.
    A path ending in ``.gz`` gzips the stream.
    :func:`chrome_from_jsonl` turns the file into the same Chrome
    ``trace_event`` object :meth:`Tracer.to_chrome` builds.
    """

    def __init__(self, path, categories: Optional[Sequence[str]] = None,
                 chunk_events: int = 4096) -> None:
        if chunk_events < 1:
            raise ReproError(
                f"trace: chunk_events must be >= 1, got {chunk_events}")
        self._categories = None if categories is None else set(categories)
        self.path = str(path)
        self._handle = (gzip.open(self.path, "wt", encoding="utf-8")
                        if self.path.endswith(".gz")
                        else open(self.path, "w"))
        self._chunk = chunk_events
        self._buffer: List[str] = []
        self._written = 0
        self._closed = False

    # -- recording ------------------------------------------------------
    def wants(self, category: str) -> bool:
        return self._categories is None or category in self._categories

    def _record(self, event: dict) -> None:
        self._buffer.append(json.dumps(event))
        if len(self._buffer) >= self._chunk:
            self.flush()

    def complete(self, category: str, component: str, name: str,
                 ts: int, dur: int, args: Optional[dict] = None) -> None:
        event = {"ts": ts, "dur": dur, "ph": _PH_COMPLETE, "cat": category,
                 "comp": component, "name": name}
        if args is not None:
            event["args"] = args
        self._record(event)

    def instant(self, category: str, component: str, name: str,
                ts: int, args: Optional[dict] = None) -> None:
        event = {"ts": ts, "ph": _PH_INSTANT, "cat": category,
                 "comp": component, "name": name}
        if args is not None:
            event["args"] = args
        self._record(event)

    def counter(self, category: str, component: str, name: str,
                ts: int, values: dict) -> None:
        self._record({"ts": ts, "ph": _PH_COUNTER, "cat": category,
                      "comp": component, "name": name, "args": values})

    # -- introspection (mirrors Tracer) ---------------------------------
    @property
    def dropped(self) -> int:
        return 0          # the stream never evicts

    def dropped_by_component(self) -> Dict[str, int]:
        return {}

    def event_count(self) -> int:
        """Events recorded so far (written plus still-buffered)."""
        return self._written + len(self._buffer)

    def buffered(self) -> int:
        """Events currently held in memory (bounded by ``chunk_events``)."""
        return len(self._buffer)

    # -- lifecycle ------------------------------------------------------
    def flush(self) -> None:
        """Write the buffered chunk through to the file (cheap when
        empty — the simulator calls this between drains)."""
        if not self._buffer:
            return
        self._handle.write("\n".join(self._buffer) + "\n")
        self._written += len(self._buffer)
        self._buffer.clear()
        self._handle.flush()

    def close(self) -> None:
        if not self._closed:
            self.flush()
            self._handle.close()
            self._closed = True

    def __enter__(self) -> "StreamingTracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _chrome_object(components: Mapping[str, Iterable[tuple]],
                   dropped: int) -> dict:
    """The Chrome ``trace_event`` object for per-component records.

    ``components`` maps each component to its records, in emission
    order, as ``(ts, dur, ph, category, name, args)`` tuples (``args``
    None for none).  Each component is one thread, numbered in name
    order; each node-level prefix (``n0/t3/bpc`` -> ``n0``) is one
    process.
    """
    pids: Dict[str, int] = {}
    events: List[dict] = []
    meta: List[dict] = []
    for tid, component in enumerate(sorted(components), start=1):
        process = component.split("/", 1)[0]
        pid = pids.setdefault(process, len(pids) + 1)
        meta.append({"name": "thread_name", "ph": "M", "pid": pid,
                     "tid": tid, "args": {"name": component}})
        for ts, dur, ph, category, name, args in components[component]:
            event = {"name": name, "cat": category, "ph": ph,
                     "ts": ts, "pid": pid, "tid": tid}
            if ph == _PH_COMPLETE:
                event["dur"] = dur
            if ph == _PH_INSTANT:
                event["s"] = "t"
            if args is not None:
                event["args"] = args
            events.append(event)
    for process, pid in pids.items():
        meta.append({"name": "process_name", "ph": "M", "pid": pid,
                     "tid": 0, "args": {"name": process}})
    return {
        "traceEvents": meta + events,
        "displayTimeUnit": "ms",
        "otherData": {"clock": "prototype-cycles",
                      "dropped_events": dropped},
    }


def iter_jsonl_events(path) -> Iterable[dict]:
    """Yield the raw event dicts of a (possibly gzipped) JSONL trace."""
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "rt", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except ValueError as error:
                raise ReproError(
                    f"trace: {path} line {line_no} is not JSON: {error}")
            if not isinstance(event, dict) or "comp" not in event:
                raise ReproError(
                    f"trace: {path} line {line_no} missing 'comp'")
            yield event


def chrome_from_jsonl(path) -> dict:
    """Assemble a streamed JSONL trace into the Chrome trace object.

    The result matches :meth:`Tracer.to_chrome` for the same events —
    one process per node-level prefix, one thread per component — so a
    streamed run loads in Perfetto exactly like a ring-buffered one.
    (This materializes the whole trace; it is the viewer-side step, not
    part of the bounded-memory recording path.)

    ``path`` may also be a sequence of shard paths — the per-partition
    trace files of a partitioned run.  A component recorded by a single
    shard keeps that shard's emission order (each component lives in
    exactly one partition, so this reproduces the monolithic order);
    components fed by several shards (the fabric) merge by timestamp,
    stably, with ties kept in shard order.
    """
    if isinstance(path, (str, bytes)) or hasattr(path, "__fspath__"):
        paths = [path]
    else:
        paths = list(path)
    components: Dict[str, List[tuple]] = {}
    shards_of: Dict[str, int] = {}
    for shard_index, shard_path in enumerate(paths):
        for event in iter_jsonl_events(shard_path):
            component = event["comp"]
            bucket = components.setdefault(component, [])
            if not bucket or shards_of[component] == shard_index:
                shards_of[component] = shard_index
            elif shards_of[component] >= 0:
                shards_of[component] = -1   # seen from several shards
            bucket.append((event["ts"], event.get("dur", 0),
                           event.get("ph", _PH_INSTANT),
                           event.get("cat", ""), event["name"],
                           event.get("args")))
    for component, bucket in components.items():
        if shards_of[component] < 0:
            bucket.sort(key=lambda record: record[0])
    return _chrome_object(components, 0)


def probe_series_from_jsonl(path) -> Dict[str, list]:
    """Rebuild probe counter tracks from streamed JSONL trace(s).

    The inverse of counter-track streaming: planes with
    ``stream_series`` spill probe samples as ``ph="C"`` events instead
    of materializing ``ProbeSet.series()`` in memory, and this turns
    the stream back into the same ``{name: [(cycle, value), ...]}``
    mapping (the viewer-side step, like :func:`chrome_from_jsonl`).

    ``path`` may be a sequence of shard paths — the per-partition trace
    files of a partitioned run.  A probe recorded by a single shard
    keeps that shard's emission order (each component samples in
    exactly one partition); a name fed by several shards merges by
    timestamp, stably, with ties kept in shard order — the same
    contract :func:`chrome_from_jsonl` applies to spans.
    """
    if isinstance(path, (str, bytes)) or hasattr(path, "__fspath__"):
        paths = [path]
    else:
        paths = list(path)
    series: Dict[str, list] = {}
    shards_of: Dict[str, int] = {}
    for shard_index, shard_path in enumerate(paths):
        for event in iter_jsonl_events(shard_path):
            if event.get("ph") != _PH_COUNTER \
                    or event.get("cat") != "probe":
                continue
            name = event["name"]
            bucket = series.setdefault(name, [])
            if not bucket or shards_of[name] == shard_index:
                shards_of[name] = shard_index
            else:
                shards_of[name] = -1   # seen from several shards
            args = event.get("args") or {}
            bucket.append((event["ts"], args.get("value")))
    for name, bucket in series.items():
        if shards_of[name] < 0:
            bucket.sort(key=lambda point: point[0])
    return series


def validate_chrome_trace(source) -> dict:
    """Schema-check a Chrome ``trace_event`` JSON file or dict.

    Raises :class:`~repro.errors.ReproError` on any violation; returns
    the parsed object.  Used by the obs tests and the CI artifact gate.
    """
    if isinstance(source, dict):
        trace = source
    else:
        with open(source) as handle:
            trace = json.load(handle)
    if not isinstance(trace, dict) or "traceEvents" not in trace:
        raise ReproError("trace: missing traceEvents array")
    events = trace["traceEvents"]
    if not isinstance(events, list):
        raise ReproError("trace: traceEvents is not a list")
    for index, event in enumerate(events):
        for key in ("name", "ph", "pid", "tid"):
            if key not in event:
                raise ReproError(
                    f"trace: event {index} missing required key {key!r}")
        ph = event["ph"]
        if ph not in ("X", "i", "C", "M", "B", "E"):
            raise ReproError(f"trace: event {index} has unknown phase {ph!r}")
        if ph != "M":
            if "ts" not in event:
                raise ReproError(f"trace: event {index} missing ts")
            if not isinstance(event["ts"], (int, float)):
                raise ReproError(f"trace: event {index} non-numeric ts")
        if ph == "X" and "dur" not in event:
            raise ReproError(f"trace: complete event {index} missing dur")
        if ph == "C" and not isinstance(event.get("args"), dict):
            raise ReproError(f"trace: counter event {index} missing args")
    return trace
