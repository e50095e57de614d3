"""Sampling probes: periodic snapshots of fabric occupancy.

A :class:`ProbeSet` holds named sources — callables returning a number —
and records ``(cycle, value)`` pairs for each whenever :meth:`sample`
runs.  The resulting time series feed the :mod:`repro.analysis`
utilization charts and are mirrored into the tracer as Chrome counter
events, so Perfetto draws them as counter tracks alongside the spans.

Sampling is **activity-driven**, not event-scheduled: each observer
hook calls :meth:`nudge` with the component it fired for, and that
component's sources are snapshotted the first time its own activity
crosses each ``interval`` boundary.  The probe layer therefore never
schedules simulator events — ``sim.now``, ``events_executed``, and
every architectural result stay bit-identical to an unobserved run,
and a draining simulation can never be kept alive by its own sampler.

Sources are grouped by *owning component*.  Because a component's hook
sequence is the same whether the design runs whole or split across
partitions (and each component lives in exactly one partition), sample
instants — and therefore streamed counter tracks — are
partition-invariant.  The *category* a source registers under (the
subsystem: ``noc``, ``mem``, ``cache``...) picks its interval —
``ProbeSet(interval=1000, intervals={"noc": 64, "mem": 256})`` snapshots
NoC occupancy every 64 cycles of router activity while DRAM backlogs
tick at 256 and everything else at the 1000-cycle default.  Each group
keeps its own next-due cycle aligned to its interval grid; a single
cheap ``now < min_due`` check keeps the hook-path cost flat no matter
how many groups exist.

``materialize=False`` stops the in-memory series append — samples then
exist only as counter events in the tracer stream, which is how
instrumentation planes with ``stream_series`` keep memory flat on
arbitrarily long runs (:func:`repro.obs.trace.probe_series_from_jsonl`
rebuilds the series from the JSONL).

A probe source that raises is **disabled, not fatal**: the failure is
warned once, counted in :attr:`failed` (exported as
``obs.probes.failed``), and the remaining probes keep sampling.

Occupancy sources come in two flavours:

* *state gauges* — read a live queue depth (MSHRs, bridge backlog,
  DRAM engine queues) directly;
* *flow probes* — :func:`link_utilization_probe` turns a link's
  monotonically growing ``units`` counter into a per-window busy
  fraction (units x cycles_per_unit / window).
"""

from __future__ import annotations

import warnings
from typing import Callable, Dict, List, Optional, Tuple

from ..engine.link import Link
from .trace import Tracer

Source = Callable[[], float]

#: Category used when a source is added without one.
DEFAULT_CATEGORY = "default"

_NEVER = float("inf")


def link_utilization_probe(link: Link) -> Source:
    """A source yielding the link's busy fraction since its last sample.

    Exact for serialization occupancy: ``units`` only grows when a
    message occupies the link for ``units * cycles_per_unit`` cycles.
    """
    state = {"units": 0, "at": 0}

    def sample() -> float:
        now = link.sim.now
        units = link.stats.get("units")
        window = now - state["at"]
        busy = (units - state["units"]) * link.cycles_per_unit
        state["units"] = units
        state["at"] = now
        if window <= 0:
            return 0.0
        return min(1.0, busy / window)

    return sample


class _Group:
    """One sampling group: its sources, interval, and next due cycle."""

    __slots__ = ("interval", "next_at", "sources")

    def __init__(self, interval: int) -> None:
        self.interval = interval
        self.next_at = interval
        self.sources: List[Tuple[str, Source]] = []


class ProbeSet:
    """Named occupancy sources plus their sampled time series."""

    def __init__(self, tracer: Optional[Tracer] = None,
                 interval: int = 1000,
                 intervals: Optional[Dict[str, int]] = None,
                 materialize: bool = True,
                 on_sample: Optional[Callable[[int], None]] = None) -> None:
        if interval < 1:
            raise ValueError(f"probe interval must be >= 1, got {interval}")
        for category, value in (intervals or {}).items():
            if value < 1:
                raise ValueError(
                    f"probe interval for {category!r} must be >= 1, "
                    f"got {value}")
        self.interval = interval
        self.intervals = dict(intervals or {})
        self.failed = 0
        self._tracer = tracer
        self._materialize = materialize
        self._on_sample = on_sample
        self._groups: Dict[str, _Group] = {}
        self._series: Dict[str, List[Tuple[int, float]]] = {}
        self._min_due = _NEVER

    def add(self, name: str, source: Source,
            category: str = DEFAULT_CATEGORY,
            owner: Optional[str] = None) -> None:
        """Register ``source``; it samples when ``owner`` (by default
        ``name`` itself) nudges, on ``category``'s interval."""
        owner = name if owner is None else owner
        group = self._groups.get(owner)
        if group is None:
            group = self._groups[owner] = _Group(self.interval_of(category))
            if group.next_at < self._min_due:
                self._min_due = group.next_at
        group.sources.append((name, source))
        if self._materialize:
            self._series[name] = []

    def __len__(self) -> int:
        return sum(len(group.sources)
                   for group in self._groups.values())

    def interval_of(self, category: str) -> int:
        """The sampling interval governing ``category``."""
        return self.intervals.get(category, self.interval)

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def _disable(self, group: _Group, name: str, source: Source,
                 error: BaseException) -> None:
        """Drop one failing source; the run (and its siblings) go on."""
        group.sources.remove((name, source))
        self.failed += 1
        warnings.warn(
            f"probe {name!r} raised {error!r}; disabling this probe "
            f"(obs.probes.failed={self.failed})", RuntimeWarning,
            stacklevel=4)

    def _snapshot(self, group: _Group, now: int) -> None:
        tracer = self._tracer
        broken = None
        for name, source in group.sources:
            try:
                value = float(source())
            except Exception as error:
                if broken is None:
                    broken = []
                broken.append((name, source, error))
                continue
            if self._materialize:
                self._series[name].append((now, value))
            if tracer is not None:
                tracer.counter("probe", name, name, now, {"value": value})
        if broken:
            for name, source, error in broken:
                self._disable(group, name, source, error)
        # Align the next due time to the group's interval grid so
        # bursty activity cannot cause back-to-back snapshots.
        group.next_at = now - now % group.interval + group.interval

    def _update_min_due(self) -> None:
        self._min_due = min((group.next_at
                             for group in self._groups.values()),
                            default=_NEVER)

    def sample(self, now: int) -> None:
        """Snapshot every source of every group at cycle ``now``."""
        for group in self._groups.values():
            self._snapshot(group, now)
        self._update_min_due()
        if self._on_sample is not None:
            self._on_sample(now)

    def nudge(self, owner: str, now: int) -> None:
        """The observer hook path: ``owner`` was active at ``now``.

        Snapshots ``owner``'s sources if their window has come due; the
        common case is one integer comparison.
        """
        if now < self._min_due:
            return
        group = self._groups.get(owner)
        if group is None or now < group.next_at:
            return
        self._snapshot(group, now)
        self._update_min_due()
        if self._on_sample is not None:
            self._on_sample(now)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def series(self, name: Optional[str] = None):
        """Sampled ``[(cycle, value), ...]`` series (all, or one name).

        Empty in ``materialize=False`` (streamed) mode — the series
        then live in the tracer's JSONL stream; rebuild them with
        :func:`repro.obs.trace.probe_series_from_jsonl`.
        """
        if name is not None:
            return list(self._series.get(name, ()))
        return {key: list(points) for key, points in self._series.items()}

    def latest(self) -> Dict[str, float]:
        """The most recent sample of every source (CLI summary tables)."""
        return {name: points[-1][1]
                for name, points in self._series.items() if points}
