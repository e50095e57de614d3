"""``repro.obs`` — observability: metrics registry, tracing, probes.

The platform's pitch is visibility silicon can't give you: every run can
expose *where* its cycles went.  This package is the host-side
introspection layer over the simulated fabric:

* :class:`MetricRegistry` — hierarchically named counters, gauges, and
  histograms (``node0.tile3.bpc.misses``), built on the per-component
  :class:`~repro.engine.stats.StatGroup` machinery and exportable as JSON
  or a flat Prometheus-style text dump (``repro stats``).
* :class:`Tracer` — cycle-accurate typed span/instant events in
  per-component ring buffers, exported as Chrome ``trace_event`` JSON
  loadable in Perfetto (``repro trace``), with category filters and a
  bounded-memory mode.
* :class:`ProbeSet` — periodic snapshots of NoC link occupancy, router
  credit stalls, MSHR occupancy, and DRAM/bridge queue depths into time
  series for :mod:`repro.analysis` utilization charts.
* :class:`Observer` — the enabled implementation of the engine's hook
  surface (:class:`~repro.engine.observer.NullObserver`), threaded
  through every modeled subsystem.  The default :data:`~repro.engine.
  observer.NO_OBS` keeps the disabled path branch-free and within noise.
* :class:`StreamingTracer` — the same recording surface spilled to
  (optionally gzipped) JSONL in bounded chunks, for runs too long for
  any ring (``repro trace --stream``).
* :class:`RunArchive` (:mod:`repro.obs.archive`) — the persisted
  ``runs/<run_id>/`` directory format (manifest + metrics + probe
  series) with exact shard merging for parallel sweeps.
* :mod:`repro.obs.diff` — the cross-run diff/regression engine behind
  ``repro diff`` and the CI gate (``repro diff --gate``).
* :class:`InstrumentationPlane` (:mod:`repro.obs.plane`) — a declarative
  YAML/JSON instrumentation spec (metric globs, per-category probe
  intervals, trace categories, cycle/event/metric triggers, streamed
  probe series) compiled onto the observer path; ``repro --instrument
  spec.yaml`` and the farm/partition layers all load the same plane.

Observers never mutate model state and never schedule events (sampling
piggybacks on instrumented activity), so enabling observability cannot
change any architectural result bit — asserted by tests/test_obs.py.
"""

from .._lazy import lazy_exports

__all__ = [
    "GatedTracer",
    "InstrumentationPlane",
    "MetricRegistry",
    "Observer",
    "ProbeSet",
    "Rule",
    "RunArchive",
    "StreamingTracer",
    "TRACE_CATEGORIES",
    "Tracer",
    "Trigger",
    "as_plane",
    "chrome_from_jsonl",
    "config_hash",
    "diff_metrics",
    "gate_rules",
    "instrumentation_hash_of",
    "link_utilization_probe",
    "load_metrics",
    "load_plane",
    "merge_metric_shards",
    "probe_series_from_jsonl",
    "render_diff",
    "validate_chrome_trace",
    "violations",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    ".archive": ("RunArchive", "config_hash", "merge_metric_shards"),
    ".diff": ("Rule", "diff_metrics", "gate_rules",
              "instrumentation_hash_of", "load_metrics", "render_diff",
              "violations"),
    ".observer": ("Observer", "TRACE_CATEGORIES"),
    ".plane": ("GatedTracer", "InstrumentationPlane", "Trigger",
               "as_plane", "load_plane"),
    ".probes": ("ProbeSet", "link_utilization_probe"),
    ".registry": ("MetricRegistry",),
    ".trace": ("StreamingTracer", "Tracer", "chrome_from_jsonl",
               "probe_series_from_jsonl", "validate_chrome_trace"),
})
