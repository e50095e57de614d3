"""The farm report directory: one comparable artifact per fleet run.

Layout (``repro farm run ... --report DIR``)::

    DIR/
      farm.json          # fleet manifest: spec, per-job states, counters
      jobs/<job-id>/     # one RunArchive per completed job (metrics)
      merged/            # farm-level RunArchive: shard-merged job
                         #   metrics + obs.farm.* counters (+ series)
      suites/<suite>.json  # merged suite values (series, config_hash)

``farm.json`` is written atomically and *streamed during the run* (the
scheduler rewrites it every ~0.5 s), so ``repro farm status DIR`` shows
live queued/running/done/failed/retried counts while the fleet is in
flight and the final state afterwards.  ``merged/`` is a plain
:class:`~repro.obs.archive.RunArchive`, so ``repro diff`` can gate a
farm run against a baseline exactly like any single run.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from typing import Dict, List, Optional, Sequence

from ..errors import FarmError
from ..store import atomic_write_json

FARM_MANIFEST_NAME = "farm.json"
FARM_SCHEMA_VERSION = 1


def _job_dirname(job_id: str) -> str:
    """A filesystem-safe directory name for one job."""
    return job_id.replace("/", "-").replace(os.sep, "-")


def write_farm_manifest(report_dir: str, spec, states: Sequence,
                        counters, final: bool = False) -> str:
    """Write (or rewrite) ``farm.json`` atomically; returns its path."""
    path = os.path.join(report_dir, FARM_MANIFEST_NAME)
    atomic_write_json(path, {
        "schema_version": FARM_SCHEMA_VERSION,
        "written_at_unix": round(time.time(), 3),
        "final": bool(final),
        "farm": spec.describe(),
        "counters": counters.export_metrics(),
        "jobs": [state.describe() for state in states],
    })
    return path


def load_farm_manifest(report_dir: str) -> Dict[str, object]:
    """Read a report's ``farm.json`` back (``repro farm status``)."""
    path = os.path.join(report_dir, FARM_MANIFEST_NAME)
    if not os.path.isfile(path):
        raise FarmError(
            f"farm: {report_dir} has no {FARM_MANIFEST_NAME} — not a "
            f"farm report directory")
    try:
        with open(path) as handle:
            data = json.load(handle)
    except ValueError as error:
        raise FarmError(f"farm: {path} is not valid JSON ({error})")
    if data.get("schema_version") != FARM_SCHEMA_VERSION:
        raise FarmError(
            f"farm: {path} has schema {data.get('schema_version')!r}, "
            f"expected {FARM_SCHEMA_VERSION}")
    return data


def job_metric_shards(result) -> List[Dict[str, object]]:
    """The metrics dicts riding in a job result, one per sweep point.

    Sweep jobs return one ``(value, hit, evictions, writes)`` tuple per
    point, whose value may carry a ``"metrics"`` dict (the per-point
    observer snapshot); ad-hoc jobs return one dict directly.
    """
    if isinstance(result, dict):
        candidates = [result]
    elif isinstance(result, list):
        candidates = [point[0] for point in result
                      if isinstance(point, tuple) and point]
    else:
        candidates = []
    return [candidate["metrics"] for candidate in candidates
            if isinstance(candidate, dict)
            and isinstance(candidate.get("metrics"), dict)]


def _fleet_plane_hash(planes) -> Optional[str]:
    """The plane hash of a fleet: the one its jobs share, or a combined
    hash of every plane when they mix (so a mixed fleet still refuses
    to diff against a uniform one)."""
    if len(planes) <= 1:
        return next(iter(planes), None)
    joined = ",".join(sorted(str(plane) for plane in planes))
    return hashlib.sha256(joined.encode()).hexdigest()[:16]


def collect_report(report_dir: str, result, *,
                   store=None,
                   suite_values: Optional[Dict[str, dict]] = None,
                   command: Optional[List[str]] = None) -> None:
    """Collect a finished run into its report directory.

    Writes the final ``farm.json``, one RunArchive per completed job
    (its points' metric shards merged), the merged farm-level RunArchive
    (every point's shard folded in job order via
    :func:`~repro.obs.archive.merge_metric_shards`, then the
    ``obs.farm.*`` and ``obs.store.*`` counters layered on top), and
    the per-suite merged values.  Every archive records its jobs'
    instrumentation-plane hash, so ``repro diff`` refuses to compare
    fleets observed differently.
    """
    from ..obs.archive import RunArchive, merge_metric_shards

    shards: List[Dict[str, object]] = []
    planes = set()
    for state in result.states:
        if state.state != "done":
            continue
        job_shards = job_metric_shards(state.result)
        shards.extend(job_shards)
        planes.add(state.job.instrumentation)
        RunArchive.write(
            os.path.join(report_dir, "jobs", _job_dirname(state.job_id)),
            merge_metric_shards(job_shards),
            wall_seconds=(state.finished_at - state.started_at
                          if state.started_at is not None
                          and state.finished_at is not None else None),
            instrumentation_hash=state.job.instrumentation,
            extra={"job_id": state.job_id, "family": state.job.family,
                   "farm_state": state.state,
                   "attempts": state.attempts,
                   "retries": state.retries})
    merged = merge_metric_shards(shards) if shards else {}
    merged.update(result.export_metrics())
    if store is not None:
        merged.update(store.export_metrics())
    series = None
    if suite_values:
        series = {suite_id: entry.get("series")
                  for suite_id, entry in suite_values.items()
                  if isinstance(entry, dict)
                  and entry.get("series") is not None}
        series = series or None
        for suite_id, entry in suite_values.items():
            atomic_write_json(
                os.path.join(report_dir, "suites", f"{suite_id}.json"),
                entry)
    RunArchive.write(os.path.join(report_dir, "merged"), merged,
                     wall_seconds=result.wall_seconds, series=series,
                     command=command,
                     instrumentation_hash=_fleet_plane_hash(planes),
                     extra={"farm_jobs": result.counters.jobs,
                            "farm_slots": result.spec.slots})
    write_farm_manifest(report_dir, result.spec, result.states,
                        result.counters, final=True)
