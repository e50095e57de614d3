"""Run archive: persisted observability for every measured run.

In-memory metrics die with the process; SMAPPIC's pitch is cheap
*repeatable* measurement, which needs runs that outlive it.  A
:class:`RunArchive` is a directory (conventionally ``runs/<run_id>/``)
holding everything :mod:`repro.obs.diff` needs to compare two runs:

``manifest.json``
    Provenance — schema version, run id, configuration label and a
    stable hash of the full :class:`~repro.core.config.PrototypeConfig`,
    the seed, the git revision the run was built from (when available),
    simulated cycles, events executed, wall-clock seconds, and the
    command line that produced the run.
``metrics.json``
    The flat :meth:`~repro.obs.registry.MetricRegistry.to_dict` dump
    (histograms embedded losslessly) plus the per-component
    ``obs.trace.dropped.*`` counters.
``series.json``
    The probe time series (optional; written when the run sampled).

Each file is published atomically (:func:`repro.store.atomic_write`),
metrics and series first and the manifest last: the manifest is what
marks a directory as an archive, so a reader never meets half of one.
A file that does not parse makes :meth:`RunArchive.load` raise
:class:`~repro.errors.ReproError` naming it.

Shard merging
-------------

Parallel sweep workers each return their own ``MetricRegistry.to_dict()``
snapshot; :func:`merge_metric_shards` folds them in task order:

* integer values (counters, integer-valued gauges such as queue depths)
  **sum**;
* float values (utilization/occupancy gauges) take the **arithmetic
  mean** over the shards that reported them;
* histogram entries merge exactly via
  :meth:`~repro.engine.stats.Histogram.merge` — never a mean of means.

Because shard composition and per-shard results are independent of the
worker count (the :mod:`repro.parallel` contract) and the merge runs in
fixed task order, the merged dict is *byte-identical* at every ``jobs``
value — asserted by tests/test_archive.py.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import subprocess
import time
from typing import Dict, List, Optional, Sequence

from ..engine.stats import Histogram
from ..errors import ReproError
from ..store import atomic_write_json

SCHEMA_VERSION = 1

MANIFEST_NAME = "manifest.json"
METRICS_NAME = "metrics.json"
SERIES_NAME = "series.json"

#: Environment variable benchmarks check to opt into archiving: the
#: value is the archive root (``runs``); unset means no archive.
ARCHIVE_ENV = "REPRO_ARCHIVE"


def config_hash(config) -> str:
    """A stable short hash of a full prototype configuration.

    Hashes the JSON of the dataclass field tree, so two configs match
    exactly when every topology and microarchitecture parameter matches
    — not merely the ``AxBxC`` label.
    """
    payload = json.dumps(dataclasses.asdict(config), sort_keys=True,
                         default=str)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


# Internal alias: RunArchive.write takes a ``config_hash`` keyword that
# shadows the function inside the method body.
_hash_config = config_hash


def git_revision(cwd: Optional[str] = None) -> Optional[str]:
    """The current git commit hash, or None outside a repo / without git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=cwd, capture_output=True,
            text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def archive_root_from_env() -> Optional[str]:
    """The opt-in archive root (``REPRO_ARCHIVE=runs``), or None."""
    root = os.environ.get(ARCHIVE_ENV)
    return root or None


# ----------------------------------------------------------------------
# Shard merging
# ----------------------------------------------------------------------

def _is_histogram_entry(value) -> bool:
    return isinstance(value, dict) and "counts" in value


def _histogram_entry(hist: Histogram) -> Dict[str, object]:
    """The registry's embedded-histogram shape (exact counts + summary)."""
    entry = hist.to_dict()
    entry.update(count=hist.count, mean=hist.mean,
                 min=hist.min, max=hist.max)
    return entry


def merge_metric_shards(shards: Sequence[Dict[str, object]]
                        ) -> Dict[str, object]:
    """Fold per-worker metric dicts into one (see module docstring)."""
    merged: Dict[str, object] = {}
    floats: Dict[str, List[float]] = {}
    hists: Dict[str, Histogram] = {}
    for shard in shards:
        for name, value in shard.items():
            if _is_histogram_entry(value):
                hist = hists.get(name)
                if hist is None:
                    hists[name] = Histogram.from_dict(value)
                else:
                    hist.merge(Histogram.from_dict(value))
            elif isinstance(value, bool) or not isinstance(value,
                                                           (int, float)):
                raise ReproError(
                    f"archive: cannot merge metric {name!r} of type "
                    f"{type(value).__name__}")
            elif isinstance(value, int):
                merged[name] = merged.get(name, 0) + value
            else:
                floats.setdefault(name, []).append(value)
    for name, values in floats.items():
        if name in merged:
            raise ReproError(
                f"archive: metric {name!r} is int in some shards and "
                f"float in others")
        merged[name] = sum(values) / len(values)
    for name, hist in hists.items():
        merged[name] = _histogram_entry(hist)
    return merged


# ----------------------------------------------------------------------
# The archive itself
# ----------------------------------------------------------------------

class RunArchive:
    """One persisted run: a manifest plus metrics (and probe series)."""

    def __init__(self, path: str, manifest: Dict[str, object],
                 metrics: Dict[str, object],
                 series: Optional[Dict[str, list]] = None) -> None:
        self.path = str(path)
        self.manifest = manifest
        self.metrics = metrics
        self.series = series

    @property
    def run_id(self) -> str:
        return str(self.manifest.get("run_id", os.path.basename(self.path)))

    # -- writing -------------------------------------------------------
    @classmethod
    def write(cls, path: str, metrics: Dict[str, object], *,
              config=None, label: Optional[str] = None,
              seed: Optional[int] = None, cycles: Optional[int] = None,
              events_executed: Optional[int] = None,
              wall_seconds: Optional[float] = None,
              command: Optional[Sequence[str]] = None,
              series: Optional[Dict[str, list]] = None,
              config_hash: Optional[str] = None,
              instrumentation: Optional[Dict[str, object]] = None,
              instrumentation_hash: Optional[str] = None,
              extra: Optional[Dict[str, object]] = None) -> "RunArchive":
        """Persist a run under ``path`` (the run directory itself).

        ``config`` may be a :class:`PrototypeConfig`; its label, seed,
        and :func:`config_hash` then fill the manifest unless overridden.
        Sweeps that already hold a precomputed hash (``SweepResult.
        config_hash``) pass it as ``config_hash`` so the manifest can
        never disagree with the run's store keys.

        ``instrumentation`` is the run's resolved instrumentation-plane
        spec (canonical dict) and ``instrumentation_hash`` its content
        hash — recorded so ``repro diff`` can refuse to compare runs
        whose metric selection or triggers differ.  Both stay None for
        uninstrumented runs.
        """
        path = str(path)
        if instrumentation is not None and instrumentation_hash is None:
            from .plane import InstrumentationPlane
            instrumentation_hash = InstrumentationPlane.from_dict(
                instrumentation).spec_hash
        manifest: Dict[str, object] = {
            "schema_version": SCHEMA_VERSION,
            "run_id": os.path.basename(os.path.normpath(path)),
            "config": label,
            "config_hash": None,
            "seed": seed,
            "git_revision": git_revision(),
            "written_at_unix": round(time.time(), 3),
            "cycles": cycles,
            "events_executed": events_executed,
            "wall_seconds": (None if wall_seconds is None
                             else round(wall_seconds, 6)),
            "command": list(command) if command is not None else None,
            "instrumentation": instrumentation,
            "instrumentation_hash": instrumentation_hash,
        }
        if config_hash is not None:
            manifest["config_hash"] = config_hash
        if config is not None:
            manifest["config"] = label or config.label
            if config_hash is None:
                manifest["config_hash"] = _hash_config(config)
            if seed is None:
                manifest["seed"] = config.seed
        if extra:
            manifest.update(extra)
        atomic_write_json(os.path.join(path, METRICS_NAME), metrics)
        if series is not None:
            atomic_write_json(os.path.join(path, SERIES_NAME), series)
        atomic_write_json(os.path.join(path, MANIFEST_NAME), manifest)
        return cls(path, manifest, metrics, series)

    # -- loading -------------------------------------------------------
    @classmethod
    def load(cls, path: str) -> "RunArchive":
        """Read an archive directory back (inverse of :meth:`write`);
        a manifest of another schema raises :class:`ReproError`."""
        path = str(path)
        manifest = _read_mapping(path, MANIFEST_NAME)
        if manifest.get("schema_version") != SCHEMA_VERSION:
            raise ReproError(
                f"archive: {path} has schema "
                f"{manifest.get('schema_version')!r}, expected "
                f"{SCHEMA_VERSION}")
        metrics = _read_mapping(path, METRICS_NAME)
        series = None
        if os.path.isfile(os.path.join(path, SERIES_NAME)):
            series = _read_mapping(path, SERIES_NAME)
        return cls(path, manifest, metrics, series)

    @staticmethod
    def is_archive(path: str) -> bool:
        return os.path.isdir(path) and os.path.isfile(
            os.path.join(path, MANIFEST_NAME))

    @staticmethod
    def scan(root: str) -> List[str]:
        """The archive directories directly under ``root``, sorted by
        name; none when ``root`` does not exist."""
        if not os.path.isdir(root):
            return []
        paths = (os.path.join(root, name) for name in sorted(os.listdir(root)))
        return [path for path in paths if RunArchive.is_archive(path)]


def _read_mapping(path: str, name: str) -> Dict[str, object]:
    """The JSON object in archive file ``path/name``; a missing,
    unreadable or malformed file raises :class:`ReproError` naming it."""
    file_path = os.path.join(path, name)
    try:
        with open(file_path) as handle:
            data = json.load(handle)
    except (OSError, ValueError) as error:
        raise ReproError(f"archive: cannot read {file_path}: {error}") \
            from None
    if not isinstance(data, dict):
        raise ReproError(f"archive: {file_path} does not hold a JSON "
                         f"object")
    return data
