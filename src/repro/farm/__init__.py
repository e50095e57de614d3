"""``repro.farm`` — a run-farm orchestrator for fleets of prototype runs.

SMAPPIC's pitch is elastic capacity: an experiment is not one run but a
fleet of them — configs x workloads x seeds — placed on however many
cloud FPGA instances the budget allows (Paper Sec. 3, Fig. 12).  This
package is that layer for the simulation, shaped after FireSim's
``run_farm`` / ``instance_deploy_manager`` and collapsed onto one
machine:

* a :class:`FarmSpec` declares the pool — ``slots`` local worker slots,
  served by a :class:`LocalHost` of persistent worker processes that
  live for one :func:`run_farm` call — and the retry/backoff/heartbeat
  policy;
* :class:`JobSpec` fleets come from sweeps (:func:`farm_sweep` expands
  a :class:`~repro.parallel.SweepSpec` one job per task: a Fig. 7
  shard, or a whole Fig. 8/9 sweep) or from the ad-hoc
  ``partition-latency`` builder (a partitioned run weighing N slots);
* :func:`run_farm` places a queued job whenever the pool has
  ``job.slots`` slots free, monitors worker heartbeats, retries
  transient failures with capped exponential backoff, quarantines
  deterministic ones (same error twice), memoizes completed points
  through :mod:`repro.store`, and streams ``obs.farm.*`` counters;
* every run collects into a report directory — per-job
  :class:`~repro.obs.archive.RunArchive`\\ s plus a merged farm-level
  archive that ``repro diff`` can gate — rendered by
  ``repro farm status``.

This is the one launcher for ``--jobs``/``REPRO_JOBS`` work:
:func:`~repro.parallel.run_sweep` and :func:`~repro.parallel.run_tasks`
at ``jobs > 1`` run on a :func:`local_farm` of ``jobs`` slots when
there is more than one task.  The determinism contract survives the
layer: a farm suite runs the same tasks as the serial sweep and folds
their points in point order, so *serial == farm*, byte for byte, at any
slot count.
"""

from .._lazy import lazy_exports

__all__ = [
    "FarmCounters",
    "FarmResult",
    "FarmSpec",
    "FileSpec",
    "JobSpec",
    "JobState",
    "LocalHost",
    "SuitePlan",
    "apply_fault_injection",
    "build_adhoc_job",
    "build_suite_plan",
    "collect_report",
    "farm_sweep",
    "finish_suite",
    "job_metric_shards",
    "load_farm_manifest",
    "load_spec_file",
    "local_farm",
    "partition_latency_job",
    "plan_sweep",
    "run_farm",
    "run_file_spec",
    "write_farm_manifest",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    ".hosts": ("LocalHost",),
    ".report": ("collect_report", "job_metric_shards",
                "load_farm_manifest", "write_farm_manifest"),
    ".scheduler": ("FarmCounters", "FarmResult", "JobState", "run_farm"),
    ".spec": ("FarmSpec", "FileSpec", "JobSpec", "apply_fault_injection",
              "load_spec_file", "local_farm"),
    ".suites": ("SuitePlan", "build_adhoc_job", "build_suite_plan",
                "farm_sweep", "finish_suite", "partition_latency_job",
                "plan_sweep", "run_file_spec"),
})
