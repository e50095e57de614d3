"""Background sweep jobs: cold submissions executed by the farm.

A submitted sweep is first probed against the store, point by point.
When every point is warm, the stored values fold at once through
:func:`~repro.parallel.sweep.collect_sweep`.  Otherwise the plan's
:class:`~repro.farm.spec.JobSpec`\\ s run unchanged — same point tasks,
same worker callable, same store addresses as a farm spec file — on
:func:`repro.farm.scheduler.run_farm` in a single background worker
thread, and fold through :func:`repro.farm.suites.finish_suite`, the
fold ``repro farm run`` and ``run_sweep(jobs>1)`` use.  A warm point
inside a job is a store hit in the worker, so a served sweep value is
byte-identical to ``run_sweep`` of the same spec.

Each cold run streams its ``farm.json`` into a per-job spool directory;
``/v1/jobs/<id>`` mirrors that manifest live, exactly like
``repro farm status`` on a report directory.
"""

from __future__ import annotations

import os
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import ReproError, ServeError, StoreError
from ..farm.report import load_farm_manifest
from ..farm.spec import FarmSpec
from ..store import ResultStore, entry_key

#: Submitted-job lifecycle (a deliberately smaller alphabet than the
#: farm's per-job states: the farm report carries those).
QUEUED, RUNNING, DONE, FAILED = "queued", "running", "done", "failed"


@dataclass
class JobRecord:
    """One submitted sweep and everything a status poll reports."""

    job_id: str
    suite_id: str
    family: str
    config_hash: str
    points: int
    warm: int
    cold: int
    state: str = QUEUED
    error: Optional[str] = None
    report_dir: Optional[str] = None
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    value: object = None
    hits: int = 0
    misses: int = 0

    def describe(self) -> Dict[str, object]:
        return {"job_id": self.job_id, "suite_id": self.suite_id,
                "family": self.family, "config_hash": self.config_hash,
                "points": self.points, "warm": self.warm,
                "cold": self.cold, "state": self.state,
                "error": self.error, "report_dir": self.report_dir,
                "submitted_at_unix": round(self.submitted_at, 3),
                "started_at_unix": (round(self.started_at, 3)
                                    if self.started_at else None),
                "finished_at_unix": (round(self.finished_at, 3)
                                     if self.finished_at else None),
                "hits": self.hits, "misses": self.misses,
                "value": self.value}


class JobManager:
    """Serial background executor of submitted sweeps.

    One worker thread drains the submissions in order — the farm
    scheduler inside each job already parallelizes across its pool's
    slots, so stacking concurrent fleets would only oversubscribe the
    machine.  All bookkeeping is guarded by one lock; readers get
    snapshot dicts, never live records.
    """

    def __init__(self, store: ResultStore, farm: FarmSpec,
                 spool_dir: str) -> None:
        self.store = store
        self.farm = farm
        self.spool_dir = str(spool_dir)
        self._lock = threading.Lock()
        self._records: Dict[str, JobRecord] = {}
        self._order: List[str] = []
        # (record, plan) pairs to run; None stops the worker.
        self._queue: "queue.Queue[Optional[tuple]]" = queue.Queue()
        self._serial = 0
        self._worker: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, plan: "SuitePlan") -> JobRecord:
        """Probe the store, enqueue the plan unless it is all warm;
        returns a snapshot of the new record.

        Returns with ``state=done`` immediately when every point is
        warm — an all-warm submit never touches the farm.  When those
        stored values do not fold (a foreign or stale entry), the record
        ends ``failed`` and :class:`~repro.errors.StoreError` names the
        job and the error.  The probe's per-point hit/miss split is
        recorded on the job (the service layers it onto
        ``obs.serve.hits`` / ``obs.serve.misses``).
        """
        from ..parallel.sweep import collect_sweep

        tasks = [task for spec_job in plan.jobs for task in spec_job.payload]
        warm = []
        for task in tasks:
            found, value = self.store.load(entry_key(task[-1]))
            if found:
                warm.append((value, True, 0, 0))
        with self._lock:
            self._serial += 1
            job_id = f"serve-{self._serial}"
        record = JobRecord(
            job_id=job_id, suite_id=plan.suite_id,
            family=plan.spec.family, config_hash=plan.config_hash,
            points=len(tasks), warm=len(warm), cold=len(tasks) - len(warm))
        with self._lock:
            self._records[job_id] = record
            self._order.append(job_id)
        if not record.cold:
            try:
                self._finish(record, collect_sweep(
                    plan.spec, plan.config_hash, warm))
            except Exception as error:
                self._fail(record, error)
                raise StoreError(
                    f"serve: {job_id} failed: its stored values do not "
                    f"fold ({record.error})") from error
            return self.get(job_id)
        record.report_dir = os.path.join(self.spool_dir, job_id)
        # Snapshot before the worker can see the job: a get() after it
        # would wait on the lock the worker takes as it starts the fleet.
        queued = self.get(job_id)
        self._queue.put((record, plan))
        self._ensure_worker()
        return queued

    # ------------------------------------------------------------------
    # Status
    # ------------------------------------------------------------------
    def get(self, job_id: str) -> JobRecord:
        with self._lock:
            record = self._records.get(job_id)
            if record is None:
                raise ServeError(f"serve: unknown job {job_id!r}")
            return JobRecord(**vars(record))

    def farm_manifest(self, job_id: str) -> Optional[dict]:
        """The job's live/final ``farm.json`` mirror, if one exists yet."""
        record = self.get(job_id)
        if not record.report_dir:
            return None
        try:
            return load_farm_manifest(record.report_dir)
        except ReproError:
            return None   # fleet not launched yet, or manifest mid-write

    def list(self) -> List[JobRecord]:
        with self._lock:
            return [JobRecord(**vars(self._records[job_id]))
                    for job_id in self._order]

    # ------------------------------------------------------------------
    # The worker
    # ------------------------------------------------------------------
    def _ensure_worker(self) -> None:
        with self._lock:
            if self._worker is None or not self._worker.is_alive():
                self._worker = threading.Thread(
                    target=self._work, name="repro-serve-jobs",
                    daemon=True)
                self._worker.start()

    def _work(self) -> None:
        while True:
            pending = self._queue.get()
            if pending is None:
                return
            self._run_one(*pending)

    def _run_one(self, record: JobRecord, plan: "SuitePlan") -> None:
        from ..farm.scheduler import run_farm
        from ..farm.suites import finish_suite

        with self._lock:
            record.state = RUNNING
            record.started_at = time.time()
        try:
            result = run_farm(self.farm, plan.jobs,
                              report_dir=record.report_dir)
            self._finish(record, finish_suite(plan, result))
        except Exception as error:
            # A broken fleet must not kill the worker thread for later
            # submits.
            self._fail(record, error)

    def _fail(self, record: JobRecord, error: Exception) -> None:
        """End ``record`` as ``failed``, naming ``error``."""
        with self._lock:
            record.state = FAILED
            record.error = (str(error) if isinstance(error, ReproError)
                            else f"{type(error).__name__}: {error}")
            record.finished_at = time.time()

    def _finish(self, record: JobRecord, sweep: "SweepResult") -> None:
        """End ``record`` as ``done`` with the folded sweep."""
        with self._lock:
            record.value = sweep.value
            record.hits = sweep.hits
            record.misses = sweep.misses
            record.state = DONE
            record.finished_at = time.time()

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def close(self, timeout: float = 30.0) -> None:
        """Let the in-flight job finish, then stop the worker thread."""
        with self._lock:
            worker = self._worker
        if worker is not None and worker.is_alive():
            self._queue.put(None)
            worker.join(timeout=timeout)
