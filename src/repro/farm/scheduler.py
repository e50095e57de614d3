"""The farm scheduler: place, monitor, retry, quarantine.

One single-threaded monitor loop owns the whole fleet (the FireSim
``run_farm`` shape, collapsed to one process):

1. **Place** — queued jobs whose backoff has elapsed are placed on the
   first host with enough free slots, in submission order; a job's
   ``slots`` weight is reserved for its whole attempt (an N-partition
   job holds N slots).
2. **Monitor** — each host's persistent workers stream ``started``/
   ``heartbeat``/``done``/``failed`` events over a private pipe per
   worker; a worker that dies without a word (crash, OOM kill) is
   detected through pipe EOF plus its exit code, and a worker that stops
   heartbeating past ``heartbeat_timeout`` is terminated.  Both count as
   transient failures, and the host replaces the lost worker.
3. **Retry / quarantine** — transient failures re-queue with capped
   exponential backoff until ``max_retries`` retries are spent.  A
   *deterministic* failure (the job function raised something other
   than :class:`~repro.errors.TransientJobError`) is retried once, but
   the second failure with the same error signature quarantines the
   job: same seed, same error — a third run buys nothing.

State machine::

    queued -> running -> done
                      -> failed(transient or first deterministic)
                             -> queued (retry, backoff)   [retries left]
                             -> quarantined               [same error twice]
                             -> failed                    [retries spent]

Results merge in job-submission order regardless of completion order,
so a farm suite is byte-identical to the serial sweep of the same spec.
Progress counters export as ``obs.farm.*`` and the whole run lands in a
report directory (see :mod:`repro.farm.report`) that ``repro farm
status`` renders and ``repro diff`` can gate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _wait_connections
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import FarmError
from .hosts import Host, LocalHost
from .spec import FarmSpec, JobSpec

#: Seconds a dead worker may stay silent before its missing completion
#: event is declared a crash (lets an in-flight ``done`` drain first).
_CRASH_GRACE = 0.5

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
QUARANTINED = "quarantined"


@dataclass
class JobState:
    """Everything the farm knows about one job across its attempts."""

    job: JobSpec
    state: str = QUEUED
    attempts: int = 0
    retries: int = 0
    ready_at: float = 0.0
    host: Optional[str] = None
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    result: object = None
    error: Optional[Dict[str, str]] = None
    signatures: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def job_id(self) -> str:
        return self.job.job_id

    def describe(self) -> Dict[str, object]:
        row = self.job.describe()
        row.update({
            "state": self.state,
            "attempts": self.attempts,
            "retries": self.retries,
            "host": self.host,
            "error": self.error,
            "wall_seconds": (
                round(self.finished_at - self.started_at, 6)
                if self.started_at is not None
                and self.finished_at is not None else None),
        })
        return row


@dataclass
class FarmCounters:
    """The ``obs.farm.*`` plane: fleet totals plus live gauges."""

    jobs: int = 0
    queued: int = 0
    running: int = 0
    done: int = 0
    failed: int = 0
    quarantined: int = 0
    retried: int = 0
    launched: int = 0
    slots_total: int = 0
    slots_busy: int = 0
    slots_peak_busy: int = 0

    def export_metrics(self) -> Dict[str, int]:
        return {
            "obs.farm.jobs": self.jobs,
            "obs.farm.queued": self.queued,
            "obs.farm.running": self.running,
            "obs.farm.done": self.done,
            "obs.farm.failed": self.failed,
            "obs.farm.quarantined": self.quarantined,
            "obs.farm.retried": self.retried,
            "obs.farm.launched": self.launched,
            "obs.farm.slots": self.slots_total,
            "obs.farm.slots_busy": self.slots_busy,
            "obs.farm.slots_peak_busy": self.slots_peak_busy,
        }


class FarmResult:
    """A finished fleet: per-job states in submission order + counters."""

    def __init__(self, spec: FarmSpec, states: List[JobState],
                 counters: FarmCounters, wall_seconds: float,
                 report_dir: Optional[str] = None) -> None:
        self.spec = spec
        self.states = states
        self.counters = counters
        self.wall_seconds = wall_seconds
        self.report_dir = report_dir

    @property
    def ok(self) -> bool:
        return all(state.state == DONE for state in self.states)

    def state_of(self, job_id: str) -> JobState:
        for state in self.states:
            if state.job_id == job_id:
                return state
        raise FarmError(f"farm: no job {job_id!r} in this run")

    def value_of(self, job_id: str):
        state = self.state_of(job_id)
        if state.state != DONE:
            raise FarmError(
                f"farm: job {job_id!r} is {state.state}, not done"
                + (f" ({state.error['type']}: {state.error['text']})"
                   if state.error else ""))
        return state.result

    def values(self) -> List[object]:
        """Results of every *done* job, in submission order."""
        return [state.result for state in self.states
                if state.state == DONE]

    def failed_states(self) -> List[JobState]:
        return [state for state in self.states
                if state.state in (FAILED, QUARANTINED)]

    def export_metrics(self) -> Dict[str, int]:
        return self.counters.export_metrics()


class _Monitor:
    """One farm run's mutable state (the monitor loop's innards)."""

    def __init__(self, spec: FarmSpec, jobs: Sequence[JobSpec],
                 report_dir: Optional[str]) -> None:
        max_slots = max(host.slots for host in spec.hosts)
        for job in jobs:
            if job.slots > max_slots:
                raise FarmError(
                    f"farm: job {job.job_id!r} needs {job.slots} slots "
                    f"but the largest host has {max_slots}")
        ids = [job.job_id for job in jobs]
        if len(set(ids)) != len(ids):
            raise FarmError(f"farm: duplicate job ids submitted")
        self.spec = spec
        self.hosts: List[Host] = [LocalHost(h) for h in spec.hosts]
        self.states = [JobState(job=job) for job in jobs]
        self.by_id = {state.job_id: state for state in self.states}
        #: job_id -> [handle, host, last_seen, dead_since]
        self.running: Dict[str, List] = {}
        self.counters = FarmCounters(
            jobs=len(jobs), queued=len(jobs),
            slots_total=spec.total_slots)
        self.report_dir = report_dir
        self._report_written = 0.0

    # -- placement -----------------------------------------------------
    def _place(self, now: float) -> None:
        for state in self.states:
            if state.state != QUEUED or state.ready_at > now:
                continue
            host = next((host for host in self.hosts
                         if host.free_slots >= state.job.slots), None)
            if host is None:
                continue
            state.attempts += 1
            state.state = RUNNING
            state.host = host.name
            if state.started_at is None:
                state.started_at = now
            host.busy_slots += state.job.slots
            handle = host.launch(state.job, state.attempts,
                                 self.spec.heartbeat_interval)
            self.running[state.job_id] = [handle, host, time.time(), None]
            self.counters.queued -= 1
            self.counters.running += 1
            self.counters.launched += 1
            self.counters.slots_busy += state.job.slots
            self.counters.slots_peak_busy = max(
                self.counters.slots_peak_busy, self.counters.slots_busy)

    # -- completion / failure ------------------------------------------
    def _release(self, state: JobState, kill: bool = False) -> None:
        entry = self.running.pop(state.job_id)
        handle, host = entry[0], entry[1]
        if kill:
            handle.terminate()
        handle.reap()
        host.busy_slots -= state.job.slots
        self.counters.running -= 1
        self.counters.slots_busy -= state.job.slots

    def _finish(self, state: JobState, result) -> None:
        self._release(state)
        state.state = DONE
        state.result = result
        state.error = None
        state.finished_at = time.time()
        self.counters.done += 1

    def _fail(self, state: JobState, transient: bool, error_type: str,
              error_text: str, trace: Optional[str] = None,
              kill: bool = False) -> None:
        self._release(state, kill=kill)
        now = time.time()
        signature = (error_type, error_text)
        repeated = (not transient) and signature in state.signatures
        state.signatures.append(signature)
        state.error = {"type": error_type, "text": error_text,
                       "traceback": trace or ""}
        if repeated:
            state.state = QUARANTINED
            state.finished_at = now
            self.counters.quarantined += 1
            self.counters.failed += 1
        elif state.retries < self.spec.max_retries:
            state.retries += 1
            backoff = min(
                self.spec.backoff_cap,
                self.spec.backoff_base * (2 ** (state.retries - 1)))
            state.ready_at = now + backoff
            state.state = QUEUED
            self.counters.retried += 1
            self.counters.queued += 1
        else:
            state.state = FAILED
            state.finished_at = now
            self.counters.failed += 1

    # -- event / liveness handling -------------------------------------
    def _drain_events(self) -> None:
        """Wait up to ``poll_interval`` for events on any busy worker's pipe.

        Each worker has its own pipe, so terminating one worker can
        never wedge another's channel (the shared-queue failure mode:
        a writer killed mid-``put`` leaves the queue lock held forever).
        """
        open_conns = {entry[0].events: job_id
                      for job_id, entry in self.running.items()
                      if entry[0].events_open}
        if not open_conns:
            time.sleep(self.spec.poll_interval)
            return
        ready = _wait_connections(list(open_conns),
                                  timeout=self.spec.poll_interval)
        for conn in ready:
            job_id = open_conns[conn]
            entry = self.running.get(job_id)
            if entry is None or entry[0].events is not conn:
                continue   # attempt already released by an earlier event
            handle = entry[0]
            while handle.events_open:
                try:
                    if not conn.poll(0):
                        break
                    event = conn.recv()
                except (EOFError, OSError):
                    # Writer gone (worker exited or crashed); liveness
                    # checking decides what that means.
                    handle.events_open = False
                    break
                self._handle_event(event)
                if self.running.get(job_id) is not entry:
                    break   # a done/failed event released the attempt

    def _handle_event(self, event) -> None:
        kind, job_id, attempt = event[0], event[1], event[2]
        state = self.by_id.get(job_id)
        entry = self.running.get(job_id)
        if (state is None or entry is None
                or attempt != state.attempts):
            return   # stale event from a terminated attempt
        if kind in ("started", "heartbeat"):
            entry[2] = time.time()
        elif kind == "done":
            self._finish(state, event[3])
        elif kind == "failed":
            _k, _j, _a, transient, etype, etext, trace = event
            self._fail(state, transient, etype, etext, trace)

    def _check_liveness(self) -> None:
        now = time.time()
        timeout = self.spec.heartbeat_timeout
        for job_id in list(self.running):
            entry = self.running[job_id]
            handle, _host, last_seen, dead_since = entry
            state = self.by_id[job_id]
            if not handle.alive():
                # Dead without a completion event.  Once its pipe is at
                # EOF nothing more can arrive; otherwise give any
                # in-flight event a grace window, then call it a crash.
                if not handle.events_open:
                    pass   # drained to EOF — fail immediately below
                elif dead_since is None:
                    entry[3] = now
                    continue
                elif now - dead_since <= _CRASH_GRACE:
                    continue
                code = handle.exit_code()
                self._fail(state, True, "WorkerCrash",
                           f"worker exited with code {code} "
                           f"without reporting a result")
            elif timeout is not None and now - last_seen > timeout:
                self._fail(state, True, "HeartbeatTimeout",
                           f"no heartbeat for more than {timeout}s; "
                           f"worker terminated", kill=True)

    # -- report streaming ----------------------------------------------
    def _stream_report(self, force: bool = False) -> None:
        if self.report_dir is None:
            return
        now = time.time()
        if not force and now - self._report_written < 0.5:
            return
        from .report import write_farm_manifest
        write_farm_manifest(self.report_dir, self.spec, self.states,
                            self.counters, final=force)
        self._report_written = now


def run_farm(spec: FarmSpec, jobs: Sequence[JobSpec],
             report_dir: Optional[str] = None) -> FarmResult:
    """Run a fleet of jobs over the farm's hosts; returns when settled.

    Every job ends ``done``, ``failed``, or ``quarantined`` — a farm
    run never raises for job failures (inspect
    :meth:`FarmResult.failed_states`), only for a mis-specified fleet.
    The hosts' workers live for this call only: they are stopped before
    it returns or raises.
    """
    jobs = list(jobs)
    if not jobs:
        raise FarmError("farm: no jobs submitted")
    monitor = _Monitor(spec, jobs, report_dir)
    started = time.time()
    monitor._stream_report(force=True)
    try:
        while monitor.counters.queued or monitor.running:
            monitor._place(time.time())
            monitor._drain_events()
            monitor._check_liveness()
            monitor._stream_report()
    finally:
        # Never leak worker processes: kill busy ones, stop idle ones.
        for entry in monitor.running.values():
            entry[0].terminate()
            entry[0].reap()
        for host in monitor.hosts:
            host.close()
    result = FarmResult(spec, monitor.states, monitor.counters,
                        wall_seconds=time.time() - started,
                        report_dir=report_dir)
    if report_dir is not None:
        monitor._stream_report(force=True)
    return result
