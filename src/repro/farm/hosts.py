"""The worker pool: where job attempts actually run.

:class:`LocalHost` keeps persistent local worker processes for the
length of one :func:`~repro.farm.run_farm` call, each serving attempts
one after another over its own duplex pipe (:mod:`repro.farm.worker`),
so a fleet pays one process start per slot, not per job.  Nothing a
job computes outlives it on the worker: work the points of one sweep
task share (:func:`~repro.parallel.sweep.sweep_cached`) lives for that
task only.  A worker whose attempt crashed, was killed, or hit pipe EOF
is discarded, and the next launch starts a fresh one in its place.

The scheduler launches an attempt through :meth:`LocalHost.launch`,
which returns a :class:`_WorkerHandle` carrying the worker's event
pipe; the scheduler polls handles for liveness, reads events, kills and
reaps through the handle, and closes the pool when the fleet settles.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
from typing import List, Optional

from ..errors import FarmError
from .spec import JobSpec
from .worker import worker_main


class _Worker:
    """One persistent worker process and the parent's end of its pipe."""

    def __init__(self, name: str) -> None:
        self.conn, child_conn = multiprocessing.Pipe()
        self.process = multiprocessing.Process(
            target=worker_main, args=(child_conn, self.conn), name=name,
            daemon=False)   # a job may start processes of its own
        self.process.start()
        # The child inherited its end; closing ours makes worker death
        # observable as EOF on the parent end.
        child_conn.close()

    def stop(self, kill: bool = False) -> None:
        """Ask the worker to exit (or kill it), then release it."""
        try:
            if not kill:
                self.conn.send(None)
                self.process.join(timeout=5.0)
        except OSError:
            pass   # already gone
        if self.process.is_alive():
            self.process.kill()
            self.process.join()
        self.conn.close()
        self.process.close()


class _WorkerHandle:
    """One running attempt on one of the pool's workers.

    ``events`` is the read end of the worker's pipe; the scheduler
    clears ``events_open`` when it reads EOF there, moves ``last_seen``
    on every ``started``/``heartbeat`` event, and sets ``dead_since``
    when it first finds the worker dead with events still unread.
    """

    def __init__(self, pool: "LocalHost", worker: _Worker) -> None:
        self.pool = pool
        self.worker = worker
        self.process = worker.process
        self.events = worker.conn
        self.events_open = True
        self.killed = False
        self.last_seen = time.time()
        self.dead_since: Optional[float] = None

    def alive(self) -> bool:
        return self.process.is_alive()

    def exit_code(self) -> Optional[int]:
        return self.process.exitcode

    def terminate(self) -> None:
        self.killed = True
        if self.process.is_alive():
            self.process.terminate()

    def reap(self) -> None:
        """Return the worker to the pool if the attempt ended with its
        own ``done``/``failed`` event; otherwise discard it."""
        if self.events_open and not self.killed and self.alive():
            self.pool.idle.append(self.worker)
        else:
            self.worker.stop(kill=True)
        self.events_open = False


class LocalHost:
    """The pool: persistent local worker processes, each with a private
    duplex pipe (kill-safe by construction)."""

    def __init__(self) -> None:
        self.idle: List[_Worker] = []
        self._started = 0

    def launch(self, job: JobSpec, attempt: int,
               heartbeat_interval: float) -> _WorkerHandle:
        try:
            message = pickle.dumps(
                (job.job_id, attempt, job.fn, job.payload,
                 heartbeat_interval, job.inject_fail, job.inject_crash,
                 job.inject_hang), protocol=pickle.HIGHEST_PROTOCOL)
        except (pickle.PicklingError, AttributeError, TypeError) as error:
            raise FarmError(f"farm: job {job.job_id!r} cannot be sent "
                            f"to a worker ({error})")
        while self.idle:
            worker = self.idle.pop()
            try:
                worker.conn.send_bytes(message)
            except OSError:
                worker.stop(kill=True)   # died while idle; replace it
                continue
            return _WorkerHandle(self, worker)
        self._started += 1
        worker = _Worker(f"repro-farm-w{self._started}")
        try:
            worker.conn.send_bytes(message)
        except OSError:
            pass   # died at start: the scheduler sees a crashed attempt
        return _WorkerHandle(self, worker)

    def close(self) -> None:
        """Stop the idle workers (the scheduler reaps busy ones first)."""
        workers, self.idle = self.idle, []
        for worker in workers:
            worker.stop()
