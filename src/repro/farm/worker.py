"""The farm worker: one persistent process serving job attempts in turn.

A :class:`~repro.farm.hosts.LocalHost` starts each worker on
:func:`worker_main` with its own duplex pipe and keeps it for the length
of one :func:`~repro.farm.run_farm` call.  The parent sends one attempt
at a time, ``(job_id, attempt, fn, payload, heartbeat_interval,
inject_fail, inject_crash, inject_hang)``, or ``None`` to stop the
worker.  Everything the worker says back is a tuple whose first element
is the event kind:

``("started", job_id, attempt, pid)``
    Sent first, before the job function runs.
``("heartbeat", job_id, attempt, unix_time)``
    Sent by a daemon thread every ``heartbeat_interval`` seconds while
    the job function runs — liveness, not progress.
``("done", job_id, attempt, result)``
    The job function returned; ``result`` is its (picklable) value.
``("failed", job_id, attempt, transient?, error_type, error_text, tb)``
    The job function raised.  ``transient?`` marks errors worth
    retrying (:class:`~repro.errors.TransientJobError`); everything
    else is judged by the scheduler's quarantine rule instead.

``done``/``failed`` is the attempt's last event: the heartbeat thread
has stopped before it is sent, so two threads never send at once and
the next attempt on the same pipe never sees a beat from the last one.
Each worker has its *own* pipe on purpose: a shared
``multiprocessing.Queue`` can be poisoned for every worker when one
writer is terminated mid-``put`` (the feeder thread dies holding the
queue lock), whereas killing a pipe writer costs nothing but its own
channel.  A worker that dies without a ``done``/``failed`` event (crash,
OOM kill, injected ``os._exit``) is detected by the deploy manager
through pipe EOF plus its exit code, treated as a transient failure,
and replaced.
"""

from __future__ import annotations

import os
import threading
import time
import traceback

from ..errors import TransientJobError

#: Exit code of an injected crash (tests assert the scheduler survives
#: workers that die without posting any event).
CRASH_EXIT_CODE = 43


def _send(conn, event) -> None:
    """Send one event; failures are swallowed.  Once the scheduler has
    dropped the worker (closed its end), nothing it still has to say
    matters, and the next receive ends the loop."""
    try:
        conn.send(event)
    except (OSError, ValueError):
        pass


def _heartbeat_loop(conn, job_id: str, attempt: int, interval: float,
                    stop: threading.Event) -> None:
    while not stop.wait(interval):
        _send(conn, ("heartbeat", job_id, attempt, time.time()))


def run_attempt(conn, job_id: str, attempt: int, fn, payload,
                heartbeat_interval: float, inject_fail: int,
                inject_crash: int, inject_hang: int) -> None:
    """Run one job attempt; a job's error goes to the pipe as an event.

    An interrupt or exit raised by the job ends the worker, which the
    scheduler sees as a crash.
    """
    _send(conn, ("started", job_id, attempt, os.getpid()))
    if inject_hang >= attempt:
        # Injected hang: stay alive but never beat — exercises the
        # heartbeat-timeout kill path.  (No heartbeat thread at all.)
        time.sleep(3600)
        return
    if inject_crash >= attempt:
        # Injected crash: die without a word, like an OOM kill.
        os._exit(CRASH_EXIT_CODE)
    _send(conn, ("heartbeat", job_id, attempt, time.time()))
    stop = threading.Event()
    beat = threading.Thread(
        target=_heartbeat_loop,
        args=(conn, job_id, attempt, heartbeat_interval, stop),
        daemon=True)
    beat.start()
    try:
        if inject_fail >= attempt:
            raise TransientJobError(
                f"injected transient failure (attempt {attempt})")
        event = ("done", job_id, attempt, fn(payload))
    except Exception as error:   # noqa: BLE001 — every job error reports
        event = ("failed", job_id, attempt,
                 isinstance(error, TransientJobError),
                 type(error).__name__, str(error),
                 traceback.format_exc())
    finally:
        stop.set()
        beat.join()
    _send(conn, event)


def worker_main(conn, parent_end) -> None:
    """Serve attempts from ``conn`` until told to stop or the pipe ends.

    ``parent_end`` is the parent's end of the same pipe, inherited over
    the fork; closing it here lets the worker see EOF (and exit) if the
    parent goes away without stopping it.
    """
    parent_end.close()
    while True:
        try:
            attempt = conn.recv()
        except (EOFError, OSError):
            attempt = None
        if attempt is None:
            conn.close()
            return
        run_attempt(conn, *attempt)
