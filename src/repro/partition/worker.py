"""The partition worker process: build a shard, serve the quantum loop.

The coordinator speaks a three-verb protocol over a ``multiprocessing``
pipe:

``("quantum", bound, inbox)``
    Inject the routed boundary arrivals, drain every local event
    strictly before ``bound``, and reply with the captured outbox, the
    local clock, the next pending event time, the events executed, any
    completed control calls, and the compute wall time (so the
    coordinator can split barrier wait from real work).

``("call", name, args)``
    Dispatch a named control call on the shard (issue a memory access,
    export metrics, align the clock, ...) and reply with its value.

``("stop",)``
    Acknowledge and exit.

Replies are ``("ok", payload)`` or ``("err", traceback_text)``; a
failure inside the shard is reported, not fatal to the pipe, so the
coordinator can surface the worker's traceback in the parent's
exception.
"""

from __future__ import annotations

import time
import traceback


def _next_time(sim):
    """The shard's next work: its next event, or its clock floor when
    that lies ahead of ``now`` and comes first.

    A clock floor above ``now`` stands for an event the shard settled
    without scheduling (a router credit landing); reporting it lets the
    coordinator run the quantum that event would have pulled in, so the
    partitioned clock stops where the monolithic one does.
    """
    next_time = sim.next_event_time()
    floor = sim.clock_floor
    if floor > sim.now and (next_time is None or floor < next_time):
        return floor
    return next_time


def worker_main(conn, builder, kwargs) -> None:
    """Entry point of one partition worker (module-level for spawn)."""
    try:
        shard = builder(**kwargs)
    except BaseException:
        try:
            conn.send(("err", traceback.format_exc()))
        finally:
            conn.close()
        return
    conn.send(("ok", {"next_time": _next_time(shard.sim)}))
    while True:
        try:
            message = conn.recv()
        except EOFError:
            break
        op = message[0]
        if op == "stop":
            conn.send(("ok", None))
            break
        try:
            if op == "quantum":
                _, bound, inbox = message
                shard.inject(inbox)
                started = time.perf_counter()
                executed = shard.sim.run_until(bound)
                compute = time.perf_counter() - started
                conn.send(("ok", {
                    "outbox": shard.take_outbox(),
                    "now": shard.sim.now,
                    "next_time": _next_time(shard.sim),
                    "executed": executed,
                    "completions": shard.take_completions(),
                    "compute_seconds": compute,
                }))
            elif op == "call":
                _, name, args = message
                value = shard.handle(name, *args)
                conn.send(("ok", {
                    "value": value,
                    "next_time": _next_time(shard.sim),
                }))
            else:
                conn.send(("err", f"unknown worker op {op!r}"))
        except BaseException:
            conn.send(("err", traceback.format_exc()))
    conn.close()
