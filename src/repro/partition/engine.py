"""The coordinator: lockstep quanta over partition worker processes.

:class:`PartitionEngine` owns one worker process per partition and
advances them in conservative time quanta:

1. Gather every partition's next pending event time and every
   still-undelivered boundary arrival; their minimum is the earliest
   cycle at which *anything* can happen globally.
2. Run all partitions to ``bound = minimum + window``.  The window is
   the derived PCIe lookahead (strictly below the link's one-way
   latency), so no message sent during the quantum can arrive before
   the next barrier — each partition's past is complete when it runs.
3. At the barrier, route the captured outboxes into per-destination
   inboxes ordered by ``(send_time, source partition, sequence)`` —
   delivery order is a pure function of the traffic — and repeat.

Jumping the bound from the global minimum (rather than stepping fixed
quanta from zero) skips idle stretches in one barrier, which is what
makes request/response workloads with long silences tractable.

The engine also keeps the ``obs.partition.*`` counters: quanta
executed, boundary messages routed, events executed, and the split of
wall time between shard compute and barrier wait.
"""

from __future__ import annotations

import multiprocessing
import time
from typing import Callable, List, Optional

from ..errors import SimulationError
from .window import lookahead_window  # noqa: F401  (re-exported for callers)

#: Inbox entries sort by (send_time, src_partition, seq); arrival rides
#: at index 3 (see repro.partition.fabric).
_INBOX_ORDER = slice(0, 3)


def _start_method() -> str:
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


class PartitionEngine:
    """Drives ``partitions`` worker shards in lockstep quanta."""

    def __init__(self, partitions: int, builder: Callable, kwargs_list,
                 window: int):
        if partitions < 1:
            raise SimulationError(f"need >= 1 partition, got {partitions}")
        if window < 1:
            raise SimulationError(f"lookahead window must be >= 1, "
                                  f"got {window}")
        if len(kwargs_list) != partitions:
            raise SimulationError("one kwargs dict per partition required")
        self.partitions = partitions
        self.window = window
        self.global_now = 0
        self.completions: dict = {}
        self.quanta = 0
        self.boundary_messages = 0
        self.events_executed = 0
        self.barrier_wait_seconds = 0.0
        self.compute_seconds = 0.0
        self._closed = False
        self._conns: List = []
        self._procs: List = []
        ctx = multiprocessing.get_context(_start_method())
        from .worker import worker_main
        try:
            for index in range(partitions):
                parent, child = ctx.Pipe()
                proc = ctx.Process(
                    target=worker_main,
                    args=(child, builder, kwargs_list[index]),
                    daemon=True,
                    name=f"repro-partition-{index}")
                proc.start()
                child.close()
                self._conns.append(parent)
                self._procs.append(proc)
            self._next_times: List[Optional[int]] = [
                self._recv(conn)["next_time"] for conn in self._conns]
        except BaseException:
            self.close()
            raise
        self._inboxes: List[list] = [[] for _ in range(partitions)]

    # ------------------------------------------------------------------
    # Protocol plumbing
    # ------------------------------------------------------------------
    @staticmethod
    def _send(conn, message) -> None:
        try:
            conn.send(message)
        except OSError as error:    # broken pipe: the worker is gone
            raise SimulationError(
                f"partition worker died ({error})") from None

    def _recv(self, conn):
        try:
            status, payload = conn.recv()
        except (EOFError, OSError) as error:
            raise SimulationError(
                f"partition worker died before replying "
                f"({type(error).__name__})") from None
        if status != "ok":
            raise SimulationError(f"partition worker failed:\n{payload}")
        return payload

    def call(self, partition: int, name: str, *args):
        """One named control call on one shard."""
        conn = self._conns[partition]
        self._send(conn, ("call", name, args))
        reply = self._recv(conn)
        self._next_times[partition] = reply["next_time"]
        return reply["value"]

    def broadcast(self, name: str, *args) -> list:
        """The same control call on every shard; values in shard order."""
        for conn in self._conns:
            self._send(conn, ("call", name, args))
        values = []
        for index, conn in enumerate(self._conns):
            reply = self._recv(conn)
            self._next_times[index] = reply["next_time"]
            values.append(reply["value"])
        return values

    # ------------------------------------------------------------------
    # The quantum loop
    # ------------------------------------------------------------------
    def _earliest(self) -> Optional[int]:
        earliest: Optional[int] = None
        for t in self._next_times:
            if t is not None and (earliest is None or t < earliest):
                earliest = t
        for inbox in self._inboxes:
            for entry in inbox:
                arrival = entry[3]
                if earliest is None or arrival < earliest:
                    earliest = arrival
        return earliest

    def _quantum(self, bound: int) -> None:
        conns = self._conns
        for index, conn in enumerate(conns):
            inbox = self._inboxes[index]
            inbox.sort(key=lambda entry: entry[_INBOX_ORDER])
            self._send(conn, ("quantum", bound, inbox))
            self._inboxes[index] = []
        barrier_start = time.perf_counter()
        slowest = 0.0
        for index, conn in enumerate(conns):
            reply = self._recv(conn)
            self._next_times[index] = reply["next_time"]
            if reply["now"] > self.global_now:
                self.global_now = reply["now"]
            self.events_executed += reply["executed"]
            self.completions.update(reply["completions"])
            if reply["compute_seconds"] > slowest:
                slowest = reply["compute_seconds"]
            for send_time, arrival, seq, dst, message in reply["outbox"]:
                self._inboxes[dst].append(
                    (send_time, index, seq, arrival, message))
                self.boundary_messages += 1
        wall = time.perf_counter() - barrier_start
        self.compute_seconds += slowest
        self.barrier_wait_seconds += max(0.0, wall - slowest)
        self.quanta += 1

    def run_quiescent(self, until: Optional[int] = None) -> int:
        """Advance all partitions until no work remains (or none remains
        at or before ``until``); returns events executed.  Mirrors the
        monolithic ``Simulator.run`` contract, including the clock
        landing exactly on ``until`` when given.
        """
        before = self.events_executed
        while True:
            earliest = self._earliest()
            if earliest is None or (until is not None and earliest > until):
                break
            bound = earliest + self.window
            if until is not None and bound > until + 1:
                bound = until + 1
            self._quantum(bound)
        if until is not None and until > self.global_now:
            self.global_now = until
        self.broadcast("set_now", self.global_now)
        return self.events_executed - before

    # ------------------------------------------------------------------
    # Reporting / shutdown
    # ------------------------------------------------------------------
    def partition_metrics(self) -> dict:
        """The ``obs.partition.*`` counter block (coordinator-side)."""
        return {
            "obs.partition.partitions": self.partitions,
            "obs.partition.window": self.window,
            "obs.partition.quanta": self.quanta,
            "obs.partition.boundary_messages": self.boundary_messages,
            "obs.partition.events": self.events_executed,
            "obs.partition.compute_seconds": round(self.compute_seconds, 6),
            "obs.partition.barrier_wait_seconds":
                round(self.barrier_wait_seconds, 6),
        }

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for conn in self._conns:
            try:
                conn.recv()
            except (EOFError, OSError):
                pass
            conn.close()
        for proc in self._procs:
            proc.join(timeout=10)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass
