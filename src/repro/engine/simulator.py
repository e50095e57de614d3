"""Discrete-event simulation kernel.

The whole SMAPPIC model is a discrete-event simulation: hardware components
(NoC routers, caches, bridges, memory controllers) exchange timestamped
messages instead of being clocked every cycle.  Time is measured in *cycles*
of the prototype clock (100 MHz by default, matching Table 2 of the paper);
sub-cycle resolution is never needed.

Kernel fast path
----------------

The queue is a *calendar queue*: a dict of per-timestamp buckets plus a
small binary heap of the distinct timestamps themselves.  Scheduling is a
dict lookup and a list append; only the first event at a new timestamp
pays a heap push, and the heap compares plain ints in C.  This replaces
the classic one-heap-entry-per-event design, whose per-event ``heappush``
/ ``heappop`` sifting through a deep heap dominated the kernel profile.

Determinism needs no per-event sequence number: a bucket holds the events
of exactly one timestamp in insertion order, which *is* global scheduling
order, and the rare priority sort (below) is stable.  Two runs of the same
model therefore produce identical traces.

:class:`Event` objects are recycled through a free list — a simulation
executing millions of events allocates only as many ``Event`` objects as
its peak queue depth.  Cancelled events are dropped lazily when their
bucket drains; :attr:`Simulator.pending` is derived from the bucket sizes
(O(distinct timestamps), exact between runs) so the hot enqueue and drain
paths carry no accounting at all.  The calendar is compacted outright
when cancelled events outnumber live ones — mass cancellation can
neither leak memory nor slow the queue.

Typed fast path (ConstLatencyChannel)
-------------------------------------

Almost every hot event in the model is a *constant-latency hop*: a link
delivery, a router pipeline stage, a cache access latency, an AXI beat.
These always schedule ``sink(payload)`` at ``now + delay`` for a fixed
``(delay, sink)`` pair, so the generic :meth:`Simulator.schedule` —
``*args`` packing, priority handling, per-call bucket lookup — is pure
overhead for them.  :meth:`Simulator.channel` returns a
:class:`ConstLatencyChannel` pre-bound to the pair; :meth:`~
ConstLatencyChannel.send` enqueues a pooled single-payload event with no
tuple packing and caches its ``(time, bucket)`` so same-cycle bursts skip
even the dict lookup.  :meth:`~ConstLatencyChannel.send_after` serves
links whose arrival varies with serialization but whose sink is fixed.

Both paths append into the *same* calendar buckets, so generic and
channel events at one timestamp fire in exactly the order the schedule
calls were made — the interleaving is bit-identical to routing everything
through ``schedule()``, which the determinism tests assert.

Batch lanes
-----------

The model sends one message per call.  The kernel storms
(``benchmarks/bench_kernel.py``, :mod:`repro.partition.storm`) still
send bursts: :meth:`~ConstLatencyChannel.send_many` appends a whole
burst into one ``(time, bucket)`` lane, slicing the event pool once
instead of popping it per payload, with a single ``extend`` (plus at
most one heap push) instead of one insert per event.  The bucket
receives the payloads in exactly iteration order, so ``send_many(ps)``
is event-for-event identical to ``for p in ps: send(p)``, which the
property tests assert.  :meth:`~ConstLatencyChannel.send_after_many` is
that loop over :meth:`~ConstLatencyChannel.send_after`.

Drain loop
----------

One loop serves :meth:`Simulator.run` and :meth:`~Simulator.run_until`.
It takes the earliest distinct time, iterates that bucket's list
(callbacks may append to it mid-drain), collects cancelled events,
dispatches the rest, and recycles the whole bucket into the free list at
once.  Its observable rules:

* an unbounded ``run()`` sets ``now`` on entering each bucket, so even an
  all-cancelled bucket moves the clock; a bounded drain (``until`` or
  ``max_events``) sets it only at the first *executed* event of a bucket;
* a ``max_events`` stop and a raising callback both recycle the consumed
  prefix of the current bucket and keep its tail queued, so no event
  ever runs twice, and the events that did run are credited to
  :attr:`Simulator.events_executed` either way;
* the clock floor: a component that settles work *without* an event (a
  router returning a credit it only records, see
  :mod:`repro.noc.router`) raises :attr:`Simulator.clock_floor` to the
  cycle the skipped event would have run at.  An unbounded ``run()``
  ends with ``now`` at least at the floor, and ``run_until(bound)`` does
  too when the floor lies below ``bound``, so the clock stops exactly
  where the skipped event would have left it.  Bounded ``run()`` calls
  ignore it, and the skipped work never shows in
  :attr:`~Simulator.events_executed`, :attr:`~Simulator.pending` or
  :meth:`~Simulator.next_event_time`.

Only router credit events pass ``priority`` (:mod:`repro.noc.router`),
so almost every bucket is already in execution order.  The first
non-default priority at a timestamp marks that bucket for a single
deterministic *stable* sort by priority at drain time — also mid-drain,
when a callback schedules a prioritized event into the bucket being
drained.  Stability preserves insertion order inside
each priority level, so the fast path stays unsorted and the sorted path
matches the historical ``(priority, seq)`` order.
"""

from __future__ import annotations

import sys
from heapq import heappop, heappush
from operator import length_hint
from typing import Any, Callable, Optional

from ..errors import SimulationError
from .observer import NO_OBS

#: Compact the calendar only once this many cancelled events have piled up
#: (below that the lazy drain-time sweep is cheaper than a rebuild).
_COMPACT_MIN_CANCELLED = 64

#: The drain loop's stand-in for an absent ``until`` / ``max_events``
#: bound: an int, so the bound checks stay plain int compares.
_UNBOUNDED = sys.maxsize

#: Sentinel payload marking an event scheduled through the generic path
#: (dispatched as ``callback(*args)``); any other payload dispatches as
#: ``callback(payload)``.
_GENERIC = object()


class Event:
    """A scheduled callback.

    Callers should treat events as opaque handles usable only for
    :meth:`Simulator.cancel`.  A handle is valid until the event fires or
    its cancellation is collected; after that the kernel recycles the
    object for a future scheduling, so holding a handle past execution and
    cancelling it later is unsupported: it would cancel whichever event
    currently occupies the recycled slot.  An event does not record its
    time; the calendar orders events by bucket.
    """

    __slots__ = ("priority", "callback", "args", "payload", "cancelled")

    def __init__(self, priority: int,
                 callback: Optional[Callable[..., None]], args: tuple):
        self.priority = priority
        self.callback = callback
        self.args = args
        self.payload = _GENERIC
        self.cancelled = False

    def __lt__(self, other: "Event") -> bool:
        # Only used by the *stable* sort of a bucket whose events share one
        # timestamp: comparing priority alone keeps insertion order within
        # a priority level, reproducing the historical (priority, seq)
        # order without storing a sequence number.
        return self.priority < other.priority

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Event(prio={self.priority}, "
                f"cb={getattr(self.callback, '__qualname__', self.callback)})")


class ConstLatencyChannel:
    """Typed fast path for a fixed ``(delay, sink)`` scheduling pair.

    :meth:`send` enqueues ``sink(payload)`` at ``now + delay`` in O(1):
    no ``*args`` tuple, no priority handling, and — thanks to the cached
    ``(time, bucket)`` lane — usually no dict lookup either.  Use it for
    every hop whose latency is a structural constant (link deliveries,
    router pipeline stages, cache access latencies, AXI beats); keep the
    generic :meth:`Simulator.schedule` for everything else.

    Ordering contract: channel sends land in the same calendar buckets as
    generic events, in call order, so mixing the two paths at one
    timestamp fires callbacks in exactly the order the ``send()`` /
    ``schedule()`` calls were made.

    Obtain instances via :meth:`Simulator.channel`, which offers each one
    to the observer.
    """

    __slots__ = ("_sim", "delay", "sink", "_time", "_bucket_append",
                 "_bucket_extend", "_free", "_buckets", "_times")

    def __init__(self, sim: "Simulator", delay: int,
                 sink: Callable[[Any], None]):
        if type(delay) is not int:
            delay = int(delay)
        if delay < 0:
            raise SimulationError(f"channel delay must be >= 0, got {delay}")
        self._sim = sim
        self.delay = delay
        self.sink = sink
        # Cached (time, bucket.append/extend) lane.  Only buckets strictly
        # in the future are ever cached, and `now` can only reach a
        # bucket's time while that bucket is live (the run loop deletes it
        # before advancing, and compaction filters it in place, preserving
        # list identity), so a cache hit is always an append into a
        # not-yet-drained bucket.
        self._time = -1
        self._bucket_append: Optional[Callable[[Event], None]] = None
        self._bucket_extend: Optional[Callable[[list], None]] = None
        # The simulator's containers are created once in __init__ and
        # never rebound; holding them directly saves a hop per send.
        self._free = sim._free
        self._buckets = sim._buckets
        self._times = sim._times

    def send(self, payload: Any) -> Event:
        """Enqueue ``sink(payload)`` at ``now + delay``; returns the event."""
        t = self._sim.now + self.delay
        free = self._free
        if free:
            event = free.pop()
            event.callback = self.sink
            # `args` is left stale on purpose: it is only ever read when
            # payload is _GENERIC, and the generic schedule() always
            # rewrites it.
            event.payload = payload
        else:
            event = Event(0, self.sink, ())
            event.payload = payload
        if t == self._time:
            self._bucket_append(event)
            return event
        buckets = self._buckets
        bucket = buckets.get(t)
        if bucket is None:
            bucket = buckets[t] = [event]
            heappush(self._times, t)
        else:
            bucket.append(event)
        if self.delay:
            # Zero-delay channels never cache: their target bucket is the
            # one currently draining, which dies before `now` moves on.
            self._time = t
            self._bucket_append = bucket.append
            self._bucket_extend = bucket.extend
        return event

    def send_after(self, delay: int, payload: Any) -> Event:
        """Like :meth:`send` but with a per-call delay (serializing links
        whose arrival time varies while the sink stays fixed)."""
        sim = self._sim
        if type(delay) is not int:
            delay = int(delay)
        if delay < 0:
            raise SimulationError(
                f"cannot schedule in the past: delay={delay}")
        t = sim.now + delay
        free = self._free
        if free:
            event = free.pop()
            event.callback = self.sink
            event.payload = payload
        else:
            event = Event(0, self.sink, ())
            event.payload = payload
        if delay and t == self._time:
            self._bucket_append(event)
            return event
        buckets = self._buckets
        bucket = buckets.get(t)
        if bucket is None:
            bucket = buckets[t] = [event]
            heappush(self._times, t)
        else:
            bucket.append(event)
        if delay:
            self._time = t
            self._bucket_append = bucket.append
            self._bucket_extend = bucket.extend
        return event

    def _events_for(self, payloads) -> list:
        """Pool a burst: one slice off the free list for all payloads."""
        sink = self.sink
        free = self._free
        n = len(payloads)
        k = len(free)
        if k >= n:
            events = free[k - n:]
            del free[k - n:]
            for event, payload in zip(events, payloads):
                event.callback = sink
                # `args` stays stale on purpose, exactly as in send():
                # it is only read when payload is _GENERIC.
                event.payload = payload
        else:
            events = free[:]
            del free[:]
            for event, payload in zip(events, payloads):
                event.callback = sink
                event.payload = payload
            for payload in payloads[k:]:
                event = Event(0, sink, ())
                event.payload = payload
                events.append(event)
        return events

    def send_many(self, payloads) -> list:
        """Enqueue ``sink(p)`` for every payload, in order, at
        ``now + delay``.

        Event-for-event identical to ``for p in payloads: send(p)`` but
        with one pool slice and one calendar insert for the whole burst.
        ``payloads`` must be a sequence; the returned event list is as
        opaque as a single :meth:`send` result.
        """
        if not payloads:
            return []
        t = self._sim.now + self.delay
        events = self._events_for(payloads)
        if t == self._time:
            self._bucket_extend(events)
            return events
        buckets = self._buckets
        bucket = buckets.get(t)
        if bucket is None:
            # The freshly built burst list *becomes* the bucket (it is
            # not aliased anywhere else).
            bucket = buckets[t] = events
            heappush(self._times, t)
        else:
            bucket.extend(events)
        if self.delay:
            self._time = t
            self._bucket_append = bucket.append
            self._bucket_extend = bucket.extend
        return events

    def send_after_many(self, delay: int, payloads) -> list:
        """:meth:`send_after` for each payload, in order."""
        return [self.send_after(delay, payload) for payload in payloads]


class Simulator:
    """Deterministic event-driven simulator with integer cycle time.

    Usage::

        sim = Simulator()
        sim.schedule(10, my_callback, arg1, arg2)
        ch = sim.channel(3, my_sink)     # typed fast path: sink(payload)
        ch.send(payload)
        sim.run()

    Components keep a reference to the simulator and schedule their own
    future work.  ``run`` drains the queue (optionally up to a time bound or
    event-count bound, to keep runaway models from spinning forever).
    """

    def __init__(self, *, obs=None) -> None:
        self.now: int = 0
        # Observability hooks (repro.obs.Observer); the null object keeps
        # every component-side call site unconditional and the disabled
        # path free of branches.  Channel wrapping happens at construction
        # time, so the scheduling hot paths below never consult this.
        self.obs = obs if obs is not None else NO_OBS
        self._buckets: dict = {}     # time -> list[Event], in execution order
        self._times: list = []       # min-heap of the distinct bucket times
        self._events_executed: int = 0
        self._running = False
        self._free: list = []        # recycled Event objects
        self._ncancelled: int = 0    # cancelled events still in buckets
        self._unsorted: set = set()  # bucket times holding non-default priorities
        self._draining: Optional[int] = None  # bucket owned by the run loop
        #: A complete drain leaves ``now`` at least here (see the module
        #: docstring); components raise it, never lower it.
        self.clock_floor: int = 0
        # Every Component and Link built on this simulator, for close().
        self._built: list = []

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: int, callback: Callable[..., None],
                 *args: Any, priority: int = 0) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` cycles from now.

        ``delay`` must be non-negative.  ``priority`` breaks ties at equal
        timestamps (lower runs first); within equal priority, insertion
        order wins, which keeps the simulation deterministic.
        """
        if type(delay) is not int:
            delay = int(delay)
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: delay={delay}")
        time = self.now + delay
        free = self._free
        if free:
            event = free.pop()
            event.priority = priority
            event.callback = callback
            event.args = args
            event.payload = _GENERIC
        else:
            event = Event(priority, callback, args)
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [event]
            heappush(self._times, time)
        else:
            bucket.append(event)
        if priority:
            self._unsorted.add(time)
        return event

    def schedule_at(self, time: int, callback: Callable[..., None],
                    *args: Any, priority: int = 0) -> Event:
        """Schedule ``callback`` at an absolute cycle count ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self.now}")
        return self.schedule(time - self.now, callback, *args, priority=priority)

    def channel(self, delay: int, sink: Callable[[Any], None]):
        """A :class:`ConstLatencyChannel` delivering ``sink(payload)``
        after the fixed ``delay`` (see class docstring for when to use).
        """
        return self.obs.wrap_channel(self,
                                     ConstLatencyChannel(self, delay, sink))

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event that has not fired yet.

        Removal is lazy (the event is dropped when its bucket drains), but
        the accounting is immediate, and the calendar is compacted outright
        when cancelled events outnumber live ones.  Cancelling it again
        before it is collected does nothing.
        """
        if event.cancelled:
            return
        event.cancelled = True
        self._ncancelled += 1
        if (self._ncancelled >= _COMPACT_MIN_CANCELLED
                and self._ncancelled * 2 > self._queued_events()):
            self._compact()

    def _compact(self) -> None:
        """Strip cancelled events out of every bucket, recycling them.

        Buckets are filtered in place.  The bucket currently being drained
        by the run loop is skipped: the loop is iterating over it, and already
        -executed (recycled) events stay in that list until it completes.
        """
        free = self._free
        draining = self._draining
        removed = 0
        for time, bucket in self._buckets.items():
            if time == draining:
                continue
            live = [event for event in bucket if not event.cancelled]
            if len(live) != len(bucket):
                removed += len(bucket) - len(live)
                for event in bucket:
                    if event.cancelled:
                        event.cancelled = False
                        if event.priority:
                            event.priority = 0
                        free.append(event)
                bucket[:] = live
        self._ncancelled -= removed

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[int] = None,
            max_events: Optional[int] = None) -> int:
        """Run until the queue drains, ``until`` cycles pass, or
        ``max_events`` events execute.  Returns the number of events run.

        ``until`` is an absolute time: events with ``time > until`` stay in
        the queue and ``now`` is advanced to ``until``.  A full drain
        leaves ``now`` at least at :attr:`clock_floor`.
        """
        executed = self._drain_loop(until, max_events)
        if until is not None:
            if self.now < until:
                self.now = until
        elif max_events is None and self.now < self.clock_floor:
            self.now = self.clock_floor
        # Let streaming trace backends spill their buffered chunk between
        # drains: memory stays bounded over arbitrarily many run() calls
        # and a crash loses at most one chunk.  One no-op call on NO_OBS.
        self.obs.flush()
        return executed

    def run_until(self, bound: int, max_events: Optional[int] = None) -> int:
        """Drain every event *strictly before* ``bound``; returns the count.

        This is the quantum primitive for partitioned simulation
        (:mod:`repro.partition`): unlike :meth:`run`, the bound is
        exclusive and ``now`` is **never** force-advanced to it — after
        the call, ``now`` sits at the last executed event's time (or is
        unchanged when nothing ran).  That matters for bit-identity with
        a monolithic run, whose clock also only moves when events
        execute; a partition's clock must not outrun its own events just
        because a quantum boundary passed.  Events exactly at ``bound``
        (e.g. a boundary-message arrival on the quantum edge) stay
        queued for the next quantum.  A clock floor below ``bound`` counts
        as an executed event here (see the module docstring).
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        if bound <= self.now:
            return 0
        executed = self._drain_loop(bound - 1, max_events)
        if max_events is None and self.now < self.clock_floor < bound:
            self.now = self.clock_floor
        self.obs.flush()
        return executed

    def _drain_loop(self, until: Optional[int],
                    max_events: Optional[int]) -> int:
        """The one drain loop: execute events up to the inclusive time
        ``until`` and at most ``max_events`` of them (None: no bound).

        The absent bounds of an unbounded drain cost one int compare per
        executed event and two per bucket.  The clock, recycling, and
        crediting rules are in the module docstring.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        # A bounded drain moves `now` only to buckets where an event
        # executes: it is set on entry like the unbounded run's, and put
        # back when the bucket turns out to hold nothing but cancelled
        # events (no callback can have observed it in between).
        lazy_now = until is not None or max_events is not None
        if until is None:
            until = _UNBOUNDED
        limit = _UNBOUNDED if max_events is None else max_events
        executed = 0
        buckets = self._buckets
        times = self._times
        free_extend = self._free.extend
        unsorted_times = self._unsorted
        generic = _GENERIC
        try:
            while times and executed < limit:
                time = times[0]
                if time > until:
                    break
                before = self.now
                if time < before:
                    raise SimulationError("event queue went backwards in time")
                bucket = buckets[time]
                self.now = time
                self._draining = time
                entered = executed
                if unsorted_times and time in unsorted_times:
                    bucket.sort()
                    unsorted_times.discard(time)
                # Same-cycle batch drain: every event at this timestamp
                # runs with no heap traffic.  Callbacks may append to this
                # very bucket (zero-delay scheduling); the list iterator
                # picks the new events up in order.
                events = iter(bucket)
                try:
                    for event in events:
                        if event.cancelled:
                            self._ncancelled -= 1
                            event.cancelled = False
                            if event.priority:
                                event.priority = 0
                            continue
                        callback = event.callback
                        payload = event.payload
                        if event.priority:
                            event.priority = 0
                        if payload is generic:
                            callback(*event.args)
                        else:
                            callback(payload)
                        executed += 1
                        if executed >= limit:
                            # Recycle the consumed prefix, keep the
                            # undrained tail for the next call.
                            consumed = len(bucket) - length_hint(events)
                            free_extend(bucket[:consumed])
                            del bucket[:consumed]
                            return executed
                        if unsorted_times and time in unsorted_times:
                            consumed = len(bucket) - length_hint(events)
                            tail = bucket[consumed:]
                            tail.sort()
                            bucket[consumed:] = tail
                            unsorted_times.discard(time)
                except BaseException:
                    # A callback raised: recycle and drop the consumed
                    # prefix so a later run() cannot re-execute those
                    # events.
                    consumed = len(bucket) - length_hint(events)
                    free_extend(bucket[:consumed])
                    del bucket[:consumed]
                    raise
                if lazy_now and executed == entered:
                    self.now = before
                # Batch recycle: every entry was consumed (fired or
                # collected) exactly once, and nothing mid-drain could
                # have re-pooled one of them, so the bucket itself is the
                # recycle list.
                free_extend(bucket)
                del buckets[time]
                heappop(times)
                self._draining = None
            return executed
        finally:
            self._running = False
            self._draining = None
            self._events_executed += executed

    def next_event_time(self) -> Optional[int]:
        """Earliest queued timestamp, or None when the queue is empty.

        Conservative: a bucket holding only cancelled events still
        reports its time (the lazy drain collects it), so the returned
        time is a lower bound on the next event that will execute —
        exactly what a lookahead-based coordinator needs.
        """
        times = self._times
        return times[0] if times else None

    def _queued_events(self) -> int:
        """Events sitting in buckets, cancelled or not (consumed events of
        a bucket being drained linger in its list until the batch ends)."""
        total = 0
        for bucket in self._buckets.values():
            total += len(bucket)
        return total

    @property
    def pending(self) -> int:
        """Number of not-yet-cancelled events still queued.

        O(number of distinct timestamps), not O(events) — the hot paths
        pay nothing for this accounting.  Exact between ``run()`` calls;
        while a bucket is mid-drain it can transiently overcount (recycled
        events stay in the bucket list until the batch completes)."""
        return self._queued_events() - self._ncancelled

    @property
    def events_executed(self) -> int:
        """Total events executed over the simulator's lifetime."""
        return self._events_executed

    def close(self) -> None:
        """Hand the model built on this simulator to reference counting.

        A model is one large reference cycle: channels hold bound-method
        sinks, stat groups name their owner, ports name their router.
        Clearing the instance attributes of every component and link
        built here, then the simulator's own, breaks each cycle through
        them, so the model is freed when its last outside reference goes
        instead of at the next full collection.  Nothing built on the
        simulator works afterwards: export metrics first.  A second call
        does nothing.
        """
        for part in self.__dict__.pop("_built", ()):
            part.__dict__.clear()
        self.__dict__.clear()
