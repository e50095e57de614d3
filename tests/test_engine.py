"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.engine import (ConstLatencyChannel, Histogram, Link, Simulator,
                          StatGroup, derive_seed, derived_rng)
from repro.errors import SimulationError
from schedule_reference import schedule_channel


class TestSimulator:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(10, order.append, "b")
        sim.schedule(5, order.append, "a")
        sim.schedule(20, order.append, "c")
        sim.run()
        assert order == ["a", "b", "c"]
        assert sim.now == 20

    def test_ties_run_in_insertion_order(self):
        sim = Simulator()
        order = []
        for tag in range(5):
            sim.schedule(7, order.append, tag)
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_priority_breaks_ties_before_insertion_order(self):
        sim = Simulator()
        order = []
        sim.schedule(7, order.append, "late", priority=1)
        sim.schedule(7, order.append, "early", priority=0)
        sim.run()
        assert order == ["early", "late"]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1, lambda: None)

    def test_schedule_at_before_now_rejected(self):
        sim = Simulator()
        sim.schedule(10, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(5, lambda: None)

    def test_run_until_advances_time_but_keeps_future_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(100, fired.append, 1)
        executed = sim.run(until=50)
        assert executed == 0
        assert sim.now == 50
        assert sim.pending == 1
        sim.run()
        assert fired == [1]

    def test_cancel(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(10, fired.append, 1)
        sim.cancel(event)
        sim.run()
        assert fired == []
        assert sim.pending == 0

    def test_double_cancel_is_a_noop(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(2, fired.append, "doomed")
        sim.schedule(2, fired.append, "live")
        sim.cancel(event)
        sim.cancel(event)
        assert sim.pending == 1
        sim.run()
        assert fired == ["live"]
        assert sim.pending == 0
        assert sim.events_executed == 1

    def test_events_can_schedule_more_events(self):
        sim = Simulator()
        seen = []

        def chain(n):
            seen.append(n)
            if n < 3:
                sim.schedule(1, chain, n + 1)

        sim.schedule(0, chain, 0)
        sim.run()
        assert seen == [0, 1, 2, 3]
        assert sim.now == 3

    def test_max_events_bound(self):
        sim = Simulator()
        for _ in range(10):
            sim.schedule(1, lambda: None)
        assert sim.run(max_events=4) == 4
        assert sim.pending == 6


class TestDrainLoop:
    """The edge rules every drain call shares (see the module docstring
    of repro.engine.simulator)."""

    @pytest.mark.parametrize("drain,expected_now", [
        (lambda sim: sim.run(), 9),
        (lambda sim: sim.run(until=100), 100),
        (lambda sim: sim.run_until(100), 5),
    ], ids=["run", "run-until", "run_until"])
    def test_drain_edge_semantics(self, drain, expected_now):
        sim = Simulator()
        fired = []

        def record(tag):
            fired.append((sim.now, tag))
            if tag == "b":
                # Arrives mid-drain behind c and d; its priority sorts
                # it ahead of them.
                sim.schedule(0, record, "urgent", priority=-1)

        for tag in "abcd":
            sim.schedule(5, record, tag)
        sim.cancel(sim.schedule(9, record, "cancelled"))
        # A max_events stop mid-bucket, then the resume under test.
        assert sim.run(max_events=1) == 1
        assert sim.now == 5
        assert drain(sim) == 4
        assert fired == [(5, "a"), (5, "b"), (5, "urgent"), (5, "c"),
                         (5, "d")]
        assert sim.events_executed == 5
        assert sim.pending == 0
        # An unbounded run() enters the all-cancelled bucket at 9; a
        # bounded drain leaves the clock at its last executed event,
        # and run(until=) then advances it to the bound.
        assert sim.now == expected_now

    def test_raising_run_credits_the_events_it_executed(self):
        sim = Simulator()
        fired = []

        def fire(t):
            fired.append(t)
            if t == 3:
                raise ValueError("boom")

        for t in (1, 2, 3, 4):
            sim.schedule(t, fire, t)
        with pytest.raises(ValueError):
            sim.run()
        assert sim.events_executed == 2
        assert sim.run() == 1
        assert sim.events_executed == 3
        assert fired == [1, 2, 3, 4]

    def test_exception_keeps_the_bucket_tail(self):
        sim = Simulator()
        trace = []

        def boom(p):
            trace.append((sim.now, p))
            if p == "bad":
                raise ValueError("kaboom")

        lane = sim.channel(2, boom)
        lane.send_many(["a", "bad", "b", "c"])
        with pytest.raises(ValueError):
            sim.run()
        # The consumed prefix is gone; the tail survives and the
        # simulator stays usable.
        assert sim.run() == 2
        assert trace == [(2, "a"), (2, "bad"), (2, "b"), (2, "c")]
        assert sim.pending == 0
        assert sim.events_executed == 3

    def test_bounded_runs_and_steps(self):
        sim = Simulator()
        trace = []
        lane = sim.channel(3, lambda p: trace.append((sim.now, p)))
        lane.send_many(list(range(8)))
        lane.send_after_many(9, list(range(4)))
        checkpoints = [sim.run(max_events=3), sim.now,
                       sim.run(until=5), sim.now]
        while sim.run(max_events=1):
            checkpoints.append(sim.now)
        assert trace == [(3, p) for p in range(8)] + [(9, p)
                                                       for p in range(4)]
        assert checkpoints == [3, 3, 5, 5, 9, 9, 9, 9]
        assert sim.pending == 0
        assert sim.events_executed == 12

    @pytest.mark.parametrize("drain,expected_now", [
        (lambda sim: sim.run(), 12),
        (lambda sim: sim.run(until=8), 8),
        (lambda sim: sim.run(max_events=5), 6),
        (lambda sim: sim.run_until(13), 12),
        (lambda sim: sim.run_until(12), 6),
    ], ids=["run", "run-until", "run-max-events", "run_until-above",
            "run_until-at"])
    def test_clock_floor(self, drain, expected_now):
        # Work settled without an event at cycle 12 (the floor an event
        # at 6 raises) moves the clock like an event at 12 would have:
        # a full drain reaches it, run_until only when it lies below the
        # bound, bounded runs never.
        sim = Simulator()

        def settle():
            sim.clock_floor = 12

        sim.schedule(6, settle)
        drain(sim)
        assert sim.now == expected_now
        assert sim.events_executed == 1
        assert sim.pending == 0
        assert sim.next_event_time() is None

    def test_compaction_recycles_cancelled_bursts(self):
        sim = Simulator()
        trace = []
        lane = sim.channel(5, trace.append)
        keep = lane.send_many(range(4))
        for victim in lane.send_many(range(100, 300)):
            sim.cancel(victim)
        assert keep  # handles stay valid through compaction
        sim.run()
        assert trace == [0, 1, 2, 3]
        assert sim.pending == 0
        assert sim.events_executed == 4
        assert len(sim._free) == 204


class TestLink:
    def test_latency_only(self):
        sim = Simulator()
        arrivals = []
        link = Link(sim, "l", lambda m: arrivals.append((sim.now, m)),
                    latency=5, cycles_per_unit=0.0)
        link.send("x", units=1)
        sim.run()
        assert arrivals == [(5, "x")]

    def test_serialization_occupies_link(self):
        sim = Simulator()
        arrivals = []
        link = Link(sim, "l", lambda m: arrivals.append((sim.now, m)),
                    latency=2, cycles_per_unit=1.0)
        link.send("a", units=4)   # departs 0, serializes 4, arrives 6
        link.send("b", units=2)   # departs 4, serializes 2, arrives 8
        sim.run()
        assert arrivals == [(6, "a"), (8, "b")]

    def test_delivery_delay_is_not_wire_time(self):
        sim = Simulator()
        arrivals = []
        link = Link(sim, "l", lambda m: arrivals.append((sim.now, m)),
                    latency=1, cycles_per_unit=1.0, delivery_delay=2)
        assert link.send("a", units=2) == 3   # wire arrival
        assert link.busy_until == 2
        sim.run()
        assert arrivals == [(5, "a")]        # handed over 2 cycles later
        assert link.stats.get("units") == 2
        assert link.stats.histogram("queueing").mean == 0

    def test_back_to_back_bandwidth(self):
        sim = Simulator()
        times = []
        link = Link(sim, "l", lambda m: times.append(sim.now),
                    latency=0, cycles_per_unit=2.0)
        for _ in range(3):
            link.send("m", units=1)
        sim.run()
        assert times == [2, 4, 6]


class TestStats:
    def test_counters_autovivify(self):
        group = StatGroup("g")
        group.inc("hits")
        group.inc("hits", 2)
        assert group.get("hits") == 3
        assert group.get("misses") == 0

    def test_histogram_summary(self):
        hist = Histogram()
        for value in [1, 2, 2, 3, 10]:
            hist.add(value)
        assert hist.count == 5
        assert hist.min == 1
        assert hist.max == 10
        assert hist.mean == pytest.approx(3.6)
        assert hist.percentile(50) == 2
        assert hist.percentile(100) == 10

    def test_observe_shows_up_in_report(self):
        group = StatGroup("g")
        group.observe("latency", 10)
        group.observe("latency", 20)
        report = group.as_dict()
        assert report["latency.mean"] == 15
        assert report["latency.count"] == 2


class TestRng:
    def test_derive_seed_is_stable_and_name_sensitive(self):
        assert derive_seed(1, "a") == derive_seed(1, "a")
        assert derive_seed(1, "a") != derive_seed(1, "b")
        assert derive_seed(1, "a") != derive_seed(2, "a")
        assert derive_seed(1, "a", "b") != derive_seed(1, "ab")

    def test_derived_rng_streams_reproducible(self):
        a = derived_rng(42, "workload", "is")
        b = derived_rng(42, "workload", "is")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


class TestConstLatencyChannel:
    def test_delivery_after_fixed_delay(self):
        sim = Simulator()
        lane = sim.channel(3, lambda p: got.append((sim.now, p)))
        got = []
        lane.send("x")
        sim.run()
        assert got == [(3, "x")]

    def test_factory_returns_typed_channel(self):
        sim = Simulator()
        assert isinstance(sim.channel(1, lambda p: None),
                          ConstLatencyChannel)

    def test_fifo_within_cycle(self):
        sim = Simulator()
        got = []
        lane = sim.channel(2, got.append)
        for i in range(5):
            lane.send(i)
        sim.run()
        assert got == [0, 1, 2, 3, 4]

    def test_send_after_variable_delays(self):
        sim = Simulator()
        got = []
        lane = sim.channel(4, lambda p: got.append((sim.now, p)))
        lane.send_after(1, "b")
        lane.send_after(0, "a")
        lane.send_after(7, "c")
        sim.run()
        assert got == [(0, "a"), (1, "b"), (7, "c")]

    def test_zero_delay_send_joins_current_cycle(self):
        sim = Simulator()
        got = []

        def first(payload):
            got.append((sim.now, payload))
            relay.send("child")

        relay = sim.channel(0, lambda p: got.append((sim.now, p)))
        lane = sim.channel(2, first)
        lane.send("parent")
        sim.run()
        assert got == [(2, "parent"), (2, "child")]

    def test_lane_reusable_across_runs(self):
        # Regression: the (time, bucket) lane cache must never hand back
        # a bucket that already drained — a stale hit would lose events.
        sim = Simulator()
        got = []
        lane = sim.channel(2, got.append)
        lane.send("first")
        sim.run()
        lane.send("second")
        lane.send("third")
        sim.run()
        assert got == ["first", "second", "third"]
        assert sim.pending == 0

    def test_cancel_channel_event(self):
        sim = Simulator()
        got = []
        lane = sim.channel(5, got.append)
        keep = lane.send("keep")
        sim.cancel(lane.send("drop"))
        assert keep is not None
        sim.run()
        assert got == ["keep"]

    def test_pending_counts_channel_events(self):
        sim = Simulator()
        lane = sim.channel(3, lambda p: None)
        lane.send(1)
        lane.send(2)
        sim.schedule(1, lambda: None)
        assert sim.pending == 3
        sim.run()
        assert sim.pending == 0

    def test_generic_priority_sorts_before_channel_sends(self):
        # Same-cycle order: priority first, then schedule/send order —
        # channel sends always carry priority 0.
        sim = Simulator()
        got = []
        lane = sim.channel(4, got.append)
        lane.send("chan1")
        sim.schedule(4, got.append, "urgent", priority=-1)
        sim.schedule(4, got.append, "generic")
        lane.send("chan2")
        sim.run()
        assert got == ["urgent", "chan1", "generic", "chan2"]

    def test_mixed_paths_interleave_in_send_order(self):
        # The documented contract: generic schedule() and channel sends
        # landing on the same cycle fire in issue order.
        sim = Simulator()
        got = []
        lane = sim.channel(1, got.append)
        sim.schedule(1, got.append, "g0")
        lane.send("c0")
        sim.schedule(1, got.append, "g1")
        lane.send_after(1, "c1")
        sim.run()
        assert got == ["g0", "c0", "g1", "c1"]

    def test_channel_sends_match_generic_schedule(self):
        def drive(make_channel):
            sim = Simulator()
            trace = []

            def hop(n):
                trace.append((sim.now, n))
                if n:
                    lanes[n % 3].send(n - 1)

            lanes = [make_channel(sim, d, hop) for d in range(3)]
            lanes[1].send(10)
            sim.schedule(2, hop, 100)
            sim.run()
            return trace, sim.events_executed

        assert drive(Simulator.channel) == drive(schedule_channel)

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.channel(-1, lambda p: None)
        lane = sim.channel(1, lambda p: None)
        with pytest.raises(SimulationError):
            lane.send_after(-1, "x")
