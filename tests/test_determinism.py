"""Determinism regression tests.

The simulation is a deterministic function of its configuration and
seeds: same inputs, same event order, same latencies, same statistics —
every run, every machine.  These tests pin that contract against kernel
changes (event pooling, calendar-queue scheduling, compaction) that could
silently reorder same-cycle events.
"""

from repro import build, parse_config
from repro.engine import Simulator
from repro.parallel import latency_matrix_spec, run_sweep
from repro.workloads import run_helloworld
from repro.workloads.noise import fig10_speedups
from schedule_reference import route_channels_through_schedule, \
    scan_matrix, schedule_channel


def _scripted_run(sim: Simulator):
    """A kernel workout mixing ties, priorities, cancels, and zero delays.

    Returns the executed-event trace: (time, tag) in execution order.
    """
    trace = []

    def emit(tag):
        trace.append((sim.now, tag))

    def spawn(tag):
        trace.append((sim.now, tag))
        # Zero-delay events scheduled mid-drain join the current cycle.
        sim.schedule(0, emit, f"{tag}/child")
        sim.schedule(3, emit, f"{tag}/later")

    sim.schedule(5, emit, "a")
    sim.schedule(5, emit, "b")                  # tie: insertion order
    sim.schedule(5, emit, "urgent", priority=-1)  # beats earlier-scheduled ties
    sim.schedule(2, spawn, "s1")
    sim.schedule(2, spawn, "s2")
    doomed = sim.schedule(4, emit, "doomed")
    sim.schedule(9, emit, "tail")
    sim.cancel(doomed)
    # A burst of cancellations to exercise compaction mid-run.
    victims = [sim.schedule(7, emit, f"v{i}") for i in range(100)]
    for victim in victims:
        sim.cancel(victim)
    sim.run()
    return trace


GOLDEN_TRACE = [
    (2, "s1"), (2, "s2"), (2, "s1/child"), (2, "s2/child"),
    (5, "urgent"), (5, "a"), (5, "b"), (5, "s1/later"), (5, "s2/later"),
    (9, "tail"),
]


class TestKernelDeterminism:
    def test_event_order_matches_golden(self):
        # Pins the ordering semantics themselves, not just run-to-run
        # stability: time, then priority, then schedule order.
        assert _scripted_run(Simulator()) == GOLDEN_TRACE

    def test_identical_runs_identical_traces(self):
        assert _scripted_run(Simulator()) == _scripted_run(Simulator())


class TestSystemDeterminism:
    def test_latency_matrix_repeatable(self):
        spec = latency_matrix_spec(parse_config("1x2x2"))
        assert run_sweep(spec).value == run_sweep(spec).value

    def test_stats_report_repeatable(self):
        reports = []
        for _ in range(2):
            proto = build("1x1x2")
            run_helloworld(proto)
            reports.append(proto.stats_report())
        assert reports[0] == reports[1]

    def test_fig10_speedups_repeatable(self):
        assert (fig10_speedups(n_samples=32)
                == fig10_speedups(n_samples=32))


def _mixed_path_run(make_channel=Simulator.channel):
    """Channel sends and generic schedules interleaved on shared cycles.

    Exercises the typed fast path against the generic scheduler: FIFO
    lanes, zero-delay lanes, ``send_after``, priorities, and cancels all
    landing in the same buckets.  Returns the (time, tag) trace.
    """
    sim = Simulator()
    trace = []

    def emit(tag):
        trace.append((sim.now, tag))

    def hop(n):
        trace.append((sim.now, f"hop{n}"))
        if n > 0:
            lanes[n % 3].send(n - 1)
            if n % 4 == 0:
                sim.schedule(0, emit, f"hop{n}/echo")

    lanes = [make_channel(sim, delay, hop) for delay in range(3)]
    zero = make_channel(sim, 0, emit)
    lanes[1].send(12)
    sim.schedule(2, emit, "generic@2")
    sim.schedule(2, emit, "urgent@2", priority=-1)
    lanes[2].send_after(2, 3)
    sim.cancel(lanes[2].send_after(5, 99))
    sim.schedule(1, zero.send, "zero-lane")
    sim.run()
    return trace, sim.events_executed


class TestFastPathDeterminism:
    def test_channel_trace_identical_to_generic_path(self):
        # Routing every channel send through the generic schedule()
        # path must not change the interleaving at all.
        assert _mixed_path_run() == _mixed_path_run(schedule_channel)

    def test_mixed_path_trace_repeatable(self):
        assert _mixed_path_run() == _mixed_path_run()

    def test_prototype_channels_match_generic_schedule(self, monkeypatch):
        from repro.core.prototype import Prototype

        config = parse_config("1x2x2")
        fast = Prototype(config)
        fast_matrix = scan_matrix(fast)
        route_channels_through_schedule(monkeypatch)
        generic = Prototype(config)
        assert fast_matrix == scan_matrix(generic)
        assert fast.sim.events_executed == generic.sim.events_executed
