"""Kernel microbenchmark: typed fast path and batch lanes.

Pits the current :class:`repro.engine.Simulator` — the generic
``schedule()`` path, the :class:`~repro.engine.ConstLatencyChannel`
typed fast path, and the batched ``send_many`` lanes — against a frozen
inline copy of the seed kernel (allocate-per-event, one heap entry per
event, lazy cancellation without accounting) on self-propagating event
storms: the schedule/dispatch patterns that dominate every simulation in
this repo.  Writes ``BENCH_kernel.json`` at the repo root so CI and
future sessions can track kernel throughput.

Two storms:

* the *channel storm* — single-payload sends, the PR 2 shape
  (``new_kernel_events_per_sec``);
* the *batch storm* — every hop issues a 16-wide ``send_many`` burst,
  the router-drain/flit-train shape (``batch_kernel_events_per_sec``).

A third workload, the *partition storm*
(:mod:`repro.partition.storm`), runs the batch shape across four
worker processes synchronized at the PCIe lookahead window
(``partition_events_per_sec``), asserts bit-identity against the
monolithic reference, and records the barrier overhead share.

Both storms are deterministic (LCG-derived delays), exercise same-cycle
ties, short mixed delays, and cancellation pressure, and are replayed
with the execution traces compared bit-for-bit, as are the serial and
parallel Fig. 7 matrices.

Smoke mode (``REPRO_BENCH_SMOKE=1``, used by the per-push CI gate) runs
only the gated storms plus the determinism checks and writes the
measured throughputs to ``BENCH_kernel_smoke.json``; the regression
verdict itself lives in CI as ``repro diff --gate
benchmarks/kernel_gate.json BENCH_kernel_smoke.json`` against the
committed baseline (30% one-sided tolerance: only slowdowns fail).
Smoke mode never rewrites ``BENCH_kernel.json``.
"""

import heapq
import json
import os
import time
from pathlib import Path

from repro.core.config import parse_config
from repro.engine import Simulator
from repro.parallel import latency_matrix_spec, run_sweep
from repro.partition.storm import (run_monolithic_storm,
                                   run_partitioned_storm)

REPO_ROOT = Path(__file__).resolve().parent.parent

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

#: The schedule-storm number shipped by the calendar-queue PR, kept for
#: context in the report (the committed JSON is the regression baseline).
PR1_EVENTS_PER_SEC = 1_080_528

# ----------------------------------------------------------------------
# Frozen seed kernel (verbatim behaviour of the v0 Simulator fast path).
# ----------------------------------------------------------------------


class SeedEvent:
    __slots__ = ("time", "priority", "seq", "callback", "args", "cancelled")

    def __init__(self, time, priority, seq, callback, args):
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False

    def __lt__(self, other):
        return (self.time, self.priority, self.seq) < (
            other.time, other.priority, other.seq)


class SeedSimulator:
    def __init__(self):
        self.now = 0
        self._queue = []
        self._seq = 0
        self._events_executed = 0

    def schedule(self, delay, callback, *args, priority=0):
        event = SeedEvent(self.now + int(delay), priority, self._seq,
                          callback, args)
        self._seq += 1
        heapq.heappush(self._queue, event)
        return event

    def cancel(self, event):
        event.cancelled = True

    def run(self):
        executed = 0
        queue = self._queue
        while queue:
            event = heapq.heappop(queue)
            if event.cancelled:
                continue
            self.now = event.time
            event.callback(*event.args)
            executed += 1
        self._events_executed += executed
        return executed


# ----------------------------------------------------------------------
# The storm workloads
# ----------------------------------------------------------------------

#: Concurrent event chains — a deep pending set (~1k events in flight),
#: like a 48-tile prototype under load.  Short 0-6 cycle hop delays match
#: the NoC/link patterns that dominate the real simulations.
N_CHAINS = 1024
HOPS_PER_CHAIN = 190
CANCEL_EVERY = 95

#: Batch-storm shape: every hop issues one BATCH_WIDTH-wide send_many
#: burst (one live continuation token + terminal filler), the pattern of
#: router drains, link flit trains, and BPC backlog releases.
BATCH_WIDTH = 16
BATCH_CHAINS = 256
BATCH_HOPS = 60
BATCH_CANCEL_EVERY = 10


def _storm(sim) -> int:
    """Generic-path storm on ``sim``; returns events executed."""

    def noop():
        pass

    def fire(hops, rand):
        if hops <= 0:
            return
        rand = (rand * 1103515245 + 12345) & 0x7FFFFFFF
        if hops % CANCEL_EVERY == 0:
            sim.cancel(sim.schedule(rand % 11, noop))
        sim.schedule(rand % 7, fire, hops - 1, rand)

    for chain in range(N_CHAINS):
        sim.schedule(chain % 5, fire, HOPS_PER_CHAIN,
                     (chain * 2654435761) & 0x7FFFFFFF)
    return sim.run()


class _Chain:
    """Mutable single-payload state riding the typed channels."""

    __slots__ = ("hops", "rand")

    def __init__(self, hops, rand):
        self.hops = hops
        self.rand = rand


def _channel_storm(sim, trace=None) -> int:
    """The same storm shape expressed as ConstLatencyChannel sends.

    With ``trace`` (a list), every hop appends ``(now, rand)`` so two runs
    can be compared bit-for-bit.
    """

    def noop(payload):
        pass

    def fire(chain):
        hops = chain.hops
        if hops <= 0:
            return
        rand = (chain.rand * 1103515245 + 12345) & 0x7FFFFFFF
        if trace is not None:
            trace.append((sim.now, rand))
        if hops % CANCEL_EVERY == 0:
            sim.cancel(cancel_lanes[rand % 11].send(0))
        chain.hops = hops - 1
        chain.rand = rand
        lanes[rand % 7].send(chain)

    lanes = [sim.channel(delay, fire) for delay in range(7)]
    cancel_lanes = [sim.channel(delay, noop) for delay in range(11)]
    starters = [sim.channel(delay, fire) for delay in range(5)]
    for chain in range(N_CHAINS):
        starters[chain % 5].send(
            _Chain(HOPS_PER_CHAIN, (chain * 2654435761) & 0x7FFFFFFF))
    return sim.run()


def _batch_storm(sim, trace=None) -> int:
    """The burst-producer storm: one send_many per hop.

    Tokens are ``(hops, rand)`` tuples; each live hop emits a
    BATCH_WIDTH-wide burst whose last token carries the chain and the
    rest terminate on arrival — the one-live-head, many-terminal-tails
    shape of a router drain.  Every BATCH_CANCEL_EVERY hops a 4-wide
    burst is issued and immediately cancelled to keep compaction
    pressure on the batched buckets.
    """

    def fire(token):
        hops, rand = token
        if hops <= 0:
            return
        rand = (rand * 1103515245 + 12345) & 0x7FFFFFFF
        if trace is not None:
            trace.append((sim.now, rand))
        if hops % BATCH_CANCEL_EVERY == 0:
            for victim in cancel_lanes[rand % 11].send_many((0, 0, 0, 0)):
                sim.cancel(victim)
        burst = [(0, rand)] * (BATCH_WIDTH - 1)
        burst.append((hops - 1, rand))
        lanes[rand % 7].send_many(burst)

    def noop(payload):
        pass

    lanes = [sim.channel(delay, fire) for delay in range(7)]
    cancel_lanes = [sim.channel(delay, noop) for delay in range(11)]
    starters = [sim.channel(delay, fire) for delay in range(5)]
    for chain in range(BATCH_CHAINS):
        starters[chain % 5].send_many(
            [(BATCH_HOPS, (chain * 2654435761) & 0x7FFFFFFF)])
    return sim.run()


def _events_per_second(sim_factory, storm, rounds: int = 4) -> float:
    best = 0.0
    for _ in range(rounds):
        sim = sim_factory()
        start = time.perf_counter()
        executed = storm(sim)
        elapsed = time.perf_counter() - start
        best = max(best, executed / elapsed)
    return best


def _replays_identical(storm) -> bool:
    """Replay ``storm`` twice and compare the execution traces
    bit-for-bit."""
    replays = []
    for _ in range(2):
        trace = []
        replays.append((storm(Simulator(), trace=trace), trace))
    return replays[0] == replays[1]


#: Partition-storm scale: 4 shards at the batch-storm shape plus the
#: cross-shard token ring — the Fig. 7 "one big config" scenario for the
#: partitioned engine.
PARTITION_SHARDS = 4


def _storm_digests_match(reference, partitioned) -> bool:
    """Bit-identity between a monolithic and a partitioned storm run."""
    return (partitioned["digests"] == reference["digests"]
            and partitioned["events"] == reference["events"]
            and partitioned["now"] == reference["now"])


def _fig7_matrix(jobs):
    spec = latency_matrix_spec(parse_config("4x1x12"))
    start = time.perf_counter()
    matrix = run_sweep(spec, jobs=jobs).value["rows"]
    return time.perf_counter() - start, matrix


def test_kernel_throughput(benchmark, report):
    if SMOKE:
        # Per-push CI smoke: the two gated storms plus the bit-identity
        # checks.  Writes the measurements to BENCH_kernel_smoke.json;
        # the regression verdict is CI's `repro diff --gate
        # benchmarks/kernel_gate.json` step, not an assert here.  Never
        # rewrites BENCH_kernel.json.
        baseline = json.loads((REPO_ROOT / "BENCH_kernel.json").read_text())
        eps = benchmark.pedantic(
            _events_per_second, args=(Simulator, _channel_storm),
            kwargs={"rounds": 2}, iterations=1, rounds=1)
        assert _replays_identical(_channel_storm), \
            "channel storm trace differs between replays"
        assert _replays_identical(_batch_storm), \
            "batch storm trace differs between replays"
        # One mono-vs-partitioned identity check and the partitioned
        # throughput for the gate.
        reference = run_monolithic_storm(shards=PARTITION_SHARDS)
        partitioned = run_partitioned_storm(shards=PARTITION_SHARDS)
        assert _storm_digests_match(reference, partitioned), \
            "partitioned storm diverges from monolithic in smoke run"
        smoke = {"new_kernel_events_per_sec": round(eps),
                 "partition_events_per_sec":
                     round(partitioned["events_per_sec"])}
        (REPO_ROOT / "BENCH_kernel_smoke.json").write_text(
            json.dumps(smoke, indent=2) + "\n")
        report("kernel_throughput", "\n".join([
            f"smoke: fast path {eps:,.0f} events/s, partitioned storm "
            f"{partitioned['events_per_sec']:,.0f} events/s "
            f"(committed baseline "
            f"{baseline['new_kernel_events_per_sec']:,}; gated by "
            f"`repro diff --gate benchmarks/kernel_gate.json "
            f"BENCH_kernel_smoke.json`)",
        ]))
        return

    # Interleave the kernels round by round so load spikes hit all of
    # them evenly and best-of stays a fair comparison.
    seed_eps = generic_eps = channel_eps = batch_eps = 0.0
    for _ in range(4):
        seed_eps = max(seed_eps,
                       _events_per_second(SeedSimulator, _storm, rounds=1))
        generic_eps = max(generic_eps,
                          _events_per_second(Simulator, _storm, rounds=1))
        channel_eps = max(channel_eps, _events_per_second(
            Simulator, _channel_storm, rounds=1))
        batch_eps = max(batch_eps, _events_per_second(
            Simulator, _batch_storm, rounds=1))
    benchmark.pedantic(_events_per_second,
                       args=(Simulator, _channel_storm),
                       kwargs={"rounds": 1}, iterations=1, rounds=1)
    speedup = generic_eps / seed_eps
    fast_gain = channel_eps / generic_eps
    batch_gain = batch_eps / channel_eps

    assert _replays_identical(_channel_storm), \
        "channel storm trace differs between replays"
    assert _replays_identical(_batch_storm), \
        "batch storm trace differs between replays"

    cpus = os.cpu_count() or 1
    fig7_fast, matrix_fast = _fig7_matrix(jobs=1)
    if cpus >= 2:
        fig7_parallel, matrix_parallel = _fig7_matrix(jobs=0)
        assert matrix_parallel == matrix_fast, \
            "fig7 matrix differs between serial and parallel runs"
    else:
        fig7_parallel = fig7_fast

    # Partitioned storm: bit-identity with the monolithic run, then
    # throughput best-of-2 for both sides of the comparison.
    mono_eps = partition_eps = 0.0
    partitioned = None
    for _ in range(2):
        mono = run_monolithic_storm(shards=PARTITION_SHARDS)
        mono_eps = max(mono_eps, mono["events_per_sec"])
        candidate = run_partitioned_storm(shards=PARTITION_SHARDS)
        assert _storm_digests_match(mono, candidate), \
            "partitioned storm diverges from monolithic"
        if candidate["events_per_sec"] >= partition_eps:
            partition_eps = candidate["events_per_sec"]
            partitioned = candidate
    part_metrics = partitioned["partition_metrics"]
    barrier_wait = part_metrics["obs.partition.barrier_wait_seconds"]
    compute = part_metrics["obs.partition.compute_seconds"]
    barrier_share = (barrier_wait / (barrier_wait + compute)
                     if barrier_wait + compute else 0.0)

    results = {
        "storm_events": N_CHAINS * (HOPS_PER_CHAIN + 1),
        "batch_storm_events": None,  # filled below from a counted run
        "seed_kernel_events_per_sec": round(seed_eps),
        "generic_kernel_events_per_sec": round(generic_eps),
        "new_kernel_events_per_sec": round(channel_eps),
        "batch_kernel_events_per_sec": round(batch_eps),
        "kernel_speedup": round(channel_eps / seed_eps, 2),
        "fast_path_vs_generic": round(fast_gain, 2),
        "batch_vs_single_send": round(batch_gain, 2),
        "fig7_serial_seconds": round(fig7_fast, 3),
        "fig7_parallel_seconds": round(fig7_parallel, 3),
        "fig7_parallel_jobs": cpus,
        "partition_shards": PARTITION_SHARDS,
        "partition_storm_events": partitioned["events"],
        "partition_events_per_sec": round(partition_eps),
        "partition_monolithic_events_per_sec": round(mono_eps),
        "partition_vs_monolithic": round(partition_eps / mono_eps, 2),
        "partition_barrier_share": round(barrier_share, 3),
        "partition_quanta": part_metrics["obs.partition.quanta"],
        "partition_boundary_messages":
            part_metrics["obs.partition.boundary_messages"],
        "cpu_count": cpus,
    }
    results["batch_storm_events"] = _batch_storm(Simulator())
    (REPO_ROOT / "BENCH_kernel.json").write_text(
        json.dumps(results, indent=2) + "\n")

    report("kernel_throughput", "\n".join([
        f"seed kernel:  {seed_eps:,.0f} events/s",
        f"generic path: {generic_eps:,.0f} events/s  ({speedup:.2f}x seed)",
        f"typed fast path: {channel_eps:,.0f} events/s  "
        f"({fast_gain:.2f}x generic, "
        f"{channel_eps / PR1_EVENTS_PER_SEC:.2f}x the PR 1 number)",
        f"batch lanes: {batch_eps:,.0f} events/s  "
        f"({batch_gain:.2f}x single sends)",
        f"fig7 matrix: {fig7_fast:.2f}s serial, "
        f"{fig7_parallel:.2f}s with jobs={cpus}",
        f"partitioned storm ({PARTITION_SHARDS} shards): "
        f"{partition_eps:,.0f} events/s "
        f"({partition_eps / mono_eps:.2f}x monolithic, "
        f"{barrier_share:.1%} barrier wait, "
        f"{part_metrics['obs.partition.quanta']} quanta, "
        f"{part_metrics['obs.partition.boundary_messages']} boundary "
        f"messages)",
    ]))

    # Tentpole acceptance: the calendar-queue kernel is >= 3x the seed
    # kernel on the storm, the typed fast path beats the generic path,
    # and batch lanes are >= 1.3x single sends.
    assert speedup >= 3.0, f"kernel speedup {speedup:.2f}x < 3x"
    assert fast_gain >= 1.05, \
        f"typed fast path only {fast_gain:.2f}x the generic path"
    assert batch_gain >= 1.3, \
        f"batch lanes only {batch_gain:.2f}x single-payload sends"
    # Parallel acceptance only holds where there are cores to use.
    if cpus >= 4:
        assert fig7_fast / fig7_parallel >= 2.0, (
            f"fig7 parallel gain {fig7_fast / fig7_parallel:.2f}x < 2x "
            f"on a {cpus}-core host")
        # Partitioned acceptance: sharding the storm across processes
        # beats the same storm on one simulator once each shard has a
        # core of its own.
        assert partition_eps >= 1.5 * mono_eps, (
            f"partitioned storm {partition_eps:,.0f} events/s < 1.5x "
            f"the monolithic storm ({mono_eps:,.0f}) on a "
            f"{cpus}-core host")
