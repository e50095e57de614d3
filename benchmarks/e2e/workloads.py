"""Child side of the end-to-end benchmark: one workload per process.

``run.py`` starts this file once per workload (and a few more times with
``--setup-only`` to sample set-up time) as::

    python benchmarks/e2e/workloads.py WORKLOAD --seed N --seconds S \\
        --trace 0|1 --spawned-at MONOTONIC [--quick] [--setup-only]

and reads one JSON object from the last line of its standard output:
``{"metrics": {name: {"value", "unit"}}, "attempted", "failed"}``.

Every layer is timed from outside, through calls into public functions
of ``repro``.  Each workload first runs untraced; with ``--trace 1`` it
then re-runs its in-process simulation under :class:`trace.SpanTracer`
and reports the per-layer split of one unit of that simulation:

* ``fig7-matrix``: the full Fig. 7 matrix through ``run_sweep(jobs=1)``;
  the probe-heavy path (noc, cache, interconnect, engine).
* ``numa-sweep``: a Fig. 8 + Fig. 9 sweep pair at ``jobs=2``; the
  construction-heavy path plus a process-pool fan-out per sweep.
* ``partition-2``: seeded probe scans, each on a fresh 2-partition
  prototype driven probe by probe; the lockstep-quantum path.  Its
  simulation runs in worker processes, so the layer split comes from a
  traced monolithic replay of the same probes (which is also the
  correctness check).
* ``serve-mixed``: open-loop warm queries beside cold ``fig9`` fleets on
  a ``repro serve`` subprocess; the serve, store and farm path.  The
  layer split comes from a traced serial replay of the cold fleets.

Fig. 7 and Fig. 8/9 inputs are fixed by the paper; the seed only draws
the partition-2 senders and the serve-mixed arrival schedule, point
order and fleet seeds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
#: Scratch space for stores, spools and server logs (removed per run).
WORK = os.path.join(HERE, ".work")
#: Chrome traces written by ``--trace 1`` runs.
OUT = os.path.join(HERE, "out")

WORKLOADS = ("fig7-matrix", "numa-sweep", "partition-2", "serve-mixed")

PAPER_CONFIG = "4x1x12"
#: ``--quick`` shrinks every workload to this config and two units.
QUICK_CONFIG = "2x1x2"
QUICK_UNITS = 2
QUICK_SERVE_SECONDS = 3.0

#: Fig. 8 thread counts and Fig. 9 thread count per config (2x1x2 has
#: only 4 cores).
FIG8_THREADS = {PAPER_CONFIG: (3, 6, 12, 24, 48), QUICK_CONFIG: (2, 4)}
FIG9_THREADS = {PAPER_CONFIG: 12, QUICK_CONFIG: 2}

PARTITION_SENDERS = 6
#: Warm point queries per second and seconds between cold submits.  20
#: rps is about a sixth of the service's closed-loop capacity over these
#: points (~120 queries/s from two connections on a 2-vCPU VM).  At 40
#: rps, queueing behind the cold fleets amplified host noise: the median
#: query latency spread 30% across seeds, against 21% at 20 rps.
SERVE_RPS = 20.0
SERVE_SUBMIT_EVERY = 2.0
QUICK_SUBMIT_EVERY = 1.0

#: Longest a cold fleet may take to land after the window closes.
JOB_TIMEOUT_S = 120.0


def canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def digest(value) -> str:
    return hashlib.sha256(canonical(value).encode()).hexdigest()


def percentile(values, p: int) -> float:
    """Linear-interpolated percentile ``p`` (1-99) of ``values``."""
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def load_trace_module():
    """``trace.py`` beside this file, loaded by path: the name would
    otherwise resolve to the standard library's ``trace`` module."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "e2e_trace", os.path.join(HERE, "trace.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Bench:
    """One workload run in this process: its timing loop, checks and
    metrics."""

    def __init__(self, args) -> None:
        self.args = args
        self.label = QUICK_CONFIG if args.quick else PAPER_CONFIG
        self.min_units = QUICK_UNITS if args.quick else 3
        self.metrics: dict = {}
        self.attempted = 0
        self.failed = 0
        with open(os.path.join(HERE, "golden.json")) as handle:
            golden = json.load(handle)
        self.golden = golden["configs"][self.label]
        self.bands = golden["bands"]
        self.workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")

    # -- recording -----------------------------------------------------
    def metric(self, name: str, value, unit: str) -> None:
        self.metrics[name] = {"value": value, "unit": unit}

    def latencies(self, prefix: str, seconds, tails=(90,)) -> None:
        """``<prefix>_p50`` and tail percentiles, in ms, of per-op
        times given in seconds."""
        values = [s * 1000.0 for s in seconds]
        self.metric(f"{prefix}_p50", statistics.median(values), "ms")
        for tail in tails:
            self.metric(f"{prefix}_p{tail}", percentile(values, tail), "ms")
        self.metric(f"{prefix}.n", len(values), "count")

    def check(self, ok: bool, what: str) -> bool:
        """Count one checked operation; report a failed one."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"e2e check failed: {what}", file=sys.stderr)
        return ok

    def ready(self, excluded: float = 0.0) -> None:
        """Set-up ends: child start to the first unit being ready."""
        self.metric("setup_s",
                    time.monotonic() - self.args.spawned_at - excluded, "s")

    # -- timing --------------------------------------------------------
    def loop(self, unit, seconds: float, warm: bool = True):
        """Time ``unit()`` repeatedly for ``seconds`` (and at least
        ``min_units`` times) after one untimed warm-up call.

        In ``--quick`` mode exactly ``min_units`` timed calls run.
        Returns the per-call wall times.
        """
        if warm:
            unit()
        times = []
        deadline = time.perf_counter() + seconds
        while len(times) < self.min_units or (
                not self.args.quick and time.perf_counter() < deadline):
            start = time.perf_counter()
            unit()
            times.append(time.perf_counter() - start)
        return times

    # -- tracing ---------------------------------------------------------
    def traced(self, unit, untraced_times=None, seconds: float = 0.0,
               per: int = 1) -> None:
        """Per-layer split of ``unit`` under the span tracer.

        With ``seconds`` the unit runs repeatedly (one warm-up, then for
        ``seconds``); without, it runs once (a replay).  Every metric is
        a mean per unit of work, where one call does ``per`` units.
        ``untraced_times`` are untraced per-call times of the same
        ``unit`` (for the tracing overhead and the event rate); without
        them one untraced call is timed right before the traced one.
        """
        if untraced_times is None:
            start = time.perf_counter()
            unit()
            untraced_times = [time.perf_counter() - start]
        tracer = load_trace_module().SpanTracer()
        tracer.install()
        try:
            if seconds:
                tracer.unit(unit)                   # warm-up
            minimum = self.min_units if seconds else 1
            totals: dict = {}
            times = []
            deadline = time.perf_counter() + seconds
            while len(times) < minimum or (
                    not self.args.quick and time.perf_counter() < deadline):
                _result, elapsed, deltas = tracer.unit(
                    unit, chrome=not times)
                times.append(elapsed)
                self.check(deltas["sink_spans"] == deltas["events"],
                           f"{deltas['sink_spans']} sink spans vs "
                           f"{deltas['events']} executed events")
                layer_sum = sum(value for name, value in deltas.items()
                                if name.endswith(".self_s"))
                self.check(abs(layer_sum - elapsed) <= 1e-6 * elapsed
                           + 1e-9, "layer self times do not sum to the "
                           "traced unit time")
                for name, value in deltas.items():
                    totals[name] = totals.get(name, 0) + value
        finally:
            tracer.uninstall()
        count = len(times) * per
        for name, value in sorted(totals.items()):
            if name.endswith(".self_s"):
                self.metric(name, value / count, "s")
            elif name.endswith(".calls"):
                self.metric(name, value / count, "count")
        self.metric("engine.events", totals["events"] / count, "count")
        self.metric("engine.sink_spans", totals["sink_spans"] / count,
                    "count")
        untraced = statistics.median(untraced_times)
        self.metric("engine.events_per_s",
                    totals["events"] / len(times) / untraced, "1/s")
        self.metric("trace.overhead", statistics.median(times) / untraced,
                    "ratio")
        self.metric("trace.units", count, "count")
        path = tracer.write_chrome(
            os.path.join(OUT, f"{self.args.workload}.chrome.json"),
            self.args.workload)
        if path:
            print(f"chrome trace of one unit: {path}", file=sys.stderr)

    # -- paper bands -----------------------------------------------------
    def accuracy(self, rows, per_node: int) -> None:
        from repro.analysis import block_summary

        summary = block_summary(rows, block=per_node)
        for name, mean in (("intra_cycles", summary["intra_node_mean"]),
                           ("inter_cycles", summary["inter_node_mean"])):
            low, high = self.bands[name]
            self.check(low <= mean <= high,
                       f"sim.{name} {mean:.1f} outside the paper band "
                       f"[{low}, {high}]")
            self.metric(f"sim.{name}", mean, "cycles")


def peak_rss_mb() -> float:
    """Max RSS of this process and of every child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def first_build(label: str):
    """Imports, config and one built prototype with one probe run."""
    from repro import parse_config
    from repro.core.prototype import Prototype

    config = parse_config(label)
    Prototype(config).measure_pair_latency(0, 1)
    return config


# ----------------------------------------------------------------------
# fig7-matrix
# ----------------------------------------------------------------------

def fig7_matrix(bench: Bench) -> None:
    from repro import parallel

    config = first_build(bench.label)
    bench.ready()
    if bench.args.setup_only:
        return
    spec = parallel.latency_matrix_spec(config)
    last = {}

    def matrix():
        rows = parallel.run_sweep(spec, jobs=1).value["rows"]
        bench.check(digest(rows) == bench.golden["fig7"],
                    "Fig. 7 matrix digest differs from golden.json")
        last["rows"] = rows

    # A traced run splits the window: half untraced, half traced.
    seconds = bench.args.seconds / (2 if bench.args.trace else 1)
    times = bench.loop(matrix, seconds)
    bench.latencies("op_ms", times)
    bench.accuracy(last["rows"], config.tiles_per_node)
    if bench.args.trace:
        bench.traced(matrix, times, seconds)


# ----------------------------------------------------------------------
# numa-sweep
# ----------------------------------------------------------------------

def numa_sweep(bench: Bench) -> None:
    from repro import parallel

    config = first_build(bench.label)
    bench.ready()
    if bench.args.setup_only:
        return
    spec8 = parallel.fig8_spec(config,
                               thread_counts=FIG8_THREADS[bench.label])
    spec9 = parallel.fig9_spec(config, n_threads=FIG9_THREADS[bench.label])
    last = {}

    def pair(jobs: int):
        value8 = parallel.run_sweep(spec8, jobs=jobs).value
        value9 = parallel.run_sweep(spec9, jobs=jobs).value
        bench.check(digest(value8) == bench.golden["fig8"],
                    "Fig. 8 series digest differs from golden.json")
        bench.check(digest(value9) == bench.golden["fig9"],
                    "Fig. 9 series digest differs from golden.json")
        last["fig8"] = value8

    # A traced run splits the window: jobs=2, untraced jobs=1, traced.
    seconds = bench.args.seconds / (3 if bench.args.trace else 1)
    times = bench.loop(lambda: pair(2), seconds)
    bench.latencies("op_ms", times)
    series = last["fig8"]["series"]
    bench.metric("sim.numa_speedup_48t",
                 series["numa_off"][-1] / series["numa_on"][-1], "x")
    if bench.args.trace:
        serial = bench.loop(lambda: pair(1), seconds)
        bench.metric("parallel.pool_s", statistics.median(times)
                     - statistics.median(serial), "s")
        bench.traced(lambda: pair(1), serial, seconds)


# ----------------------------------------------------------------------
# partition-2
# ----------------------------------------------------------------------

def partition_2(bench: Bench) -> None:
    from repro import parse_config
    from repro.core.prototype import Prototype

    config = parse_config(bench.label)
    with Prototype(config, partitions=2) as proto:
        proto.measure_pair_latency(0, 1)
        bench.ready()
    if bench.args.setup_only:
        return
    size = config.total_tiles
    rng = random.Random(f"partition-2:{bench.args.seed}")
    # Every scan, in order: [(sender, receiver, probe index, cycles)].
    scans = []
    probe_times = []
    counters: dict = {}

    def scan(timed: bool) -> None:
        """Seeded senders x every receiver on a fresh 2-partition
        prototype.  Probes on one prototype grow costlier as its caches
        fill, so a fresh one per scan keeps every scan the same work."""
        senders = rng.sample(range(size), min(PARTITION_SENDERS, size // 2))
        probes = []
        first = sum(map(len, scans))
        with Prototype(config, partitions=2) as proto:
            before = proto.partition_metrics()
            for sender in senders:
                for receiver in range(size):
                    if receiver == sender:
                        continue
                    index = first + len(probes)
                    start = time.perf_counter()
                    cycles = proto.measure_pair_latency(sender, receiver,
                                                        index)
                    if timed:
                        probe_times.append(time.perf_counter() - start)
                    probes.append((sender, receiver, index, cycles))
            after = proto.partition_metrics()
        scans.append(probes)
        if timed:
            for key, value in after.items():
                counters[key] = counters.get(key, 0) + value - before[key]

    scan(timed=False)
    bench.loop(lambda: scan(timed=True),
               bench.args.seconds / (2 if bench.args.trace else 1),
               warm=False)
    bench.latencies("op_ms", probe_times, tails=(90, 99))
    for name, key, unit in (
            ("partition.quanta", "quanta", "count"),
            ("partition.boundary_msgs", "boundary_messages", "count"),
            ("partition.events", "events", "count"),
            ("partition.compute_s", "compute_seconds", "s"),
            ("partition.barrier_wait_s", "barrier_wait_seconds", "s")):
        bench.metric(name, counters[f"obs.partition.{key}"]
                     / len(probe_times), unit)

    def replay():
        for probes in scans:
            mono = Prototype(config)
            for sender, receiver, index, cycles in probes:
                bench.check(
                    mono.measure_pair_latency(sender, receiver, index)
                    == cycles, f"probe {index} ({sender}->{receiver}) "
                    f"differs from the monolithic replay")

    total = sum(map(len, scans))
    start = time.perf_counter()
    replay()
    bench.metric("partition.mono_replay_ms",
                 (time.perf_counter() - start) / total * 1000.0, "ms")
    if bench.args.trace:
        bench.traced(replay, per=total)


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------

def _histogram_delta(before, after) -> list:
    """Samples added to an exported histogram between two snapshots."""
    old = (before or {}).get("counts", {})
    samples = []
    for value, count in (after or {}).get("counts", {}).items():
        samples.extend([int(value)] * (count - old.get(value, 0)))
    return samples


class ServeProcess:
    """``python -m repro serve`` as a subprocess on a free port."""

    def __init__(self, workdir: str, store_root: str) -> None:
        runs = os.path.join(workdir, "runs")
        os.makedirs(runs, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                     if p])
        self.log_path = os.path.join(workdir, "serve.log")
        self._log = open(self.log_path, "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--farm", "1x1", "--store", store_root, "--runs", runs],
            stdout=subprocess.PIPE, stderr=self._log, text=True, cwd=ROOT,
            env=env)
        banner = self.proc.stdout.readline()
        match = re.search(r"listening on (http://\S+)", banner)
        if match is None:
            self.stop()
            raise RuntimeError(f"repro serve did not start: {banner!r}; "
                               f"see {self.log_path}")
        self.url = match.group(1)

    def stop(self) -> None:
        """SIGINT lets the service finish its in-flight fleet and exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


def _schedule(seed: int, window: float, points: int, submit_every: float):
    """Seeded open-loop schedule: ``[(due_s, kind, arg)]`` by due time.

    Poisson warm queries at :data:`SERVE_RPS` cycle through seeded
    permutations of the points (so every point gets the same share);
    a cold submit with a fresh seed-drawn ``root_seed`` every
    ``submit_every`` seconds.
    """
    rng = random.Random(f"serve-mixed:{seed}")
    events = []
    due, order = 0.0, []
    while True:
        due += rng.expovariate(SERVE_RPS)
        if due >= window:
            break
        if not order:
            order = list(range(points))
            rng.shuffle(order)
        events.append((due, "query", order.pop()))
    submits = int(window / submit_every)
    root_seeds = rng.sample(range(1, 2 ** 31), submits)
    for index, root_seed in enumerate(root_seeds):
        events.append(((index + 0.5) * submit_every, "submit", root_seed))
    events.sort(key=lambda event: event[0])
    return events


def _drive(url: str, events, queries, keys, threads: int = 2):
    """Run the schedule from ``threads`` keep-alive connections.

    Returns ``(origin_wall, [(sent_s, done_s, outcome, error)])``, times
    relative to the schedule origin.  A query's outcome is ``(hit on the
    expected key, value)`` with the value kept only for the first reply
    per point; a submit's outcome is its job id.
    """
    from repro.errors import ReproError
    from repro.serve import ServeClient

    results = [None] * len(events)
    cursor = [0]
    first_seen = set()
    lock = threading.Lock()
    origin = time.perf_counter() + 0.05
    origin_wall = time.time() + (origin - time.perf_counter())

    def worker():
        with ServeClient(url) as client:
            while True:
                with lock:
                    index = cursor[0]
                    cursor[0] += 1
                if index >= len(events):
                    return
                due, kind, arg = events[index]
                wait = origin + due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                sent = time.perf_counter() - origin
                outcome, error = None, None
                try:
                    if kind == "query":
                        reply = client.query_point(queries[arg])
                    else:
                        outcome = client.submit("fig9", **arg).job_id
                except ReproError as exc:
                    error = str(exc)
                done = time.perf_counter() - origin
                if kind == "query" and error is None:
                    with lock:
                        first = arg not in first_seen
                        first_seen.add(arg)
                    outcome = (reply.found and reply.key == keys[arg],
                               reply.value if first else None)
                results[index] = (sent, done, outcome, error)

    pool = [threading.Thread(target=worker, name=f"e2e-load-{i}")
            for i in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    return origin_wall, results


def serve_mixed(bench: Bench) -> None:
    from repro import parallel, parse_config
    from repro.parallel.sweep import sweep_tasks
    from repro.serve import PointQuery, ServeClient
    from repro.store import ResultStore, entry_key

    config = parse_config(bench.label)
    store_root = os.path.join(bench.workdir, "store")
    seed_s = 0.0
    specs = []
    if not bench.args.setup_only:
        # The 21 obs={} points a suite submission addresses (fig7
        # shards, fig8, fig9 at root_seed 0), computed in this process.
        start = time.monotonic()
        store = ResultStore(store_root)
        specs = [parallel.latency_matrix_spec(config, obs_spec={}),
                 parallel.fig8_spec(config,
                                    thread_counts=FIG8_THREADS[bench.label],
                                    obs_spec={}),
                 parallel.fig9_spec(config,
                                    n_threads=FIG9_THREADS[bench.label],
                                    obs_spec={})]
        for spec in specs:
            parallel.run_sweep(spec, jobs=1, store=store)
        seed_s = time.monotonic() - start
    server = ServeProcess(bench.workdir, store_root)
    try:
        with ServeClient(server.url) as client:
            client.ping()
            bench.ready(excluded=seed_s)
            if bench.args.setup_only:
                return
            bench.metric("serve.seed_s", seed_s, "s")
            payloads = [task[-1] for spec in specs
                        for task in sweep_tasks(spec)[1]]
            queries = [PointQuery(**payload) for payload in payloads]
            keys = [entry_key(payload) for payload in payloads]
            reference = ResultStore(store_root)
            stored = [canonical(reference.load(key)[1]) for key in keys]
            window = (QUICK_SERVE_SECONDS if bench.args.quick
                      else bench.args.seconds)
            every = QUICK_SUBMIT_EVERY if bench.args.quick \
                else SERVE_SUBMIT_EVERY
            events = _schedule(bench.args.seed, window, len(queries), every)
            submit_fields = {"config": bench.label,
                             "threads": FIG9_THREADS[bench.label]}
            events = [(due, kind, dict(submit_fields, root_seed=arg)
                       if kind == "submit" else arg)
                      for due, kind, arg in events]
            stats_before = client.stats()
            origin_wall, results = _drive(server.url, events, queries,
                                         keys)
            jobs = _await_jobs(client)
            stats_after = client.stats()
            retried = sum(
                (client.job(job["job_id"]).farm or {}).get(
                    "counters", {}).get("obs.farm.retried", 0)
                for job in jobs.values())
    finally:
        server.stop()
    _score_serve(bench, config, events, results, origin_wall, jobs, keys,
                 stored, stats_before, stats_after)
    bench.metric("farm.retried", retried, "count")


def _await_jobs(client) -> dict:
    """Poll (after the window) until no submitted fleet is in flight."""
    deadline = time.monotonic() + JOB_TIMEOUT_S
    while True:
        jobs = {job["job_id"]: job for job in client.jobs().jobs}
        if all(job["state"] not in ("queued", "running")
               for job in jobs.values()) or time.monotonic() > deadline:
            return jobs
        time.sleep(0.1)


def _score_serve(bench, config, events, results, origin_wall, jobs, keys,
                 stored, stats_before, stats_after) -> None:
    from repro import parallel

    query_times, late, checked = [], [], set()
    cold, queue_s, run_s, fleets = [], [], [], []
    for (due, kind, arg), (sent, done, outcome, error) in zip(events,
                                                               results):
        late.append(sent - due)
        if kind == "query":
            ok = error is None and outcome[0]
            if ok and outcome[1] is not None:
                checked.add(arg)
                ok = canonical(outcome[1]) == stored[arg]
            bench.check(ok, f"warm query for point {arg}: "
                        f"{error or 'wrong key, miss or value'}")
            query_times.append(done - due)
            continue
        job = jobs.get(outcome) if error is None else None
        ok = job is not None and job["state"] == "done"
        if ok:
            spec = parallel.fig9_spec(config, n_threads=arg["threads"],
                                      root_seed=arg["root_seed"],
                                      obs_spec={})
            fleets.append((spec, job))
            cold.append(job["finished_at_unix"] - (origin_wall + due))
            queue_s.append(job["started_at_unix"] - job["submitted_at_unix"])
            run_s.append(job["finished_at_unix"] - job["started_at_unix"])
        bench.check(ok, f"cold fig9 submit root_seed={arg['root_seed']}: "
                    f"{error or (job or {}).get('error') or 'not done'}")
    bench.check(len(checked) == len(keys),
                f"only {len(checked)} of {len(keys)} points were queried")
    bench.latencies("op_ms", query_times)
    bench.metric("loadgen.query_ms_p99",
                 percentile(query_times, 99) * 1000.0, "ms")
    bench.metric("loadgen.late_ms_p99", percentile(late, 99) * 1000.0, "ms")
    if cold:
        bench.metric("cold_s_p50", statistics.median(cold), "s")
        bench.metric("farm.queue_s_p50", statistics.median(queue_s), "s")
        bench.metric("farm.run_s_p50", statistics.median(run_s), "s")
    server_us = _histogram_delta(stats_before.get("obs.serve.latency_us"),
                                 stats_after.get("obs.serve.latency_us"))
    if server_us:
        bench.metric("serve.server_ms_p50",
                     statistics.median(server_us) / 1000.0, "ms")
        bench.metric("serve.server_ms_p90",
                     percentile(server_us, 90) / 1000.0, "ms")
    for name in ("hit", "miss"):
        key = f"obs.store.{name}"
        bench.metric(f"store.{name}",
                     stats_after.get(key, 0) - stats_before.get(key, 0),
                     "count")

    def replay():
        for spec, job in fleets:
            value = parallel.run_sweep(spec, jobs=1).value
            bench.check(canonical(value) == canonical(job["value"]),
                        f"fleet {job['job_id']} differs from a serial "
                        f"run_sweep")

    replay()
    if bench.args.trace and fleets:
        bench.traced(replay, per=len(fleets))


RUNNERS = {"fig7-matrix": fig7_matrix, "numa-sweep": numa_sweep,
           "partition-2": partition_2, "serve-mixed": serve_mixed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, default=None)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if args.spawned_at is None:
        args.spawned_at = time.monotonic()
    bench = Bench(args)
    os.makedirs(bench.workdir, exist_ok=True)
    try:
        RUNNERS[args.workload](bench)
    finally:
        shutil.rmtree(bench.workdir, ignore_errors=True)
    if not args.setup_only:
        bench.metric("peak_rss_mb", peak_rss_mb(), "MB")
        bench.metric("error_rate", bench.failed / max(bench.attempted, 1),
                     "ratio")
    print(json.dumps({"metrics": bench.metrics,
                      "attempted": bench.attempted,
                      "failed": bench.failed}))
    return 0


if __name__ == "__main__":
    # The script directory goes (its trace.py would shadow the standard
    # library's); the repository's src/ takes its place.
    sys.path[0] = SRC
    sys.exit(main())
