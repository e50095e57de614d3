"""Command-line interface: the paper's build-script workflow.

SMAPPIC users "simply specify the preferred core type, the number of tiles
per node, the number of nodes per FPGA, and the number of FPGAs"
(Sec. 4.1) and get a prototype.  This CLI is that workflow against the
simulation::

    python -m repro describe 4x1x12        # resources, build, pricing
    python -m repro sweep                  # every configuration that fits
    python -m repro latency 2x1x4          # Fig. 7 matrix summary
    python -m repro hello 1x1x2            # boot HelloWorld, show console
    python -m repro cost                   # Fig.-13 cost table
    python -m repro trace 2x1x2            # Perfetto trace + metrics bundle
    python -m repro stats 2x1x2            # Prometheus-style metrics dump
    python -m repro diff runs/a runs/b     # cross-run metric deltas / gate
    python -m repro obs validate spec.yaml # schema-check an instrument spec
    python -m repro cache stats            # result-store contents / GC
    python -m repro farm run spec.json     # a fleet of runs over a host pool
    python -m repro farm status report/    # live fleet progress
    python -m repro serve                  # HTTP result service (store+farm)
    python -m repro query point fig8 ...   # ask a running service

Common flags (``--seed``/``--output``/``--archive``/``--jobs``/
``--instrument``/``--store``) come from :mod:`repro.cli_common` parent
parsers, so they behave identically on every subcommand.  What a run
observes comes from one place: the ``--instrument`` plane spec.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import statistics
import sys
import time
from typing import Dict, List, Optional

from . import Prototype, build, parse_config
from .analysis import render_table
from .cli_common import (EXIT_FAIL, EXIT_OK, EXIT_USAGE, archive_flags,
                         emit, emit_payload, format_flags,
                         instrument_flags, jobs_flags, load_plane_arg,
                         output_flags, seed_flags, store_flags,
                         write_archive)
from .cost import FIG13_TOOLS, benchmark_costs, suite_costs
from .errors import ReproError
from .fpga import (DRAM_INTERFACES_PER_FPGA, cheapest_instance_for, estimate,
                   estimate_build, max_tiles_per_fpga)
from .parallel import latency_matrix_spec, run_sweep, run_tasks
from .store import ResultStore, default_store_root, gc_runs, parse_age
from .store import parse_bytes as parse_size


def cmd_describe(args) -> int:
    config = parse_config(args.config)
    resources = estimate(config.nodes_per_fpga, config.tiles_per_node,
                         config.params.core)
    build_report = estimate_build(config.nodes_per_fpga,
                                  config.tiles_per_node, config.params.core)
    instance = cheapest_instance_for(config.n_fpgas)
    rows = [
        ["configuration", config.label],
        ["nodes", config.n_nodes],
        ["cores total", config.total_tiles],
        ["core type", config.params.core],
        ["LUT utilization / FPGA", f"{resources.utilization:.0%}"],
        ["achievable frequency", f"{resources.frequency_mhz:.0f} MHz"],
        ["synthesis time", f"{build_report.synthesis_hours:.1f} h"],
        ["AFI processing", f"{build_report.afi_hours:.1f} h"],
        ["bitstream load", f"{build_report.load_seconds:.0f} s"],
        ["build host memory", f"{build_report.build_memory_gb:.0f} GB"],
        ["EC2 instance", instance.name],
        ["price", f"${instance.price_per_hour:.2f}/hr"],
    ]
    print(render_table(["property", "value"], rows,
                       title=f"SMAPPIC prototype {config.label}"))
    return 0


def _sweep_point(task) -> Optional[List]:
    """Worker for one BxC grid point of ``sweep`` (module-level: picklable)."""
    nodes, tiles, core = task
    try:
        report = estimate(nodes, tiles, core)
    except ReproError:
        return None
    return [f"{nodes}x{tiles}", nodes * tiles,
            f"{report.utilization:.0%}",
            f"{report.frequency_mhz:.0f} MHz"]


def cmd_sweep(args) -> int:
    grid = [(nodes, tiles, args.core)
            for nodes in range(1, DRAM_INTERFACES_PER_FPGA + 1)
            for tiles in range(1, max_tiles_per_fpga(args.core) + 1)]
    rows = [row for row in run_tasks(_sweep_point, grid, jobs=args.jobs)
            if row is not None]
    emit(args, render_table(
        ["config (BxC)", "tiles/FPGA", "LUTs", "frequency"], rows,
        title=f"configurations that fit one FPGA ({args.core} tiles)"),
        what="sweep table")
    return 0


def cmd_latency(args) -> int:
    """The Fig. 7 matrix, summarized: one ``run_sweep`` over
    :func:`~repro.parallel.latency_matrix_spec`, so ``--jobs`` and
    ``--store`` change only how fast the table appears."""
    config = parse_config(args.config, seed=args.seed)
    plane = load_plane_arg(args)
    if plane is not None and not args.archive:
        raise ReproError(
            "latency --instrument measures through the observer; pass "
            "--archive to persist what the plane collects")
    obs_spec = None
    if args.archive:
        obs_spec = plane.to_dict() if plane is not None else {}
    store = ResultStore(args.store) if args.store else None
    start = time.perf_counter()
    result = run_sweep(latency_matrix_spec(config, obs_spec=obs_spec),
                       jobs=args.jobs, store=store)
    wall = time.perf_counter() - start
    tiles_per_node = config.tiles_per_node
    intra, inter = [], []
    for sender, row in enumerate(result.value["rows"]):
        for receiver, latency in enumerate(row):
            if sender == receiver:
                continue
            same_node = (sender // tiles_per_node
                         == receiver // tiles_per_node)
            (intra if same_node else inter).append(latency)
    rows = [["intra-node", f"{statistics.mean(intra):.0f}",
             min(intra), max(intra)]]
    if inter:
        rows.append(["inter-node", f"{statistics.mean(inter):.0f}",
                     min(inter), max(inter)])
        rows.append(["NUMA ratio",
                     f"{statistics.mean(inter) / statistics.mean(intra):.2f}x",
                     "", ""])
    emit(args, render_table(["path", "mean (cycles)", "min", "max"], rows,
                            title=f"core-to-core round-trip latency, "
                                  f"{args.config}"),
         what="latency table")
    if args.archive:
        metrics = dict(result.value["metrics"])
        if store is not None:
            metrics.update(store.export_metrics())
        write_archive(args, config, metrics, wall_seconds=wall,
                      config_hash=result.config_hash, plane=plane)
    return 0


def cmd_hello(args) -> int:
    from .workloads import run_helloworld
    proto = build(args.config)
    result = run_helloworld(proto)
    milliseconds = result.cycles / (proto.config.achievable_frequency_mhz
                                    * 1e3)
    print(f"console: {result.console!r}")
    print(f"runtime: {result.cycles} cycles = {milliseconds:.2f} ms at "
          f"{proto.config.achievable_frequency_mhz:.0f} MHz")
    return 0 if result.exit_code == 0 else 1


def _drive_probes(proto) -> None:
    """Deterministic traffic for the obs commands: one Fig. 7 sender row
    (core 0 loads a line owned by every other core in turn)."""
    for receiver in range(1, proto.config.total_tiles):
        proto.measure_pair_latency(0, receiver)


def cmd_trace(args) -> int:
    from .obs import (Observer, chrome_from_jsonl, probe_series_from_jsonl,
                      validate_chrome_trace)
    plane = load_plane_arg(args)
    if plane is not None and not plane.tracing:
        raise ReproError(
            "the instrumentation spec disables tracing; use "
            "`repro stats --instrument` for a metrics-only run")
    stream = args.stream or (plane is not None and plane.stream_series)
    obs = Observer(plane, trace_path=args.out if stream else None)
    config = parse_config(args.config, seed=args.seed)
    start = time.perf_counter()
    proto = Prototype(config, obs=obs)
    _drive_probes(proto)
    wall = time.perf_counter() - start
    event_count = obs.tracer.event_count()
    obs.close()
    if stream:
        validate_chrome_trace(chrome_from_jsonl(args.out))
    else:
        obs.tracer.write(args.out)
        validate_chrome_trace(args.out)
    metrics = obs.export_metrics()
    series = obs.probes.series()
    if obs.plane.stream_series:
        # Streamed probe series never materialized in memory; the
        # bundle and archive rebuild them from the JSONL counter track.
        series = probe_series_from_jsonl(args.out)
    bundle = {"config": args.config,
              "cycles": proto.now,
              "metrics": metrics,
              "series": series}
    with open(args.metrics, "w") as handle:
        json.dump(bundle, handle, indent=2, sort_keys=True)
    if args.archive:
        write_archive(args, config, metrics, cycles=proto.now,
                      events_executed=proto.sim.events_executed,
                      wall_seconds=wall, series=series, plane=plane)
    kind = "streamed" if stream else "wrote"
    print(f"{kind} {event_count} trace events to {args.out} "
          f"(open in https://ui.perfetto.dev)")
    print(f"wrote metrics bundle to {args.metrics} "
          f"({proto.now} cycles simulated, "
          f"{obs.tracer.dropped} events dropped)")
    return 0


def cmd_stats(args) -> int:
    from .obs import InstrumentationPlane, Observer
    plane = load_plane_arg(args)
    config = parse_config(args.config, seed=args.seed)
    start = time.perf_counter()
    obs = Observer(dataclasses.replace(
        plane or InstrumentationPlane(), tracing=False))
    proto = Prototype(config, obs=obs)
    _drive_probes(proto)
    metrics = obs.export_metrics()
    wall = time.perf_counter() - start
    if args.format == "json":
        text = json.dumps(metrics, indent=2, sort_keys=True)
    else:
        registry = _registry_from_dict(metrics)
        text = registry.to_prometheus().rstrip("\n")
    emit(args, text, what=f"{args.format} metrics")
    if args.archive:
        write_archive(args, config, metrics, cycles=proto.now,
                      events_executed=proto.sim.events_executed,
                      wall_seconds=wall, series=obs.probes.series(),
                      plane=plane)
    return 0


def _registry_from_dict(metrics: Dict[str, object]):
    """Rebuild a registry from a flat metrics dict (for Prometheus text
    of merged shard dumps, which exist only as dicts)."""
    from .engine import Histogram
    from .obs import MetricRegistry
    registry = MetricRegistry()
    for name, value in metrics.items():
        if isinstance(value, dict) and "counts" in value:
            registry.histogram(name).merge(Histogram.from_dict(value))
        elif isinstance(value, float):
            registry.gauge(name, lambda value=value: value)
        else:
            registry.inc(name, int(value))
    return registry


def cmd_diff(args) -> int:
    from .obs import diff as diff_mod
    rules = [diff_mod.Rule("*", abs_tol=args.abs_tol,
                           rel_tol=args.rel_tol)]
    if args.gate:
        if args.run_b is not None:
            raise ReproError(
                "diff --gate BASELINE takes one run (the current one)")
        if args.run_a is None:
            raise ReproError("diff --gate BASELINE needs a run to check")
        metrics_a, gate_rule_list = diff_mod.gate_rules(args.gate)
        rules = gate_rule_list if not args.rule else rules
        metrics_b = diff_mod.load_metrics(args.run_a)
    else:
        if args.run_a is None or args.run_b is None:
            raise ReproError("diff needs two runs (or --gate BASELINE RUN)")
        hash_a = diff_mod.instrumentation_hash_of(args.run_a)
        hash_b = diff_mod.instrumentation_hash_of(args.run_b)
        if hash_a != hash_b and not args.ignore_instrumentation:
            # Different planes select, sample, and gate metrics
            # differently — their deltas are plane noise, not regressions.
            raise ReproError(
                f"diff: runs were instrumented differently "
                f"(plane {hash_a or 'none'} vs {hash_b or 'none'}); "
                f"re-run under one spec, or pass "
                f"--ignore-instrumentation to compare anyway")
        metrics_a = diff_mod.load_metrics(args.run_a)
        metrics_b = diff_mod.load_metrics(args.run_b)
    for text in args.rule:
        rules.append(diff_mod.parse_rule(text))
    deltas = diff_mod.diff_metrics(metrics_a, metrics_b, rules,
                                   gate=bool(args.gate))
    bad = diff_mod.violations(deltas)
    if args.format == "json":
        text = json.dumps([delta.as_dict() for delta in deltas
                           if not delta.ok or not args.only_violations],
                          indent=2)
    else:
        text = diff_mod.render_diff(deltas,
                                    only_violations=args.only_violations)
    emit(args, text, what="diff")
    if bad:
        print(f"error: {len(bad)} metric(s) outside tolerance",
              file=sys.stderr)
        return 1
    return 0


def cmd_obs_validate(args) -> int:
    """Schema-check an instrumentation spec offline and show what it
    resolves to — optionally against a config, listing the concrete
    metrics the globs select."""
    from .obs import Observer
    from .obs.plane import load_plane
    plane = load_plane(args.spec)
    selected = None
    if args.config:
        config = parse_config(args.config)
        obs = Observer(dataclasses.replace(plane, tracing=False))
        proto = Prototype(config, obs=obs)
        selected = sorted(name for name in obs.export_metrics()
                          if not name.startswith("obs."))
        del proto
    if args.format == "json":
        payload = {"spec": plane.to_dict(), "hash": plane.spec_hash,
                   "triggers": [t.describe() for t in plane.triggers]}
        if selected is not None:
            payload["selected_metrics"] = selected
        emit(args, json.dumps(payload, indent=2, sort_keys=True),
             what="plane summary")
        return 0
    rows = plane.describe_rows()
    if selected is not None:
        rows.append(["selected metrics", str(len(selected))])
    text = render_table(["property", "value"], rows,
                        title=f"instrumentation plane {args.spec} "
                              f"(hash {plane.spec_hash})")
    if selected is not None:
        text += "\n" + "\n".join(f"  {name}" for name in selected)
    emit(args, text, what="plane summary")
    return 0


def cmd_cost(args) -> int:
    costs = benchmark_costs()
    rows = [[name] + [costs[name][tool] for tool in FIG13_TOOLS]
            for name in costs]
    totals = suite_costs()
    rows.append(["SPECint 2017"] + [totals[tool] for tool in FIG13_TOOLS])
    print(render_table(["benchmark"] + list(FIG13_TOOLS), rows,
                       title="modeling cost in dollars (Fig. 13)"))
    return 0


# ----------------------------------------------------------------------
# repro cache — the persistent result store
# ----------------------------------------------------------------------

def _age_text(seconds: float) -> str:
    for unit, span in (("d", 86400.0), ("h", 3600.0), ("m", 60.0)):
        if seconds >= span:
            return f"{seconds / span:.1f}{unit}"
    return f"{seconds:.0f}s"


def cmd_cache_ls(args) -> int:
    store = ResultStore(args.store)
    entries = store.entries()
    now = time.time()
    described = [(entry, store.describe(entry)) for entry in entries]
    payload = [{"key": entry.key, "bytes": entry.bytes,
                "mtime_unix": round(entry.mtime, 3),
                "payload": desc}
               for entry, desc in described]

    def render() -> str:
        rows = []
        for entry, desc in described:
            if desc.get("missing"):
                family, config, point = "(gone)", "", ""
            else:
                family = desc.get("family", "?")
                config = str(desc.get("config_hash", "?"))[:12]
                point = json.dumps(desc.get("point"), sort_keys=True,
                                   default=str)
                if len(point) > 40:
                    point = point[:37] + "..."
            rows.append([entry.key[:12], family, config, point,
                         entry.bytes,
                         _age_text(max(0.0, now - entry.mtime))])
        return render_table(
            ["key", "family", "config", "point", "bytes", "age"], rows,
            title=f"result store {store.root} ({len(entries)} entries)")

    emit_payload(args, payload, render, what="store listing")
    return EXIT_OK


def cmd_cache_stats(args) -> int:
    stats = ResultStore(args.store).stats()

    def render() -> str:
        rows = [["root", stats["root"]],
                ["entries", stats["entries"]],
                ["bytes", stats["bytes"]]]
        if stats["oldest_unix"] is not None:
            now = time.time()
            rows.append(["oldest", _age_text(now - stats["oldest_unix"])])
            rows.append(["newest", _age_text(now - stats["newest_unix"])])
        return render_table(["property", "value"], rows,
                            title="result store")

    emit_payload(args, stats, render, what="store stats")
    return EXIT_OK


def cmd_cache_gc(args) -> int:
    if args.max_age is None and args.max_bytes is None:
        raise ReproError("cache gc needs --max-age and/or --max-bytes")
    max_age = parse_age(args.max_age) if args.max_age else None
    max_bytes = parse_size(args.max_bytes) if args.max_bytes else None
    store = ResultStore(args.store)
    stats = store.gc(max_age_seconds=max_age, max_bytes=max_bytes)
    print(f"store {store.root}: removed {stats.removed} entries "
          f"({stats.removed_bytes} bytes), kept {stats.kept} "
          f"({stats.kept_bytes} bytes)")
    # The same retention policy covers the run-archive tree (ROADMAP's
    # archive GC item); a missing tree is simply zero archives.
    run_stats = gc_runs(args.runs, max_age_seconds=max_age,
                        max_bytes=max_bytes)
    print(f"runs {args.runs}: removed {run_stats.removed} archives "
          f"({run_stats.removed_bytes} bytes), kept {run_stats.kept} "
          f"({run_stats.kept_bytes} bytes)")
    return 0


def cmd_cache_clear(args) -> int:
    store = ResultStore(args.store)
    removed = store.clear()
    print(f"store {store.root}: removed {removed} entries")
    return 0


# ----------------------------------------------------------------------
# repro farm — fleets of runs over a host pool
# ----------------------------------------------------------------------

def cmd_farm_run(args) -> int:
    from .cli_common import command_line
    from .farm import load_spec_file, run_file_spec

    filespec = load_spec_file(args.spec)
    report_dir = args.report or filespec.report
    result, suite_entries, suite_errors = run_file_spec(
        filespec, report_dir=report_dir, command=command_line())
    counters = result.counters
    rows = [[state.job_id, state.state, state.attempts, state.retries,
             state.host or "",
             state.error["type"] if state.error else ""]
            for state in result.states]
    emit(args, render_table(
        ["job", "state", "attempts", "retries", "host", "error"], rows,
        title=f"farm run: {counters.done} done, {counters.failed} "
              f"failed ({counters.quarantined} quarantined), "
              f"{counters.retried} retried, "
              f"{counters.launched} launches on "
              f"{counters.slots_total} slots"),
        what="farm run table")
    for suite_id in sorted(suite_entries):
        entry = suite_entries[suite_id]
        print(f"suite {suite_id}: {entry['points']} points merged "
              f"({entry['hits']} store hits), config {entry['config_hash'][:12]}")
    for error in suite_errors:
        print(f"error: {error}", file=sys.stderr)
    if report_dir is not None:
        print(f"farm report at {report_dir} "
              f"(inspect with `repro farm status {report_dir}`)")
    return 0 if result.ok and not suite_errors else 1


def cmd_farm_status(args) -> int:
    from .farm import load_farm_manifest

    manifest = load_farm_manifest(args.report_dir)

    def render() -> str:
        counters = manifest["counters"]
        phase = "final" if manifest.get("final") else "in flight"
        age = _age_text(max(0.0, time.time()
                            - manifest.get("written_at_unix", 0.0)))
        rows = [[job["job_id"], job["state"], job["attempts"],
                 job["retries"], job.get("host") or "",
                 (job.get("error") or {}).get("type", "")]
                for job in manifest["jobs"]]
        return render_table(
            ["job", "state", "attempts", "retries", "host", "error"], rows,
            title=f"farm {phase} (written {age} ago): "
                  f"{counters['obs.farm.queued']} queued, "
                  f"{counters['obs.farm.running']} running, "
                  f"{counters['obs.farm.done']} done, "
                  f"{counters['obs.farm.failed']} failed, "
                  f"{counters['obs.farm.retried']} retried")

    emit_payload(args, manifest, render, what="farm status")
    return EXIT_OK


# ----------------------------------------------------------------------
# repro serve / repro query — the result service
# ----------------------------------------------------------------------

def cmd_serve(args) -> int:
    import asyncio

    from .serve import ResultService

    farm = None
    if args.farm:
        from .farm import local_farm
        hosts, _, slots = args.farm.partition("x")
        try:
            farm = local_farm(hosts=int(hosts), slots=int(slots or 1))
        except ValueError:
            raise ReproError(
                f"--farm expects HOSTSxSLOTS (e.g. 2x2), got {args.farm!r}")
    service = ResultService(args.store, runs_root=args.runs,
                            spool_dir=args.spool, host=args.host,
                            port=args.port, farm=farm)

    async def _run() -> None:
        await service.start()
        print(f"repro.serve listening on {service.url} "
              f"(store {service.store.root}, runs {args.runs})")
        await service.serve_forever()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    finally:
        service.close()
    return EXIT_OK


def _serve_client(args):
    from .serve import ServeClient
    return ServeClient(args.url)


def _json_arg(text: Optional[str], what: str):
    """A CLI value that may be JSON (``12``, ``[2,4]``, ``{"a":1}``)
    or a bare string; bare strings pass through unchanged."""
    if text is None:
        return None
    try:
        return json.loads(text)
    except ValueError:
        return text


def cmd_query_point(args) -> int:
    from .serve import config_hash_of, derived_seed

    if (args.config is None) == (args.config_hash is None):
        raise ReproError(
            "query point needs exactly one of --config / --config-hash")
    if args.seed is not None and args.index is not None:
        raise ReproError(
            "query point takes --seed or --index, not both")
    config_hash = args.config_hash or config_hash_of(
        args.config, seed=args.config_seed)
    if args.seed is not None:
        seed = args.seed
    else:
        seed = derived_seed(args.root_seed, args.family, args.index or 0)
    with _serve_client(args) as client:
        reply = client.query(
            args.family, config_hash, _json_arg(args.point, "--point"),
            seed, version=args.version,
            obs=_json_arg(args.obs, "--obs"))

    def render() -> str:
        if not reply.found:
            return f"miss: no stored entry under key {reply.key}"
        return (f"hit {reply.key}\n"
                + json.dumps(reply.value, indent=2, sort_keys=True,
                             default=str))

    emit_payload(args, reply.to_dict(), render, what="point reply")
    return EXIT_OK if reply.found else EXIT_FAIL


def cmd_query_archives(args) -> int:
    with _serve_client(args) as client:
        if args.run_id:
            reply = client.archive(args.run_id)

            def render() -> str:
                return json.dumps(
                    {"run_id": reply.run_id, "manifest": reply.manifest,
                     "metrics": reply.metrics},
                    indent=2, sort_keys=True, default=str)

            emit_payload(args, reply.to_dict(), render, what="archive")
            return EXIT_OK
        reply = client.archives()

    def render() -> str:
        rows = [[a.get("run_id", "?"), str(a.get("config") or ""),
                 str(a.get("config_hash") or "")[:12],
                 a.get("metrics", 0),
                 str(a.get("instrumentation_hash") or "")[:12]]
                for a in reply.archives]
        return render_table(
            ["run", "config", "hash", "metrics", "plane"], rows,
            title=f"served archives ({len(reply.archives)})")

    emit_payload(args, reply.to_dict(), render, what="archive listing")
    return EXIT_OK


def cmd_query_metrics(args) -> int:
    with _serve_client(args) as client:
        reply = client.metrics(args.glob)

    def render() -> str:
        rows = [[m.get("run_id", "?"), m.get("metric", "?"),
                 m.get("value")] for m in reply.matches]
        return render_table(["run", "metric", "value"], rows,
                            title=f"metrics matching {reply.glob!r} "
                                  f"({len(reply.matches)})")

    emit_payload(args, reply.to_dict(), render, what="metric matches")
    return EXIT_OK


def cmd_query_diff(args) -> int:
    rules = []
    if args.rel_tol or args.abs_tol:
        rules.append({"pattern": "*", "rel_tol": args.rel_tol,
                      "abs_tol": args.abs_tol})
    with _serve_client(args) as client:
        reply = client.diff(args.run_a, args.run_b, rules=rules,
                            only_violations=args.only_violations,
                            ignore_instrumentation=args.ignore_instrumentation)

    def render() -> str:
        rows = [[d.get("name"), d.get("a"), d.get("b"),
                 d.get("abs_delta"), d.get("status")]
                for d in reply.deltas]
        verdict = "ok" if reply.ok else (
            f"{reply.violations} violation(s)")
        return render_table(
            ["metric", "a", "b", "delta", "status"], rows,
            title=f"server diff {reply.run_a} vs {reply.run_b}: {verdict}")

    emit_payload(args, reply.to_dict(), render, what="diff report")
    return EXIT_OK if reply.ok else EXIT_FAIL


def cmd_query_submit(args) -> int:
    fields = {"config": args.config, "seed": args.seed,
              "root_seed": args.root_seed, "slots": args.slots}
    if args.obs is not None:
        fields["obs"] = _json_arg(args.obs, "--obs")
    if args.thread_counts:
        fields["thread_counts"] = tuple(
            int(t) for t in args.thread_counts.split(","))
    if args.threads is not None:
        fields["threads"] = args.threads
    if args.suite_id:
        fields["suite_id"] = args.suite_id
    with _serve_client(args) as client:
        reply = client.submit(args.suite, **fields)
        final_state = reply.state
        job_payload = None
        if args.wait:
            job = client.wait_job(reply.job_id, timeout=args.timeout)
            final_state = job.job.get("state", reply.state)
            job_payload = job.to_dict()

    payload = reply.to_dict()
    if job_payload is not None:
        payload = {"submit": payload, "job": job_payload}

    def render() -> str:
        line = (f"job {reply.job_id}: {final_state} "
                f"({reply.warm} warm, {reply.cold} cold of "
                f"{reply.points} points)")
        if job_payload is not None and final_state != "done":
            line += f"\nerror: {job_payload['job'].get('error')}"
        return line

    emit_payload(args, payload, render, what="submit reply")
    if args.wait:
        return EXIT_OK if final_state == "done" else EXIT_FAIL
    return EXIT_OK


def cmd_query_job(args) -> int:
    with _serve_client(args) as client:
        if args.job_id:
            reply = client.job(args.job_id)
            job = reply.job

            def render() -> str:
                lines = [f"job {job.get('job_id')}: {job.get('state')} "
                         f"({job.get('warm')} warm, {job.get('cold')} "
                         f"cold of {job.get('points')} points, suite "
                         f"{job.get('suite_id')})"]
                if job.get("error"):
                    lines.append(f"error: {job['error']}")
                if reply.farm is not None:
                    counters = reply.farm.get("counters", {})
                    lines.append(
                        f"farm: {counters.get('obs.farm.done', 0)} done, "
                        f"{counters.get('obs.farm.failed', 0)} failed, "
                        f"{counters.get('obs.farm.retried', 0)} retried")
                return "\n".join(lines)

            emit_payload(args, reply.to_dict(), render, what="job reply")
            return EXIT_OK if job.get("state") != "failed" else EXIT_FAIL
        reply = client.jobs()

    def render() -> str:
        rows = [[j.get("job_id"), j.get("state"), j.get("suite_id"),
                 j.get("warm"), j.get("cold"), j.get("points")]
                for j in reply.jobs]
        return render_table(
            ["job", "state", "suite", "warm", "cold", "points"], rows,
            title=f"served jobs ({len(reply.jobs)})")

    emit_payload(args, reply.to_dict(), render, what="job listing")
    return EXIT_OK


def cmd_query_stats(args) -> int:
    with _serve_client(args) as client:
        metrics = client.stats()

    def render() -> str:
        rows = [[name, json.dumps(value, sort_keys=True, default=str)
                 if isinstance(value, dict) else value]
                for name, value in sorted(metrics.items())]
        return render_table(["metric", "value"], rows,
                            title="service metrics")

    emit_payload(args, metrics, render, what="service stats")
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="SMAPPIC prototype platform (simulated)")
    subparsers = parser.add_subparsers(dest="command", required=True)

    describe = subparsers.add_parser(
        "describe", help="resources, build flow, and pricing for a config")
    describe.add_argument("config", help="AxBxC, e.g. 4x1x12")
    describe.set_defaults(func=cmd_describe)

    sweep = subparsers.add_parser(
        "sweep", help="every BxC configuration that fits one FPGA",
        parents=[jobs_flags(),
                 output_flags("write the table to PATH instead of "
                              "stdout")])
    sweep.add_argument("--core", default="ariane")
    sweep.set_defaults(func=cmd_sweep)

    latency = subparsers.add_parser(
        "latency", help="summarize the Fig. 7 core-to-core latency "
                        "matrix (intra/inter-node mean, min, max)",
        parents=[jobs_flags(), seed_flags(), output_flags(),
                 archive_flags(), store_flags(), instrument_flags()])
    latency.add_argument("config")
    latency.set_defaults(func=cmd_latency)

    hello = subparsers.add_parser(
        "hello", help="run HelloWorld on the prototype")
    hello.add_argument("config", nargs="?", default="1x1x2")
    hello.set_defaults(func=cmd_hello)

    cost = subparsers.add_parser(
        "cost", help="print the Fig. 13 modeling-cost table")
    cost.set_defaults(func=cmd_cost)

    trace = subparsers.add_parser(
        "trace", help="run traced latency probes; emit a Perfetto-loadable "
                      "Chrome trace plus a metrics bundle",
        parents=[seed_flags(), archive_flags(), instrument_flags()])
    trace.add_argument("config", nargs="?", default="2x1x2")
    trace.add_argument("--out", "--output", dest="out",
                       default="trace.json",
                       help="trace output path (Chrome trace_event JSON, "
                            "or JSONL with --stream; .gz gzips)")
    trace.add_argument("--stream", action="store_true",
                       help="stream events to newline-delimited JSON in "
                            "bounded chunks instead of ring buffers "
                            "(for runs too long for any ring)")
    trace.add_argument("--metrics", default="metrics.json",
                       help="metrics + probe-series bundle output path")
    trace.set_defaults(func=cmd_trace)

    stats = subparsers.add_parser(
        "stats", help="run latency probes with metrics only; print the "
                      "registry as Prometheus text or JSON",
        parents=[seed_flags(), archive_flags(), instrument_flags(),
                 format_flags(choices=("prom", "json"), default="prom"),
                 output_flags("write the dump to PATH instead of stdout")])
    stats.add_argument("config", nargs="?", default="2x1x2")
    stats.set_defaults(func=cmd_stats)

    diff = subparsers.add_parser(
        "diff", help="compare two archived runs metric-by-metric, or "
                     "gate one run against a committed baseline",
        parents=[format_flags(),
                 output_flags("write the report to PATH instead of "
                              "stdout")])
    diff.add_argument("run_a", nargs="?", default=None,
                      help="run archive dir, metrics bundle, or flat "
                           "metrics JSON")
    diff.add_argument("run_b", nargs="?", default=None,
                      help="second run (omit with --gate)")
    diff.add_argument("--gate", default=None, metavar="BASELINE",
                      help="baseline JSON with embedded tolerance rules; "
                           "checks only the metrics the baseline lists")
    diff.add_argument("--rel-tol", type=float, default=0.0,
                      metavar="FRACTION",
                      help="default relative tolerance (e.g. 0.05 = 5%%)")
    diff.add_argument("--abs-tol", type=float, default=0.0,
                      metavar="DELTA",
                      help="default absolute tolerance")
    diff.add_argument("--rule", action="append", default=[],
                      metavar="PATTERN[:REL[:ABS[:DIR]]]",
                      help="per-metric tolerance override (repeatable; "
                           "last match wins; DIR is both/lower/upper)")
    diff.add_argument("--only-violations", action="store_true",
                      help="print only metrics outside tolerance")
    diff.add_argument("--ignore-instrumentation", action="store_true",
                      help="compare runs even when their recorded "
                           "instrumentation planes differ")
    diff.set_defaults(func=cmd_diff)

    obs = subparsers.add_parser(
        "obs", help="inspect observability configuration")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    obs_validate = obs_sub.add_parser(
        "validate", help="schema-check an instrumentation spec offline "
                         "and print what it resolves to",
        parents=[format_flags(), output_flags()])
    obs_validate.add_argument("spec", help="instrumentation spec file "
                                           "(.yaml/.json)")
    obs_validate.add_argument("--config", default=None, metavar="AxBxC",
                              help="also build this configuration and "
                                   "list the concrete metrics the "
                                   "spec's globs select")
    obs_validate.set_defaults(func=cmd_obs_validate)

    cache = subparsers.add_parser(
        "cache", help="inspect and maintain the persistent result store")
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_store = store_flags(default=default_store_root())

    cache_ls = cache_sub.add_parser(
        "ls", help="list stored sweep-point entries",
        parents=[cache_store, format_flags(), output_flags()])
    cache_ls.set_defaults(func=cmd_cache_ls)

    cache_stats = cache_sub.add_parser(
        "stats", help="entry count, bytes, and age summary",
        parents=[cache_store, format_flags(), output_flags()])
    cache_stats.set_defaults(func=cmd_cache_stats)

    cache_gc = cache_sub.add_parser(
        "gc", help="apply the retention policy to the store and the "
                   "runs/ archives",
        parents=[cache_store])
    cache_gc.add_argument("--max-age", default=None, metavar="AGE",
                          help="drop entries older than AGE "
                               "(e.g. 7d, 12h, 90s)")
    cache_gc.add_argument("--max-bytes", default=None, metavar="SIZE",
                          help="then drop oldest-first until under SIZE "
                               "(e.g. 200M, 1G)")
    cache_gc.add_argument("--runs", default="runs", metavar="DIR",
                          help="run-archive tree covered by the same "
                               "policy (default: runs)")
    cache_gc.set_defaults(func=cmd_cache_gc)

    cache_clear = cache_sub.add_parser(
        "clear", help="drop every stored entry",
        parents=[cache_store])
    cache_clear.set_defaults(func=cmd_cache_clear)

    farm = subparsers.add_parser(
        "farm", help="run and inspect fleets of runs over a host pool")
    farm_sub = farm.add_subparsers(dest="farm_command", required=True)

    farm_run = farm_sub.add_parser(
        "run", help="run the fleet a spec file declares (suites expand "
                    "to one job per sweep task; failures retry with "
                    "backoff)",
        parents=[output_flags("write the run table to PATH instead of "
                              "stdout")])
    farm_run.add_argument("spec", help="farm spec file (.json, or "
                                       ".yaml with PyYAML installed)")
    farm_run.add_argument("--report", default=None, metavar="DIR",
                          help="collect the report directory at DIR "
                               "(overrides the spec's 'report' key)")
    farm_run.set_defaults(func=cmd_farm_run)

    farm_status = farm_sub.add_parser(
        "status", help="render a farm report's manifest (live while the "
                       "fleet runs, final afterwards)",
        parents=[format_flags(), output_flags()])
    farm_status.add_argument("report_dir", help="farm report directory")
    farm_status.set_defaults(func=cmd_farm_status)

    from .serve.client import DEFAULT_URL, URL_ENV

    serve = subparsers.add_parser(
        "serve", help="serve stored results, archives, server-side "
                      "diffs, and sweep submission over HTTP")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8023,
                       help="bind port (0 picks a free one; default 8023)")
    serve.add_argument("--store", default=default_store_root(),
                       metavar="DIR",
                       help="result store to serve (default: the "
                            "resolved store root)")
    serve.add_argument("--runs", default="runs", metavar="DIR",
                       help="run-archive tree to serve (default: runs)")
    serve.add_argument("--spool", default=None, metavar="DIR",
                       help="cold-submit farm report spool "
                            "(default: <store>/serve-jobs)")
    serve.add_argument("--farm", default=None, metavar="HOSTSxSLOTS",
                       help="local farm shape for cold submits "
                            "(default: 1x2)")
    serve.set_defaults(func=cmd_serve)

    url_parent = argparse.ArgumentParser(add_help=False)
    url_parent.add_argument(
        "--url", default=os.environ.get(URL_ENV, DEFAULT_URL),
        metavar="URL",
        help=f"service url (default: ${URL_ENV} or {DEFAULT_URL})")
    query_parents = [url_parent, format_flags(), output_flags()]

    query = subparsers.add_parser(
        "query", help="talk to a running result service (repro serve)")
    query_sub = query.add_subparsers(dest="query_command", required=True)

    query_point = query_sub.add_parser(
        "point", help="fetch one sweep point by its store identity",
        parents=query_parents)
    query_point.add_argument("family", help="sweep family, e.g. fig8")
    query_point.add_argument("--config", default=None, metavar="AxBxC",
                             help="configuration label (hashed locally)")
    query_point.add_argument("--config-hash", default=None, metavar="HASH",
                             help="precomputed config hash (alternative "
                                  "to --config)")
    query_point.add_argument("--config-seed", type=int, default=0,
                             metavar="N",
                             help="seed baked into --config's hash")
    query_point.add_argument("--point", default=None, metavar="JSON",
                             help="the point value (JSON, e.g. 12 or "
                                  "[2,4]; bare strings pass through)")
    query_point.add_argument("--seed", type=int, default=None,
                             help="the point's derived seed")
    query_point.add_argument("--index", type=int, default=None,
                             metavar="N",
                             help="derive the seed from the point index "
                                  "and --root-seed instead of --seed")
    query_point.add_argument("--root-seed", type=int, default=0,
                             metavar="N",
                             help="sweep root seed for --index")
    query_point.add_argument("--version", default="1",
                             help="store payload version (default: 1)")
    query_point.add_argument("--obs", default=None, metavar="JSON",
                             help="obs spec of the stored point "
                                  "(default: null)")
    query_point.set_defaults(func=cmd_query_point)

    query_archives = query_sub.add_parser(
        "archives", help="list served run archives, or describe one",
        parents=query_parents)
    query_archives.add_argument("run_id", nargs="?", default=None,
                                help="archive to describe (omit to list)")
    query_archives.set_defaults(func=cmd_query_archives)

    query_metrics = query_sub.add_parser(
        "metrics", help="find metrics by glob across served archives",
        parents=query_parents)
    query_metrics.add_argument("glob", help="metric glob, e.g. "
                                            "'noc.*.sent'")
    query_metrics.set_defaults(func=cmd_query_metrics)

    query_diff = query_sub.add_parser(
        "diff", help="diff two served archives server-side",
        parents=query_parents)
    query_diff.add_argument("run_a", help="first archive run id")
    query_diff.add_argument("run_b", help="second archive run id")
    query_diff.add_argument("--rel-tol", type=float, default=0.0,
                            metavar="FRACTION",
                            help="default relative tolerance")
    query_diff.add_argument("--abs-tol", type=float, default=0.0,
                            metavar="DELTA",
                            help="default absolute tolerance")
    query_diff.add_argument("--only-violations", action="store_true",
                            help="report only metrics outside tolerance")
    query_diff.add_argument("--ignore-instrumentation",
                            action="store_true",
                            help="compare across instrumentation planes")
    query_diff.set_defaults(func=cmd_query_diff)

    query_submit = query_sub.add_parser(
        "submit", help="submit a suite sweep; warm points answer from "
                       "the store, cold points run on the service farm",
        parents=query_parents)
    query_submit.add_argument("suite", help="suite name (fig8 or fig9)")
    query_submit.add_argument("--config", default="4x1x12",
                              metavar="AxBxC")
    query_submit.add_argument("--seed", type=int, default=0)
    query_submit.add_argument("--root-seed", type=int, default=0,
                              metavar="N")
    query_submit.add_argument("--obs", default=None, metavar="JSON",
                              help="obs spec forwarded to the sweep")
    query_submit.add_argument("--thread-counts", default=None,
                              metavar="N,N,..",
                              help="fig8 thread counts, e.g. 2,4")
    query_submit.add_argument("--threads", type=int, default=None,
                              metavar="N", help="fig9 thread count")
    query_submit.add_argument("--suite-id", default=None, metavar="ID")
    query_submit.add_argument("--slots", type=int, default=1,
                              metavar="N", help="farm slots per job")
    query_submit.add_argument("--wait", action="store_true",
                              help="poll until the job finishes")
    query_submit.add_argument("--timeout", type=float, default=120.0,
                              metavar="SECONDS",
                              help="--wait deadline (default: 120)")
    query_submit.set_defaults(func=cmd_query_submit)

    query_job = query_sub.add_parser(
        "job", help="list submitted jobs, or show one (with its live "
                    "farm manifest)",
        parents=query_parents)
    query_job.add_argument("job_id", nargs="?", default=None,
                           help="job to show (omit to list)")
    query_job.set_defaults(func=cmd_query_job)

    query_stats = query_sub.add_parser(
        "stats", help="service counters and latency histogram",
        parents=query_parents)
    query_stats.set_defaults(func=cmd_query_stats)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":   # pragma: no cover
    sys.exit(main())
