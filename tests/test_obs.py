"""Tests for repro.obs: registry, tracer, probes, determinism, CLI.

The load-bearing property is at the bottom: enabling full observability
(tracing + metrics + sampling probes) changes *no architectural result* —
latency matrices and stat counters are bit-identical to an unobserved
run, under both the typed channel fast path and the generic scheduler.
"""

import json
from types import SimpleNamespace

import pytest

from repro import Prototype, parse_config
from repro.cli import main
from repro.engine import NO_OBS, Histogram, Simulator, StatGroup
from repro.engine.link import Link
from repro.errors import ReproError
from repro.obs import (MetricRegistry, Observer, ProbeSet, Tracer,
                       link_utilization_probe, validate_chrome_trace)
from repro.obs.observer import metric_path
from repro.obs.registry import prom_name
from schedule_reference import route_channels_through_schedule, scan_matrix


class TestHistogramSerde:
    def test_round_trip_is_exact(self):
        hist = Histogram()
        for value, count in ((3, 2), (100, 1), (7, 5)):
            hist.add(value, count)
        clone = Histogram.from_dict(hist.to_dict())
        assert clone.items() == hist.items()
        assert clone.count == hist.count
        assert clone.mean == hist.mean
        assert (clone.min, clone.max) == (hist.min, hist.max)
        assert clone.percentile(50) == hist.percentile(50)

    def test_merge_is_exact_and_returns_self(self):
        left, right = Histogram(), Histogram()
        for v in (1, 2, 2, 9):
            left.add(v)
        for v in (2, 40):
            right.add(v)
        merged = left.merge(right)
        assert merged is left
        assert left.count == 6
        assert left.items() == [(1, 1), (2, 3), (9, 1), (40, 1)]

    def test_merge_of_deserialized_shards(self):
        # The sweep-worker pattern: shards serialize, the parent merges.
        shard_a, shard_b = Histogram(), Histogram()
        shard_a.add(10, 3)
        shard_b.add(10, 1)
        shard_b.add(20, 2)
        merged = Histogram.from_dict(shard_a.to_dict())
        merged.merge(Histogram.from_dict(shard_b.to_dict()))
        assert merged.items() == [(10, 4), (20, 2)]
        assert merged.max == 20


class TestMetricPath:
    def test_expands_hierarchy(self):
        assert metric_path("n0/t3/bpc") == "node0.tile3.bpc"
        assert metric_path("n12/noc/r7") == "node12.noc.router7"
        assert metric_path("fabric") == "fabric"

    def test_dotted_suffixes(self):
        assert metric_path("n0/t1/bpc.mshrs") == "node0.tile1.bpc.mshrs"
        assert metric_path("n0/noc/r2.E.REQ") == "node0.noc.router2.E.REQ"

    def test_prom_name_sanitizes(self):
        assert prom_name("node0.tile3.bpc.miss") == "node0_tile3_bpc_miss"
        assert prom_name("fabric.0->1.utilization") \
            == "fabric_0__1_utilization"


class TestMetricRegistry:
    def test_counters_and_gauges(self):
        reg = MetricRegistry()
        reg.inc("a.b", 2)
        reg.inc("a.b", 3)
        reg.gauge("g", lambda: 7.5)
        assert reg.value("a.b") == 5
        assert reg.value("g") == 7.5
        assert reg.value("missing") is None

    def test_bound_groups_export_live(self):
        reg = MetricRegistry()
        group = StatGroup("n0/t0/bpc")
        reg.bind_group("node0.tile0.bpc", group)
        group.inc("misses")
        group.inc("misses")
        group.observe("op_latency", 10)
        assert reg.value("node0.tile0.bpc.misses") == 2
        hists = dict(reg.histograms())
        assert hists["node0.tile0.bpc.op_latency"].count == 1
        # Live binding: later updates show in later exports.
        group.inc("misses")
        assert reg.to_dict()["node0.tile0.bpc.misses"] == 3

    def test_to_dict_embeds_exact_histograms(self):
        reg = MetricRegistry()
        reg.histogram("lat").add(4, 2)
        entry = reg.to_dict()["lat"]
        assert entry["count"] == 2
        assert Histogram.from_dict(entry).items() == [(4, 2)]

    def test_prometheus_text(self):
        reg = MetricRegistry()
        reg.inc("node0.pkts", 9)
        reg.gauge("node0.depth", lambda: 1.5)
        reg.histogram("node0.lat").add(10, 4)
        text = reg.to_prometheus()
        assert "# TYPE node0_pkts counter\nnode0_pkts 9" in text
        assert "node0_depth 1.5" in text
        assert '# TYPE node0_lat summary' in text
        assert 'node0_lat{quantile="0.5"} 10' in text
        assert "node0_lat_count 4" in text

    def test_prometheus_collision_suffixes_are_deterministic(self):
        # "a.b" and "a->b" both sanitize to names colliding after the
        # substitution; the second/third claims get _2/_3 suffixes and
        # the text contains no duplicate TYPE declarations.
        reg = MetricRegistry()
        reg.inc("fabric.a-b.pkts", 4)
        reg.inc("fabric.a.b.pkts", 5)
        reg.inc("fabric.a_b.pkts", 6)
        text = reg.to_prometheus()
        assert "fabric_a_b_pkts 4" in text
        assert "fabric_a_b_pkts_2 5" in text
        assert "fabric_a_b_pkts_3 6" in text
        declared = [line for line in text.splitlines()
                    if line.startswith("# TYPE")]
        assert len(declared) == len(set(declared))
        # Deterministic: a second export renders identically.
        assert reg.to_prometheus() == text

    def test_prometheus_zero_sample_histogram(self):
        reg = MetricRegistry()
        reg.histogram("lat")               # registered, never observed
        text = reg.to_prometheus()
        assert "# TYPE lat summary" in text
        assert "lat_sum 0" in text
        assert "lat_count 0" in text
        assert "quantile" not in text


class TestTracer:
    def test_category_filter(self):
        tracer = Tracer(categories=["noc"])
        assert tracer.wants("noc")
        assert not tracer.wants("cache")

    def test_ring_bounds_memory(self):
        tracer = Tracer(ring_capacity=4)
        for ts in range(10):
            tracer.instant("noc", "r0", "hop", ts)
        assert tracer.event_count() == 4
        assert tracer.dropped == 6
        # The ring keeps the tail of the run.
        assert [rec[0] for rec in tracer.events("r0")] == [6, 7, 8, 9]

    def test_unbounded_mode(self):
        tracer = Tracer(ring_capacity=None)
        for ts in range(10):
            tracer.instant("noc", "r0", "hop", ts)
        assert tracer.event_count() == 10
        assert tracer.dropped == 0

    def test_dropped_counts_per_component(self):
        tracer = Tracer(ring_capacity=2)
        for ts in range(5):
            tracer.instant("noc", "r0", "hop", ts)       # 3 evictions
        for ts in range(3):
            tracer.complete("cache", "bpc", "load", ts, 1)  # 1 eviction
        tracer.instant("noc", "r1", "hop", 0)            # none
        assert tracer.dropped_by_component() == {"r0": 3, "bpc": 1}
        assert tracer.dropped == 4

    def test_dropped_surfaces_in_exported_metrics(self):
        obs = Observer({"sample_interval": 10_000,
                        "trace": {"ring_capacity": 2}})
        proto = Prototype(parse_config("1x1x2"), obs=obs)
        proto.measure_pair_latency(0, 1)
        proto.measure_pair_latency(1, 0)
        metrics = obs.export_metrics()
        assert metrics["obs.trace.dropped"] == obs.tracer.dropped > 0
        per_component = {
            name: value for name, value in metrics.items()
            if name.startswith("obs.trace.dropped.")}
        assert per_component
        assert sum(per_component.values()) == metrics["obs.trace.dropped"]

    def test_chrome_export_schema(self, tmp_path):
        tracer = Tracer()
        tracer.complete("cache", "n0/t0/bpc", "load", 5, 12, {"addr": "0x0"})
        tracer.instant("noc", "n0/noc/r0", "hop", 7)
        tracer.counter("probe", "u", "u", 1000, {"value": 0.5})
        trace = validate_chrome_trace(tracer.to_chrome())
        events = trace["traceEvents"]
        phases = {event["ph"] for event in events}
        assert {"X", "i", "C", "M"} <= phases
        complete = next(e for e in events if e["ph"] == "X")
        assert (complete["ts"], complete["dur"]) == (5, 12)
        # Components group into per-node processes.
        names = {e["args"]["name"] for e in events
                 if e["ph"] == "M" and e["name"] == "process_name"}
        assert "n0" in names
        path = tmp_path / "trace.json"
        tracer.write(path)
        validate_chrome_trace(str(path))

    @pytest.mark.parametrize("bad", [
        {"no": "traceEvents"},
        {"traceEvents": [{"ph": "X", "pid": 1, "tid": 1, "ts": 0, "dur": 1}]},
        {"traceEvents": [{"name": "x", "ph": "Q", "pid": 1, "tid": 1,
                          "ts": 0}]},
        {"traceEvents": [{"name": "x", "ph": "X", "pid": 1, "tid": 1,
                          "ts": 0}]},
        {"traceEvents": [{"name": "x", "ph": "i", "pid": 1, "tid": 1}]},
    ])
    def test_validator_rejects(self, bad):
        with pytest.raises(ReproError):
            validate_chrome_trace(bad)


class TestProbes:
    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            ProbeSet(interval=0)

    def test_activity_driven_sampling(self):
        probes = ProbeSet(interval=100)
        depth = {"value": 3}
        probes.add("q.depth", lambda: depth["value"], owner="q")
        probes.nudge("q", 50)             # before the first boundary
        assert probes.series("q.depth") == []
        probes.nudge("other", 120)        # someone else's activity
        assert probes.series("q.depth") == []
        probes.nudge("q", 120)
        depth["value"] = 9
        probes.nudge("q", 130)            # same window: no new sample
        probes.nudge("q", 250)
        assert probes.series("q.depth") == [(120, 3.0), (250, 9.0)]
        assert probes.latest() == {"q.depth": 9.0}

    def test_one_sample_per_window(self):
        probes = ProbeSet(interval=100)
        probes.add("q.depth", lambda: 1.0, owner="q")
        for now in (100, 101, 150, 199, 200, 299, 450, 451):
            probes.nudge("q", now)
        # Due times sit on the interval grid: a burst at 450 does not
        # make 451 due, and a quiet window leaves no sample behind.
        assert [ts for ts, _ in probes.series("q.depth")] == [100, 200,
                                                             450]

    def test_per_category_intervals(self):
        probes = ProbeSet(interval=1000, intervals={"noc": 64, "mem": 256})
        probes.add("r0.occ", lambda: 1.0, category="noc", owner="r0")
        probes.add("mc.depth", lambda: 2.0, category="mem", owner="mc")
        probes.add("g", lambda: 3.0)               # default interval
        assert probes.interval_of("noc") == 64
        assert probes.interval_of("mem") == 256
        # Still activity-driven: nothing samples without a nudge.
        for now in (64, 256, 1000):
            for owner in ("r0", "mc", "g"):
                probes.nudge(owner, now)
        assert probes.series("mc.depth") == [(256, 2.0), (1000, 2.0)]
        assert probes.series("g") == [(1000, 3.0)]
        # The noc source sampled on its own fast grid along the way.
        assert [ts for ts, _ in probes.series("r0.occ")] == [64, 256, 1000]

    def test_observer_forwards_sample_intervals(self):
        obs = Observer({"sample_interval": 1000,
                        "sample_intervals": {"noc": 64}})
        assert obs.probes.interval_of("noc") == 64

    def test_samples_mirror_into_tracer(self):
        tracer = Tracer()
        probes = ProbeSet(tracer=tracer, interval=10)
        probes.add("u", lambda: 0.25)
        probes.nudge("u", 10)
        record = tracer.events("u")[0]
        assert record[2] == "C"
        assert record[5] == {"value": 0.25}

    def test_link_utilization_probe(self):
        sim = Simulator()
        sink = []
        link = Link(sim, "l0", sink.append, latency=1, cycles_per_unit=2.0)
        probe = link_utilization_probe(link)
        for _ in range(10):
            link.send("x", units=5)       # 10 cycles of occupancy each
        sim.run()
        # 10 messages x 5 units x 2 cycles/unit = 100 busy cycles.
        busy = probe()
        assert busy == pytest.approx(min(1.0, 100 / sim.now))
        # Second sample over an idle window reads (near) zero.
        sim.schedule(1000, lambda: None)
        sim.run()
        assert probe() == 0.0


class TestObserverWiring:
    def test_components_register_against_observer(self):
        obs = Observer({"sample_interval": 100})
        proto = Prototype(parse_config("1x1x2"), obs=obs)
        assert proto.obs is obs
        proto.measure_pair_latency(0, 1)
        # Stats are bound under hierarchical dotted names...
        assert obs.registry.value("node0.tile0.bpc.misses") >= 1
        # ...links register utilization gauges and probe sources...
        gauges = dict(obs.registry.gauges())
        assert any(name.endswith(".utilization") for name in gauges)
        assert any("mshrs" in name for name in gauges)
        assert len(obs.probes) > 0

    def test_null_observer_is_default_and_inert(self):
        proto = Prototype(parse_config("1x1x2"))
        assert proto.obs is NO_OBS
        assert not NO_OBS.enabled
        assert NO_OBS.registry is None
        # Null hooks accept anything and return nothing.
        assert NO_OBS.link_transfer(None, 1, 2, 3) is None
        assert NO_OBS.wrap_channel(None, "ch") == "ch"

    def test_traced_run_produces_events_and_samples(self):
        obs = Observer({"sample_interval": 50})
        proto = Prototype(parse_config("1x1x2"), obs=obs)
        proto.measure_pair_latency(0, 1)
        assert obs.tracer.event_count() > 0
        categories = {rec[3] for rec in obs.tracer.events()}
        assert {"noc", "cache", "axi", "mem"} <= categories
        validate_chrome_trace(obs.tracer.to_chrome())
        assert sum(len(points)
                   for points in obs.probes.series().values()) > 0

    def test_category_filter_limits_events(self):
        obs = Observer({"trace": {"categories": ["mem"]}})
        proto = Prototype(parse_config("1x1x2"), obs=obs)
        proto.measure_pair_latency(0, 1)
        categories = {rec[3] for rec in obs.tracer.events()}
        assert categories <= {"mem"}
        assert obs.tracer.event_count() > 0

    def test_bridge_and_dram_hooks_nudge_their_probes(self):
        # Every hook samples its own component's probes; the bridge and
        # DRAM hooks used to nudge nothing, so those gauges never did.
        obs = Observer({"sample_interval": 10, "trace": {"enabled": False}})
        obs.register_gauge("n0/bridge.queued_packets", lambda: 2.0,
                           category="bridge")
        obs.register_gauge("n0/dram.bank_backlog", lambda: 1.0,
                           category="mem")
        sim = SimpleNamespace(now=10)
        obs.bridge_packet(SimpleNamespace(name="n0/bridge", sim=sim), None)
        obs.dram_access(SimpleNamespace(name="n0/dram", sim=sim), "read",
                        4, 1)
        assert obs.probes.series() == {
            "node0.bridge.queued_packets": [(10, 2.0)],
            "node0.dram.bank_backlog": [(10, 1.0)]}

    def test_bridge_and_dram_probes_sample_on_a_real_run(self):
        obs = Observer({"sample_interval": 20})
        proto = Prototype(parse_config("2x1x2"), obs=obs)
        for receiver in (1, 2, 3):
            proto.measure_pair_latency(0, receiver)
        series = obs.probes.series()
        for node in (0, 1):
            assert series[f"node{node}.bridge.queued_packets"]
        assert any(series[f"node{node}.chipset.dram.bank_backlog"]
                   for node in (0, 1))

    def test_inter_node_traffic_traces_pcie_and_bridge(self):
        obs = Observer({"sample_interval": 500})
        proto = Prototype(parse_config("2x1x2"), obs=obs)
        proto.measure_pair_latency(0, 3)
        categories = {rec[3] for rec in obs.tracer.events()}
        assert "pcie" in categories
        assert obs.registry.value("node0.bridge.sent_packets") > 0


class TestObsDeterminism:
    """Observability must not change a single architectural bit."""

    @pytest.mark.parametrize("generic", [True, False])
    def test_observed_run_is_bit_identical(self, generic, monkeypatch):
        config = "2x1x2"
        if generic:
            route_channels_through_schedule(monkeypatch)

        def run(obs):
            proto = Prototype(parse_config(config), obs=obs)
            matrix = scan_matrix(proto)
            return matrix, proto.stats_report(), proto.now

        base_matrix, base_stats, base_now = run(None)
        obs = Observer({"sample_interval": 100})
        obs_matrix, obs_stats, obs_now = run(obs)
        assert obs_matrix == base_matrix
        assert obs_stats == base_stats
        assert obs_now == base_now
        # And the observer actually observed the run.
        assert obs.tracer.event_count() > 0

    def test_traced_names_hold_no_object_address(self):
        # A NoC link delivers to partial(Router._arrive, port), whose repr
        # holds addresses: its kernel track, and the dropped-events
        # metric a full ring adds for it, must read the same every run.
        obs = Observer({"sample_interval": 10_000,
                        "trace": {"ring_capacity": 1}})
        proto = Prototype(parse_config("2x1x2"), obs=obs)
        proto.measure_pair_latency(0, 3)
        tracks = [event["args"]["name"]
                  for event in obs.tracer.to_chrome()["traceEvents"]
                  if event["name"] == "thread_name"]
        assert "kernel/Router._arrive" in tracks
        dropped = [name for name in obs.export_metrics()
                   if name.startswith("obs.trace.dropped.")]
        assert "obs.trace.dropped.kernel.Router._arrive" in dropped
        for name in tracks + dropped:
            assert "0x" not in name and " at " not in name, name

    def test_kernel_channel_tracing_is_bit_identical(self):
        config = parse_config("1x1x2")
        base = Prototype(config).measure_pair_latency(0, 1)
        obs = Observer({"trace": {"categories": ["kernel"]}})
        proto = Prototype(config, obs=obs)
        assert proto.measure_pair_latency(0, 1) == base
        kernel = [rec for rec in obs.tracer.events() if rec[3] == "kernel"]
        assert kernel


class TestObsCli:
    def test_trace_command_emits_valid_bundle(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        spec = tmp_path / "plane.json"
        spec.write_text(json.dumps({"sample_interval": 100}))
        assert main(["trace", "1x1x2", "--out", str(out),
                     "--metrics", str(metrics),
                     "--instrument", str(spec)]) == 0
        validate_chrome_trace(str(out))
        bundle = json.loads(metrics.read_text())
        assert bundle["config"] == "1x1x2"
        assert bundle["cycles"] > 0
        assert any("utilization" in key for key in bundle["metrics"])
        assert "perfetto" in capsys.readouterr().out

    def test_trace_category_filter(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        spec = tmp_path / "plane.json"
        spec.write_text(json.dumps(
            {"trace": {"categories": ["mem", "probe"]}}))
        assert main(["trace", "1x1x2", "--out", str(out),
                     "--metrics", str(tmp_path / "m.json"),
                     "--instrument", str(spec)]) == 0
        trace = validate_chrome_trace(str(out))
        categories = {event.get("cat") for event in trace["traceEvents"]
                      if event["ph"] != "M"}
        assert categories <= {"mem", "probe"}

    def test_stats_command_prom_and_json(self, capsys):
        assert main(["stats", "1x1x2"]) == 0
        prom = capsys.readouterr().out
        assert "# TYPE" in prom
        assert "node0_tile0_bpc" in prom
        assert main(["stats", "1x1x2", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["node0.tile0.bpc.misses"] >= 1


class TestJobsValidation:
    @pytest.mark.parametrize("value", ["-1", "-3", "two", "1.5", ""])
    def test_latency_rejects_bad_jobs(self, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["latency", "1x1x2", "--jobs", value])
        assert excinfo.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-1", "abc"])
    def test_sweep_rejects_bad_jobs(self, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--jobs", value])
        assert excinfo.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_sweep_jobs_one_still_works(self, capsys):
        assert main(["sweep", "--jobs", "1"]) == 0
        assert "1x12" in capsys.readouterr().out
