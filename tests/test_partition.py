"""Partitioned simulation: bit-identity with the monolithic run.

The contract under test is absolute: a prototype sharded across worker
processes (``Prototype(config, partitions=N)``) must produce the exact
latencies, cycle counts, merged metrics, and merged streaming traces of
the monolithic run, at any partition count, with typed channels or the
generic ``schedule()`` path.  Plus the window derivation, the
partition-count validation, and a dead worker ending in a typed error.
"""

import dataclasses
import json
import os
import signal

import pytest

from repro import Prototype, parse_config
from repro.cli import main
from repro.engine import Simulator
from repro.errors import ConfigError, SimulationError
from repro.interconnect.pcie import PCIE_ONE_WAY_CYCLES
from repro.noc import MsgClass, NocChannel, NodeNetwork, Packet, TileAddr
from repro.obs import Observer, as_plane, chrome_from_jsonl
from repro.partition import (PARTITION_TRACE_CATEGORIES, PartitionEngine,
                             PartitionedPrototype, Shard, fpga_groups,
                             lookahead_window, node_groups,
                             partition_trace_categories,
                             resolve_partitions, window_for_config)
from repro.partition.storm import (run_monolithic_storm,
                                   run_partitioned_storm)
from schedule_reference import route_channels_through_schedule

#: The one plane both sides of every identity run observe under.  A cut
#: fabric link has a copy in each shard it joins, so the plane pushes
#: the probe interval out of reach instead of comparing sample grids,
#: and traces only what a partition worker can trace.
PLANE = {"sample_interval": 10**9,
         "trace": {"categories": list(PARTITION_TRACE_CATEGORIES)}}

#: Inter-FPGA, intra-FPGA-inter-node (on 2x2x2), and intra-node pairs.
PAIRS = ((0, 7), (2, 5), (0, 1))


def _drive(proto):
    return [proto.measure_pair_latency(src, dst) for src, dst in PAIRS]


#: The ``kernel`` test id: "accel" names the one simulator there is.
KERNELS = ["accel"]


def _use_channels(monkeypatch, typed):
    """Unless ``typed``, route every channel send of every simulator
    built from here on, forked partition workers included, through the
    generic ``schedule()`` path."""
    if not typed:
        route_channels_through_schedule(monkeypatch)


def _mono_run(label, trace_path=None):
    """Latencies, stats, metrics, and final cycle of a monolithic run."""
    config = parse_config(label)
    # Traced only with a stream file, like a partition worker.
    plane = dataclasses.replace(as_plane(PLANE),
                                tracing=trace_path is not None)
    obs = Observer(plane, trace_path=trace_path)
    proto = Prototype(config, obs=obs)
    latencies = _drive(proto)
    result = {"latencies": latencies, "now": proto.now,
              "stats": proto.stats_report(),
              "metrics": obs.export_metrics()}
    obs.close()
    return result


def _part_run(label, partitions, trace_dir=None):
    """The same run sharded across ``partitions`` worker processes."""
    proto = Prototype(parse_config(label), partitions=partitions,
                      obs_spec=PLANE,
                      trace_dir=None if trace_dir is None
                      else str(trace_dir))
    try:
        latencies = _drive(proto)
        result = {"latencies": latencies, "now": proto.now,
                  "stats": proto.stats_report(),
                  "metrics": proto.merged_metrics(),
                  "partition": proto.partition_metrics(),
                  "trace_paths": proto.trace_paths}
    finally:
        proto.close()
    return result


def _canon(metrics):
    return json.dumps(metrics, sort_keys=True)


class TestWindow:
    def test_default_window_is_derived_from_pcie_margins(self):
        assert lookahead_window(PCIE_ONE_WAY_CYCLES, 2, 2, 0) == 50
        assert window_for_config(parse_config("4x1x2")) == 50

    def test_shaper_latency_shrinks_the_window(self):
        config = parse_config("4x1x2", inter_node_shaper_latency=10)
        assert window_for_config(config) == 40

    def test_margins_eating_the_link_reject_cleanly(self):
        with pytest.raises(ConfigError, match="window"):
            lookahead_window(PCIE_ONE_WAY_CYCLES, 30, 30, 0)
        config = parse_config("4x1x2", inter_node_shaper_latency=50)
        with pytest.raises(ConfigError, match="shaper"):
            window_for_config(config)

    def test_resolve_counts(self):
        config = parse_config("4x1x2")
        assert resolve_partitions(config, None) == 1
        assert resolve_partitions(config, 1) == 1
        assert resolve_partitions(config, 0) == 4      # one per FPGA
        assert resolve_partitions(config, 3) == 3
        single = parse_config("1x1x2")
        assert resolve_partitions(single, 0) == 1      # nothing to split

    def test_resolve_rejects_bad_counts(self):
        config = parse_config("4x1x2")
        with pytest.raises(ConfigError):
            resolve_partitions(config, -1)
        with pytest.raises(ConfigError):
            resolve_partitions(config, True)
        with pytest.raises(ConfigError):
            resolve_partitions(config, 2.0)

    def test_intra_fpga_split_rejected(self):
        # More partitions than FPGAs would have to cut the intra-FPGA
        # crossbar, whose latency is below any safe sync window.
        with pytest.raises(ConfigError, match="intra-FPGA"):
            resolve_partitions(parse_config("4x1x2"), 5)
        with pytest.raises(ConfigError, match="intra-FPGA"):
            Prototype(parse_config("2x2x2"), partitions=3)

    def test_uncuttable_configs_rejected(self):
        with pytest.raises(ConfigError, match="coherent"):
            resolve_partitions(parse_config("1x1x2"), 2)
        loose = parse_config("4x1x2", coherent_interconnect=False)
        with pytest.raises(ConfigError, match="coherent"):
            resolve_partitions(loose, 2)

    def test_fpga_and_node_groups(self):
        assert fpga_groups(4, 2) == [[0, 1], [2, 3]]
        assert fpga_groups(4, 4) == [[0], [1], [2], [3]]
        assert fpga_groups(5, 2) == [[0, 1, 2], [3, 4]]
        assert node_groups(parse_config("2x2x2"), 2) == [[0, 1], [2, 3]]

    def test_kernel_trace_category_rejected(self):
        assert partition_trace_categories(None) == PARTITION_TRACE_CATEGORIES
        with pytest.raises(ConfigError, match="kernel"):
            partition_trace_categories(("noc", "kernel"))


class TestBitIdentity:
    @pytest.mark.parametrize("typed", [True, False])
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_metrics_identical_across_modes(self, monkeypatch, typed,
                                            kernel):
        _use_channels(monkeypatch, typed)
        mono = _mono_run("4x1x2")
        part = _part_run("4x1x2", 2)
        assert part["latencies"] == mono["latencies"]
        assert part["now"] == mono["now"]
        assert part["stats"] == mono["stats"]
        assert _canon(part["metrics"]) == _canon(mono["metrics"])

    @pytest.mark.parametrize("partitions", [2, 4])
    def test_any_partition_count_matches(self, partitions):
        mono = _mono_run("4x1x2")
        part = _part_run("4x1x2", partitions)
        assert part["latencies"] == mono["latencies"]
        assert part["now"] == mono["now"]
        assert part["stats"] == mono["stats"]
        assert _canon(part["metrics"]) == _canon(mono["metrics"])

    def test_multi_node_per_fpga_matches(self):
        # 2x2x2 exercises both cut links and kept intra-FPGA xbar links.
        mono = _mono_run("2x2x2")
        part = _part_run("2x2x2", 2)
        assert part["latencies"] == mono["latencies"]
        assert part["now"] == mono["now"]
        assert part["stats"] == mono["stats"]
        assert _canon(part["metrics"]) == _canon(mono["metrics"])

    @pytest.mark.parametrize("partitions", [2, 4])
    def test_streamed_traces_identical(self, tmp_path, partitions):
        mono_path = tmp_path / "mono.jsonl"
        mono = _mono_run("4x1x2", trace_path=str(mono_path))
        shard_dir = tmp_path / f"p{partitions}"
        shard_dir.mkdir()
        part = _part_run("4x1x2", partitions, trace_dir=shard_dir)
        assert part["latencies"] == mono["latencies"]
        reference = chrome_from_jsonl(str(mono_path))
        merged = chrome_from_jsonl(part["trace_paths"])
        assert json.dumps(merged, sort_keys=True) == \
            json.dumps(reference, sort_keys=True)

    #: Streamed-probe-series plane for the identity test: node-local
    #: metrics only (fabric links exist in several shards), counter
    #: tracks spilled to the JSONL stream instead of memory.  Sample
    #: instants depend only on each component's own hook sequence,
    #: which is partition-invariant.
    STREAM_PLANE = {
        "metrics": ["node*"],
        "sample_interval": 64,
        "trace": {"categories": list(PARTITION_TRACE_CATEGORIES),
                  "stream_series": True},
    }

    @pytest.mark.parametrize("suffix", [".jsonl", ".jsonl.gz"])
    @pytest.mark.parametrize("partitions", [2, 4])
    def test_streamed_probe_series_identical(self, tmp_path, partitions,
                                             suffix):
        from repro.obs import probe_series_from_jsonl
        config = parse_config("4x1x2")
        mono_path = tmp_path / ("mono" + suffix)
        obs = Observer(self.STREAM_PLANE, trace_path=str(mono_path))
        proto = Prototype(config, obs=obs)
        mono_latencies = _drive(proto)
        assert obs.probes.series() == {}       # streamed, never held
        obs.close()
        mono_series = probe_series_from_jsonl(str(mono_path))
        assert mono_series                     # the plane did sample

        shard_dir = tmp_path / f"p{partitions}"
        shard_dir.mkdir()
        proto = Prototype(config, partitions=partitions,
                          obs_spec=self.STREAM_PLANE,
                          trace_dir=str(shard_dir))
        try:
            latencies = _drive(proto)
            merged = proto.merged_series()
        finally:
            proto.close()
        assert latencies == mono_latencies
        assert json.dumps(merged, sort_keys=True) == \
            json.dumps(mono_series, sort_keys=True)

    def test_partition_counters_exported(self):
        part = _part_run("4x1x2", 2)
        counters = part["partition"]
        assert counters["obs.partition.partitions"] == 2
        assert counters["obs.partition.window"] == 50
        assert counters["obs.partition.quanta"] > 0
        assert counters["obs.partition.boundary_messages"] > 0
        assert counters["obs.partition.barrier_wait_seconds"] >= 0.0
        assert counters["obs.partition.events"] > 0


class TestPartitionedSurface:
    def test_live_observer_rejected(self):
        with pytest.raises(ConfigError, match="obs_spec"):
            Prototype(parse_config("4x1x2"), partitions=2,
                      obs=Observer())

    def test_constructor_tail_is_keyword_only(self):
        config = parse_config("4x1x2")
        with Prototype(config, partitions=2) as proto:
            assert type(proto) is PartitionedPrototype
        assert proto._engine._closed
        assert type(Prototype(config, partitions=1)) is Prototype
        with pytest.raises(TypeError):
            Prototype(config, None)
        with pytest.raises(TypeError):
            Prototype(config, kernel="python")

    def test_component_access_and_max_events_rejected(self):
        proto = Prototype(parse_config("4x1x2"), partitions=2)
        try:
            assert isinstance(proto, PartitionedPrototype)
            with pytest.raises(ConfigError, match="worker"):
                proto.tile(0, 0)
            with pytest.raises(ConfigError, match="worker"):
                proto.all_tiles()
            with pytest.raises(ConfigError, match="max_events"):
                proto.run(max_events=10)
            with pytest.raises(ConfigError, match="obs_spec"):
                proto.merged_metrics()
        finally:
            proto.close()

    def test_functional_memory_crosses_partitions(self):
        proto = Prototype(parse_config("4x1x2"), partitions=4)
        try:
            for node in range(4):
                payload = bytes([0x40 + node]) * 24
                proto.load_image(64, payload, node_id=node)
                assert proto.peek_memory(64, 24, node_id=node) == payload
            image = bytes(range(200))
            proto.load_image(4096, image)   # homing-routed across nodes
            assert proto.peek_memory(4096, 200) == image
        finally:
            proto.close()


class TestStorm:
    SHAPE = dict(chains=8, hops=6, batch_width=4, tokens=8)

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("typed", [True, False])
    def test_digests_match_monolithic(self, monkeypatch, typed, kernel):
        _use_channels(monkeypatch, typed)
        mono = run_monolithic_storm(shards=4, **self.SHAPE)
        part = run_partitioned_storm(shards=4, **self.SHAPE)
        assert part["digests"] == mono["digests"]
        assert part["events"] == mono["events"]
        assert part["now"] == mono["now"]
        assert part["partition_metrics"]["obs.partition.quanta"] > 0


class _OneHopShard(Shard):
    """A two-tile node with one packet in flight: routed at 2, delivered
    to tile 1 at 6, and the credit it returns lands at 7."""

    def __init__(self):
        self.sim = Simulator()
        net = NodeNetwork(self.sim, "n0", 0, 2)
        for tile in range(2):
            for channel in NocChannel:
                net.register_endpoint(tile, channel, lambda packet: None)
        net.inject(Packet(src=TileAddr(0, 0), dst=TileAddr(0, 1),
                          channel=NocChannel.REQ, msg_class=MsgClass.PING),
                   0)

    def inject(self, records):
        assert not records   # one partition: no boundary traffic


def _one_hop_shard():
    return _OneHopShard()


class TestClockFloor:
    def test_credit_landing_on_a_quantum_bound_reaches_the_clock(self):
        # A 5-cycle window puts the credit landing exactly on the first
        # bound; the shard reports it as its next work, so a second
        # quantum runs, as it would for a credit event.
        mono = _OneHopShard()
        mono.sim.run()
        assert mono.sim.now == 7
        with PartitionEngine(1, _one_hop_shard, [{}], window=5) as engine:
            engine.run_quiescent()
            assert engine.quanta == 2
            assert engine.global_now == 7

    @pytest.mark.parametrize("window", [1, 5])
    @pytest.mark.parametrize("until", [5, 6, 7])
    def test_bounded_then_full_drain_stops_like_monolithic(self, window,
                                                           until):
        mono = _OneHopShard()
        mono.sim.run(until=until)
        bounded = mono.sim.now
        mono.sim.run()
        assert (bounded, mono.sim.now) == (until, 7)
        with PartitionEngine(1, _one_hop_shard, [{}],
                             window=window) as engine:
            engine.run_quiescent(until=until)
            assert engine.global_now == bounded
            engine.run_quiescent()
            assert engine.global_now == 7


class TestWorkerDeath:
    @pytest.mark.parametrize("victim", [0, 1])
    def test_killed_worker_is_a_typed_error_and_reaped(self, victim):
        proto = Prototype(parse_config("2x1x2"), partitions=2)
        procs = list(proto._engine._procs)
        try:
            proto.measure_pair_latency(0, 3)
            os.kill(procs[victim].pid, signal.SIGKILL)
            procs[victim].join(timeout=10)
            with pytest.raises(SimulationError, match="worker died"):
                proto.measure_pair_latency(0, 3)
        finally:
            proto.close()
        assert not any(proc.is_alive() for proc in procs)


class TestCli:
    def test_sweep_rejects_partitions_flag(self, capsys):
        # Partitioning has no CLI flag: sweep only estimates resource
        # fit, and latency runs the one Fig. 7 sweep.
        for command in (["sweep"], ["latency", "2x1x2"]):
            with pytest.raises(SystemExit) as excinfo:
                main(command + ["--partitions", "2"])
            assert excinfo.value.code == 2
            assert "--partitions" in capsys.readouterr().err
