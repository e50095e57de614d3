"""Full-system tests: the prototype builder and end-to-end behavior."""

import gc
import statistics
from collections import Counter

import pytest

from repro import ConfigError, Prototype, build, parse_config
from repro.cache import load, store
from repro.engine import ConstLatencyChannel, Link, Simulator
from repro.errors import ResourceError
from repro.noc.router import Router, _OutputPort
from repro.obs import Observer
from repro.parallel import latency_matrix_spec, run_sweep
from repro.parallel.osmodel import _measure_machine
from repro.parallel.probes import measure_rows_point


class TestConfig:
    def test_parse_axbxc(self):
        config = parse_config("4x1x12")
        assert config.n_fpgas == 4
        assert config.nodes_per_fpga == 1
        assert config.tiles_per_node == 12
        assert config.n_nodes == 4
        assert config.total_tiles == 48
        assert config.label == "4x1x12"

    def test_parse_rejects_garbage(self):
        with pytest.raises(ConfigError):
            parse_config("4x1")
        with pytest.raises(ConfigError):
            parse_config("axbxc")

    def test_more_than_four_nodes_per_fpga_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("1x5x2")

    def test_more_than_four_fpgas_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("5x1x2")

    def test_design_too_big_for_fpga_rejected(self):
        with pytest.raises(ResourceError):
            parse_config("1x1x14")
        with pytest.raises(ResourceError):
            parse_config("1x4x8")

    def test_table2_defaults(self):
        params = parse_config("1x1x2").params
        assert params.core == "ariane"
        assert params.l1d_bytes == 8 * 1024
        assert params.bpc_bytes == 8 * 1024
        assert params.llc_slice_bytes == 64 * 1024
        assert params.dram_latency_cycles == 80
        assert params.inter_node_rtt_cycles == 125

    def test_fpga_placement(self):
        config = parse_config("2x2x2")
        assert [config.fpga_of_node(n) for n in range(4)] == [0, 0, 1, 1]

    def test_frequency_from_resources(self):
        assert parse_config("1x1x12").achievable_frequency_mhz == 75.0
        assert parse_config("1x4x2").achievable_frequency_mhz == 100.0


class TestSingleNode:
    def test_store_load_across_tiles(self):
        proto = build("1x1x4")
        proto.write_u64(0, 0, 0x1000, 0xFEED)
        assert proto.read_u64(0, 3, 0x1000) == 0xFEED

    def test_dram_latency_near_table2(self):
        # A cold load misses everywhere: NoC + LLC + memory controller +
        # DRAM.  The DRAM portion should land near Table 2's 80 cycles;
        # end-to-end stays within a sane envelope around it.
        proto = build("1x1x4")
        _, cycles = proto.mem_access(0, 1, load(0x80000))
        assert 80 <= cycles <= 250

    def test_warm_load_is_l1_fast(self):
        proto = build("1x1x4")
        proto.mem_access(0, 1, load(0x2000))
        _, warm = proto.mem_access(0, 1, load(0x2000))
        assert warm <= 3


class TestMultiNode:
    def test_cross_node_coherence(self):
        proto = build("2x1x2")
        proto.write_u64(0, 0, 0x4000, 77)
        assert proto.read_u64(1, 1, 0x4000) == 77
        # And back: node 1 writes, node 0 observes.
        proto.write_u64(1, 0, 0x4000, 88)
        assert proto.read_u64(0, 1, 0x4000) == 88

    def test_same_fpga_nodes_cheaper_than_cross_fpga(self):
        # 1x2x2: both nodes on one FPGA -> crossbar path.
        near = build("1x2x2")
        near.write_u64(1, 0, 0x3000, 5)
        _, near_cycles = near.mem_access(0, 0, load(0x3000))
        # 2x1x2: nodes on separate FPGAs -> PCIe path.
        far = build("2x1x2")
        far.write_u64(1, 0, 0x3000, 5)
        _, far_cycles = far.mem_access(0, 0, load(0x3000))
        assert near_cycles < far_cycles

    def test_numa_homing_memory_locality(self):
        config = parse_config("2x1x2", homing="numa")
        proto = Prototype(config)
        base1 = proto.addrmap.node_dram_base(1)
        proto.write_u64(0, 0, base1 + 0x100, 9)   # remote write
        assert proto.read_u64(1, 0, base1 + 0x100) == 9

    def test_global_homing_spreads_homes(self):
        proto = build("2x1x2")
        homes = {proto.homing.home_of(line * 64, None)
                 for line in range(8)}
        assert len(homes) == 4  # all four tiles get homes

    def test_independent_nodes_no_fabric(self):
        config = parse_config("1x4x2", coherent_interconnect=False,
                              homing="cdr")
        proto = Prototype(config)
        assert proto.fabric is None
        # Each node is a separate system: same address, separate values.
        proto.write_u64(0, 0, 0x1000, 11)
        proto.write_u64(1, 0, 0x1000, 22)
        assert proto.read_u64(0, 1, 0x1000) == 11
        assert proto.read_u64(1, 1, 0x1000) == 22


class TestFig7Machinery:
    def test_self_latency_tiny(self):
        proto = build("2x1x4")
        assert proto.measure_pair_latency(0, 0) < 20

    def test_intra_node_band(self):
        proto = build("4x1x12")
        samples = [proto.measure_pair_latency(i, j)
                   for i in (0, 5) for j in range(1, 12, 3) if i != j]
        mean = statistics.mean(samples)
        assert 70 <= mean <= 135, f"intra-node mean {mean}"

    def test_inter_node_band(self):
        proto = build("4x1x12")
        samples = [proto.measure_pair_latency(i, j)
                   for i in (0, 5) for j in range(12, 48, 7)]
        mean = statistics.mean(samples)
        assert 220 <= mean <= 330, f"inter-node mean {mean}"

    def test_numa_ratio_about_2_5x(self):
        proto = build("4x1x12")
        intra = statistics.mean(
            proto.measure_pair_latency(1, j) for j in range(2, 12, 2))
        inter = statistics.mean(
            proto.measure_pair_latency(1, j) for j in range(12, 48, 6))
        assert 2.0 <= inter / intra <= 3.5

    def test_latency_matrix_shape(self):
        spec = latency_matrix_spec(parse_config("2x1x2"))
        matrix = run_sweep(spec).value["rows"]
        assert len(matrix) == 4
        assert all(len(row) == 4 for row in matrix)
        # NUMA structure: diagonal blocks cheap, off-diagonal expensive.
        assert matrix[0][1] < matrix[0][2]
        assert matrix[3][2] < matrix[3][0]


class TestConstruction:
    def test_fresh_prototype_allocates_no_cache_set(self):
        """A build makes no set dict; a set is made on its first fill."""
        with Prototype(parse_config("4x1x12")) as proto:
            arrays = [cache.array for tile in proto.all_tiles()
                      for cache in (tile.l1, tile.bpc, tile.llc)]
            assert len(arrays) == 3 * 48
            assert all(cache_set is None for array in arrays
                       for cache_set in array._sets)


class TestStats:
    def test_stats_report_aggregates(self):
        proto = build("1x1x2")
        proto.write_u64(0, 0, 0x100, 1)
        proto.read_u64(0, 1, 0x100)
        report = proto.stats_report()
        assert report.get("misses", 0) > 0
        assert report.get("gets", 0) > 0


#: Model objects that sit on the reference cycles :meth:`Prototype.close`
#: breaks.
CYCLIC_MODEL = (Simulator, ConstLatencyChannel, Link, _OutputPort, Router,
                Observer)


class TestLifetime:
    def test_with_block_yields_the_prototype_and_closes_it(self):
        config = parse_config("1x1x2")
        expected = build("1x1x2").measure_pair_latency(0, 1)
        prototype = Prototype(config)
        with prototype as proto:
            assert proto is prototype
            assert proto.measure_pair_latency(0, 1) == expected
            sim, tile = proto.sim, proto.tile(0, 1)
        assert vars(sim) == {} and vars(tile) == {}
        proto.close()
        assert vars(sim) == {}

    def test_closed_points_leave_no_cyclic_model(self):
        """Every Fig. 7 shard and Fig. 8/9 machine prototype is freed by
        reference counting when its point returns."""
        config = parse_config("2x1x2")
        point = {"senders": [0, 1], "probes_per_pair": 1}
        runs = {
            "rows": lambda: measure_rows_point(config, point, 0, None),
            "rows, obs {}": lambda: measure_rows_point(config, point, 0, {}),
            "machine": lambda: _measure_machine(config, None),
        }
        enabled, debug = gc.isenabled(), gc.get_debug()
        gc.disable()
        try:
            runs["rows, obs {}"]()      # warm-up: lazy imports and caches
            left = {}
            for name, run in runs.items():
                gc.collect()
                gc.set_debug(debug | gc.DEBUG_SAVEALL)
                run()
                gc.collect()
                gc.set_debug(debug)
                left[name] = dict(Counter(
                    type(obj).__name__ for obj in gc.garbage
                    if isinstance(obj, CYCLIC_MODEL)))
                # Free what DEBUG_SAVEALL kept.
                del gc.garbage[:]
            assert left == {name: {} for name in runs}
        finally:
            gc.set_debug(debug)
            del gc.garbage[:]
            gc.collect()
            if enabled:
                gc.enable()
