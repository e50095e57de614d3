"""Tests for workload models: IS/NUMA, GNG benchmarks, MAPLE kernels,
HelloWorld, SPEC catalog."""

import pytest

from repro import build
from repro.errors import ConfigError, WorkloadError
from repro.osmodel import NumaKernel, NumaMachine, Taskset, \
    machine_from_prototype
from repro.workloads import (SPECINT_2017, IntSortModel, IntSortParams,
                             fig10_speedups, fig11_speedups, run_helloworld,
                             total_instructions)

from intsort_reference import fig8_series, fig9_series

MACHINE = NumaMachine(n_nodes=4, cores_per_node=12)


class TestNumaKernel:
    def test_numa_on_first_touch_is_local(self):
        kernel = NumaKernel(MACHINE, numa_on=True)
        placement = kernel.place_threads(12, Taskset.all_nodes(MACHINE))
        assert placement.local_page_fraction == 1.0

    def test_numa_off_pages_spread_over_all_nodes(self):
        kernel = NumaKernel(MACHINE, numa_on=False)
        placement = kernel.place_threads(12, Taskset.all_nodes(MACHINE))
        assert placement.local_page_fraction == pytest.approx(0.25)

    def test_threads_round_robin_over_allowed_nodes(self):
        kernel = NumaKernel(MACHINE, numa_on=True)
        placement = kernel.place_threads(6, Taskset.first_nodes(2))
        assert placement.thread_nodes == [0, 1, 0, 1, 0, 1]

    def test_too_many_threads_rejected(self):
        kernel = NumaKernel(MACHINE, numa_on=True)
        with pytest.raises(ConfigError):
            kernel.place_threads(13, Taskset.first_nodes(1))

    def test_exchange_remote_fraction(self):
        on = NumaKernel(MACHINE, numa_on=True)
        assert on.exchange_remote_fraction(Taskset.first_nodes(1)) == 0.0
        assert on.exchange_remote_fraction(Taskset.first_nodes(4)) \
            == pytest.approx(0.75)
        off = NumaKernel(MACHINE, numa_on=False)
        # Non-NUMA data is on all nodes regardless of pinning.
        assert off.exchange_remote_fraction(Taskset.first_nodes(1)) \
            == pytest.approx(0.75)

    def test_machine_from_prototype_measures_latencies(self):
        proto = build("2x1x2")
        machine = machine_from_prototype(proto, probes=2)
        assert machine.n_nodes == 2
        assert machine.remote_latency > machine.local_latency * 1.8


class TestFig8:
    def test_numa_always_wins(self):
        series = fig8_series(MACHINE)
        for on, off in zip(series["numa_on"], series["numa_off"]):
            assert off > on

    def test_ratio_band_and_growth(self):
        """Paper: NUMA mode reduces runtime by 1.6-2.8x, strongest at
        high thread counts."""
        series = fig8_series(MACHINE)
        ratios = [off / on for on, off
                  in zip(series["numa_on"], series["numa_off"])]
        assert 1.4 <= ratios[0] <= 2.0
        assert 2.4 <= ratios[-1] <= 3.2
        assert all(ratios[i] <= ratios[i + 1] for i in range(len(ratios) - 1))

    def test_runtime_scales_down_with_threads(self):
        series = fig8_series(MACHINE)
        for values in (series["numa_on"], series["numa_off"]):
            assert all(values[i] > values[i + 1]
                       for i in range(len(values) - 1))

    def test_absolute_scale_matches_figure(self):
        """Fig. 8's y-axis tops out around 3000 seconds."""
        series = fig8_series(MACHINE)
        assert 2000 <= series["numa_off"][0] <= 3600
        assert 80 <= series["numa_on"][-1] <= 250


class TestFig9:
    def test_numa_on_prefers_fewer_nodes(self):
        series = fig9_series(MACHINE)
        on = series["numa_on"]
        assert all(on[i] <= on[i + 1] for i in range(len(on) - 1))

    def test_numa_off_prefers_more_nodes(self):
        series = fig9_series(MACHINE)
        off = series["numa_off"]
        assert all(off[i] >= off[i + 1] for i in range(len(off) - 1))

    def test_off_worse_than_on_everywhere(self):
        series = fig9_series(MACHINE)
        for on, off in zip(series["numa_on"], series["numa_off"]):
            assert off > on


class TestGngBenchmarks:
    @pytest.fixture(scope="class")
    def speedups(self):
        return fig10_speedups(n_samples=128)

    def test_hardware_always_beats_software(self, speedups):
        for bench in ("noise_generator", "noise_applier"):
            for mode in ("1", "2", "4"):
                assert speedups[bench][mode] > 1.0

    def test_wider_fetches_help(self, speedups):
        for bench in ("noise_generator", "noise_applier"):
            assert speedups[bench]["1"] < speedups[bench]["2"] \
                < speedups[bench]["4"]

    def test_generator_bands_match_paper(self, speedups):
        """Paper Fig. 10 benchmark A: 12x / 21x / 32x."""
        gen = speedups["noise_generator"]
        assert 9 <= gen["1"] <= 16
        assert 16 <= gen["2"] <= 27
        assert 25 <= gen["4"] <= 42

    def test_applier_gains_smaller_than_generator(self, speedups):
        """Benchmark B accelerates a smaller share of the runtime."""
        for mode in ("1", "2", "4"):
            assert speedups["noise_applier"][mode] \
                < speedups["noise_generator"][mode]

    def test_applier_bands_match_paper(self, speedups):
        """Paper Fig. 10 benchmark B: 7.4x / 10x / 13x."""
        app = speedups["noise_applier"]
        assert 5.5 <= app["1"] <= 10.5
        assert 7.5 <= app["2"] <= 13
        assert 9 <= app["4"] <= 16


class TestMapleKernels:
    @pytest.fixture(scope="class")
    def speedups(self):
        return fig11_speedups()

    def test_maple_beats_second_thread_on_latency_bound(self, speedups):
        """Paper: MAPLE is more efficient than a second thread in
        latency-bound applications (SPMV, BFS)."""
        for kernel in ("spmv", "bfs"):
            assert speedups[kernel]["maple"] > speedups[kernel]["2thread"]

    def test_second_thread_beats_maple_on_compute_bound(self, speedups):
        assert speedups["spmm"]["maple"] < speedups["spmm"]["2thread"]

    def test_maple_bands_match_paper(self, speedups):
        """Fig. 11 MAPLE column: 2.4 / 1.0 / 1.9 / 2.2."""
        assert 1.9 <= speedups["spmv"]["maple"] <= 3.0
        assert 0.9 <= speedups["spmm"]["maple"] <= 1.7
        assert 1.5 <= speedups["sdhp"]["maple"] <= 2.5
        assert 1.8 <= speedups["bfs"]["maple"] <= 2.8

    def test_two_threads_always_help(self, speedups):
        for kernel in speedups:
            assert speedups[kernel]["2thread"] > 1.3

    def test_checksums_agree_across_modes(self):
        from repro.workloads import MapleKernelBench
        bench = MapleKernelBench()
        sums = {mode: bench.run("spmv", mode)["checksum"]
                for mode in ("1thread", "maple", "2thread")}
        assert sums["1thread"] == sums["maple"] == sums["2thread"]


class TestHelloWorld:
    def test_prints_and_terminates(self):
        result = run_helloworld(build("1x1x2"))
        assert result.console == "Hello, world!\n"
        assert result.exit_code == 0

    def test_runtime_matches_paper_order(self):
        """Paper Sec. 4.5: SMAPPIC finishes HelloWorld in ~4 ms."""
        result = run_helloworld(build("1x1x2"))
        milliseconds = result.cycles / 100_000
        assert 1.0 <= milliseconds <= 10.0


class TestSpecCatalog:
    def test_ten_benchmarks(self):
        assert len(SPECINT_2017) == 10

    def test_perlbench_forks(self):
        assert SPECINT_2017["perlbench"].forks

    def test_mcf_needs_giant_gem5_host(self):
        assert SPECINT_2017["mcf"].gem5_memory_gb == 350.0

    def test_total_instructions(self):
        assert total_instructions() == pytest.approx(
            sum(b.dynamic_instructions for b in SPECINT_2017.values()))
