"""Tests for repro.parallel: bit-identical serial/parallel execution."""

import json
import multiprocessing
import os
import signal

import pytest

from intsort_reference import fig8_series, fig9_series
from repro import parse_config
from repro.errors import ConfigError, FarmError
from repro.parallel import (SweepSpec, env_jobs, fig8_spec, fig9_spec,
                            fixed_shards, latency_matrix_spec, resolve_jobs,
                            run_sweep, run_tasks, task_seed)
from repro.parallel import sweep as sweep_mod
from repro.store import ResultStore


def _square(value):
    return value * value


def _boom(value):
    raise ValueError(f"task {value} failed")


def _kill_first_attempt(config, point, seed, obs_spec):
    """Sweep point fn: a ``kill`` point SIGKILLs its own process the
    first time it runs (the marker file remembers that it did)."""
    if point["kill"] and not os.path.exists(point["marker"]):
        open(point["marker"], "w").close()
        os.kill(os.getpid(), signal.SIGKILL)
    return {"square": point["i"] ** 2, "seed": seed}


def _cache_then_fail(config, point, seed, obs_spec):
    """Sweep point fn: fills the sweep cache, then the last point fails."""
    sweep_mod.sweep_cached(("test", point), lambda: point)
    if point == 1:
        raise ValueError("point 1 failed")
    return point


def _first_cached(config, point, seed, obs_spec):
    """Sweep point fn: the first point its task cached under one key."""
    return sweep_mod.sweep_cached(("first",), lambda: point)


@pytest.fixture
def builds(monkeypatch):
    """Counts ``Prototype`` constructions in this process."""
    from repro.core.prototype import Prototype

    calls = []
    original = Prototype.__init__

    def counting(self, *args, **kwargs):
        calls.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Prototype, "__init__", counting)
    return calls


class TestRunner:
    def test_serial_matches_parallel(self):
        tasks = list(range(23))
        assert (run_tasks(_square, tasks, jobs=1)
                == run_tasks(_square, tasks, jobs=4))

    def test_order_preserved_with_many_chunks(self):
        tasks = list(range(50))
        assert run_tasks(_square, tasks, jobs=3) == [t * t for t in tasks]

    def test_empty_and_single_task(self):
        assert run_tasks(_square, [], jobs=4) == []
        assert run_tasks(_square, [7], jobs=4) == [49]

    def test_worker_exception_propagates(self):
        with pytest.raises(ValueError):
            run_tasks(_boom, [1], jobs=1)
        # On workers the failure is retried once, then quarantined.
        with pytest.raises(FarmError, match="ValueError: task 1 failed"):
            run_tasks(_boom, [1, 2, 3], jobs=2)
        assert multiprocessing.active_children() == []

    def test_resolve_jobs(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs(None) >= 1
        assert resolve_jobs(0) == resolve_jobs(None)
        with pytest.raises(ConfigError):
            resolve_jobs(-1)

    def test_env_jobs(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert env_jobs() == 1
        assert env_jobs(default=4) == 4
        monkeypatch.setenv("REPRO_JOBS", "8")
        assert env_jobs() == 8
        monkeypatch.setenv("REPRO_JOBS", "0")
        assert env_jobs() == 0

    def test_env_jobs_rejects_bad_values(self, monkeypatch):
        for value in ("abc", "-2", "1.5", ""):
            monkeypatch.setenv("REPRO_JOBS", value)
            with pytest.raises(ConfigError, match="REPRO_JOBS"):
                env_jobs()

    def test_fixed_shards(self):
        assert fixed_shards([1, 2, 3, 4, 5], 2) == [[1, 2], [3, 4], [5]]
        assert fixed_shards([], 3) == []
        with pytest.raises(ConfigError):
            fixed_shards([1], 0)

    def test_task_seed_stable_and_distinct(self):
        assert task_seed(11, "probe", 3) == task_seed(11, "probe", 3)
        seeds = {task_seed(11, "probe", i) for i in range(32)}
        assert len(seeds) == 32
        assert task_seed(11, "probe", 0) != task_seed(12, "probe", 0)
        assert task_seed(11, "probe", 0) != task_seed(11, "other", 0)


class TestShardedProbes:
    def test_matrix_identical_serial_vs_parallel(self, tmp_path):
        # 2x1x4 is two 4-row shards, so jobs=2 really starts a pool.
        spec = latency_matrix_spec(parse_config("2x1x4"), obs_spec={})
        serial = run_sweep(spec, jobs=1)
        parallel = run_sweep(spec, jobs=2)
        assert serial.points == 2
        assert json.dumps(parallel.value) == json.dumps(serial.value)
        assert serial.value["metrics"]
        cold = run_sweep(spec, jobs=2, store=ResultStore(tmp_path))
        assert (cold.hits, cold.misses) == (0, 2)
        warm = run_sweep(spec, jobs=1, store=ResultStore(tmp_path))
        assert (warm.hits, warm.misses) == (2, 0)
        assert json.dumps(cold.value) == json.dumps(serial.value)
        assert json.dumps(warm.value) == json.dumps(serial.value)

    def test_shard_size_part_of_experiment(self):
        # Fixed 4-row shards define which probes share a prototype; the
        # point payloads (and so every store key) never depend on jobs.
        spec = latency_matrix_spec(parse_config("2x1x6"))
        assert spec.points == [
            {"senders": [0, 1, 2, 3], "probes_per_pair": 1},
            {"senders": [4, 5, 6, 7], "probes_per_pair": 1},
            {"senders": [8, 9, 10, 11], "probes_per_pair": 1}]


class TestWorkerFaults:
    def test_killed_point_is_retried_to_the_serial_value(self, tmp_path):
        marker = str(tmp_path / "killed")
        spec = SweepSpec(family="kill", config=parse_config("1x2x2"),
                         points=[{"i": i, "kill": i == 1, "marker": marker}
                                 for i in range(3)],
                         point_fn=_kill_first_attempt)
        parallel = run_sweep(spec, jobs=2)
        assert os.path.exists(marker)       # the first attempt died
        serial = run_sweep(spec, jobs=1)    # the marker spares this one
        assert json.dumps(parallel.value) == json.dumps(serial.value)
        assert parallel.config_hash == serial.config_hash
        assert multiprocessing.active_children() == []


class TestCliJobs:
    def test_sweep_jobs(self, capsys):
        from repro.cli import main
        assert main(["sweep", "--jobs", "2"]) == 0
        assert "configurations that fit" in capsys.readouterr().out


class TestShardedOsModel:
    """Fig. 8/9 sweeps: serial == parallel == legacy, bit for bit."""

    CONFIG = "2x1x2"
    THREADS = (2, 4)

    def test_fig8_serial_parallel_legacy_identical(self):
        from repro.core.prototype import Prototype
        from repro.osmodel import machine_from_prototype
        from repro.parallel import fig8_spec
        from repro.workloads.intsort import IntSortParams

        config = parse_config(self.CONFIG)
        serial = run_sweep(fig8_spec(config, self.THREADS), jobs=1).value
        parallel = run_sweep(fig8_spec(config, self.THREADS), jobs=2).value
        legacy_machine = machine_from_prototype(Prototype(config))
        legacy = fig8_series(legacy_machine, self.THREADS, IntSortParams())
        assert (serial["machine"] == parallel["machine"]
                == legacy_machine.to_dict())
        assert serial["series"] == parallel["series"] == legacy

    def test_fig9_serial_parallel_legacy_identical(self):
        from repro.core.prototype import Prototype
        from repro.osmodel import machine_from_prototype
        from repro.parallel import fig9_spec
        from repro.workloads.intsort import IntSortParams

        config = parse_config(self.CONFIG)
        serial = run_sweep(fig9_spec(config, n_threads=2), jobs=1).value
        parallel = run_sweep(fig9_spec(config, n_threads=2), jobs=2).value
        legacy_machine = machine_from_prototype(Prototype(config))
        legacy = fig9_series(legacy_machine, 2, IntSortParams())
        assert (serial["machine"] == parallel["machine"]
                == legacy_machine.to_dict())
        assert serial["series"] == parallel["series"] == legacy

    def test_fig8_task_seeds_are_distinct(self):
        from repro.parallel.runner import task_seed

        seeds = [task_seed(0, "fig8", i) for i in range(5)]
        assert len(set(seeds)) == 5

    def test_fig8_on_one_tile_nodes(self):
        # One tile per node has no intra-node pair to probe: the local
        # latency falls back to the Table 2 default.
        config = parse_config("2x1x1")
        value = run_sweep(fig8_spec(config, thread_counts=(1, 2)),
                          jobs=1).value
        assert value["machine"]["local_latency"] == 100.0
        assert value["machine"]["remote_latency"] > 100.0
        assert len(value["series"]["numa_on"]) == 2


class TestSweepCache:
    """The machine is measured once per sweep, never across sweeps."""

    def test_fig8_and_fig9_run_in_process_at_any_jobs(self, builds,
                                                       monkeypatch):
        from repro.farm import LocalHost

        def no_workers(*args):
            raise AssertionError("a one-task sweep launched a worker")

        config = parse_config("2x1x2")
        specs = (fig8_spec(config, thread_counts=(1, 2, 3, 4)),
                 fig9_spec(config, n_threads=2))
        serial = [run_sweep(spec, jobs=1).value for spec in specs]
        monkeypatch.setattr(LocalHost, "launch", no_workers)
        del builds[:]
        for spec, value in zip(specs, serial):
            assert run_sweep(spec, jobs=2).value == value
        assert len(builds) == 2     # one Prototype per sweep
        assert sweep_mod._SWEEP_CACHE == {}

    def test_cache_lives_one_task_in_every_mode(self):
        from repro.farm import farm_sweep, local_farm

        config = parse_config("1x2x2")
        per_point = SweepSpec(family="memo", config=config,
                              points=[0, 1, 2], point_fn=_first_cached)
        one_task = SweepSpec(family="memo", config=config,
                             points=[0, 1, 2], point_fn=_first_cached,
                             one_task=True)
        assert run_sweep(per_point, jobs=1).values == [0, 1, 2]
        # One persistent worker serves all three jobs in turn.
        assert farm_sweep(per_point, local_farm(slots=1)).values \
            == [0, 1, 2]
        assert run_sweep(one_task, jobs=2).values == [0, 0, 0]
        assert farm_sweep(one_task, local_farm(slots=2)).values \
            == [0, 0, 0]

    def test_warm_points_are_not_measured(self, builds, tmp_path):
        spec = fig9_spec(parse_config("2x1x2"), n_threads=2)
        serial = run_sweep(spec, jobs=1)
        del builds[:]
        root = str(tmp_path / "store")
        _, tasks = sweep_mod.sweep_tasks(spec, root)
        sweep_mod.sweep_group_task(tasks[1:])       # warm the last point
        assert len(builds) == 1
        mixed = run_sweep(spec, jobs=2, store=ResultStore(root))
        assert (mixed.hits, mixed.misses) == (1, 1)
        assert len(builds) == 2     # measured once, at the first miss
        warm = run_sweep(spec, jobs=2, store=ResultStore(root))
        assert (warm.hits, warm.misses) == (2, 0)
        assert len(builds) == 2
        assert mixed.value == warm.value == serial.value

    def test_serial_sweep_builds_one_prototype(self, builds):
        spec = fig8_spec(parse_config("2x1x2"), thread_counts=(1, 2, 4))
        first = run_sweep(spec, jobs=1)
        assert len(builds) == 1
        assert sweep_mod._SWEEP_CACHE == {}
        second = run_sweep(spec, jobs=1)
        assert len(builds) == 2
        assert first.value == second.value

    def test_failing_point_leaves_the_cache_empty(self):
        for one_task in (False, True):
            spec = SweepSpec(family="boom", config=parse_config("1x2x2"),
                             points=[0, 1], point_fn=_cache_then_fail,
                             one_task=one_task)
            with pytest.raises(ValueError, match="point 1 failed"):
                run_sweep(spec, jobs=1)
            assert sweep_mod._SWEEP_CACHE == {}

    def test_metrics_identical_across_executors(self):
        from repro.farm import farm_sweep, local_farm
        from repro.obs.archive import merge_metric_shards
        from repro.parallel.osmodel import _measure_machine

        config = parse_config("2x1x2")
        machine, metrics = _measure_machine(config, {})
        for spec in (fig8_spec(config, (2, 4), obs_spec={}),
                     fig9_spec(config, n_threads=2, obs_spec={})):
            results = [run_sweep(spec, jobs=1), run_sweep(spec, jobs=2),
                       farm_sweep(spec, local_farm(slots=2,
                                                   backoff_base=0.0))]
            dumped = {json.dumps(result.value, sort_keys=True)
                      for result in results}
            assert len(dumped) == 1
            value = results[0].value
            assert value["machine"] == machine.to_dict()
            # Each point exports one identical measurement, so the merge
            # equals merging a fresh measurement once per point.
            assert value["metrics"] == json.loads(json.dumps(
                merge_metric_shards([metrics] * len(spec.points))))


class TestSpecValidation:
    """Thread counts that cannot fit fail when the spec is built."""

    def test_fig8_needs_thread_counts(self):
        config = parse_config("2x1x2")
        for jobs in (1, 2):
            with pytest.raises(ConfigError, match="fig8: no thread"):
                run_sweep(fig8_spec(config, thread_counts=()), jobs=jobs)

    def test_fig8_counts_must_fit_the_prototype(self):
        config = parse_config("2x1x2")
        with pytest.raises(ConfigError, match="fig8"):
            fig8_spec(config)           # default counts reach 48
        with pytest.raises(ConfigError, match=r"\[0\]"):
            fig8_spec(config, thread_counts=(0, 2))
        assert len(fig8_spec(config, thread_counts=(1, 4)).points) == 2

    def test_fig9_threads_must_fit_one_node(self):
        config = parse_config("2x1x2")
        with pytest.raises(ConfigError, match="fig9"):
            fig9_spec(config)           # default 12 threads
        with pytest.raises(ConfigError, match="fig9"):
            fig9_spec(config, n_threads=0)
        assert len(fig9_spec(config, n_threads=2).points) == 2
