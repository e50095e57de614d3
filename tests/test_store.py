"""Tests for repro.store + run_sweep memoization: the warm-cache contract."""

import json
import os

import pytest

from repro import parse_config
from repro.errors import StoreError
from repro.parallel import (SweepSpec, fig8_spec, fig9_spec,
                            latency_matrix_spec, run_sweep, run_tasks)
from repro.parallel.sweep import sweep_tasks
from repro.store import (GCItem, ResultStore, STORE_SCHEMA_VERSION,
                         canonical_value, entry_key, gc_runs, gc_select,
                         parse_age, parse_bytes, store_from_env)


def _toy_point(config, point, seed, obs_spec):
    """Cheap module-level point fn (picklable) for store plumbing tests."""
    return {"doubled": point["x"] * 2, "seed": seed}


def _toy_spec(config, version="1", n=3):
    return SweepSpec(family="toy", config=config,
                     points=[{"x": i} for i in range(n)],
                     point_fn=_toy_point, version=version)


def _race_task(task):
    """Worker: hammer one key with put+load; returns loaded values."""
    root, key, value, rounds = task
    store = ResultStore(root)
    seen = []
    for _ in range(rounds):
        store.put(key, value, payload={"family": "race"})
        found, got = store.load(key)
        assert found
        seen.append(got)
    return seen


class TestResultStore:
    def test_put_load_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key = entry_key({"family": "t", "point": 1})
        found, _ = store.load(key)
        assert not found and store.misses == 1
        store.put(key, {"rows": [1, 2]}, payload={"family": "t"})
        found, value = store.load(key)
        assert found and value == {"rows": [1, 2]}
        assert store.hits == 1 and store.writes == 1

    def test_export_metrics_names(self, tmp_path):
        store = ResultStore(tmp_path)
        store.record(hits=2, misses=3, evictions=1, writes=3)
        assert store.export_metrics() == {
            "obs.store.hit": 2, "obs.store.miss": 3,
            "obs.store.evict": 1, "obs.store.write": 3}

    def test_corrupt_entry_evicted_not_fatal(self, tmp_path):
        store = ResultStore(tmp_path)
        key = entry_key({"p": 1})
        path = store.put(key, 42)
        with open(path, "w") as handle:
            handle.write("{truncated json")
        with pytest.warns(UserWarning, match="evicting"):
            found, _ = store.load(key)
        assert not found
        assert store.evictions == 1
        assert not os.path.exists(path)

    def test_schema_mismatch_evicted(self, tmp_path):
        store = ResultStore(tmp_path)
        key = entry_key({"p": 2})
        path = store.path_for(key)
        os.makedirs(os.path.dirname(path))
        with open(path, "w") as handle:
            json.dump({"schema_version": STORE_SCHEMA_VERSION + 99,
                       "key": key, "value": 1}, handle)
        with pytest.warns(UserWarning, match="schema"):
            found, _ = store.load(key)
        assert not found and store.evictions == 1

    def test_key_mismatch_evicted(self, tmp_path):
        store = ResultStore(tmp_path)
        key = entry_key({"p": 3})
        path = store.path_for(key)
        os.makedirs(os.path.dirname(path))
        with open(path, "w") as handle:
            json.dump({"schema_version": STORE_SCHEMA_VERSION,
                       "key": "someone-else", "value": 1}, handle)
        with pytest.warns(UserWarning):
            found, _ = store.load(key)
        assert not found

    def test_concurrent_writers_same_key(self, tmp_path):
        root = str(tmp_path / "store")
        key = entry_key({"family": "race"})
        value = {"rows": list(range(32))}
        tasks = [(root, key, value, 10) for _ in range(4)]
        results = run_tasks(_race_task, tasks, jobs=4)
        # Every load during the race saw a complete, identical entry.
        assert all(got == value for seen in results for got in seen)
        found, got = ResultStore(root).load(key)
        assert found and got == value

    def test_entries_stats_clear(self, tmp_path):
        store = ResultStore(tmp_path)
        for i in range(3):
            store.put(entry_key({"i": i}), i, payload={"family": "t",
                                                       "point": i})
        entries = store.entries()
        assert len(entries) == 3
        stats = store.stats()
        assert stats["entries"] == 3
        assert stats["bytes"] == sum(e.bytes for e in entries)
        assert store.describe(entries[0])["family"] == "t"
        assert store.clear() == 3
        assert store.entries() == []

    def test_gc_max_age(self, tmp_path):
        store = ResultStore(tmp_path)
        old = store.put(entry_key({"i": "old"}), 1)
        new = store.put(entry_key({"i": "new"}), 2)
        past = os.stat(new).st_mtime - 1000
        os.utime(old, (past, past))
        stats = store.gc(max_age_seconds=500)
        assert stats.removed == 1 and stats.kept == 1
        assert not os.path.exists(old) and os.path.exists(new)

    def test_gc_max_bytes_drops_oldest_first(self, tmp_path):
        store = ResultStore(tmp_path)
        paths = [store.put(entry_key({"i": i}), "x" * 100)
                 for i in range(4)]
        base = os.stat(paths[0]).st_mtime
        for i, path in enumerate(paths):
            os.utime(path, (base + i, base + i))
        keep_two = sum(os.stat(p).st_size for p in paths[2:])
        stats = store.gc(max_bytes=keep_two)
        assert stats.removed == 2
        assert [os.path.exists(p) for p in paths] == [False, False,
                                                      True, True]

    def test_gc_select_deterministic_ties(self):
        items = [GCItem(path=f"p{i}", bytes=10, mtime=100.0)
                 for i in range(3)]
        doomed = gc_select(items, max_bytes=15, now=200.0)
        assert [item.path for item in doomed] == ["p0", "p1"]

    def test_store_from_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        assert store_from_env() is None
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "s"))
        store = store_from_env()
        assert store is not None and store.root == str(tmp_path / "s")

    def test_parse_units(self):
        assert parse_age("90") == 90
        assert parse_age("2h") == 7200
        assert parse_age("7d") == 7 * 86400
        assert parse_bytes("4096") == 4096
        assert parse_bytes("2k") == 2048
        assert parse_bytes("1M") == 1 << 20
        with pytest.raises(StoreError):
            parse_age("soon")
        with pytest.raises(StoreError):
            parse_bytes("big")
        with pytest.raises(StoreError):
            parse_age("-5s")


class TestGcRuns:
    def test_runs_tree_shares_policy(self, tmp_path):
        from repro.obs.archive import RunArchive
        root = tmp_path / "runs"
        for name in ("a", "b"):
            RunArchive.write(str(root / name), {"m": 1},
                             label="2x1x2", seed=0)
        # Non-archive directories are never collected.
        os.makedirs(root / "not-an-archive")
        old = str(root / "a")
        past = os.stat(old).st_mtime - 1000
        for dirpath, _dirs, files in os.walk(old):
            for name in files:
                os.utime(os.path.join(dirpath, name), (past, past))
        stats = gc_runs(str(root), max_age_seconds=500)
        assert stats.removed == 1 and stats.kept == 1
        assert not os.path.exists(old)
        assert os.path.exists(root / "b")
        assert os.path.exists(root / "not-an-archive")

    def test_missing_root_is_empty(self, tmp_path):
        stats = gc_runs(str(tmp_path / "nope"), max_age_seconds=1)
        assert stats.removed == 0 and stats.kept == 0


class TestCrashedWriter:
    """A writer that died mid-publish must never corrupt the store."""

    @staticmethod
    def _store_with_debris(tmp_path, age_seconds):
        store = ResultStore(str(tmp_path / "store"))
        key = entry_key({"family": "toy", "x": 1})
        store.put(key, {"ok": True}, payload={"family": "toy"})
        objects = os.path.join(store.root, "objects", key[:2])
        debris = [os.path.join(objects, ".tmp-dead123.json"),
                  os.path.join(objects, "half-written.tmp")]
        for path in debris:
            with open(path, "w") as handle:
                handle.write('{"value": "torn')    # truncated JSON
            past = os.stat(path).st_mtime - age_seconds
            os.utime(path, (past, past))
        return store, key, debris

    def test_tmp_files_never_listed_as_entries(self, tmp_path):
        store, key, _debris = self._store_with_debris(tmp_path, 0)
        entries = store.entries()
        assert [entry.key for entry in entries] == [key]

    def test_stale_tmp_swept_on_scan(self, tmp_path):
        store, key, debris = self._store_with_debris(tmp_path, 9000)
        store.entries()
        for path in debris:
            assert not os.path.exists(path)
        # The published entry survives and still loads.
        found, value = store.load(key)
        assert found and value == {"ok": True}

    def test_fresh_tmp_kept_within_grace(self, tmp_path):
        # A temp file younger than the grace window may belong to a
        # live writer mid-publish; scanning must not race it.
        store, _key, debris = self._store_with_debris(tmp_path, 0)
        store.entries()
        for path in debris:
            assert os.path.exists(path)

    def test_sweep_tmp_counts_removals(self, tmp_path):
        store, _key, debris = self._store_with_debris(tmp_path, 9000)
        assert store.sweep_tmp() == len(debris)
        assert store.sweep_tmp() == 0


class TestRunSweepStore:
    CONFIG = "2x1x2"

    def test_cold_miss_then_warm_hit(self, tmp_path):
        config = parse_config(self.CONFIG)
        store = ResultStore(tmp_path / "store")
        cold = run_sweep(_toy_spec(config), store=store)
        assert cold.misses == 3 and cold.hits == 0 and not cold.warm
        warm_store = ResultStore(tmp_path / "store")
        warm = run_sweep(_toy_spec(config), store=warm_store)
        assert warm.hits == 3 and warm.misses == 0 and warm.warm
        assert json.dumps(cold.value) == json.dumps(warm.value)
        assert store.export_metrics()["obs.store.write"] == 3
        assert warm_store.export_metrics()["obs.store.hit"] == 3

    def test_version_bump_invalidates(self, tmp_path):
        config = parse_config(self.CONFIG)
        store = ResultStore(tmp_path)
        run_sweep(_toy_spec(config, version="1"), store=store)
        bumped = run_sweep(_toy_spec(config, version="2"), store=store)
        assert bumped.misses == 3 and bumped.hits == 0

    def test_config_change_invalidates(self, tmp_path):
        store = ResultStore(tmp_path)
        run_sweep(_toy_spec(parse_config(self.CONFIG)), store=store)
        other = run_sweep(_toy_spec(parse_config(self.CONFIG, seed=1)),
                          store=store)
        assert other.misses == 3

    def test_parallel_workers_populate_shared_store(self, tmp_path):
        config = parse_config(self.CONFIG)
        store = ResultStore(tmp_path)
        cold = run_sweep(_toy_spec(config, n=6), jobs=3, store=store)
        assert cold.misses == 6
        assert store.writes == 6            # folded back from workers
        warm = run_sweep(_toy_spec(config, n=6), jobs=2,
                         store=ResultStore(tmp_path))
        assert warm.hits == 6

    def test_serial_parallel_cached_byte_identical(self, tmp_path):
        config = parse_config(self.CONFIG)
        spec = latency_matrix_spec(config)
        serial = run_sweep(spec, jobs=1)
        parallel = run_sweep(spec, jobs=4)
        store = ResultStore(tmp_path)
        run_sweep(spec, jobs=2, store=store)
        cached = run_sweep(spec, jobs=4, store=ResultStore(tmp_path))
        assert cached.warm
        assert (json.dumps(serial.value) == json.dumps(parallel.value)
                == json.dumps(cached.value))

    def test_corrupt_entry_recovers_mid_sweep(self, tmp_path):
        config = parse_config(self.CONFIG)
        store = ResultStore(tmp_path)
        cold = run_sweep(_toy_spec(config), store=store)
        victim = store.entries()[0].path
        with open(victim, "w") as handle:
            handle.write("garbage")
        with pytest.warns(UserWarning, match="evicting"):
            warm = run_sweep(_toy_spec(config),
                             store=ResultStore(tmp_path))
        assert warm.hits == 2 and warm.misses == 1
        assert warm.evictions == 1
        assert json.dumps(warm.value) == json.dumps(cold.value)

    def test_config_hash_travels_with_result(self, tmp_path):
        from repro.obs.archive import config_hash
        config = parse_config(self.CONFIG)
        result = run_sweep(_toy_spec(config))
        assert result.config_hash == config_hash(config)


class TestObsSpecKeys:
    """A sweep's obs spec keys the store in its canonical plane form."""

    #: 2x1x2 ``obs={}`` keys, pinned: stores written before obs specs
    #: were canonicalized stay warm.
    KEYS = {
        "fig7": ["2833203969617c0300467f3e72543cebe074f49b"],
        "fig8": ["c29f597870b94a90aa5e56a2f789705609a15ae8",
                 "7b2280eb76fbd181c3d2ad6df490765767362910"],
        "fig9": ["9d0f6929d0fc7b876f24b93c84124d641d603965",
                 "3d0befa6ab8c44174cd1ac822deb1004b9d2ba36"],
    }

    @staticmethod
    def _spec(family, obs_spec):
        config = parse_config("2x1x2")
        if family == "fig7":
            return latency_matrix_spec(config, obs_spec=obs_spec)
        if family == "fig8":
            return fig8_spec(config, (2, 4), obs_spec=obs_spec)
        return fig9_spec(config, n_threads=2, obs_spec=obs_spec)

    @staticmethod
    def _keys(spec):
        return [entry_key(task[-1]) for task in sweep_tasks(spec)[1]]

    @pytest.mark.parametrize("family", ["fig7", "fig8", "fig9"])
    def test_empty_plane_keys_are_pinned(self, family):
        assert self._keys(self._spec(family, {})) == self.KEYS[family]

    @pytest.mark.parametrize("family", ["fig7", "fig8", "fig9"])
    def test_spellings_of_one_plane_share_keys(self, family):
        default = {"sample_interval": 1000,
                   "trace": {"ring_capacity": 65536}}
        assert self._keys(self._spec(family, default)) == self.KEYS[family]
        other = self._keys(self._spec(family, {"sample_interval": 999}))
        assert not set(other) & set(self.KEYS[family])

    def test_spellings_share_one_stored_entry(self, tmp_path):
        store = ResultStore(tmp_path)
        cold = run_sweep(self._spec("fig8", {}), store=store)
        warm = run_sweep(self._spec("fig8", {"sample_interval": 1000}),
                         store=ResultStore(tmp_path))
        assert warm.warm
        assert len(store.entries()) == 2
        assert json.dumps(warm.value) == json.dumps(cold.value)

    def test_point_query_keys_like_sweep_tasks(self):
        from repro.serve.api import PointQuery
        _, tasks = sweep_tasks(self._spec("fig8", {"sample_interval": 1000}))
        for task in tasks:
            payload = task[-1]
            assert PointQuery(**payload).key_payload() == payload
        # A query spelling the plane differently lands on the same entry.
        query = PointQuery(**{**tasks[0][-1],
                              "obs": {"sample_interval": 1000}})
        assert entry_key(query.key_payload()) == self.KEYS["fig8"][0]


class TestFig8WarmCache:
    """The acceptance contract: warm reruns measure nothing."""

    CONFIG = "2x1x2"
    THREADS = (2, 4)

    def test_cold_vs_warm_series_byte_identical(self, tmp_path):
        config = parse_config(self.CONFIG)
        spec = fig8_spec(config, self.THREADS)
        store = ResultStore(tmp_path)
        cold = run_sweep(spec, jobs=1, store=store)
        assert cold.misses == len(self.THREADS)
        for jobs in (1, 2):
            warm = run_sweep(spec, jobs=jobs,
                             store=ResultStore(tmp_path))
            # Zero machine measurements: every point served from disk.
            assert warm.hits == len(self.THREADS) and warm.misses == 0
            assert (json.dumps(warm.value, sort_keys=True)
                    == json.dumps(cold.value, sort_keys=True))

    def test_warm_matches_fresh_unstored_run(self, tmp_path):
        config = parse_config(self.CONFIG)
        spec = fig8_spec(config, self.THREADS)
        run_sweep(spec, jobs=1, store=ResultStore(tmp_path))
        warm = run_sweep(spec, jobs=1, store=ResultStore(tmp_path))
        fresh = run_sweep(spec, jobs=1)
        assert json.dumps(warm.value) == json.dumps(fresh.value)


class TestDeprecatedWrappersRemoved:
    """The PR-5 deprecation has landed: the sharded_* names are gone and
    the spec builders cover what the wrappers returned."""

    def test_legacy_names_are_gone(self):
        import repro.parallel as parallel
        for name in ("sharded_latency_matrix", "sharded_fig8_series",
                     "sharded_fig9_series"):
            assert not hasattr(parallel, name)
            assert name not in parallel.__all__

    def test_run_sweep_covers_the_wrapper_surface(self):
        config = parse_config("2x1x2")
        fig8 = run_sweep(fig8_spec(config, (2, 4)), jobs=1).value
        assert fig8["series"]["threads"] == [2, 4]
        fig9 = run_sweep(fig9_spec(config, n_threads=2), jobs=1).value
        assert fig9["series"]["active_nodes"] == [1, 2]
        rows = run_sweep(latency_matrix_spec(parse_config("1x2x2")),
                         jobs=1).value["rows"]
        assert len(rows) == 4


class TestCanonicalValue:
    def test_tuples_become_lists_before_compare(self):
        assert canonical_value(((1, 2), 3.5)) == [[1, 2], 3.5]

    def test_floats_survive_exactly(self):
        values = [0.1, 1e-300, 123456.789e10, 2.0 / 3.0]
        assert canonical_value(values) == values


class TestConcurrentGCRaces:
    """Losing a race against GC is a miss, never 'corruption'."""

    def test_load_vanished_entry_is_plain_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        key = entry_key({"family": "toy", "x": 1})
        store.put(key, {"v": 1})
        os.unlink(store.path_for(key))
        import warnings as warnings_mod
        with warnings_mod.catch_warnings():
            warnings_mod.simplefilter("error")   # any warning fails
            hit, value = store.load(key)
        assert (hit, value) == (False, None)
        assert store.misses == 1
        assert store.evictions == 0

    def test_load_entry_gcd_mid_read_is_plain_miss(self, tmp_path,
                                                   monkeypatch):
        # The file exists when open() succeeds but is GC'd before the
        # read completes: json.load raises, the file is gone — a miss,
        # not an eviction warning.
        import repro.store as store_mod
        store = ResultStore(tmp_path)
        key = entry_key({"family": "toy", "x": 2})
        store.put(key, {"v": 2})
        path = store.path_for(key)
        real_load = store_mod.json.load

        def racing_load(handle):
            if getattr(handle, "name", None) == path:
                os.unlink(path)
                raise ValueError("read raced a GC")
            return real_load(handle)

        monkeypatch.setattr(store_mod.json, "load", racing_load)
        import warnings as warnings_mod
        with warnings_mod.catch_warnings():
            warnings_mod.simplefilter("error")
            hit, value = store.load(key)
        assert (hit, value) == (False, None)
        assert store.misses == 1
        assert store.evictions == 0

    def test_load_garbage_entry_still_evicts_with_warning(self, tmp_path):
        store = ResultStore(tmp_path)
        key = entry_key({"family": "toy", "x": 3})
        store.put(key, {"v": 3})
        with open(store.path_for(key), "w") as handle:
            handle.write("{not json")
        with pytest.warns(UserWarning, match="evicting"):
            hit, _ = store.load(key)
        assert hit is False
        assert store.evictions == 1
        assert not os.path.exists(store.path_for(key))

    def test_describe_vanished_entry_reports_missing(self, tmp_path):
        store = ResultStore(tmp_path)
        key = entry_key({"family": "toy", "x": 4})
        store.put(key, {"v": 4}, payload={"family": "toy", "x": 4})
        (entry,) = store.entries()
        os.unlink(entry.path)
        assert store.describe(entry) == {"missing": True}

    def test_describe_garbage_entry_reports_corrupt(self, tmp_path):
        store = ResultStore(tmp_path)
        key = entry_key({"family": "toy", "x": 5})
        store.put(key, {"v": 5})
        (entry,) = store.entries()
        with open(entry.path, "w") as handle:
            handle.write("{not json")
        assert store.describe(entry) == {"corrupt": True}
