"""Tests for the command-line interface (the build-script workflow)."""

import pytest

from repro.cli import main


class TestDescribe:
    def test_describe_4x1x12(self, capsys):
        assert main(["describe", "4x1x12"]) == 0
        out = capsys.readouterr().out
        assert "4x1x12" in out
        assert "48" in out           # cores total
        assert "75 MHz" in out
        assert "f1.16xlarge" in out

    def test_describe_small_config(self, capsys):
        assert main(["describe", "1x1x2"]) == 0
        out = capsys.readouterr().out
        assert "100 MHz" in out
        assert "f1.2xlarge" in out

    def test_describe_bad_config_fails_cleanly(self, capsys):
        assert main(["describe", "9x9x99"]) == 2
        assert "error:" in capsys.readouterr().err


class TestSweep:
    def test_sweep_lists_fitting_configs(self, capsys):
        assert main(["sweep"]) == 0
        out = capsys.readouterr().out
        assert "1x12" in out
        assert "4x2" in out
        assert "1x13" not in out     # does not fit

    def test_sweep_other_core(self, capsys):
        assert main(["sweep", "--core", "picorv32"]) == 0
        out = capsys.readouterr().out
        # Small cores allow far more tiles per node.
        assert "1x30" in out


class TestLatency:
    def test_latency_single_node(self, capsys):
        assert main(["latency", "1x1x4"]) == 0
        out = capsys.readouterr().out
        assert "intra-node" in out
        assert "inter-node" not in out

    def test_latency_multi_node(self, capsys):
        assert main(["latency", "2x1x2"]) == 0
        out = capsys.readouterr().out
        assert "inter-node" in out
        assert "NUMA ratio" in out

    def test_latency_is_the_fig7_matrix_at_every_jobs(self, capsys):
        from repro import parse_config
        from repro.parallel import latency_matrix_spec, run_sweep
        matrix = run_sweep(latency_matrix_spec(
            parse_config("2x1x6"))).value["rows"]
        blocks = {True: [], False: []}
        for sender, row in enumerate(matrix):
            for receiver, latency in enumerate(row):
                if sender != receiver:
                    blocks[sender // 6 == receiver // 6].append(latency)
        outputs = []
        for jobs in ("1", "2"):
            assert main(["latency", "2x1x6", "--jobs", jobs]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        for name, same_node in (("intra-node", True), ("inter-node", False)):
            values = blocks[same_node]
            line = next(line for line in outputs[0].splitlines()
                        if line.startswith(name))
            cells = [cell.strip() for cell in line.split("|")]
            assert cells[1:] == [f"{sum(values) / len(values):.0f}",
                                 str(min(values)), str(max(values))]

    def test_latency_archive_holds_the_sweep_metrics(self, tmp_path,
                                                     capsys):
        from repro import parse_config
        from repro.obs import RunArchive
        from repro.parallel import latency_matrix_spec, run_sweep
        run = tmp_path / "run"
        assert main(["latency", "2x1x2", "--archive", str(run)]) == 0
        result = run_sweep(latency_matrix_spec(parse_config("2x1x2"),
                                               obs_spec={}))
        archive = RunArchive.load(run)
        assert archive.metrics == result.value["metrics"]
        assert archive.manifest["config_hash"] == result.config_hash


class TestHello:
    def test_hello_prints_console(self, capsys):
        assert main(["hello"]) == 0
        out = capsys.readouterr().out
        assert "Hello, world!" in out
        assert "ms at" in out


class TestCost:
    def test_cost_table(self, capsys):
        assert main(["cost"]) == 0
        out = capsys.readouterr().out
        assert "smappic" in out
        assert "SPECint 2017" in out
        assert "sniper" in out


class TestLatencyStore:
    def test_latency_cold_then_warm_identical_output(self, tmp_path,
                                                     capsys):
        import os
        store = str(tmp_path / "store")
        assert main(["latency", "2x1x2", "--jobs", "1",
                     "--store", store]) == 0
        cold = capsys.readouterr().out
        assert os.path.isdir(store)
        assert main(["latency", "2x1x2", "--jobs", "2",
                     "--store", store]) == 0
        warm = capsys.readouterr().out
        assert warm == cold


class TestCache:
    @staticmethod
    def _populate(store_root):
        from repro import parse_config
        from repro.parallel import latency_matrix_spec, run_sweep
        from repro.store import ResultStore
        store = ResultStore(store_root)
        run_sweep(latency_matrix_spec(parse_config("1x2x2")), store=store)
        return store

    def test_cache_ls_empty(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["cache", "ls", "--store", store]) == 0
        assert "0 entries" in capsys.readouterr().out

    def test_cache_ls_lists_families(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        self._populate(store)
        assert main(["cache", "ls", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "fig7" in out
        assert "senders" in out

    def test_cache_ls_json(self, tmp_path, capsys):
        import json
        store = str(tmp_path / "store")
        self._populate(store)
        assert main(["cache", "ls", "--store", store,
                     "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows and rows[0]["payload"]["family"] == "fig7"
        assert "config_hash" in rows[0]["payload"]

    def test_cache_stats(self, tmp_path, capsys):
        import json
        store = str(tmp_path / "store")
        populated = self._populate(store)
        assert main(["cache", "stats", "--store", store,
                     "--format", "json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == len(populated.entries())
        assert stats["bytes"] > 0

    def test_cache_gc_needs_a_policy_flag(self, tmp_path, capsys):
        assert main(["cache", "gc", "--store",
                     str(tmp_path / "store")]) == 2
        assert "max-age" in capsys.readouterr().err

    def test_cache_gc_covers_store_and_runs(self, tmp_path, capsys):
        import os
        from repro.obs.archive import RunArchive
        store_root = str(tmp_path / "store")
        store = self._populate(store_root)
        runs = tmp_path / "runs"
        RunArchive.write(str(runs / "old-run"), {"m": 1},
                         label="1x2x2", seed=0)
        past = os.path.getmtime(store.entries()[0].path) - 9000
        for entry in store.entries():
            os.utime(entry.path, (past, past))
        for dirpath, _dirs, files in os.walk(runs / "old-run"):
            for name in files:
                os.utime(os.path.join(dirpath, name), (past, past))
        assert main(["cache", "gc", "--store", store_root,
                     "--runs", str(runs), "--max-age", "1h"]) == 0
        out = capsys.readouterr().out
        assert store.entries() == []
        assert not os.path.exists(runs / "old-run")
        assert "removed" in out

    def test_cache_clear(self, tmp_path, capsys):
        store_root = str(tmp_path / "store")
        store = self._populate(store_root)
        assert len(store.entries()) > 0
        assert main(["cache", "clear", "--store", store_root]) == 0
        assert "removed" in capsys.readouterr().out
        assert store.entries() == []
