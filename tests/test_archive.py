"""Tests for repro.obs.archive / repro.obs.diff / streaming traces.

The load-bearing properties:

* a sharded sweep's merged metrics dict is *byte-identical* to the
  serial one (``json.dumps`` equality at jobs=1 vs jobs=4);
* ``repro diff`` on two identical-seed archives reports zero deltas and
  exits 0, and the gate mode exits nonzero on regressions;
* a streaming-trace run whose event count busts any ring completes with
  the buffer bounded by ``chunk_events`` and the JSONL converts into a
  schema-valid Chrome trace.
"""

import gzip
import json
import os

import pytest

from repro import Prototype, parse_config
from repro.cli import main
from repro.errors import ReproError
from repro.obs import (Observer, RunArchive, StreamingTracer,
                       chrome_from_jsonl, config_hash, diff_metrics,
                       gate_rules, load_metrics, merge_metric_shards,
                       validate_chrome_trace, violations)
from repro.obs.archive import archive_root_from_env
from repro.obs.diff import Rule, parse_rule
from repro.obs.trace import iter_jsonl_events

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _drive(proto, senders=(0,)):
    for sender in senders:
        for receiver in range(proto.config.total_tiles):
            if receiver != sender:
                proto.measure_pair_latency(sender, receiver)


# ----------------------------------------------------------------------
# StreamingTracer
# ----------------------------------------------------------------------

class TestStreamingTracer:
    def test_bounded_buffer_on_ring_busting_run(self, tmp_path):
        # More events than a tiny ring could hold: the stream keeps at
        # most chunk_events lines in memory and drops nothing.
        path = tmp_path / "trace.jsonl"
        tracer = StreamingTracer(path, chunk_events=64)
        peak = 0
        for i in range(10_000):
            tracer.instant("noc", f"n{i % 3}/r0", "hop", i)
            peak = max(peak, tracer.buffered())
        assert peak <= 64
        assert tracer.dropped == 0
        assert tracer.event_count() == 10_000
        tracer.close()
        assert sum(1 for _ in iter_jsonl_events(path)) == 10_000

    def test_chunks_spill_at_boundary(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = StreamingTracer(path, chunk_events=4)
        for i in range(3):
            tracer.instant("noc", "n0/r0", "hop", i)
        assert tracer.buffered() == 3
        tracer.instant("noc", "n0/r0", "hop", 3)
        assert tracer.buffered() == 0          # chunk hit the file
        tracer.close()
        assert sum(1 for _ in iter_jsonl_events(path)) == 4

    def test_gzip_by_suffix(self, tmp_path):
        path = tmp_path / "trace.jsonl.gz"
        with StreamingTracer(path) as tracer:
            tracer.complete("cache", "n0/t0/bpc", "load", 5, 12,
                            {"addr": "0x40"})
        with gzip.open(path, "rt") as handle:
            event = json.loads(handle.readline())
        assert event["comp"] == "n0/t0/bpc"
        assert event["dur"] == 12

    def test_jsonl_converts_to_valid_chrome(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with StreamingTracer(path) as tracer:
            tracer.complete("cache", "n0/t0/bpc", "load", 5, 12)
            tracer.instant("noc", "n0/r0", "stall", 7, {"dir": "E"})
            tracer.counter("probe", "n1/mem", "depth", 9, {"depth": 3})
        trace = chrome_from_jsonl(path)
        validate_chrome_trace(trace)
        named = {e["name"] for e in trace["traceEvents"] if e["ph"] != "M"}
        assert named == {"load", "stall", "depth"}

    def test_matches_ring_tracer_chrome_shape(self, tmp_path):
        # Same events through both backends -> the same Chrome object.
        from repro.obs import Tracer
        ring = Tracer()
        stream = StreamingTracer(tmp_path / "t.jsonl")
        for tracer in (ring, stream):
            tracer.complete("cache", "n0/t0/bpc", "load", 5, 12)
            tracer.instant("noc", "n1/r0", "stall", 7)
        stream.close()
        assert chrome_from_jsonl(stream.path) == ring.to_chrome()

    def test_category_filter_and_bad_chunk(self, tmp_path):
        tracer = StreamingTracer(tmp_path / "t.jsonl", categories=["noc"])
        assert tracer.wants("noc") and not tracer.wants("cache")
        tracer.close()
        with pytest.raises(ReproError):
            StreamingTracer(tmp_path / "u.jsonl", chunk_events=0)

    def test_streamed_prototype_run_is_unobserved_identical(self, tmp_path):
        # The determinism contract holds for the streaming backend too.
        base = Prototype(parse_config("2x1x2"))
        _drive(base)
        obs = Observer(trace_path=str(tmp_path / "t.jsonl"))
        traced = Prototype(parse_config("2x1x2"), obs=obs)
        _drive(traced)
        obs.close()
        assert traced.now == base.now
        validate_chrome_trace(chrome_from_jsonl(tmp_path / "t.jsonl"))


# ----------------------------------------------------------------------
# Shard merging
# ----------------------------------------------------------------------

class TestMergeMetricShards:
    def test_ints_sum_floats_mean_histograms_merge(self):
        from repro.engine import Histogram
        h1, h2 = Histogram(), Histogram()
        h1.add(10, 2)
        h2.add(20, 1)
        merged = merge_metric_shards([
            {"pkts": 3, "util": 0.2, "lat": h1.to_dict()},
            {"pkts": 4, "util": 0.6, "lat": h2.to_dict()},
        ])
        assert merged["pkts"] == 7
        assert merged["util"] == pytest.approx(0.4)
        assert Histogram.from_dict(merged["lat"]).items() \
            == [(10, 2), (20, 1)]
        assert merged["lat"]["count"] == 3
        assert merged["lat"]["max"] == 20

    def test_rejects_mixed_and_non_numeric(self):
        with pytest.raises(ReproError):
            merge_metric_shards([{"x": 1}, {"x": 2.5}])
        with pytest.raises(ReproError):
            merge_metric_shards([{"x": "oops"}])
        with pytest.raises(ReproError):
            merge_metric_shards([{"x": True}])

    def test_sharded_matrix_metrics_byte_identical(self):
        # The acceptance property: jobs=4 merged dict == jobs=1, to the
        # byte, and the matrices agree.
        config = parse_config("2x1x2")
        from repro.parallel import latency_matrix_spec, run_sweep
        spec = latency_matrix_spec(config, obs_spec={})
        v1 = run_sweep(spec, jobs=1).value
        v4 = run_sweep(spec, jobs=4).value
        assert v1["rows"] == v4["rows"]
        assert json.dumps(v1["metrics"], sort_keys=True) \
            == json.dumps(v4["metrics"], sort_keys=True)

    def test_sharded_fig8_metrics_identical_at_any_jobs(self):
        from repro.parallel import fig8_spec, run_sweep
        config = parse_config("2x1x2")
        spec = fig8_spec(config, thread_counts=(2, 4), obs_spec={})
        v1 = run_sweep(spec, jobs=1).value
        v4 = run_sweep(spec, jobs=4).value
        assert v1["series"] == v4["series"]
        assert json.dumps(v1["metrics"], sort_keys=True) \
            == json.dumps(v4["metrics"], sort_keys=True)


# ----------------------------------------------------------------------
# RunArchive
# ----------------------------------------------------------------------

class TestRunArchive:
    def test_write_load_round_trip(self, tmp_path):
        config = parse_config("2x1x2")
        obs = Observer({"trace": {"enabled": False}})
        proto = Prototype(config, obs=obs)
        _drive(proto)
        metrics = obs.export_metrics()
        run_dir = tmp_path / "runs" / "a"
        written = RunArchive.write(
            run_dir, metrics, config=config, cycles=proto.now,
            events_executed=proto.sim.events_executed, wall_seconds=1.25,
            command=["repro", "stats", "2x1x2"],
            series=obs.probes.series())
        loaded = RunArchive.load(run_dir)
        assert loaded.metrics == metrics
        assert loaded.run_id == "a"
        assert loaded.manifest["config"] == "2x1x2"
        assert loaded.manifest["config_hash"] == config_hash(config)
        assert loaded.manifest["seed"] == config.seed
        assert loaded.manifest["cycles"] == proto.now
        assert loaded.manifest["command"] == ["repro", "stats", "2x1x2"]
        assert loaded.series == written.series
        assert RunArchive.is_archive(str(run_dir))

    def test_config_hash_sees_full_config(self):
        assert config_hash(parse_config("2x1x2")) \
            == config_hash(parse_config("2x1x2"))
        assert config_hash(parse_config("2x1x2")) \
            != config_hash(parse_config("2x1x4"))
        assert config_hash(parse_config("2x1x2")) \
            != config_hash(parse_config("2x1x2", seed=9))

    def test_load_rejects_non_archives(self, tmp_path):
        with pytest.raises(ReproError):
            RunArchive.load(tmp_path)
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "manifest.json").write_text(
            json.dumps({"schema_version": 999}))
        with pytest.raises(ReproError):
            RunArchive.load(bad)

    @pytest.mark.parametrize("name, text", [
        ("manifest.json", '{"schema_version": 1, "run_'),
        ("manifest.json", "[1, 2]"),
        ("metrics.json", '{"x": '),
        ("series.json", "not json"),
    ], ids=["manifest-cut", "manifest-list", "metrics-cut", "series-bad"])
    def test_damaged_file_is_a_typed_error(self, tmp_path, name, text):
        RunArchive.write(tmp_path / "r", {"x": 1}, series={"s": [1]})
        (tmp_path / "r" / name).write_text(text)
        with pytest.raises(ReproError, match=name):
            RunArchive.load(tmp_path / "r")

    def test_write_publishes_the_manifest_last(self, tmp_path):
        # Metrics that cannot be written leave no manifest behind, so
        # the directory never reads as an archive, and no temp file.
        with pytest.raises(TypeError):
            RunArchive.write(tmp_path / "r", {"x": object()})
        assert [name for _dir, _subdirs, names in os.walk(tmp_path)
                for name in names] == []

    def test_archive_env_opt_in(self, monkeypatch):
        monkeypatch.delenv("REPRO_ARCHIVE", raising=False)
        assert archive_root_from_env() is None
        monkeypatch.setenv("REPRO_ARCHIVE", "runs")
        assert archive_root_from_env() == "runs"

    def test_metrics_survive_archive_round_trip_exactly(self, tmp_path):
        # to_dict -> write -> load yields the same histograms, bit for
        # bit, because the embedded entries are lossless JSON.
        from repro.engine import Histogram
        from repro.obs import MetricRegistry
        registry = MetricRegistry()
        registry.inc("pkts", 5)
        registry.histogram("lat").add(7, 3)
        metrics = registry.to_dict()
        RunArchive.write(tmp_path / "r", metrics)
        loaded = RunArchive.load(tmp_path / "r").metrics
        assert loaded == metrics
        assert Histogram.from_dict(loaded["lat"]).items() == [(7, 3)]


# ----------------------------------------------------------------------
# Diff engine
# ----------------------------------------------------------------------

class TestDiffEngine:
    def test_exact_default_flags_any_delta(self):
        deltas = diff_metrics({"a": 1, "b": 2.0}, {"a": 1, "b": 2.5})
        by_name = {d.name: d for d in deltas}
        assert by_name["a"].ok
        assert not by_name["b"].ok
        assert violations(deltas) == [by_name["b"]]

    def test_rules_last_match_wins(self):
        rules = [Rule("*"), Rule("noc.*", rel_tol=0.5),
                 Rule("noc.special", rel_tol=0.0)]
        deltas = diff_metrics({"noc.x": 10, "noc.special": 10},
                              {"noc.x": 13, "noc.special": 11}, rules)
        by_name = {d.name: d for d in deltas}
        assert by_name["noc.x"].ok                 # within 50%
        assert not by_name["noc.special"].ok       # exact again

    def test_abs_tol_forgives_near_zero(self):
        rules = [Rule("*", abs_tol=2.0)]
        assert not violations(diff_metrics({"x": 0}, {"x": 2}, rules))
        assert violations(diff_metrics({"x": 0}, {"x": 3}, rules))

    def test_direction_guards(self):
        lower = [Rule("*", rel_tol=0.1, direction="lower")]
        # Increases always pass under "lower"; big drops fail.
        assert not violations(diff_metrics({"x": 100}, {"x": 400}, lower))
        assert not violations(diff_metrics({"x": 100}, {"x": 95}, lower))
        assert violations(diff_metrics({"x": 100}, {"x": 60}, lower))
        upper = [Rule("*", rel_tol=0.1, direction="upper")]
        assert not violations(diff_metrics({"x": 100}, {"x": 10}, upper))
        assert violations(diff_metrics({"x": 100}, {"x": 150}, upper))

    def test_missing_metrics(self):
        deltas = diff_metrics({"only_a": 1}, {"only_b": 2})
        statuses = {d.name: d.status for d in deltas}
        assert statuses == {"only_a": "missing_b", "only_b": "missing_a"}
        # Gate mode checks baseline names only: extras in B pass.
        gate = diff_metrics({"only_a": 1}, {"only_a": 1, "only_b": 2},
                            gate=True)
        assert [d.name for d in gate] == ["only_a"]
        assert not violations(gate)

    def test_histogram_entries_short_circuit_and_compare(self):
        from repro.engine import Histogram
        h = Histogram()
        h.add(5, 2)
        entry = h.to_dict()
        entry.update(count=h.count, mean=h.mean, min=h.min, max=h.max)
        assert not violations(diff_metrics({"lat": entry},
                                           {"lat": dict(entry)}))
        other = Histogram()
        other.add(6, 2)
        entry_b = other.to_dict()
        entry_b.update(count=other.count, mean=other.mean,
                       min=other.min, max=other.max)
        assert violations(diff_metrics({"lat": entry}, {"lat": entry_b}))
        loose = [Rule("*", rel_tol=0.5)]
        assert not violations(diff_metrics({"lat": entry},
                                           {"lat": entry_b}, loose))

    def test_parse_rule(self):
        rule = parse_rule("noc.*:0.05:2:lower")
        assert rule == Rule("noc.*", abs_tol=2.0, rel_tol=0.05,
                            direction="lower")
        assert parse_rule("x") == Rule("x")
        with pytest.raises(ReproError):
            parse_rule(":0.1")
        with pytest.raises(ReproError):
            parse_rule("x:abc")
        with pytest.raises(ReproError):
            parse_rule("x:1:2:sideways")

    @pytest.mark.parametrize("entry", [
        {"pattern": "*", "rel_tol": "x"},
        {"pattern": "*", "rel_tol": None},
        {"pattern": "*", "abs_tol": True},
        {"pattern": 5},
        {"pattern": ""},
    ], ids=["rel-text", "rel-null", "abs-bool", "pattern-int",
            "pattern-empty"])
    def test_malformed_rule_entry_is_a_typed_error(self, tmp_path, entry):
        with pytest.raises(ReproError, match="rule"):
            Rule.from_entry(entry, "test")
        gate = tmp_path / "gate.json"
        gate.write_text(json.dumps({"metrics": {"x": 1},
                                    "rules": [entry]}))
        with pytest.raises(ReproError, match="gate baseline"):
            gate_rules(gate)

    def test_gate_rules_must_be_a_list(self, tmp_path):
        gate = tmp_path / "gate.json"
        gate.write_text(json.dumps({"metrics": {"x": 1}, "rules": 5}))
        with pytest.raises(ReproError, match="must be a list"):
            gate_rules(gate)

    def test_rule_from_entry(self):
        assert Rule.from_entry({"pattern": "eps", "rel_tol": 1,
                                "direction": "lower"}, "test") \
            == Rule("eps", rel_tol=1.0, direction="lower")
        for path in ("benchmarks/e2e_gate.json",
                     "benchmarks/kernel_gate.json"):
            metrics, rules = gate_rules(os.path.join(REPO, path))
            assert metrics and len(rules) >= 1

    def test_gate_rules_file(self, tmp_path):
        path = tmp_path / "gate.json"
        path.write_text(json.dumps({
            "metrics": {"eps": 100},
            "rules": [{"pattern": "eps", "rel_tol": 0.3,
                       "direction": "lower"}]}))
        metrics, rules = gate_rules(path)
        assert metrics == {"eps": 100}
        assert not violations(diff_metrics(metrics, {"eps": 80}, rules,
                                           gate=True))
        assert violations(diff_metrics(metrics, {"eps": 60}, rules,
                                       gate=True))
        bad = tmp_path / "bad.json"
        bad.write_text("[]")
        with pytest.raises(ReproError):
            gate_rules(bad)

    def test_load_metrics_sources(self, tmp_path):
        RunArchive.write(tmp_path / "arch", {"x": 1})
        assert load_metrics(tmp_path / "arch") == {"x": 1}
        bundle = tmp_path / "bundle.json"
        bundle.write_text(json.dumps({"metrics": {"y": 2}, "cycles": 9}))
        assert load_metrics(bundle) == {"y": 2}
        flat = tmp_path / "flat.json"
        flat.write_text(json.dumps({"z": 3}))
        assert load_metrics(flat) == {"z": 3}
        with pytest.raises(ReproError):
            load_metrics(tmp_path)          # dir but not an archive


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

class TestDiffCli:
    def _archive(self, tmp_path, name, seed=7):
        run = tmp_path / name
        assert main(["trace", "2x1x2", "--seed", str(seed),
                     "--out", str(tmp_path / f"{name}.json"),
                     "--metrics", str(tmp_path / f"{name}-m.json"),
                     "--archive", str(run)]) == 0
        return run

    def test_identical_seed_archives_diff_to_zero(self, tmp_path, capsys):
        a = self._archive(tmp_path, "a")
        b = self._archive(tmp_path, "b")
        assert main(["diff", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "0 violations" in out

    def test_diff_flags_injected_regression(self, tmp_path, capsys):
        a = self._archive(tmp_path, "a")
        b = self._archive(tmp_path, "b")
        metrics = json.loads((b / "metrics.json").read_text())
        name = next(k for k, v in metrics.items()
                    if isinstance(v, int) and v)
        metrics[name] += 1
        (b / "metrics.json").write_text(json.dumps(metrics))
        assert main(["diff", str(a), str(b)]) == 1
        assert name in capsys.readouterr().out
        # A forgiving rule lets it pass again.
        assert main(["diff", str(a), str(b),
                     "--rule", f"{name}:0.9"]) == 0

    def test_gate_cli(self, tmp_path, capsys):
        a = self._archive(tmp_path, "a")
        gate = tmp_path / "gate.json"
        metrics = json.loads((a / "metrics.json").read_text())
        name = next(k for k, v in metrics.items()
                    if isinstance(v, int) and v)
        gate.write_text(json.dumps({
            "metrics": {name: metrics[name] * 2},
            "rules": [{"pattern": name, "rel_tol": 0.3,
                       "direction": "lower"}]}))
        assert main(["diff", "--gate", str(gate), str(a)]) == 1
        gate.write_text(json.dumps({
            "metrics": {name: metrics[name]},
            "rules": [{"pattern": name, "rel_tol": 0.3,
                       "direction": "lower"}]}))
        assert main(["diff", "--gate", str(gate), str(a)]) == 0

    def test_diff_argument_errors(self, tmp_path, capsys):
        assert main(["diff"]) == 2          # ReproError -> exit 2
        assert "error" in capsys.readouterr().err

    def test_diff_of_a_damaged_archive_exits_2(self, tmp_path, capsys):
        good = tmp_path / "good"
        RunArchive.write(good, {"x": 1})
        bad = tmp_path / "bad"
        RunArchive.write(bad, {"x": 1})
        (bad / "manifest.json").write_text('{"schema_version": 1, "ru')
        assert main(["diff", str(good), str(bad)]) == 2
        assert "manifest.json" in capsys.readouterr().err

    def test_gate_with_a_malformed_rule_exits_2(self, tmp_path, capsys):
        run = tmp_path / "run"
        RunArchive.write(run, {"x": 1})
        gate = tmp_path / "gate.json"
        gate.write_text(json.dumps({
            "metrics": {"x": 1},
            "rules": [{"pattern": "*", "rel_tol": "x"}]}))
        assert main(["diff", "--gate", str(gate), str(run)]) == 2
        assert "rel_tol must be a number" in capsys.readouterr().err

    def test_diff_json_format_and_output(self, tmp_path, capsys):
        a = self._archive(tmp_path, "a")
        b = self._archive(tmp_path, "b")
        out = tmp_path / "report.json"
        assert main(["diff", str(a), str(b), "--format", "json",
                     "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert isinstance(payload, list) and payload
        assert {"name", "a", "b", "status"} <= set(payload[0])


class TestStatsTraceCli:
    def test_stats_output_file(self, tmp_path, capsys):
        out = tmp_path / "stats.json"
        assert main(["stats", "2x1x2", "--format", "json",
                     "--output", str(out)]) == 0
        assert isinstance(json.loads(out.read_text()), dict)

    def test_stats_rejects_unknown_format(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["stats", "2x1x2", "--format", "xml"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_trace_stream_cli(self, tmp_path, capsys):
        out = tmp_path / "t.jsonl.gz"
        assert main(["trace", "2x1x2", "--stream", "--out", str(out),
                     "--metrics", str(tmp_path / "m.json")]) == 0
        validate_chrome_trace(chrome_from_jsonl(out))
        assert "streamed" in capsys.readouterr().out

    def test_trace_rejects_bad_sample_intervals(self, tmp_path, capsys):
        # The plane validates before any simulation starts: exit 2 with
        # the offending key named, and no trace written.
        spec = tmp_path / "p.json"
        spec.write_text(json.dumps({"sample_intervals": {"noc": 0}}))
        out = tmp_path / "t.json"
        assert main(["trace", "2x1x2", "--instrument", str(spec),
                     "--out", str(out),
                     "--metrics", str(tmp_path / "m.json")]) == 2
        assert "sample_intervals" in capsys.readouterr().err
        assert not out.exists()
