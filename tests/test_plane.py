"""Instrumentation planes: declarative specs, triggers, streamed tracks.

The load-bearing properties:

* a spec file (YAML or JSON) validates strictly — unknown keys, bad
  trigger kinds, and non-positive intervals are rejected offline — and
  round-trips through its canonical dict with a stable content hash;
* triggers gate the tracer exactly (events before ``start_at`` / after
  the ``stop_after`` close are suppressed and counted; arm triggers
  open the gate on their first cause) and a trigger-free plane never
  installs the gate at all;
* a raising probe source disables only itself (warning +
  ``obs.probes.failed``), never the run;
* ``stream_series`` keeps probe series out of memory; the JSONL
  counter track rebuilds them exactly;
* the recorded spec hash makes ``repro diff`` refuse cross-plane
  comparisons unless ``--ignore-instrumentation``;
* the farm spec's top-level ``instrumentation`` key reaches every job.
"""

import json

import pytest

from repro import Prototype, parse_config
from repro.cli import main
from repro.errors import FarmError, ReproError
from repro.obs import (GatedTracer, InstrumentationPlane, Observer,
                       ProbeSet, RunArchive, Tracer,
                       Trigger, as_plane, load_plane,
                       probe_series_from_jsonl)
from repro.obs.diff import instrumentation_hash_of

SPEC = {
    "metrics": ["node*", "*.utilization"],
    "sample_interval": 100,
    "sample_intervals": {"noc": 50},
    "trace": {"categories": ["noc", "cache", "probe"],
              "stream_series": True},
    "triggers": [{"kind": "start_at", "cycle": 200},
                 {"kind": "stop_after", "cycles": 2000}],
}


class FakeTracer:
    """Records every call; wants everything."""

    def __init__(self):
        self.events = []

    def wants(self, category):
        return True

    def complete(self, category, component, name, ts, dur, args=None):
        self.events.append(("complete", category, name, ts))

    def instant(self, category, component, name, ts, args=None):
        self.events.append(("instant", category, name, ts))

    def counter(self, category, component, name, ts, values):
        self.events.append(("counter", category, name, ts))


# ----------------------------------------------------------------------
# Spec parsing and validation
# ----------------------------------------------------------------------

class TestSpecValidation:
    def test_round_trip_and_stable_hash(self):
        plane = InstrumentationPlane.from_dict(SPEC)
        again = InstrumentationPlane.from_dict(plane.to_dict())
        assert again == plane
        assert again.spec_hash == plane.spec_hash
        assert plane.metrics == ("node*", "*.utilization")
        assert plane.sample_intervals == {"noc": 50}
        assert plane.stream_series
        assert [t.kind for t in plane.triggers] == ["start_at",
                                                    "stop_after"]

    def test_empty_spec_is_all_defaults(self):
        plane = InstrumentationPlane.from_dict({})
        assert plane == InstrumentationPlane()
        assert plane.to_dict() == {}
        assert plane.metric_filter() is None
        assert not plane.gated

    def test_unknown_keys_rejected(self):
        with pytest.raises(ReproError, match="unknown spec keys"):
            InstrumentationPlane.from_dict({"metrcs": ["*"]})
        with pytest.raises(ReproError, match="unknown trace keys"):
            InstrumentationPlane.from_dict({"trace": {"stream": True}})
        # Probes have one sampling mode (by owning component), so the
        # key that chose between two is gone.
        with pytest.raises(ReproError, match="unknown spec keys"):
            InstrumentationPlane.from_dict({"sampling": "component"})

    def test_bad_values_rejected(self):
        with pytest.raises(ReproError, match=">= 1"):
            InstrumentationPlane.from_dict({"sample_interval": 0})
        with pytest.raises(ReproError, match="sample_intervals"):
            InstrumentationPlane.from_dict(
                {"sample_intervals": {"noc": -5}})
        with pytest.raises(ReproError, match="glob"):
            InstrumentationPlane.from_dict({"metrics": []})
        with pytest.raises(ReproError, match="unknown trace categories"):
            InstrumentationPlane.from_dict(
                {"trace": {"categories": ["noc", "nope"]}})

    def test_bad_triggers_rejected(self):
        with pytest.raises(ReproError, match="unknown trigger kind"):
            InstrumentationPlane.from_dict(
                {"triggers": [{"kind": "start"}]})
        with pytest.raises(ReproError, match="needs 'cycle'"):
            InstrumentationPlane.from_dict(
                {"triggers": [{"kind": "start_at"}]})
        with pytest.raises(ReproError, match="unknown keys"):
            InstrumentationPlane.from_dict(
                {"triggers": [{"kind": "stop_after", "cycle": 5}]})
        with pytest.raises(ReproError, match="category.name"):
            InstrumentationPlane.from_dict(
                {"triggers": [{"kind": "arm_on_event", "event": "miss"}]})
        with pytest.raises(ReproError, match="at most one start_at"):
            InstrumentationPlane.from_dict(
                {"triggers": [{"kind": "start_at", "cycle": 1},
                              {"kind": "start_at", "cycle": 2}]})
        with pytest.raises(ReproError, match="numeric 'above'"):
            InstrumentationPlane.from_dict(
                {"triggers": [{"kind": "arm_on_metric", "metric": "m",
                               "above": True}]})

    def test_metric_filter_compiles_globs(self):
        plane = InstrumentationPlane.from_dict({"metrics": ["node0.*"]})
        select = plane.metric_filter()
        assert select("node0.tile1.bpc.misses")
        assert not select("node1.tile0.bpc.misses")

    def test_as_plane_coerces(self):
        plane = InstrumentationPlane.from_dict(SPEC)
        assert as_plane(None) is None
        assert as_plane(plane) is plane
        assert as_plane(SPEC) == plane
        with pytest.raises(ReproError, match="spec mapping"):
            as_plane(["nope"])

    def test_load_yaml_and_json_agree(self, tmp_path):
        yaml = pytest.importorskip("yaml")
        yml = tmp_path / "p.yaml"
        yml.write_text(yaml.safe_dump(SPEC))
        jsn = tmp_path / "p.json"
        jsn.write_text(json.dumps(SPEC))
        assert load_plane(str(yml)) == load_plane(str(jsn))
        assert load_plane(str(yml)).spec_hash == \
            InstrumentationPlane.from_dict(SPEC).spec_hash

    def test_load_rejects_garbage(self, tmp_path):
        missing = tmp_path / "nope.json"
        with pytest.raises(ReproError, match="cannot read"):
            load_plane(str(missing))
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]")
        with pytest.raises(ReproError, match="mapping"):
            load_plane(str(bad))
        syntax = tmp_path / "syntax.json"
        syntax.write_text("{nope")
        with pytest.raises(ReproError, match="not valid JSON"):
            load_plane(str(syntax))


# ----------------------------------------------------------------------
# The trigger gate
# ----------------------------------------------------------------------

class TestGatedTracer:
    def test_triggerless_plane_skips_the_gate(self):
        obs = Observer(plane={"trace": {"categories": ["noc"]}})
        assert not isinstance(obs.tracer, GatedTracer)

    def test_start_stop_window(self):
        raw = FakeTracer()
        plane = InstrumentationPlane.from_dict(
            {"triggers": [{"kind": "start_at", "cycle": 100},
                          {"kind": "stop_after", "cycles": 50}]})
        gate = GatedTracer(raw, plane)
        gate.instant("noc", "c", "hop", 10)        # before the window
        gate.instant("noc", "c", "hop", 100)       # opens (start fires)
        gate.instant("noc", "c", "hop", 149)       # still open
        gate.instant("noc", "c", "hop", 150)       # closed (stop fires)
        gate.instant("noc", "c", "hop", 500)
        assert [e[3] for e in raw.events] == [100, 149]
        assert gate.suppressed == 3
        assert gate.fired == 2
        assert gate.armed == 2
        assert gate.raw is raw

    def test_arm_on_event_opens_and_records_the_cause(self):
        raw = FakeTracer()
        plane = InstrumentationPlane.from_dict(
            {"triggers": [{"kind": "arm_on_event", "event": "cache.miss"},
                          {"kind": "stop_after", "cycles": 100}]})
        gate = GatedTracer(raw, plane)
        gate.instant("noc", "c", "hop", 10)
        assert raw.events == []
        gate.instant("cache", "c", "miss", 40)     # arms; itself recorded
        gate.instant("noc", "c", "hop", 139)       # inside 40+100
        gate.instant("noc", "c", "hop", 140)       # closed
        assert [e[3] for e in raw.events] == [40, 139]
        assert gate.fired == 2                     # arm + stop
        assert gate.suppressed == 2

    def test_metric_threshold_trigger_arms_at_probe_cadence(self):
        plane = InstrumentationPlane.from_dict(
            {"triggers": [{"kind": "arm_on_metric", "metric": "app.load",
                           "above": 2}]})
        obs = Observer(plane=plane)
        gate = obs.tracer
        assert isinstance(gate, GatedTracer)
        obs.probes.add("g", lambda: 1.0)
        gate.instant("noc", "c", "hop", 10)
        assert gate.fired == 0
        obs.probes.sample(30)                  # below threshold: stays shut
        gate.instant("noc", "c", "hop", 35)
        assert gate.fired == 0
        obs.registry.inc("app.load", 3)
        obs.probes.sample(40)                  # crosses: gate opens at 40
        gate.instant("noc", "c", "hop", 50)
        assert gate.fired == 1
        assert obs.probes._on_sample is None   # check unhooked after firing
        metrics = obs.export_metrics()
        assert metrics["obs.plane.triggers.armed"] == 1.0
        assert metrics["obs.plane.triggers.fired"] == 1.0
        assert metrics["obs.plane.trace.suppressed"] >= 2

    def test_end_to_end_window_on_a_real_run(self, tmp_path):
        out = tmp_path / "gated.jsonl"
        plane = InstrumentationPlane.from_dict(
            {"triggers": [{"kind": "start_at", "cycle": 200},
                          {"kind": "stop_after", "cycles": 300}]})
        obs = Observer(plane, trace_path=str(out))
        proto = Prototype(parse_config("2x1x2"), obs=obs)
        for receiver in range(1, proto.config.total_tiles):
            proto.measure_pair_latency(0, receiver)
        obs.close()
        from repro.obs.trace import iter_jsonl_events
        stamps = [event["ts"] for event in iter_jsonl_events(str(out))]
        assert stamps, "the window must capture something"
        assert min(stamps) >= 200
        assert max(stamps) < 500
        assert obs.tracer.suppressed > 0
        assert obs.tracer.fired == 2


# ----------------------------------------------------------------------
# Plane-shaped observers
# ----------------------------------------------------------------------

class TestObserverPlane:
    def test_plane_is_the_only_observer_config(self):
        plane = {"sample_interval": 77, "sample_intervals": {"noc": 7},
                 "trace": {"categories": ["noc"], "ring_capacity": 5}}
        obs = Observer(plane)
        assert obs.probes.interval == 77
        assert obs.probes.interval_of("noc") == 7
        assert not obs.tracer.wants("cache")
        for _ in range(6):
            obs.tracer.instant("noc", "r0", "hop", 0)
        assert obs.tracer.dropped == 1
        assert Observer({"trace": {"enabled": False}}).tracer is None
        assert isinstance(Observer().tracer, Tracer)

    @pytest.mark.parametrize("keyword", [
        "categories", "ring_capacity", "sample_interval",
        "sample_intervals", "tracing", "tracer"])
    def test_old_observer_keywords_are_gone(self, keyword):
        with pytest.raises(TypeError):
            Observer(**{keyword: None})

    def test_metric_selection_prunes_registration_and_export(self):
        obs = Observer({"metrics": ["keep.*"], "trace": {"enabled": False}})
        obs.register_gauge("keep.depth", lambda: 1.0)
        obs.register_gauge("drop.depth", lambda: 2.0)
        assert len(obs.probes) == 1
        metrics = obs.export_metrics()
        assert "keep.depth" in metrics
        assert "drop.depth" not in metrics
        assert metrics["obs.probes.failed"] == 0

    def test_component_sampling_nudges_only_the_owner(self):
        probes = ProbeSet(interval=10)
        probes.add("a.x", lambda: 1.0, category="noc", owner="a")
        probes.add("b.y", lambda: 2.0, category="noc", owner="b")
        probes.nudge("a", 10)
        assert probes.series("a.x") == [(10, 1.0)]
        assert probes.series("b.y") == []
        probes.nudge("b", 25)
        assert probes.series("b.y") == [(25, 2.0)]

    def test_raising_probe_degrades_gracefully(self):
        obs = Observer({"trace": {"enabled": False}})
        obs.register_gauge("good.depth", lambda: 1.0)
        obs.register_gauge("bad.depth",
                           lambda: (_ for _ in ()).throw(RuntimeError("x")))
        with pytest.warns(RuntimeWarning, match="disabling this probe"):
            obs.probes.sample(10)
        obs.probes.sample(20)   # no second warning; the rest keep going
        assert obs.probes.failed == 1
        assert obs.probes.series("good.depth") == [(10, 1.0), (20, 1.0)]
        assert obs.probes.series("bad.depth") == []
        # Export re-reads registry gauges: the broken one degrades there
        # too instead of killing the dump.
        with pytest.warns(RuntimeWarning, match="disabling this gauge"):
            metrics = obs.export_metrics()
        assert metrics["obs.probes.failed"] == 1
        assert metrics["obs.gauges.failed"] == 1
        assert metrics["good.depth"] == 1.0
        assert "bad.depth" not in metrics
        assert obs.export_metrics()["good.depth"] == 1.0  # quiet now

    def test_stream_series_skips_materialization(self):
        tracer = FakeTracer()
        probes = ProbeSet(tracer=tracer, interval=10, materialize=False)
        probes.add("g", lambda: 3.0)
        probes.sample(10)
        probes.sample(20)
        assert probes.series() == {}
        assert [e for e in tracer.events if e[0] == "counter"] == [
            ("counter", "probe", "g", 10), ("counter", "probe", "g", 20)]

    def test_probe_series_rebuild_from_jsonl(self, tmp_path):
        out = tmp_path / "t.jsonl"
        plane = {"trace": {"stream_series": True},
                 "sample_interval": 10}
        obs = Observer(plane, trace_path=str(out))
        obs.register_gauge("node0.q", lambda: 4.0)
        obs.probes.sample(10)
        obs.probes.sample(30)
        assert obs.probes.series() == {}
        obs.close()
        series = probe_series_from_jsonl(str(out))
        assert series == {"node0.q": [(10, 4.0), (30, 4.0)]}


# ----------------------------------------------------------------------
# CLI: validation, the obs subcommand, and the diff refusal
# ----------------------------------------------------------------------

class TestCli:
    @pytest.mark.parametrize("spec", [
        {"sample_interval": 0},
        {"sample_interval": "x"},
        {"sample_intervals": ["noc"]},
        {"sample_intervals": {"noc": -5}},
        {"sample_intervals": {"noc": "ten"}},
    ])
    def test_sampling_spec_validated_before_running(self, spec, tmp_path,
                                                    capsys):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(spec))
        assert main(["stats", "2x1x2", "--instrument", str(path)]) == 2
        err = capsys.readouterr().err
        assert "sample_interval" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["trace", "--categories", "noc"],
        ["trace", "--ring-capacity", "8"],
        ["trace", "--sample-interval", "100"],
        ["trace", "--sample-intervals", "noc=64"],
        ["stats", "--sample-interval", "100"],
        ["stats", "--sample-intervals", "noc=64"],
    ])
    def test_observation_flags_left_to_the_plane(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_obs_validate(self, tmp_path, capsys):
        spec = tmp_path / "p.json"
        spec.write_text(json.dumps(SPEC))
        assert main(["obs", "validate", str(spec)]) == 0
        out = capsys.readouterr().out
        plane = InstrumentationPlane.from_dict(SPEC)
        assert plane.spec_hash in out
        assert "start tracing at cycle 200" in out
        assert main(["obs", "validate", str(spec), "--format",
                     "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["hash"] == plane.spec_hash
        assert payload["spec"] == plane.to_dict()

    def test_obs_validate_rejects_bad_spec(self, tmp_path, capsys):
        spec = tmp_path / "p.json"
        spec.write_text(json.dumps({"nope": 1}))
        assert main(["obs", "validate", str(spec)]) == 2
        assert "unknown spec keys" in capsys.readouterr().err

    def test_sweep_rejects_instrument(self, tmp_path, capsys):
        # sweep only estimates resource fit: nothing to observe.
        spec = tmp_path / "p.json"
        spec.write_text("{}")
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--instrument", str(spec)])
        assert excinfo.value.code == 2
        assert "--instrument" in capsys.readouterr().err

    def test_latency_instrument_requires_archive(self, tmp_path, capsys):
        spec = tmp_path / "p.json"
        spec.write_text("{}")
        assert main(["latency", "2x1x2", "--instrument", str(spec)]) == 2
        assert "--archive" in capsys.readouterr().err

    def test_instrumented_trace_records_spec_in_manifest(self, tmp_path,
                                                         capsys):
        spec = tmp_path / "p.json"
        spec.write_text(json.dumps(SPEC))
        run = tmp_path / "runs" / "a"
        assert main(["trace", "2x1x2", "--instrument", str(spec),
                     "--out", str(tmp_path / "t.jsonl"),
                     "--metrics", str(tmp_path / "m.json"),
                     "--archive", str(run)]) == 0
        capsys.readouterr()
        plane = InstrumentationPlane.from_dict(SPEC)
        archive = RunArchive.load(str(run))
        assert archive.manifest["instrumentation_hash"] == plane.spec_hash
        assert archive.manifest["instrumentation"] == plane.to_dict()
        assert archive.metrics["obs.plane.triggers.armed"] == 2.0
        assert archive.metrics["obs.plane.triggers.fired"] >= 1.0
        # stream_series: the bundle's series were rebuilt from the JSONL.
        bundle = json.loads((tmp_path / "m.json").read_text())
        assert bundle["series"]
        assert instrumentation_hash_of(str(run)) == plane.spec_hash

    def test_diff_refuses_cross_plane_comparisons(self, tmp_path, capsys):
        metrics = {"m": 1}
        plane = InstrumentationPlane.from_dict({"metrics": ["m*"]})
        a = tmp_path / "a"
        b = tmp_path / "b"
        c = tmp_path / "c"
        RunArchive.write(str(a), metrics, label="x",
                         instrumentation=plane.to_dict(),
                         instrumentation_hash=plane.spec_hash)
        RunArchive.write(str(b), metrics, label="x")
        RunArchive.write(str(c), metrics, label="x",
                         instrumentation=plane.to_dict())
        assert main(["diff", str(a), str(b)]) == 2
        assert "instrumented differently" in capsys.readouterr().err
        # The override compares anyway; identical metrics diff clean.
        assert main(["diff", str(a), str(b),
                     "--ignore-instrumentation"]) == 0
        # write() derives the hash from the spec when not given.
        assert instrumentation_hash_of(str(c)) == plane.spec_hash
        assert main(["diff", str(a), str(c)]) == 0


# ----------------------------------------------------------------------
# Farm spec threading
# ----------------------------------------------------------------------

class TestFarmInstrumentation:
    def _write_spec(self, tmp_path, instrumentation):
        spec = {
            "hosts": [{"name": "h0", "slots": 2}],
            "suites": [{"suite": "fig7", "config": "1x1x2"}],
            "jobs": [{"kind": "partition-latency", "config": "2x1x2",
                      "partitions": 2}],
            "instrumentation": instrumentation,
        }
        path = tmp_path / "farm.json"
        path.write_text(json.dumps(spec))
        return path

    def test_instrumentation_reaches_every_job(self, tmp_path):
        from repro.farm import load_spec_file
        plane_path = tmp_path / "plane.json"
        plane_path.write_text(json.dumps({"metrics": ["node*"]}))
        # A path resolves relative to the farm spec's own directory.
        path = self._write_spec(tmp_path, "plane.json")
        filespec = load_spec_file(str(path))
        expected = InstrumentationPlane.from_dict({"metrics": ["node*"]})
        assert filespec.instrumentation == expected.to_dict()
        assert filespec.suites[0].spec.obs_spec == expected.to_dict()
        for job in filespec.jobs:
            assert job.instrumentation == expected.spec_hash
            assert job.describe()["instrumentation"] == expected.spec_hash

    def test_inline_mapping_and_suite_override(self, tmp_path):
        from repro.farm import load_spec_file
        spec = {
            "hosts": [{"name": "h0", "slots": 1}],
            "suites": [{"suite": "fig7", "config": "1x1x2",
                        "obs": {"sample_interval": 9}}],
            "instrumentation": {"metrics": ["node*"]},
        }
        path = tmp_path / "farm.json"
        path.write_text(json.dumps(spec))
        filespec = load_spec_file(str(path))
        # An explicit per-suite obs wins over the spec-wide plane.
        assert filespec.suites[0].spec.obs_spec == {"sample_interval": 9}
        assert filespec.jobs[0].instrumentation == \
            InstrumentationPlane.from_dict({"sample_interval": 9}).spec_hash

    def test_fleets_observed_differently_refuse_to_diff(self, tmp_path,
                                                        capsys):
        from repro.farm import load_spec_file, run_file_spec
        plane = {"metrics": ["node*"]}
        reports = {}
        for name, instrumentation in (("plain", None), ("planed", plane)):
            spec = {"hosts": [{"name": "h0", "slots": 1}],
                    "suites": [{"suite": "fig7", "config": "1x1x2"}]}
            if instrumentation is not None:
                spec["instrumentation"] = instrumentation
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(spec))
            reports[name] = tmp_path / name
            result, _, errors = run_file_spec(
                load_spec_file(str(path)), report_dir=str(reports[name]))
            assert result.ok and not errors
        expected = InstrumentationPlane.from_dict(plane).spec_hash
        # The default plane records none; the plane's hash lands in the
        # job archive and in the merged archive its jobs share.
        assert instrumentation_hash_of(
            str(reports["plain"] / "jobs" / "fig7-0")) is None
        assert instrumentation_hash_of(
            str(reports["plain"] / "merged")) is None
        assert instrumentation_hash_of(
            str(reports["planed"] / "jobs" / "fig7-0")) == expected
        assert instrumentation_hash_of(
            str(reports["planed"] / "merged")) == expected
        assert main(["diff", str(reports["plain"] / "merged"),
                     str(reports["planed"] / "merged")]) == 2
        assert "instrumented differently" in capsys.readouterr().err

    def test_mixed_fleet_gets_a_combined_plane_hash(self):
        from repro.farm.report import _fleet_plane_hash
        assert _fleet_plane_hash(set()) is None
        assert _fleet_plane_hash({None}) is None
        assert _fleet_plane_hash({"abc"}) == "abc"
        mixed = _fleet_plane_hash({"abc", None})
        assert mixed not in ("abc", None)
        assert mixed == _fleet_plane_hash({None, "abc"})
        assert mixed != _fleet_plane_hash({"abc", "def"})

    def test_bad_instrumentation_rejected(self, tmp_path):
        from repro.farm import load_spec_file
        path = self._write_spec(tmp_path, ["not", "a", "plane"])
        with pytest.raises(FarmError, match="instrumentation"):
            load_spec_file(str(path))
        path = self._write_spec(tmp_path, {"nope": 1})
        with pytest.raises(FarmError, match="bad instrumentation"):
            load_spec_file(str(path))
        path = self._write_spec(tmp_path, "missing.yaml")
        with pytest.raises(FarmError, match="bad instrumentation"):
            load_spec_file(str(path))
