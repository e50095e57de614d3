"""Tests for repro.farm: scheduling, retries, quarantine, reports.

The load-bearing contract: a farm suite is byte-identical to the plain
``run_sweep`` of the same spec at any slot count, and the fleet
survives injected transient failures, crashes, and hangs via retry.
"""

import json
import multiprocessing
import os
import shutil
import signal
import time

import pytest

from repro import parse_config
from repro.errors import FarmError, TransientJobError
from repro.farm import (FarmSpec, JobSpec, LocalHost,
                        apply_fault_injection, farm_sweep, finish_suite,
                        load_farm_manifest, load_spec_file, local_farm,
                        plan_sweep, run_farm)
from repro.parallel import (SweepSpec, fig8_spec, fig9_spec,
                            latency_matrix_spec, run_sweep)
from repro.store import ResultStore

#: Fast policy for toy fleets: no backoff waiting in tests.
FAST = dict(backoff_base=0.0)

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def ok_job(payload):
    """Module-level (picklable) toy job."""
    return {"value": payload["x"] * 2, "metrics": {"toy.runs": 1}}


def bad_job(payload):
    raise ValueError("deterministic boom")


def flaky_value_job(payload):
    raise TransientJobError("flaky by nature")


def pid_job(payload):
    """The pid of the worker process that ran the job."""
    return os.getpid()


def stop_once_point(config, point, seed, obs_spec):
    """Sweep point fn: a point carrying a ``marker`` path stops its own
    worker with SIGSTOP on the first attempt that finds no marker."""
    marker = point.get("marker")
    if marker is not None and not os.path.exists(marker):
        open(marker, "w").close()
        os.kill(os.getpid(), signal.SIGSTOP)
    return point["x"] * 2


def sabotage_report_job(payload):
    """Replace the fleet's report directory by a file, then stay busy
    past the scheduler's next report write."""
    shutil.rmtree(payload["report"])
    with open(payload["report"], "w"):
        pass
    time.sleep(1.0)
    return payload["x"]


def _small_fig8(**kwargs):
    return fig8_spec(parse_config("1x2x2"), thread_counts=(2, 4),
                     **kwargs)


def _small_fig7(**kwargs):
    """Two 4-row shards, so a suite of two jobs."""
    return latency_matrix_spec(parse_config("2x1x4"), **kwargs)


def _dumps(value):
    return json.dumps(value, sort_keys=True)


# ----------------------------------------------------------------------
# Specs and validation
# ----------------------------------------------------------------------

class TestSpecs:
    def test_local_farm_shape(self):
        assert local_farm(slots=6).describe() == {
            "slots": 6, "max_retries": 2, "backoff_base": 0.25,
            "heartbeat_interval": 0.2, "heartbeat_timeout": 10.0}

    def test_farm_needs_slots(self):
        with pytest.raises(FarmError, match="slots must be"):
            FarmSpec(slots=0)

    def test_job_needs_slots(self):
        with pytest.raises(FarmError):
            JobSpec("j", ok_job, {}, slots=0)

    def test_heartbeat_timeout_defaults_to_fifty_beats(self):
        assert FarmSpec().heartbeat_timeout == 10.0
        assert local_farm(heartbeat_interval=0.05).heartbeat_timeout == 2.5
        assert local_farm(heartbeat_timeout=3.0).heartbeat_timeout == 3.0

    def test_fault_injection_rewrites_named_jobs(self):
        jobs = [JobSpec("a", ok_job, {"x": 1}),
                JobSpec("b", ok_job, {"x": 2})]
        out = apply_fault_injection(jobs, {"b": {"fail": 2}})
        assert out[0].inject_fail == 0
        assert out[1].inject_fail == 2

    def test_fault_injection_unknown_job(self):
        with pytest.raises(FarmError):
            apply_fault_injection([JobSpec("a", ok_job, {})],
                                  {"zz": {"fail": 1}})

    def test_fault_injection_unknown_mode(self):
        with pytest.raises(FarmError):
            apply_fault_injection([JobSpec("a", ok_job, {})],
                                  {"a": {"explode": 1}})


# ----------------------------------------------------------------------
# The scheduler: placement, failure handling, liveness
# ----------------------------------------------------------------------

class TestScheduler:
    def test_empty_fleet_is_an_error(self):
        with pytest.raises(FarmError):
            run_farm(local_farm(), [])

    def test_duplicate_job_ids_rejected(self):
        with pytest.raises(FarmError):
            run_farm(local_farm(), [JobSpec("a", ok_job, {"x": 1}),
                                    JobSpec("a", ok_job, {"x": 2})])

    def test_oversized_job_rejected(self):
        with pytest.raises(FarmError, match="needs 3 slots"):
            run_farm(local_farm(slots=2),
                     [JobSpec("wide", ok_job, {"x": 1}, slots=3)])

    def test_simple_fleet_runs(self):
        result = run_farm(local_farm(slots=4, **FAST),
                          [JobSpec(f"j/{i}", ok_job, {"x": i})
                           for i in range(5)])
        assert result.ok
        assert result.values() == [{"value": 2 * i,
                                    "metrics": {"toy.runs": 1}}
                                   for i in range(5)]
        counters = result.export_metrics()
        assert counters["obs.farm.done"] == 5
        assert counters["obs.farm.launched"] == 5
        assert counters["obs.farm.retried"] == 0
        assert counters["obs.farm.slots_peak_busy"] <= 4

    def test_transient_failure_retries_then_succeeds(self):
        result = run_farm(
            local_farm(**FAST),
            [JobSpec("flaky", ok_job, {"x": 3}, inject_fail=1)])
        state = result.state_of("flaky")
        assert state.state == "done"
        assert state.attempts == 2 and state.retries == 1
        assert result.export_metrics()["obs.farm.retried"] == 1
        assert result.value_of("flaky")["value"] == 6

    def test_worker_crash_retries_then_succeeds(self):
        result = run_farm(
            local_farm(**FAST),
            [JobSpec("crashy", ok_job, {"x": 4}, inject_crash=1)])
        state = result.state_of("crashy")
        assert state.state == "done"
        assert state.attempts == 2 and state.retries == 1
        assert result.value_of("crashy")["value"] == 8

    def test_deterministic_failure_quarantines_after_two(self):
        result = run_farm(local_farm(max_retries=5, **FAST),
                          [JobSpec("bad", bad_job, {"x": 1})])
        state = result.state_of("bad")
        assert state.state == "quarantined"
        assert state.attempts == 2       # not 6: same error twice stops
        assert state.error["type"] == "ValueError"
        assert "boom" in state.error["text"]
        assert not result.ok
        with pytest.raises(FarmError):
            result.value_of("bad")

    def test_transient_failures_spend_retries_then_fail(self):
        result = run_farm(
            local_farm(max_retries=2, **FAST),
            [JobSpec("doomed", flaky_value_job, {"x": 1})])
        state = result.state_of("doomed")
        assert state.state == "failed"
        assert state.attempts == 3       # 1 + max_retries
        assert state.error["type"] == "TransientJobError"

    def test_hang_is_killed_by_heartbeat_timeout_and_retried(self):
        result = run_farm(
            local_farm(heartbeat_timeout=0.6, heartbeat_interval=0.1,
                       **FAST),
            [JobSpec("hung", ok_job, {"x": 5}, inject_hang=1)])
        state = result.state_of("hung")
        assert state.state == "done"
        assert state.retries == 1
        assert result.value_of("hung")["value"] == 10

    def test_mixed_fleet_settles_completely(self):
        result = run_farm(
            local_farm(slots=2, **FAST),
            [JobSpec("ok", ok_job, {"x": 1}),
             JobSpec("crash", ok_job, {"x": 2}, inject_crash=1),
             JobSpec("flaky", ok_job, {"x": 3}, inject_fail=1),
             JobSpec("bad", bad_job, {"x": 4})])
        states = {s.job_id: s.state for s in result.states}
        assert states == {"ok": "done", "crash": "done",
                          "flaky": "done", "bad": "quarantined"}
        assert len(result.failed_states()) == 1
        # crash retried + flaky retried + bad's one pre-quarantine retry
        assert result.export_metrics()["obs.farm.retried"] == 3

    def test_slot_weight_serializes_wide_jobs(self):
        # Two 2-slot jobs on a 2-slot pool can never overlap.
        result = run_farm(
            local_farm(slots=2, **FAST),
            [JobSpec("wide/0", ok_job, {"x": 1}, slots=2),
             JobSpec("wide/1", ok_job, {"x": 2}, slots=2)])
        assert result.ok
        assert result.export_metrics()["obs.farm.slots_peak_busy"] == 2


# ----------------------------------------------------------------------
# The pool: persistent local workers
# ----------------------------------------------------------------------

class TestHosts:
    def test_stopped_worker_misses_the_default_deadline(self, tmp_path):
        points = [{"x": x} for x in range(4)]
        points[1] = {"x": 1, "marker": str(tmp_path / "stopped")}
        spec = SweepSpec(family="stop-once", config=parse_config("1x2x2"),
                         points=points, point_fn=stop_once_point)
        started = time.monotonic()
        got = farm_sweep(spec, local_farm(slots=2, heartbeat_interval=0.05,
                                          **FAST))
        assert time.monotonic() - started < 30
        assert os.path.exists(tmp_path / "stopped")
        assert multiprocessing.active_children() == []
        # The marker now exists, so the serial run does not stop itself.
        assert got.values == run_sweep(spec, jobs=1).values == [0, 2, 4, 6]

    def test_workers_serve_many_attempts(self):
        result = run_farm(local_farm(slots=2, **FAST),
                          [JobSpec(f"pid/{i}", pid_job, i)
                           for i in range(6)])
        assert result.ok
        pids = set(result.values())
        assert 1 <= len(pids) <= 2 and os.getpid() not in pids
        assert multiprocessing.active_children() == []

    def test_worker_killed_on_heartbeat_timeout_is_replaced(
            self, monkeypatch):
        launches = []
        launch = LocalHost.launch

        def spy(self, job, attempt, heartbeat_interval):
            handle = launch(self, job, attempt, heartbeat_interval)
            launches.append((job.job_id, attempt, handle.process.pid))
            return handle

        monkeypatch.setattr(LocalHost, "launch", spy)
        result = run_farm(
            local_farm(slots=1, heartbeat_timeout=0.6,
                       heartbeat_interval=0.1, **FAST),
            [JobSpec("hung", pid_job, 0, inject_hang=1)]
            + [JobSpec(f"pid/{i}", pid_job, i) for i in range(3)])
        assert result.ok
        assert result.state_of("hung").retries == 1
        assert launches[0][:2] == ("hung", 1)
        killed = launches[0][2]
        assert killed not in [pid for _id, _a, pid in launches[1:]]
        assert killed not in result.values()
        assert multiprocessing.active_children() == []

    def test_unpicklable_job_is_a_farm_error(self):
        with pytest.raises(FarmError, match="cannot be sent"):
            run_farm(local_farm(**FAST),
                     [JobSpec("ok", ok_job, {"x": 1}),
                      JobSpec("local", lambda payload: payload, {})])
        assert multiprocessing.active_children() == []


# ----------------------------------------------------------------------
# Suites: the byte-identity contract
# ----------------------------------------------------------------------

class TestSuites:
    def test_farm_sweep_matches_run_sweep_at_any_topology(self):
        for spec in (_small_fig8(), _small_fig7()):
            base = run_sweep(spec, jobs=1)
            for slots in (1, 4):
                got = farm_sweep(spec, local_farm(slots=slots, **FAST))
                assert _dumps(got.value) == _dumps(base.value)
                assert got.config_hash == base.config_hash
                assert got.points == base.points

    def test_farm_sweep_with_injected_failure_still_identical(self):
        base = run_sweep(_small_fig7(), jobs=1)
        plan = plan_sweep(_small_fig7())
        jobs = apply_fault_injection(plan.jobs,
                                     {plan.jobs[0].job_id: {"fail": 1}})
        result = run_farm(local_farm(slots=2, **FAST), jobs)
        assert result.export_metrics()["obs.farm.retried"] == 1
        got = finish_suite(plan, result)
        assert _dumps(got.value) == _dumps(base.value)

    def test_farm_sweep_memoizes_through_the_store(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        cold = farm_sweep(_small_fig8(), local_farm(slots=2, **FAST),
                          store=store)
        assert cold.misses == 2 and cold.hits == 0
        warm_store = ResultStore(str(tmp_path / "store"))
        warm = farm_sweep(_small_fig8(), local_farm(**FAST),
                          store=warm_store)
        assert warm.hits == 2 and warm.misses == 0
        assert _dumps(warm.value) == _dumps(cold.value)
        assert warm_store.export_metrics()["obs.store.hit"] == 2

    def test_fig8_and_fig9_suites_are_one_job(self):
        config = parse_config("2x1x2")
        for spec in (fig8_spec(config, thread_counts=(1, 2, 3, 4)),
                     fig9_spec(config, n_threads=2)):
            plan = plan_sweep(spec)
            assert [job.job_id for job in plan.jobs] == [
                f"{spec.family}/0"]
            assert len(plan.jobs[0].payload) == len(spec.points)
        assert len(plan_sweep(_small_fig7()).jobs) == 2

    def test_finish_suite_raises_on_holes(self):
        plan = plan_sweep(_small_fig8())
        jobs = [JobSpec(job.job_id, bad_job, job.payload)
                for job in plan.jobs]
        result = run_farm(local_farm(**FAST), jobs)
        with pytest.raises(FarmError, match="incomplete"):
            finish_suite(plan, result)


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------

class TestReports:
    def test_report_manifest_and_merged_archive(self, tmp_path):
        from repro.obs.archive import RunArchive

        report = str(tmp_path / "report")
        farm_sweep(_small_fig7(), local_farm(slots=2, **FAST),
                   report_dir=report)
        manifest = load_farm_manifest(report)
        assert manifest["final"] is True
        assert manifest["counters"]["obs.farm.done"] == 2
        assert {job["state"] for job in manifest["jobs"]} == {"done"}
        assert RunArchive.is_archive(os.path.join(report, "merged"))
        with open(os.path.join(report, "merged", "metrics.json")) as f:
            merged = json.load(f)
        assert merged["obs.farm.done"] == 2
        with open(os.path.join(report, "suites", "fig7.json")) as f:
            suite = json.load(f)
        assert suite["points"] == 2
        jobs_dir = os.path.join(report, "jobs")
        assert sorted(os.listdir(jobs_dir)) == ["fig7-0", "fig7-1"]

    def test_one_job_suite_merges_one_metrics_shard_per_point(
            self, tmp_path):
        from repro.obs.archive import merge_metric_shards

        report = str(tmp_path / "report")
        spec = _small_fig8(obs_spec={})
        got = farm_sweep(spec, local_farm(slots=2, **FAST),
                         report_dir=report)
        assert load_farm_manifest(report)["counters"]["obs.farm.done"] == 1
        with open(os.path.join(report, "merged", "metrics.json")) as f:
            merged = json.load(f)
        with open(os.path.join(report, "suites", "fig8.json")) as f:
            suite = json.load(f)
        assert suite["points"] == 2
        assert _dumps(suite["value"]) == _dumps(
            run_sweep(spec, jobs=1).value)
        shards = [value["metrics"] for value in got.values]
        expected = json.loads(json.dumps(merge_metric_shards(shards)))
        assert {name: value for name, value in merged.items()
                if not name.startswith("obs.farm.")} == expected
        assert sorted(os.listdir(os.path.join(report, "jobs"))) == [
            "fig8-0"]

    def test_status_of_non_report_dir_fails(self, tmp_path):
        with pytest.raises(FarmError):
            load_farm_manifest(str(tmp_path))

    def test_unusable_report_dir_is_a_farm_error(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        report = str(blocker / "rep")
        with pytest.raises(FarmError, match="cannot write the report to "
                           + report):
            run_farm(local_farm(**FAST), [JobSpec("ok", ok_job, {"x": 1})],
                     report_dir=report)
        assert multiprocessing.active_children() == []

    def test_report_dir_lost_mid_run_stops_the_workers(self, tmp_path):
        report = str(tmp_path / "report")
        with pytest.raises(FarmError, match="cannot write the report"):
            run_farm(local_farm(slots=2, **FAST),
                     [JobSpec("sabotage", sabotage_report_job,
                              {"report": report, "x": 1}),
                      JobSpec("ok", ok_job, {"x": 2})],
                     report_dir=report)
        assert multiprocessing.active_children() == []


# ----------------------------------------------------------------------
# Spec files and the CLI
# ----------------------------------------------------------------------

def _write_spec(tmp_path, data):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    return str(path)


class TestSpecFiles:
    def test_unknown_keys_rejected(self, tmp_path):
        path = _write_spec(tmp_path, {"suites": [], "surprise": 1})
        with pytest.raises(FarmError, match="surprise"):
            load_spec_file(path)

    def test_spec_naming_hosts_rejected(self, tmp_path):
        for key, value in (("hosts", [{"name": "h", "slots": 1}]),
                           ("backoff_cap", 5.0)):
            path = _write_spec(tmp_path, {
                key: value,
                "suites": [{"suite": "fig7", "config": "1x1x2"}]})
            with pytest.raises(FarmError,
                               match=f"unknown spec keys \\['{key}'\\]"):
                load_spec_file(path)

    def test_empty_spec_rejected(self, tmp_path):
        path = _write_spec(tmp_path, {"slots": 1})
        with pytest.raises(FarmError, match="no suites or jobs"):
            load_spec_file(path)

    def test_suite_spec_expands_to_jobs(self, tmp_path):
        path = _write_spec(tmp_path, {
            "slots": 2,
            "suites": [{"suite": "fig7", "config": "2x1x4"}],
            "fault_injection": {"fig7/0": {"fail": 1}}})
        filespec = load_spec_file(path)
        assert [job.job_id for job in filespec.jobs] == ["fig7/0",
                                                         "fig7/1"]
        assert filespec.jobs[0].inject_fail == 1
        assert filespec.farm.slots == 2

    def test_adhoc_partition_job_weighs_its_partitions(self, tmp_path):
        path = _write_spec(tmp_path, {
            "slots": 2,
            "jobs": [{"kind": "partition-latency", "config": "2x1x2",
                      "partitions": 2}]})
        filespec = load_spec_file(path)
        assert filespec.jobs[0].slots == 2
        result = run_farm(filespec.farm, filespec.jobs)
        assert result.ok
        value = result.values()[0]["value"]
        assert len(value["latencies"]) == 3    # pairs from core 0

    @pytest.mark.parametrize("entries, message", [
        ({"slots": "2"}, "slots must be an integer >= 1"),
        ({"slots": 1.5}, "slots must be an integer >= 1"),
        ({"max_retries": "2"}, "max_retries must be an integer >= 0"),
        ({"max_retries": -1}, "max_retries must be an integer >= 0"),
        ({"heartbeat_interval": 0}, "heartbeat_interval must be a number > 0"),
        ({"heartbeat_timeout": -1}, "heartbeat_timeout must be a number > 0"),
        ({"fault_injection": {"fig7/0": {"fail": "x"}}},
         r"fault_injection\['fig7/0'\]\.fail must be an integer >= 0"),
        ({"fault_injection": {"fig7/0": {"crash": -1}}},
         r"fault_injection\['fig7/0'\]\.crash must be an integer >= 0"),
    ], ids=["slots-text", "slots-float", "retries-text", "retries-negative",
            "interval-zero", "timeout-negative", "fail-text",
            "crash-negative"])
    def test_bad_spec_values_name_their_key(self, tmp_path, entries,
                                            message):
        path = _write_spec(tmp_path, {
            "suites": [{"suite": "fig7", "config": "1x1x2"}], **entries})
        with pytest.raises(FarmError, match=message):
            load_spec_file(path)

    @pytest.mark.parametrize("inject", [1, ["fail"]],
                             ids=["count", "list"])
    def test_fault_injection_entries_must_be_mappings(self, tmp_path,
                                                      inject):
        path = _write_spec(tmp_path, {
            "suites": [{"suite": "fig7", "config": "1x1x2"}],
            "fault_injection": {"fig7/0": inject}})
        with pytest.raises(FarmError, match=r"fault_injection for "
                                            r"'fig7/0' must be a mapping"):
            load_spec_file(path)

    @pytest.mark.parametrize("path, slots, job_ids", [
        ("examples/farm_fig8.json", 4,
         [f"fig7/{index}" for index in range(12)] + ["fig8/0"]),
        (".github/farm_smoke.json", 2,
         [f"fig7/{index}" for index in range(4)] + ["fig8/0"]),
        (".github/partition_smoke.json", 2, ["partition/2x1x2x2"]),
        ("examples/instrument_fig7.yaml", None, None),
    ], ids=["farm_fig8", "farm_smoke", "partition_smoke",
            "instrument_fig7"])
    def test_shipped_spec_files_load(self, path, slots, job_ids):
        path = os.path.join(REPO, path)
        if path.endswith(".yaml"):
            pytest.importorskip("yaml")
            from repro.obs.plane import load_plane
            assert load_plane(path).metrics == ("node*", "*.utilization")
            return
        filespec = load_spec_file(path)
        assert filespec.farm.slots == slots
        assert [job.job_id for job in filespec.jobs] == job_ids


class TestFarmCLI:
    def test_farm_run_and_status(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = _write_spec(tmp_path, {
            "slots": 2,
            "backoff_base": 0.0,
            "report": "report",
            "suites": [{"suite": "fig7", "config": "2x1x4"}],
            "fault_injection": {"fig7/1": {"fail": 1}}})
        from repro.cli import main
        assert main(["farm", "run", path]) == 0
        out = capsys.readouterr().out
        assert "2 done" in out
        assert "1 retried" in out
        assert "suite fig7: 2 points merged" in out

        assert main(["farm", "status", "report"]) == 0
        out = capsys.readouterr().out
        assert "final" in out
        assert "2 done" in out
        assert "fig7/1" in out

        assert main(["farm", "status", "report",
                     "--format", "json"]) == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["counters"]["obs.farm.retried"] == 1

    def test_farm_run_reports_failures_with_exit_code(self, tmp_path,
                                                      capsys,
                                                      monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = _write_spec(tmp_path, {
            "backoff_base": 0.0,
            "max_retries": 0,
            "suites": [{"suite": "fig8", "config": "1x2x2",
                        "thread_counts": [2]}],
            "fault_injection": {"fig8/0": {"fail": 99}}})
        from repro.cli import main
        assert main(["farm", "run", path]) == 1
        captured = capsys.readouterr()
        assert "failed" in captured.out
        assert "incomplete" in captured.err

    def test_farm_run_rejects_impossible_threads_before_launch(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        launched = []
        monkeypatch.setattr(LocalHost, "launch",
                            lambda *args: launched.append(args))
        path = _write_spec(tmp_path, {
            "report": "report",
            "suites": [{"suite": "fig9", "config": "2x1x2",
                        "threads": 12}]})
        from repro.cli import main
        assert main(["farm", "run", path]) == 2
        assert "12 threads" in capsys.readouterr().err
        assert launched == []
        assert not (tmp_path / "report").exists()

    @pytest.mark.parametrize("section, entry, message", [
        ("suites", {"suite": "fig7", "seed": "x"},
         "suite 'fig7' seed must be an integer"),
        ("suites", {"suite": "fig7", "root_seed": "x"},
         "suite 'fig7' root_seed must be an integer"),
        ("suites", {"suite": "fig7", "slots": "x"},
         "suite 'fig7' slots must be an integer >= 1"),
        ("suites", {"suite": "fig9", "threads": "many"},
         "suite 'fig9' threads must be an integer"),
        ("suites", {"suite": "fig8", "thread_counts": "ab"},
         "suite 'fig8' thread_counts must be a list of integers"),
        ("suites", {"suite": "fig8", "thread_counts": [2, "b"]},
         "suite 'fig8' thread_counts must be an integer"),
        ("jobs", {"kind": "partition-latency", "seed": "x"},
         "partition-latency job '2x1x2' seed must be an integer"),
        ("jobs", {"kind": "partition-latency", "partitions": "x"},
         "partition-latency job '2x1x2' partitions must be an integer"),
        ("jobs", {"kind": "partition-latency", "slots": "x"},
         "partition-latency job '2x1x2' slots must be an integer >= 1"),
    ], ids=["suite-seed", "suite-root-seed", "suite-slots",
            "suite-threads", "suite-thread-counts-text",
            "suite-thread-counts-item", "job-seed", "job-partitions",
            "job-slots"])
    def test_farm_run_names_a_bad_entry_value(self, tmp_path, capsys,
                                              section, entry, message):
        path = _write_spec(tmp_path, {
            section: [dict({"config": "2x1x2"}, **entry)]})
        from repro.cli import main
        assert main(["farm", "run", path]) == 2
        assert message in capsys.readouterr().err

    def test_malformed_yaml_spec_is_a_clean_error(self, tmp_path,
                                                  capsys):
        pytest.importorskip("yaml")
        from repro.cli import main
        path = tmp_path / "bad.yaml"
        path.write_text("hosts: [{name: a\n")
        for command in (["farm", "run"], ["obs", "validate"]):
            assert main(command + [str(path)]) == 2
            assert "not valid YAML" in capsys.readouterr().err

    def test_farm_run_missing_spec_fails_cleanly(self, capsys):
        from repro.cli import main
        assert main(["farm", "run", "/nonexistent/spec.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_farm_status_missing_dir_fails_cleanly(self, tmp_path,
                                                   capsys):
        from repro.cli import main
        assert main(["farm", "status", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err
