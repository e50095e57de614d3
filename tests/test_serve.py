"""Tests for repro.serve: the typed API, the HTTP service, the client.

The module-scoped ``served`` fixture seeds one store with a fig8 sweep
(both the bare and the ``obs={}`` key flavors) and the ``obs={}`` Fig. 7
shards of the same config, writes three small run archives (two sharing
an instrumentation plane, one on a different plane), and boots a
:class:`ServiceThread`.  Counter assertions measure *deltas* via
``/v1/stats`` so tests stay order-independent.
"""

import contextlib
import http.client
import json
import socket
import socketserver
import struct
import threading
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import parse_config
from repro.cli import main as cli_main
from repro.errors import ServeError
from repro.obs.archive import RunArchive
from repro.parallel import (fig8_spec, fig9_spec, latency_matrix_spec,
                            run_sweep)
from repro.parallel.sweep import sweep_group_task, sweep_tasks
from repro.serve import (SERVE_API_VERSION, DiffQuery, ErrorReply,
                         PointQuery, PointReply, Pong, ResultService,
                         ServeClient, ServiceThread, SweepSubmit, api,
                         client_backend, config_hash_of, decode,
                         derived_seed)
from repro.serve.api import canonical_json
from repro.serve.service import (MAX_BODY_BYTES, MAX_HEADER_LINES,
                                 MAX_LINE_BYTES)
from repro.store import ResultStore, entry_key

CONFIG = "2x1x2"
THREADS = (2, 4)

#: Tolerance entries of the wrong type: each is a client error.
MALFORMED_RULES = [{"pattern": "*", "rel_tol": "x"},
                   {"pattern": "*", "rel_tol": None},
                   {"pattern": 5}]
MALFORMED_RULE_IDS = ["rel-text", "rel-null", "pattern-int"]

#: Canonical JSON values: what a stored entry's value text parses to.
CANONICAL_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=20)


# ----------------------------------------------------------------------
# The wire schema
# ----------------------------------------------------------------------

class TestApi:
    def test_point_query_round_trip(self):
        query = PointQuery(family="fig8", config_hash="abc", point=2,
                           seed=7)
        again = decode(query.to_json(), expect=PointQuery)
        assert again == query
        assert again.key_payload()["seed"] == 7

    def test_point_query_is_the_store_key_payload(self):
        config = parse_config(CONFIG)
        spec = fig8_spec(config, thread_counts=THREADS)
        cfg_hash, tasks = sweep_tasks(spec, None)
        payload = tasks[0][-1]
        query = PointQuery(family=spec.family, config_hash=cfg_hash,
                           point=payload["point"], seed=payload["seed"])
        assert entry_key(query.key_payload()) == entry_key(payload)

    def test_derived_seed_matches_task_seed(self):
        from repro.parallel import task_seed
        assert derived_seed(3, "fig8", 1) == task_seed(3, "fig8", 1)

    def test_config_hash_of_matches_sweep_hash(self):
        config = parse_config(CONFIG)
        cfg_hash, _ = sweep_tasks(fig8_spec(config, THREADS), None)
        assert config_hash_of(CONFIG) == cfg_hash

    def test_decode_refuses_other_api_versions(self):
        wire = Pong().to_wire()
        wire["api_version"] = SERVE_API_VERSION + 1
        with pytest.raises(ServeError, match="api_version"):
            decode(json.dumps(wire))

    def test_decode_refuses_unknown_kind_and_fields(self):
        with pytest.raises(ServeError, match="unknown message kind"):
            decode({"api_version": SERVE_API_VERSION, "kind": "nope",
                    "body": {}})
        wire = Pong().to_wire()
        wire["body"] = {"service": "x", "extra": 1}
        with pytest.raises(ServeError, match="unknown fields"):
            decode(json.dumps(wire))

    def test_decode_expect_pins_type_but_passes_errors(self):
        with pytest.raises(ServeError, match="expected point_query"):
            decode(Pong().to_json(), expect=PointQuery)
        error = decode(ErrorReply(error="boom").to_json(),
                       expect=PointQuery)
        assert isinstance(error, ErrorReply)

    def test_point_query_validation(self):
        with pytest.raises(ServeError):
            PointQuery(family="", config_hash="a", point=1, seed=0)
        with pytest.raises(ServeError):
            PointQuery(family="f", config_hash="a", point=1, seed="0")
        with pytest.raises(ServeError):
            PointQuery(family="f", config_hash="a", point=1, seed=0,
                       obs="not-a-dict")

    def test_sweep_submit_entry_shape(self):
        submit = SweepSubmit(suite="fig8", config=CONFIG,
                             thread_counts=[2, 4], suite_id="s1")
        entry = submit.entry()
        assert entry["thread_counts"] == [2, 4]
        assert entry["id"] == "s1"
        assert "threads" not in entry and "obs" not in entry
        again = decode(submit.to_json(), expect=SweepSubmit)
        assert again.thread_counts == (2, 4)

    def test_diff_query_rules(self):
        query = DiffQuery(run_a="a", run_b="b",
                          rules=[{"pattern": "lat", "rel_tol": 0.1}])
        rules = query.rule_objects()
        assert rules[0].pattern == "*"
        assert rules[1].pattern == "lat"
        assert rules[1].rel_tol == pytest.approx(0.1)
        with pytest.raises(ServeError, match="pattern"):
            DiffQuery(run_a="a", run_b="b", rules=[{"rel_tol": 0.1}])

    @pytest.mark.parametrize("entry", MALFORMED_RULES,
                             ids=MALFORMED_RULE_IDS)
    def test_diff_query_refuses_malformed_rules(self, entry):
        with pytest.raises(ServeError, match="diff_query rule"):
            DiffQuery(run_a="a", run_b="b", rules=[entry])

    def test_canonical_json_equal_messages_equal_bytes(self):
        a = PointQuery(family="f", config_hash="c", point={"x": 1,
                                                           "y": 2},
                       seed=0)
        b = PointQuery(family="f", config_hash="c", point={"y": 2,
                                                           "x": 1},
                       seed=0)
        assert a.to_json() == b.to_json()

    def test_to_dict_hands_over_the_value_uncopied(self):
        value = {"rows": [[1, 2]], "metrics": {"a": 1}}
        assert PointReply(found=True, key="k",
                          value=value).to_dict()["value"] is value

    def test_wire_bytes_are_pinned(self):
        # Captured from the dataclasses.asdict encoder; tuples go out as
        # lists either way.
        value = {"rows": [[1, 2.5], [3, None]],
                 "metrics": {"b": 1, "a": {"z": [1, "x"]}}}
        assert PointReply(found=True, key="k", value=value).to_json() == (
            '{"api_version": 1, "body": {"found": true, "key": "k", '
            '"value": {"metrics": {"a": {"z": [1, "x"]}, "b": 1}, '
            '"rows": [[1, 2.5], [3, null]]}}, "kind": "point_reply"}')
        assert SweepSubmit(suite="fig8",
                           thread_counts=(1, 2)).to_json() == (
            '{"api_version": 1, "body": {"config": "4x1x12", "obs": null, '
            '"root_seed": 0, "seed": 0, "slots": 1, "suite": "fig8", '
            '"suite_id": null, "thread_counts": [1, 2], "threads": null}, '
            '"kind": "sweep_submit"}')
        assert DiffQuery(run_a="a", run_b="b",
                         rules=[{"pattern": "x"}]).to_json() == (
            '{"api_version": 1, "body": {"ignore_instrumentation": false, '
            '"only_violations": false, "rules": [{"pattern": "x"}], '
            '"run_a": "a", "run_b": "b"}, "kind": "diff_query"}')

    @settings(max_examples=100, deadline=None)
    @given(key=st.text(), value=CANONICAL_VALUES)
    @example(key="k", value={"rows": [[1, 1e-300], [2 / 3, None]],
                             "name": "fig7 \u00e9\u4e2d\U0001f600",
                             "nested": {"a": {"null": []}}})
    def test_point_hit_json_is_the_point_reply(self, key, value):
        text = canonical_json(value)
        assert api.point_hit_json(key, text) == PointReply(
            found=True, key=key, value=json.loads(text)).to_json()

    def test_every_kind_round_trips(self):
        messages = [
            PointQuery(family="fig8", config_hash="c", point={"t": 2},
                       seed=3, obs={}),
            PointReply(found=True, key="k", value={"rows": [[1, 2]]}),
            api.ArchiveList(archives=[{"run_id": "r", "metrics": 2}]),
            api.ArchiveReply(run_id="r", manifest={"seed": 0},
                             metrics={"lat": 1.5}),
            api.MetricQuery(glob="lat*"),
            api.MetricMatches(glob="lat*", matches=[
                {"run_id": "r", "metric": "lat", "value": 1}]),
            DiffQuery(run_a="a", run_b="b",
                      rules=[{"pattern": "x", "rel_tol": 0.1}],
                      only_violations=True),
            api.DiffReply(run_a="a", run_b="b", ok=False, violations=1,
                          deltas=[{"name": "lat", "status": "changed"}]),
            SweepSubmit(suite="fig8", thread_counts=(1, 2), obs={}),
            api.SubmitReply(job_id="j", state="queued", points=2, warm=1,
                            cold=1),
            api.JobReply(job={"job_id": "j", "value": [1, 2]},
                         farm={"final": True}),
            api.JobList(jobs=[{"job_id": "j"}]),
            Pong(),
            api.StatsReply(metrics={"obs.serve.hits": 3}),
            ErrorReply(error="boom"),
        ]
        assert sorted(m.KIND for m in messages) == sorted(api._KINDS)
        for message in messages:
            assert decode(message.to_json()) == message


# ----------------------------------------------------------------------
# The live service
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def served(tmp_path_factory):
    root = tmp_path_factory.mktemp("serve")
    config = parse_config(CONFIG)
    store = ResultStore(str(root / "store"))
    # Bare fig8 points (obs=None) for the point-query identity check...
    spec = fig8_spec(config, thread_counts=THREADS)
    serial = run_sweep(spec, jobs=1, store=store)
    cfg_hash, tasks = sweep_tasks(spec, store.root)
    # ...and the obs={} flavor the suite planner keys on, so a fig8
    # submit is answerable entirely from the store.
    serial_obs = run_sweep(fig8_spec(config, thread_counts=THREADS,
                                     obs_spec={}), jobs=1, store=store)
    serial_fig9 = run_sweep(fig9_spec(config, n_threads=2, obs_spec={}),
                            jobs=1)
    # Fig. 7 shards: the {"rows", "metrics"} value shape serve-mixed asks
    # for, a much larger reply than a fig8 point.
    fig7_spec = latency_matrix_spec(config, obs_spec={})
    run_sweep(fig7_spec, jobs=1, store=store)
    _fig7_hash, fig7_tasks = sweep_tasks(fig7_spec, store.root)

    runs = root / "runs"
    RunArchive.write(str(runs / "a"), {"lat": 100, "thr": 5.0},
                     label=CONFIG, seed=0)
    RunArchive.write(str(runs / "b"), {"lat": 110, "thr": 5.0},
                     label=CONFIG, seed=0)
    RunArchive.write(str(runs / "c"), {"lat": 100, "thr": 5.0},
                     label=CONFIG, seed=0,
                     instrumentation_hash="otherplane")

    service = ResultService(str(root / "store"), runs_root=str(runs))
    with ServiceThread(service):
        client = ServeClient(service.url)
        yield {
            "service": service, "client": client, "config": config,
            "serial": serial, "serial_obs": serial_obs,
            "serial_fig9": serial_fig9, "cfg_hash": cfg_hash,
            "tasks": tasks, "store": store, "fig7_tasks": fig7_tasks,
        }
        client.close()


def _stat(client, name):
    return client.stats().get(name, 0)


def _post(served, path, envelope):
    """``(status, decoded reply)`` of one raw POST of ``envelope``."""
    conn = http.client.HTTPConnection("127.0.0.1", served["service"].port,
                                      timeout=10)
    try:
        conn.request("POST", path, body=json.dumps(envelope).encode(),
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, decode(response.read())
    finally:
        conn.close()


class TestService:
    def test_ping_and_stats(self, served):
        client = served["client"]
        assert client.ping().service == "repro.serve"
        stats = client.stats()
        assert stats["obs.serve.requests"] >= 1
        assert "obs.store.hit" in stats

    def test_warm_query_byte_identical_to_run_sweep(self, served):
        client = served["client"]
        hits_before = _stat(client, "obs.serve.hits")
        for index, task in enumerate(served["tasks"]):
            payload = task[-1]
            reply = client.query("fig8", served["cfg_hash"],
                                 payload["point"], payload["seed"])
            assert reply.found
            assert json.dumps(reply.value, sort_keys=True) \
                == json.dumps(served["serial"].values[index],
                              sort_keys=True)
        assert _stat(client, "obs.serve.hits") \
            == hits_before + len(served["tasks"])

    def test_warm_shard_query_byte_identical_to_store(self, served):
        client = served["client"]
        for task in served["fig7_tasks"]:
            payload = task[-1]
            reply = client.query_point(PointQuery(**payload))
            assert reply.found and set(reply.value) == {"rows", "metrics"}
            found, stored = served["store"].load(entry_key(payload))
            assert found
            assert canonical_json(reply.value) == canonical_json(stored)

    def test_query_seed_derivable_from_index(self, served):
        client = served["client"]
        payload = served["tasks"][0][-1]
        reply = client.query("fig8", served["cfg_hash"],
                             payload["point"],
                             derived_seed(0, "fig8", 0))
        assert reply.found

    def test_miss_counts_a_miss(self, served):
        client = served["client"]
        misses_before = _stat(client, "obs.serve.misses")
        reply = client.query("fig8", served["cfg_hash"], 999, 1)
        assert not reply.found and reply.value is None
        assert _stat(client, "obs.serve.misses") == misses_before + 1

    def test_latency_histogram_grows(self, served):
        client = served["client"]
        stats = client.stats()
        assert stats["obs.serve.latency_us"]["count"] >= 1

    def test_archives_listed_and_described(self, served):
        client = served["client"]
        listing = client.archives()
        assert [a["dir"] for a in listing.archives] == ["a", "b", "c"]
        archive = client.archive("a")
        assert archive.metrics == {"lat": 100, "thr": 5.0}
        assert archive.manifest["config"] == CONFIG
        assert archive.run_id == listing.archives[0]["run_id"]

    def test_unknown_archive_is_a_client_error(self, served):
        with pytest.raises(ServeError, match="no archive"):
            served["client"].archive("nope")
        with pytest.raises(ServeError, match="bad run id"):
            served["client"].archive("..%2fescape/..")

    def test_metric_glob(self, served):
        client = served["client"]
        matches = client.metrics("lat").matches
        assert len(matches) == 3
        assert {m["metric"] for m in matches} == {"lat"}
        assert client.metrics("nothing*").matches == []

    def test_diff_same_run_ok(self, served):
        reply = served["client"].diff("a", "a")
        assert reply.ok and reply.violations == 0
        assert all(d["status"] == "ok" for d in reply.deltas)

    def test_diff_detects_violations_and_tolerance(self, served):
        client = served["client"]
        strict = client.diff("a", "b")
        assert not strict.ok and strict.violations == 1
        only = client.diff("a", "b", only_violations=True)
        assert len(only.deltas) == only.violations == 1
        assert only.deltas[0]["name"] == "lat"
        tolerant = client.diff("a", "b", rules=[
            {"pattern": "lat", "rel_tol": 0.2}])
        assert tolerant.ok

    def test_diff_refuses_cross_plane_runs(self, served):
        with pytest.raises(ServeError, match="instrumented differently"):
            served["client"].diff("a", "c")
        reply = served["client"].diff("a", "c",
                                      ignore_instrumentation=True)
        assert reply.ok

    @pytest.mark.parametrize("entry", MALFORMED_RULES,
                             ids=MALFORMED_RULE_IDS)
    def test_diff_malformed_rule_is_a_client_error(self, served, entry):
        envelope = {"api_version": SERVE_API_VERSION,
                    "kind": DiffQuery.KIND,
                    "body": {"run_a": "a", "run_b": "b",
                             "rules": [entry]}}
        status, reply = _post(served, "/v1/diff", envelope)
        assert status == 400
        assert isinstance(reply, ErrorReply)
        assert "diff_query rule" in reply.error

    def test_submit_all_warm_finishes_inline(self, served):
        client = served["client"]
        reply = client.submit("fig8", config=CONFIG,
                              thread_counts=THREADS)
        assert reply.state == "done"
        assert reply.warm == 2 and reply.cold == 0
        job = client.job(reply.job_id)
        assert json.dumps(job.job["value"], sort_keys=True) \
            == json.dumps(served["serial_obs"].value, sort_keys=True)
        assert job.farm is None   # no cold fleet, no farm.json

    def test_submit_cold_runs_a_farm_then_rewarms(self, served):
        client = served["client"]
        misses_before = _stat(client, "obs.serve.misses")
        jobs_before = _stat(client, "obs.serve.jobs")
        reply = client.submit("fig9", config=CONFIG, threads=2)
        assert reply.cold == 2
        assert _stat(client, "obs.serve.misses") == misses_before + 2
        assert _stat(client, "obs.serve.jobs") == jobs_before + 1
        final = client.wait_job(reply.job_id, timeout=120)
        assert final.job["state"] == "done"
        assert json.dumps(final.job["value"], sort_keys=True) \
            == json.dumps(served["serial_fig9"].value, sort_keys=True)
        assert final.farm is not None and final.farm["final"]
        # The fleet published its points: the same submit is now warm.
        again = client.submit("fig9", config=CONFIG, threads=2)
        assert again.state == "done" and again.warm == 2

    def test_submit_unknown_suite_is_conflict(self, served):
        with pytest.raises(ServeError, match="suite"):
            served["client"].submit("fig99", config=CONFIG)

    def test_submit_impossible_threads_is_conflict(self, served):
        client = served["client"]
        jobs_before = _stat(client, "obs.serve.jobs")
        conn = http.client.HTTPConnection("127.0.0.1",
                                          served["service"].port,
                                          timeout=10)
        try:
            body = SweepSubmit(suite="fig9", config=CONFIG,
                               threads=12).to_json()
            conn.request("POST", "/v1/submit", body=body.encode(),
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            assert response.status == 409
            reply = decode(response.read())
            assert isinstance(reply, ErrorReply)
            assert "12 threads" in reply.error
        finally:
            conn.close()
        assert _stat(client, "obs.serve.jobs") == jobs_before

    def test_submit_without_thread_counts_is_conflict(self, served):
        client = served["client"]
        jobs_before = _stat(client, "obs.serve.jobs")
        conn = http.client.HTTPConnection("127.0.0.1",
                                          served["service"].port,
                                          timeout=10)
        try:
            body = SweepSubmit(suite="fig8", config=CONFIG,
                               thread_counts=[]).to_json()
            conn.request("POST", "/v1/submit", body=body.encode(),
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            assert response.status == 409
            reply = decode(response.read())
            assert isinstance(reply, ErrorReply)
            assert "no thread counts" in reply.error
        finally:
            conn.close()
        assert _stat(client, "obs.serve.jobs") == jobs_before

    @pytest.mark.parametrize("fields, named", [
        ({"suite": "fig9", "threads": "many"}, "threads"),
        ({"suite": "fig9", "threads": 2, "seed": "x"}, "seed"),
        ({"suite": "fig9", "threads": 2, "root_seed": "x"}, "root_seed"),
        ({"suite": "fig9", "threads": 2, "slots": "x"}, "slots"),
        ({"suite": "fig8", "thread_counts": "ab"}, "thread_counts"),
        ({"suite": "fig8", "thread_counts": [2, "b"]}, "thread_counts"),
    ], ids=["threads", "seed", "root-seed", "slots", "thread-counts-text",
            "thread-counts-item"])
    def test_submit_bad_values_are_client_errors(self, served, fields,
                                                 named):
        """A wrongly typed field answers a 4xx naming it, not a 500."""
        client = served["client"]
        jobs_before = _stat(client, "obs.serve.jobs")
        envelope = {"api_version": SERVE_API_VERSION,
                    "kind": SweepSubmit.KIND,
                    "body": dict(fields, config=CONFIG)}
        status, reply = _post(served, "/v1/submit", envelope)
        assert 400 <= status < 500
        assert isinstance(reply, ErrorReply)
        assert f"{named} must be" in reply.error
        assert _stat(client, "obs.serve.jobs") == jobs_before

    def test_submit_whose_warm_fold_fails_ends_failed(self, served):
        """Stored values that do not fold end the record ``failed``,
        naming the error, and answer a typed 409 instead of a 500."""
        client = served["client"]
        # root_seed 5 keys these points apart from every other test's.
        spec = fig9_spec(served["config"], n_threads=2, root_seed=5,
                         obs_spec={})
        _, tasks = sweep_tasks(spec, served["store"].root)
        for task in tasks:
            served["store"].put(entry_key(task[-1]), {"foreign": True})
        conn = http.client.HTTPConnection("127.0.0.1",
                                          served["service"].port,
                                          timeout=10)
        try:
            body = SweepSubmit(suite="fig9", config=CONFIG, threads=2,
                               root_seed=5).to_json()
            conn.request("POST", "/v1/submit", body=body.encode(),
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            assert response.status == 409
            reply = decode(response.read())
        finally:
            conn.close()
        assert isinstance(reply, ErrorReply)
        assert "KeyError: 'machine'" in reply.error
        job_id = reply.error.split()[1]
        job = client.job(job_id).job
        assert (job["state"], job["error"]) == ("failed",
                                                "KeyError: 'machine'")
        assert job["finished_at_unix"] is not None
        assert [j["job_id"] for j in client.jobs().jobs
                if j["state"] == "queued"] == []

    def test_submit_partly_warm_runs_its_cold_points_as_one_job(
            self, served):
        from repro.parallel.sweep import sweep_group_task

        client = served["client"]
        # Four nodes, so four fig9 points; root_seed 3 keys them apart
        # from every other test's points.
        config = parse_config("4x1x2")
        spec = fig9_spec(config, n_threads=2, root_seed=3, obs_spec={})
        _, tasks = sweep_tasks(spec, served["store"].root)
        sweep_group_task(tasks[1:2])
        reply = client.submit("fig9", config="4x1x2", threads=2,
                              root_seed=3)
        assert (reply.points, reply.warm, reply.cold) == (4, 1, 3)
        final = client.wait_job(reply.job_id, timeout=120)
        assert final.job["state"] == "done"
        assert json.dumps(final.job["value"], sort_keys=True) \
            == json.dumps(run_sweep(spec, jobs=1).value, sort_keys=True)
        assert [job["job_id"] for job in final.farm["jobs"]] == ["fig9/0"]
        assert final.farm["counters"]["obs.farm.done"] == 1
        assert (final.job["hits"], final.job["misses"]) == (1, 3)

    def test_unknown_job_404(self, served):
        with pytest.raises(ServeError):
            served["client"].job("serve-9999")

    def test_jobs_listed(self, served):
        listing = served["client"].jobs()
        assert listing.jobs
        assert all(j["state"] in ("queued", "running", "done", "failed")
                   for j in listing.jobs)

    def test_http_status_codes(self, served):
        service = served["service"]
        conn = http.client.HTTPConnection("127.0.0.1", service.port,
                                          timeout=10)
        try:
            conn.request("GET", "/v1/nothing")
            response = conn.getresponse()
            assert response.status == 404
            response.read()
            conn.request("DELETE", "/v1/query")
            response = conn.getresponse()
            assert response.status == 405
            response.read()
            query = PointQuery(family="fig7", config_hash="c", point=1,
                               seed=0).to_json().encode()
            for bad, error in ((b"not json", "not JSON"),
                               (query.replace(b"fig7", b"fig\xff7"),
                                "not UTF-8")):
                conn.request("POST", "/v1/query", body=bad,
                             headers={"Content-Type": "application/json"})
                response = conn.getresponse()
                assert response.status == 400
                body = decode(response.read())
                assert isinstance(body, ErrorReply) and error in body.error
        finally:
            conn.close()

    @pytest.mark.parametrize("request_bytes, status", [
        (b"GET /v1/ping HTTP/1.1\r\n"
         + b"X-Pad: 1\r\n" * (MAX_HEADER_LINES + 50) + b"\r\n", 400),
        (b"GET /v1/ping HTTP/1.1\r\nX-Pad: "
         + b"a" * (MAX_LINE_BYTES + 4096) + b"\r\n\r\n", 400),
        # Past asyncio's own 64 KiB StreamReader limit.
        (b"GET /v1/ping HTTP/1.1\r\nX-Pad: " + b"a" * 70_000
         + b"\r\n\r\n", 400),
        (b"POST /v1/query HTTP/1.1\r\nContent-Length: "
         + str(MAX_BODY_BYTES * 12).encode() + b"\r\n\r\n", 413),
        (b"POST /v1/query HTTP/1.1\r\nContent-Length: x\r\n\r\n", 400),
        (b"POST /v1/query HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
         400),
        (b"NOT-HTTP\r\n\r\n", 400),
    ], ids=["header-lines", "header-line-20k", "header-line-70k",
            "body-limit", "content-length-x", "content-length-negative",
            "request-line"])
    def test_guard_rails_answer_then_hang_up(self, served, request_bytes,
                                             status):
        with socket.create_connection(
                ("127.0.0.1", served["service"].port), timeout=10) as sock:
            sock.sendall(request_bytes)
            data = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break           # EOF: the server hung up
                data += chunk
        head, _, body = data.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        assert lines[0].startswith(f"HTTP/1.1 {status} ")
        assert "Connection: close" in lines[1:]
        assert f"Content-Length: {len(body)}" in lines[1:]
        assert isinstance(decode(body), ErrorReply)
        assert served["client"].ping().service == "repro.serve"

    def test_clients_hanging_up_mid_reply_leave_the_server_serving(
            self, served):
        """Each client sends a query for a ~100 KB 4x1x12 Fig. 7 shard,
        reads nothing, and resets the connection; a normal client then
        gets the right value within the bound."""
        bound_s = 5.0
        spec = latency_matrix_spec(parse_config("4x1x12"), obs_spec={})
        task = sweep_tasks(spec, served["store"].root)[1][0]
        sweep_group_task([task])
        query = PointQuery(**task[-1])
        body = query.to_json().encode()
        request = (b"POST /v1/query HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
                   % len(body)) + body
        for _ in range(8):
            with socket.create_connection(
                    ("127.0.0.1", served["service"].port),
                    timeout=10) as sock:
                sock.sendall(request)
                sock.recv(1, socket.MSG_PEEK)   # the reply has begun
                # Closing with a zero linger time resets the connection
                # and drops the unread reply.
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                struct.pack("ii", 1, 0))
        started = time.monotonic()
        reply = served["client"].query_point(query)
        assert time.monotonic() - started < bound_s
        assert reply.found and len(reply.value["rows"]) == 4
        assert canonical_json(reply.value) == canonical_json(
            served["store"].load(reply.key)[1])

    def test_client_backend_drives_closed_loop(self, served):
        from repro.cloud import closed_loop
        payload = served["tasks"][0][-1]
        with client_backend(
                served["service"].url,
                PointQuery(family="fig8", config_hash=served["cfg_hash"],
                           point=payload["point"],
                           seed=payload["seed"])) as backend:
            report = closed_loop(backend, requests=40, workers=4)
        assert report.completed == 40 and report.errors == 0
        assert report.percentile(50) <= report.percentile(99)

    def test_client_backend_raises_on_miss(self, served):
        backend = client_backend(
            served["service"].url,
            PointQuery(family="fig8", config_hash="deadbeef", point=1,
                       seed=0))
        try:
            with pytest.raises(ServeError, match="miss"):
                backend(0)
        finally:
            backend.close()


def test_a_damaged_archive_is_skipped(tmp_path):
    """One archive whose manifest is cut short leaves the listing and
    the metric search answering for every other archive."""
    runs = tmp_path / "runs"
    RunArchive.write(str(runs / "good"), {"lat": 1})
    RunArchive.write(str(runs / "bad"), {"lat": 2})
    (runs / "bad" / "manifest.json").write_text('{"schema_version": 1, "ru')
    service = ResultService(str(tmp_path / "store"), runs_root=str(runs))
    with ServiceThread(service), ServeClient(service.url) as client:
        assert [a["dir"] for a in client.archives().archives] == ["good"]
        assert client.metrics("lat").matches == [
            {"run_id": "good", "metric": "lat", "value": 1}]


class TestQueryCli:
    """``repro query`` against a live service: exit codes, and
    ``--format json`` printing the reply's ``to_dict()``."""

    @staticmethod
    def _query(served, capsys, *argv):
        capsys.readouterr()
        code = cli_main(["query", *argv, "--url", served["service"].url])
        return code, capsys.readouterr()

    def test_point_hit_and_miss(self, served, capsys):
        payload = served["tasks"][0][-1]
        point = ["point", "fig8", "--config-hash", served["cfg_hash"],
                 "--point", json.dumps(payload["point"])]
        code, out = self._query(served, capsys, *point, "--seed",
                                str(payload["seed"]), "--format", "json")
        assert code == 0
        assert json.loads(out.out) == served["client"].query(
            "fig8", served["cfg_hash"], payload["point"],
            payload["seed"]).to_dict()
        code, out = self._query(served, capsys, *point, "--seed", "999")
        assert code == 1 and out.out.startswith("miss:")

    def test_archives_and_metrics(self, served, capsys):
        client = served["client"]
        code, out = self._query(served, capsys, "archives",
                                "--format", "json")
        assert code == 0
        assert json.loads(out.out) == client.archives().to_dict()
        code, out = self._query(served, capsys, "archives", "a",
                                "--format", "json")
        assert code == 0
        assert json.loads(out.out) == client.archive("a").to_dict()
        code, out = self._query(served, capsys, "metrics", "lat",
                                "--format", "json")
        assert code == 0
        assert json.loads(out.out) == client.metrics("lat").to_dict()

    def test_diff_exit_codes(self, served, capsys):
        code, out = self._query(served, capsys, "diff", "a", "a")
        assert code == 0 and ": ok" in out.out
        code, out = self._query(served, capsys, "diff", "a", "b",
                                "--format", "json")
        assert code == 1
        assert json.loads(out.out) == served["client"].diff(
            "a", "b").to_dict()
        code, out = self._query(served, capsys, "diff", "a", "c")
        assert code == 2 and "instrumented differently" in out.err

    def test_submit_wait_job_and_stats(self, served, capsys):
        code, out = self._query(served, capsys, "submit", "fig8",
                                "--config", CONFIG, "--thread-counts",
                                ",".join(map(str, THREADS)), "--wait",
                                "--format", "json")
        assert code == 0
        reply = json.loads(out.out)
        assert (reply["submit"]["warm"], reply["submit"]["cold"]) == (2, 0)
        assert reply["job"]["job"]["state"] == "done"
        job_id = reply["submit"]["job_id"]
        code, out = self._query(served, capsys, "job", job_id,
                                "--format", "json")
        assert code == 0
        assert json.loads(out.out) == served["client"].job(
            job_id).to_dict()
        code, out = self._query(served, capsys, "job")
        assert code == 0 and job_id in out.out
        code, out = self._query(served, capsys, "stats", "--format",
                                "json")
        assert code == 0
        assert json.loads(out.out)["obs.serve.requests"] >= 1


class TestServiceLifecycle:
    def test_port_collision_surfaces_as_serve_error(self, served,
                                                    tmp_path):
        taken = served["service"].port
        other = ResultService(str(tmp_path / "store"), port=taken)
        thread = ServiceThread(other)
        with pytest.raises(ServeError, match="bind"):
            thread.start()

    def test_client_rejects_bad_url(self):
        with pytest.raises(ServeError, match="bad service url"):
            ServeClient("ftp://nope")

    def test_client_cannot_reach_dead_server(self):
        client = ServeClient("http://127.0.0.1:1")
        with pytest.raises(ServeError, match="cannot reach"):
            client.ping()

    def test_farm_flag_sizes_one_pool(self, monkeypatch, tmp_path,
                                      capsys):
        import repro.serve
        from repro.cli import main

        class Built(Exception):
            """Carries the farm the service would have been built on."""

        def build(store_root, *, farm, **options):
            raise Built(farm)

        monkeypatch.setattr(repro.serve, "ResultService", build)
        store = str(tmp_path / "store")
        with pytest.raises(Built) as built:
            main(["serve", "--farm", "2x2", "--store", store])
        assert built.value.args[0].slots == 4
        for shape in ("0x1", "x"):
            assert main(["serve", "--farm", shape, "--store", store]) == 2
            assert "--farm expects HOSTSxSLOTS" in capsys.readouterr().err


@contextlib.contextmanager
def scripted_peer(reply: bytes = b""):
    """A peer that reads each request in full, records its request line,
    sends ``reply`` and hangs up."""
    seen = []

    class Handler(socketserver.StreamRequestHandler):
        def handle(self):
            request_line = self.rfile.readline().decode("latin-1")
            length = 0
            while True:
                raw = self.rfile.readline()
                if raw in (b"\r\n", b""):
                    break
                name, _, value = raw.decode("latin-1").partition(":")
                if name.lower() == "content-length":
                    length = int(value)
            self.rfile.read(length)
            seen.append(" ".join(request_line.split()[:2]))
            self.wfile.write(reply)

    server = socketserver.TCPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}", seen
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()


@pytest.fixture
def dropping_peer():
    """A peer that hangs up on every request without replying."""
    with scripted_peer() as peer:
        yield peer


def test_client_refuses_a_reply_that_is_not_utf8():
    body = b'{"api_version": 1, "body": {"service": "\xff"}, "kind": "pong"}'
    reply = b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (
        len(body), body)
    with scripted_peer(reply) as (url, _seen):
        with ServeClient(url, timeout=10) as client:
            with pytest.raises(ServeError, match="UTF-8"):
                client.ping()


class TestClientRetry:
    def test_submit_is_sent_once(self, dropping_peer):
        url, seen = dropping_peer
        with ServeClient(url, timeout=10) as client:
            with pytest.raises(ServeError, match="cannot reach"):
                client.submit("fig9", config=CONFIG, threads=2)
        assert seen == ["POST /v1/submit"]

    def test_query_is_retried_once(self, dropping_peer):
        url, seen = dropping_peer
        with ServeClient(url, timeout=10) as client:
            with pytest.raises(ServeError, match="cannot reach"):
                client.query("fig8", "abc", 2, 0)
        assert seen == ["POST /v1/query"] * 2
