"""CI gate: the result service serves bytes, runs cold fleets, diffs.

Boots a :class:`repro.serve.ResultService` on a background thread over a
store seeded in-process, then asserts the serving plane's contracts:

* a warm point query answers **byte-identical** to the value
  ``run_sweep`` computed (the PointQuery *is* the store key payload);
* each of the 12 paper-size (4x1x12) Fig. 7 shards, ~100 KB values of
  the ``{"rows", "metrics"}`` shape the serve-mixed benchmark queries,
  answers byte-identical to its raw store entry;
* a cold fig9 submit spawns a farm job, the fleet completes, the merged
  value is byte-identical to a serial ``run_sweep`` of the same spec,
  and the same submit immediately re-answers all-warm (`obs.serve.
  misses`` then ``obs.serve.hits`` move accordingly);
* server-side diff refuses cross-plane runs and honors
  ``ignore_instrumentation`` — the same contract as ``repro diff``;
* a short closed-loop run over the warm point completes error-free,
  and its latency summary is printed for the job log.
"""

import json
import os
import sys

sys.path.insert(0, "src")

from repro import parse_config                                # noqa: E402
from repro.cloud import closed_loop                           # noqa: E402
from repro.errors import ServeError                           # noqa: E402
from repro.obs.archive import RunArchive                      # noqa: E402
from repro.parallel import (fig8_spec, fig9_spec,
                            latency_matrix_spec, run_sweep)   # noqa: E402
from repro.parallel.sweep import sweep_tasks                  # noqa: E402
from repro.serve import (PointQuery, ResultService, ServeClient,
                         ServiceThread, client_backend)       # noqa: E402
from repro.store import ResultStore                           # noqa: E402

CONFIG = "2x1x2"
THREADS = (2, 4)
PAPER_CONFIG = "4x1x12"


def canon(value):
    return json.dumps(value, sort_keys=True)


def main():
    config = parse_config(CONFIG)
    store = ResultStore("serve-store")

    # Seed: a fig8 sweep in the obs={} flavor the suite planner keys on.
    spec = fig8_spec(config, thread_counts=THREADS, obs_spec={})
    serial8 = run_sweep(spec, jobs=1, store=store)
    _cfg_hash, tasks = sweep_tasks(spec, store.root)
    serial9 = run_sweep(fig9_spec(config, n_threads=2, obs_spec={}),
                        jobs=1)
    shard_spec = latency_matrix_spec(parse_config(PAPER_CONFIG),
                                     obs_spec={})
    run_sweep(shard_spec, jobs=1, store=store)
    _shard_hash, shard_tasks = sweep_tasks(shard_spec, store.root)

    os.makedirs("serve-runs", exist_ok=True)
    RunArchive.write("serve-runs/a", {"lat": 100}, label=CONFIG, seed=0)
    RunArchive.write("serve-runs/b", {"lat": 100}, label=CONFIG, seed=0,
                     instrumentation_hash="otherplane")

    service = ResultService("serve-store", runs_root="serve-runs")
    with ServiceThread(service):
        client = ServeClient(service.url)

        # 1. Warm query: byte-identical to run_sweep, and to the store.
        payload = tasks[0][-1]
        reply = client.query("fig8", payload["config_hash"],
                             payload["point"], payload["seed"],
                             obs=payload["obs"])
        if not reply.found:
            sys.exit("warm point missed the store")
        if canon(reply.value) != canon(serial8.values[0]):
            sys.exit("served value differs from run_sweep value")
        _found, stored = store.load(reply.key)
        if canon(reply.value) != canon(stored):
            sys.exit("served value differs from the raw store entry")
        print(f"warm query: byte-identical ({reply.key[:12]})")

        # 1b. Paper-size Fig. 7 shards: each reply equals its entry.
        largest = 0
        for task in shard_tasks:
            reply = client.query_point(PointQuery(**task[-1]))
            stored = canon(store.load(reply.key)[1])
            if not reply.found or canon(reply.value) != stored:
                sys.exit(f"{PAPER_CONFIG} shard {reply.key[:12]} differs "
                         f"from its store entry")
            largest = max(largest, len(stored))
        print(f"{len(shard_tasks)} {PAPER_CONFIG} Fig. 7 shards: "
              f"byte-identical (largest {largest} bytes)")

        # 2. Cold submit: farm fleet -> done -> warm on resubmit.
        before = client.stats()
        submit = client.submit("fig9", config=CONFIG, threads=2)
        if submit.cold != 2:
            sys.exit(f"expected 2 cold points, got {submit.cold}")
        final = client.wait_job(submit.job_id, timeout=300)
        if final.job["state"] != "done":
            sys.exit(f"cold job ended {final.job['state']}: "
                     f"{final.job['error']}")
        if not (final.farm and final.farm.get("final")):
            sys.exit("cold job left no final farm.json mirror")
        if canon(final.job["value"]) != canon(serial9.value):
            sys.exit("cold fleet value differs from serial run_sweep")
        again = client.submit("fig9", config=CONFIG, threads=2)
        if again.state != "done" or again.warm != 2:
            sys.exit(f"resubmit was not all-warm: {again}")
        after = client.stats()
        d_miss = after["obs.serve.misses"] - before.get("obs.serve.misses", 0)
        d_hit = after["obs.serve.hits"] - before.get("obs.serve.hits", 0)
        if d_miss != 2 or d_hit < 2:
            sys.exit(f"counters moved wrong: misses+{d_miss} hits+{d_hit}")
        print(f"cold submit: {submit.job_id} done, byte-identical, "
              f"misses+{d_miss} then hits+{d_hit}")

        # 3. Server-side diff refuses cross-plane runs.
        try:
            client.diff("a", "b")
            sys.exit("cross-plane diff was not refused")
        except ServeError as error:
            print(f"cross-plane diff refused: {error}")
        if not client.diff("a", "b", ignore_instrumentation=True).ok:
            sys.exit("ignore_instrumentation diff should be ok")

        # 4. Closed-loop warm load: error-free; report the distribution.
        with client_backend(service.url, PointQuery(
                family="fig8", config_hash=payload["config_hash"],
                point=payload["point"], seed=payload["seed"],
                obs=payload["obs"])) as backend:
            report = closed_loop(backend, requests=500, workers=4)
        if report.errors:
            sys.exit(f"{report.errors} load errors")
        summary = report.summary()
        print("closed-loop warm load:", json.dumps(summary, indent=2))
        with open("serve-load.json", "w") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
        # A very conservative floor — CI runners vary wildly; the
        # measured dev-box number (~1.7k rps) lives in EXPERIMENTS.md.
        if summary["throughput_rps"] < 50:
            sys.exit(f"warm query throughput collapsed: "
                     f"{summary['throughput_rps']} rps")
        client.close()
    print("serve smoke: all checks passed")


if __name__ == "__main__":
    main()
