"""Fig. 9: thread-allocation study — 12 IS threads pinned to 1-4 nodes.

``REPRO_JOBS=N`` shards the sweep one task per node count;
``REPRO_STORE=store`` memoizes every point (a warm rerun measures no
machines); ``REPRO_ARCHIVE=runs`` persists the merged metrics and the
series at ``runs/fig9-4x1x12``.
"""

import os
import time

from repro.analysis import line_series
from repro.core.config import parse_config
from repro.obs.archive import RunArchive, archive_root_from_env
from repro.parallel import env_jobs, fig9_spec, run_sweep
from repro.store import store_from_env


def compute_fig9():
    config = parse_config("4x1x12")
    root = archive_root_from_env()
    store = store_from_env()
    jobs = env_jobs()
    start = time.perf_counter()
    spec = fig9_spec(config, obs_spec={} if root else None)
    result = run_sweep(spec, jobs=jobs, store=store)
    series = result.value["series"]
    if root is not None:
        metrics = dict(result.value["metrics"])
        if store is not None:
            metrics.update(store.export_metrics())
        RunArchive.write(os.path.join(root, "fig9-4x1x12"), metrics,
                         config=config, label="4x1x12",
                         config_hash=result.config_hash, series=series,
                         wall_seconds=time.perf_counter() - start,
                         extra={"figure": "fig9", "jobs": jobs,
                                "store_hits": result.hits,
                                "store_misses": result.misses})
    return series


def test_fig9_thread_allocation(benchmark, report):
    series = benchmark.pedantic(compute_fig9, iterations=1, rounds=1)
    chart = line_series(
        [f"{k} active nodes" for k in series["active_nodes"]],
        {"NUMA on": series["numa_on"], "NUMA off": series["numa_off"]},
        title="Fig. 9: IS runtime, 12 threads pinned via taskset (seconds)",
        unit="s")
    on, off = series["numa_on"], series["numa_off"]
    text = "\n".join([
        chart, "",
        "NUMA on : spreading threads over more nodes raises memory "
        f"latency ({on[0]:.0f}s -> {on[-1]:.0f}s)",
        "NUMA off: spreading threads relieves the loaded node "
        f"({off[0]:.0f}s -> {off[-1]:.0f}s)",
    ])
    report("fig9_thread_allocation", text)
    # Directions from the paper.
    assert all(on[i] <= on[i + 1] for i in range(len(on) - 1))
    assert all(off[i] >= off[i + 1] for i in range(len(off) - 1))
