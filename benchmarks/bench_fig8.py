"""Fig. 8: NUMA-aware vs non-NUMA Linux running NPB integer sort.

The NUMA machine parameters (local/remote latency) are *measured* from
the cycle-level 4x1x12 prototype, then fed into the phase-level IS model
(the documented substitution for hours of full-Linux execution).

``REPRO_JOBS=N`` shards the sweep one task per thread count;
``REPRO_STORE=store`` memoizes every point, so a warm rerun performs
zero machine measurements (``obs.store.hit`` == point count) and yields
a byte-identical series; ``REPRO_ARCHIVE=runs`` persists the
shard-merged metrics — including the ``obs.store.*`` counters — plus the
series as a run archive at ``runs/fig8-4x1x12``.
"""

import os
import time

from repro.analysis import line_series
from repro.core.config import parse_config
from repro.obs.archive import RunArchive, archive_root_from_env
from repro.osmodel import NumaMachine
from repro.parallel import env_jobs, fig8_spec, run_sweep
from repro.store import store_from_env


def compute_fig8():
    config = parse_config("4x1x12")
    root = archive_root_from_env()
    store = store_from_env()
    jobs = env_jobs()
    start = time.perf_counter()
    spec = fig8_spec(config, obs_spec={} if root else None)
    result = run_sweep(spec, jobs=jobs, store=store)
    machine = NumaMachine.from_dict(result.value["machine"])
    series = result.value["series"]
    if root is not None:
        metrics = dict(result.value["metrics"])
        if store is not None:
            metrics.update(store.export_metrics())
        RunArchive.write(os.path.join(root, "fig8-4x1x12"), metrics,
                         config=config, label="4x1x12",
                         config_hash=result.config_hash, series=series,
                         wall_seconds=time.perf_counter() - start,
                         extra={"figure": "fig8", "jobs": jobs,
                                "store_hits": result.hits,
                                "store_misses": result.misses})
    return machine, series


def test_fig8_numa_scaling(benchmark, report):
    machine, series = benchmark.pedantic(compute_fig8, iterations=1,
                                         rounds=1)
    ratios = [off / on for on, off in zip(series["numa_on"],
                                          series["numa_off"])]
    chart = line_series(
        [f"{t} threads" for t in series["threads"]],
        {"NUMA on": series["numa_on"], "NUMA off": series["numa_off"]},
        title="Fig. 8: NPB IS class C runtime (seconds)", unit="s")
    text = "\n".join([
        chart, "",
        f"measured machine: local={machine.local_latency:.0f}cyc "
        f"remote={machine.remote_latency:.0f}cyc",
        "NUMA speedup by thread count: "
        + ", ".join(f"{t}:{r:.2f}x" for t, r
                    in zip(series["threads"], ratios)),
        "(paper: 1.6x-2.8x, growing with thread count)",
    ])
    report("fig8_numa_scaling", text)
    assert 1.4 <= ratios[0] <= 2.0
    assert 2.3 <= ratios[-1] <= 3.2
    assert all(ratios[i] <= ratios[i + 1] for i in range(len(ratios) - 1))
