"""Sharded OS-model sweeps: the parallel Fig. 8/9 machinery.

The Fig. 8 thread-scaling and Fig. 9 thread-allocation studies each
evaluate the phase-level NPB IS model at a handful of sweep points, but
every evaluation first needs a :class:`~repro.osmodel.NumaMachine`
*measured* from the cycle-level prototype — and that measurement (a
prototype build plus latency probes) dominates the wall clock; a point
costs well under a millisecond after it.  So both specs set
``one_task``: every point of a sweep runs in one task, and
:func:`model_point` measures the machine through
:func:`~repro.parallel.sweep.sweep_cached`, once per sweep, at the
task's first store miss.  ``run_sweep`` runs that one task in-process at
any ``jobs``; a ``repro farm run`` suite or a serve fleet runs it as one
farm job.

Both figures are now :class:`~repro.parallel.sweep.SweepSpec`\\ s
(families ``"fig8"`` / ``"fig9"``) run through
:func:`~repro.parallel.run_sweep` — which is also where the result store
plugs in: a warm store returns the measured machine *and* the point's
series values without building a single prototype, which is exactly the
FireSim-AGFI-reuse economics the paper's Table 5 argues for.

Determinism contract (same as the whole package, extended to the
cache): the prototype simulation is deterministic, so every run
measures a bit-identical ``NumaMachine`` and every point carries the
metrics export of one identical measurement, warm or cold; points and
per-point seeds derive only from the inputs; the merge preserves point
order; and cached values are JSON-canonical, so *serial == farm ==
cached* exactly, and all equal the series computed directly from one
measured machine — the tests assert all of them.

Each point carries a seed derived via :func:`~repro.parallel.task_seed`.
The IS model is currently analytic, so workers do not consume it yet; it
is part of the task contract (and the store key) so stochastic workload
parameters can be added without changing the sharding, the merge, or
cache addressing.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Dict, List, Optional

from ..core.prototype import Prototype
from ..errors import ConfigError
from .sweep import SweepSpec, sweep_cached

#: Cache generation of :func:`model_point`; bump when the machine
#: measurement or the IS model evaluation changes meaning.
OSMODEL_POINT_VERSION = "1"


def _measure_machine(config, obs_spec):
    """Build one prototype: ``(NumaMachine, exported metrics | None)``."""
    from ..osmodel import machine_from_prototype

    obs = None
    if obs_spec is not None:
        from ..obs import Observer, as_plane
        obs = Observer(dataclasses.replace(as_plane(obs_spec),
                                           tracing=False))
    with Prototype(config, obs=obs) as proto:
        machine = machine_from_prototype(proto)
        metrics = obs.export_metrics() if obs is not None else None
    return machine, metrics


def model_point(config, point, _seed, obs_spec):
    """Sweep point fn: evaluate one point on the sweep's measured machine.

    ``point`` is ``{"threads": n, "nodes": k | None, "params": {...}}``
    (``nodes=None`` means no taskset pinning).  Returns
    ``{"machine": machine dict, "values": [numa_on_s, numa_off_s],
    "metrics": dict | None}``.
    """
    from ..osmodel import Taskset
    from ..workloads.intsort import IntSortModel, IntSortParams

    # The memo lives one task, which holds one config, so the frozen
    # config keys it as it is: nothing is serialized or hashed per point.
    key = ("osmodel.machine", config, json.dumps(obs_spec, sort_keys=True))
    machine, metrics = sweep_cached(
        key, lambda: _measure_machine(config, obs_spec))
    params = IntSortParams(**point["params"])
    on = IntSortModel(machine, numa_on=True, params=params)
    off = IntSortModel(machine, numa_on=False, params=params)
    node_count = point["nodes"]
    taskset = (None if node_count is None
               else Taskset.first_nodes(node_count))
    n_threads = point["threads"]
    return {
        "machine": machine.to_dict(),
        "values": [on.runtime_seconds(n_threads, taskset),
                   off.runtime_seconds(n_threads, taskset)],
        "metrics": metrics,
    }


def _merge_model_points(values: List[dict], axis: str,
                        ticks: List[int]) -> Dict[str, object]:
    merged: Dict[str, object] = {
        "machine": values[0]["machine"],
        "series": {
            axis: ticks,
            "numa_on": [value["values"][0] for value in values],
            "numa_off": [value["values"][1] for value in values],
        },
        "metrics": None,
    }
    if values and values[0]["metrics"] is not None:
        from ..obs.archive import merge_metric_shards
        merged["metrics"] = merge_metric_shards(
            [value["metrics"] for value in values])
    return merged


def _params_dict(params) -> dict:
    from ..workloads.intsort import IntSortParams

    if params is None:
        params = IntSortParams()
    return dataclasses.asdict(params)


def fig8_spec(config, thread_counts=(3, 6, 12, 24, 48), params=None,
              root_seed: int = 0,
              obs_spec: Optional[dict] = None) -> SweepSpec:
    """Fig. 8 (runtime vs thread count), one point per thread count."""
    ticks = [int(t) for t in thread_counts]
    if not ticks:
        raise ConfigError("fig8: no thread counts to sweep")
    bad = [t for t in ticks if not 1 <= t <= config.total_tiles]
    if bad:
        raise ConfigError(
            f"fig8: thread counts {bad} outside 1..{config.total_tiles}, "
            f"the cores of {config.label}")
    point_params = _params_dict(params)
    points = [{"threads": t, "nodes": None, "params": point_params}
              for t in ticks]

    def merge(values):
        return _merge_model_points(values, "threads", ticks)

    return SweepSpec(family="fig8", config=config, points=points,
                     point_fn=model_point, merge_fn=merge,
                     version=OSMODEL_POINT_VERSION, root_seed=root_seed,
                     obs_spec=obs_spec, one_task=True)


def fig9_spec(config, n_threads: int = 12, params=None,
              root_seed: int = 0,
              obs_spec: Optional[dict] = None) -> SweepSpec:
    """Fig. 9 (threads pinned to 1..n nodes), one point per node count."""
    n_threads = int(n_threads)
    if not 1 <= n_threads <= config.tiles_per_node:
        raise ConfigError(
            f"fig9: {n_threads} threads outside 1..{config.tiles_per_node}, "
            f"the cores of one {config.label} node (the 1-node point pins "
            f"every thread there)")
    node_counts = list(range(1, config.n_nodes + 1))
    point_params = _params_dict(params)
    points = [{"threads": n_threads, "nodes": k,
               "params": point_params} for k in node_counts]

    def merge(values):
        return _merge_model_points(values, "active_nodes", node_counts)

    return SweepSpec(family="fig9", config=config, points=points,
                     point_fn=model_point, merge_fn=merge,
                     version=OSMODEL_POINT_VERSION, root_seed=root_seed,
                     obs_spec=obs_spec, one_task=True)
