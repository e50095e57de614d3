"""Sharded latency probes: the Fig. 7 matrix as one sweep.

The full heatmap on a 4x1x12 prototype is 2304 independent coherence
probes.  Probes are sharded by sender row in fixed groups of
:data:`ROWS_PER_SHARD`; each shard builds a fresh prototype in its worker
and measures its rows on it.  Because shard composition and per-probe
addresses depend only on the configuration — never on the worker count —
the matrix is bit-identical at every ``jobs`` value.

(The shard size does shape the result slightly: rows within one shard
share a prototype's cache state.  It is therefore part of the experiment
definition — and of the result-store key — not a tuning knob.)

:func:`latency_matrix_spec` is the only way into Fig. 7: ``repro
latency``, ``bench_fig7.py``, the farm's ``fig7`` suite, serve and the
end-to-end benchmark all run it through
:func:`~repro.parallel.run_sweep`, with optional
:class:`~repro.store.ResultStore` memoization per shard.  An
``obs_spec`` (an instrumentation plane dict) attaches a metrics-only
:class:`~repro.obs.Observer` inside every worker and the shard dicts
merge exactly, byte-identical at every worker count.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from ..core.prototype import Prototype
from ..obs.observer import Observer
from ..obs.plane import as_plane
from .runner import fixed_shards
from .sweep import SweepSpec

#: Sender rows measured per worker task.  Amortizes the prototype build
#: (about a quarter of a row's probe time on 4x1x12: 5.3-5.7 ms against
#: 20-22 ms, medians of 96 builds and rows on a 2-vCPU VM) while leaving
#: enough shards to load several workers on the paper's 48-tile
#: configuration.
ROWS_PER_SHARD = 4

#: Cache generation of :func:`measure_rows_point`; bump when the probe
#: measurement changes meaning and stored Fig. 7 shards go stale.
FIG7_POINT_VERSION = "1"


def measure_rows_point(config, point, _seed, obs_spec):
    """Sweep point fn: fresh prototype, full receiver rows for a shard.

    ``point`` is ``{"senders": [...], "probes_per_pair": 1}``; the
    constant second key keeps every stored shard's key unchanged.
    Returns ``{"rows": [[cycles]], "metrics": dict | None}``.
    """
    obs = None
    if obs_spec is not None:
        obs = Observer(dataclasses.replace(as_plane(obs_spec),
                                           tracing=False))
    size = config.total_tiles
    # Export inside the block: closing empties every component the
    # observer reads.
    with Prototype(config, obs=obs) as proto:
        # Every probe gets its own line (index sender * size + receiver),
        # whichever shard it lands in.
        rows = [[proto.measure_pair_latency(sender, receiver,
                                            sender * size + receiver)
                 for receiver in range(size)]
                for sender in point["senders"]]
        metrics = obs.export_metrics() if obs is not None else None
    return {"rows": rows, "metrics": metrics}


def merge_rows(values: List[dict]) -> Dict[str, object]:
    """Concatenate shard rows in task order; exact-merge shard metrics."""
    rows = [row for value in values for row in value["rows"]]
    metrics = None
    if values and values[0]["metrics"] is not None:
        from ..obs.archive import merge_metric_shards
        metrics = merge_metric_shards([value["metrics"]
                                       for value in values])
    return {"rows": rows, "metrics": metrics}


def latency_matrix_spec(config, obs_spec: Optional[dict] = None,
                        root_seed: int = 0) -> SweepSpec:
    """The Fig. 7 probe sweep over every sender, as a :class:`SweepSpec`.

    The shard composition is part of each point — and therefore of its
    store key — so cached and fresh shards can never mix meanings.
    """
    points = [{"senders": shard, "probes_per_pair": 1}
              for shard in fixed_shards(list(range(config.total_tiles)),
                                        ROWS_PER_SHARD)]
    return SweepSpec(family="fig7", config=config, points=points,
                     point_fn=measure_rows_point, merge_fn=merge_rows,
                     version=FIG7_POINT_VERSION, root_seed=root_seed,
                     obs_spec=obs_spec)
