"""Sharded latency probes: the parallel Fig. 7 machinery.

The full heatmap on a 4x1x12 prototype is 2304 independent coherence
probes.  Probes are sharded by sender row in fixed groups of
:data:`ROWS_PER_SHARD`; each shard builds a fresh prototype in its worker
and measures its rows on it.  Because shard composition and per-probe
addresses depend only on the configuration — never on the worker count —
the matrix is bit-identical at every ``jobs`` value.

(The shard size does shape the result slightly: rows within one shard
share a prototype, exactly like consecutive rows of the legacy serial
scan.  It is therefore part of the experiment definition — and of the
result-store key — not a tuning knob to vary per run.)

Everything here is expressed as a :class:`~repro.parallel.sweep.SweepSpec`
(family ``"fig7"``): :func:`latency_matrix_spec` builds the spec,
:func:`~repro.parallel.run_sweep` runs it, with optional
:class:`~repro.store.ResultStore` memoization per shard.  Observability
rides along as before: an ``obs_spec`` (an instrumentation plane dict)
attaches a metrics-only :class:`~repro.obs.Observer` inside every
worker and the shard dicts merge exactly, byte-identical at every
worker count.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

from .sweep import SweepSpec, run_sweep

#: Sender rows measured per worker task.  Amortizes the prototype build
#: (~1/3 of a row's probe time) while leaving enough shards to load
#: several workers on the paper's 48-tile configuration.
ROWS_PER_SHARD = 4

#: Cache generation of :func:`measure_rows_point`; bump when the probe
#: measurement changes meaning and stored Fig. 7 shards go stale.
FIG7_POINT_VERSION = "1"


def measure_rows_point(config, point, _seed, obs_spec):
    """Sweep point fn: fresh prototype, full receiver rows for a shard.

    ``point`` is ``{"senders": [...], "probes_per_pair": k}``.  Returns
    ``{"rows": [[cycles]], "metrics": dict | None}``.
    """
    # Imported here: repro.core imports this package for its --jobs path.
    from ..core.prototype import Prototype

    obs = None
    if obs_spec is not None:
        from ..obs import Observer, as_plane
        obs = Observer(dataclasses.replace(as_plane(obs_spec),
                                           tracing=False))
    proto = Prototype(config, obs=obs)
    size = config.total_tiles
    probes_per_pair = point["probes_per_pair"]
    rows = []
    for sender in point["senders"]:
        row = []
        for receiver in range(size):
            # Same probe numbering as the serial scan: unique per sample,
            # regardless of sharding.
            base = (sender * size + receiver) * probes_per_pair
            samples = [
                proto.measure_pair_latency(sender, receiver, base + k)
                for k in range(probes_per_pair)
            ]
            row.append(sum(samples) // len(samples))
        rows.append(row)
    return {"rows": rows,
            "metrics": obs.export_metrics() if obs is not None else None}


def merge_rows(values: List[dict]) -> Dict[str, object]:
    """Concatenate shard rows in task order; exact-merge shard metrics."""
    rows = [row for value in values for row in value["rows"]]
    metrics = None
    if values and values[0]["metrics"] is not None:
        from ..obs.archive import merge_metric_shards
        metrics = merge_metric_shards([value["metrics"]
                                       for value in values])
    return {"rows": rows, "metrics": metrics}


def latency_matrix_spec(config, senders: Optional[Sequence[int]] = None,
                        probes_per_pair: int = 1,
                        rows_per_shard: int = ROWS_PER_SHARD,
                        obs_spec: Optional[dict] = None,
                        root_seed: int = 0) -> SweepSpec:
    """The Fig. 7 probe sweep as a :class:`SweepSpec`.

    ``senders=None`` covers every sender (the full heatmap).  The shard
    composition is part of each point — and therefore of its store key —
    so cached and fresh shards can never mix meanings.
    """
    from .runner import fixed_shards

    if senders is None:
        senders = range(config.total_tiles)
    points = [{"senders": list(shard), "probes_per_pair": probes_per_pair}
              for shard in fixed_shards(list(senders), rows_per_shard)]
    return SweepSpec(family="fig7", config=config, points=points,
                     point_fn=measure_rows_point, merge_fn=merge_rows,
                     version=FIG7_POINT_VERSION, root_seed=root_seed,
                     obs_spec=obs_spec)


def probe_rows(config, senders: Sequence[int], probes_per_pair: int = 1,
               jobs: Optional[int] = 1,
               rows_per_shard: int = 1,
               with_metrics: bool = False,
               obs_spec: Optional[dict] = None,
               store=None):
    """Full receiver rows for selected ``senders`` (CLI ``latency``).

    Each sender gets its own fresh prototype by default
    (``rows_per_shard=1``), so the row set — unlike the full matrix scan —
    is independent of which senders were requested together.  With
    ``with_metrics=True`` returns ``(rows, merged_metrics)``.  A
    ``store`` memoizes each shard under the ``"fig7"`` family.
    """
    if with_metrics and obs_spec is None:
        obs_spec = {}
    spec = latency_matrix_spec(config, senders=senders,
                               probes_per_pair=probes_per_pair,
                               rows_per_shard=rows_per_shard,
                               obs_spec=obs_spec if with_metrics else None)
    merged = run_sweep(spec, jobs=jobs, store=store).value
    if with_metrics:
        return merged["rows"], merged["metrics"]
    return merged["rows"]
