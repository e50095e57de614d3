"""The sharded prototype: the `Prototype` API over partition workers.

``Prototype(config, partitions=N)`` dispatches here (see
``Prototype.__new__``) when ``N`` resolves to more than one partition;
the partition-2 end-to-end workload and the farm's ``partition-latency``
job are its callers.  The public surface — ``mem_access``, ``run``,
``now``, ``measure_pair_latency``, ``load_image`` / ``peek_memory``,
``stats_report`` — matches the monolithic class, and
every architectural result (cycle counts, metrics, traces) is
bit-identical to a monolithic run of the same config; the observability
plumbing differs only in how it is wired (per-worker observers built
from a picklable plane dict, ``obs_spec``, and merged with
:func:`repro.obs.merge_metric_shards`, streaming trace shards merged by
:func:`repro.obs.trace.chrome_from_jsonl`).
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional

from ..core.config import PrototypeConfig
from ..core.prototype import Prototype, build_homing
from ..core.addrmap import AddressMap
from ..errors import ConfigError, SimulationError
from .engine import PartitionEngine
from .shard import build_prototype_shard, shard_trace_path
from .window import node_groups, resolve_partitions, window_for_config


class PartitionedPrototype(Prototype):
    """A SMAPPIC system sharded by FPGA group across worker processes."""

    def __init__(self, config: PrototypeConfig, *, obs=None,
                 partitions: Optional[int] = None,
                 obs_spec: Optional[dict] = None,
                 trace_dir: Optional[str] = None):
        if obs is not None:
            raise ConfigError(
                "a live Observer cannot cross process boundaries; pass "
                "obs_spec= (an instrumentation plane dict) and the "
                "workers build their own")
        count = resolve_partitions(config, partitions)
        if count < 2:
            raise ConfigError(
                "PartitionedPrototype needs a partition count >= 2; "
                "Prototype(config, partitions=...) picks the right "
                "implementation automatically")
        self.config = config
        self.partitions = count
        self.window = window_for_config(config)
        self.homing = build_homing(config)
        self.addrmap = AddressMap(config.n_nodes, config.dram_bytes_per_node)
        self._node_partition: Dict[int, int] = {
            node: index
            for index, nodes in enumerate(node_groups(config, count))
            for node in nodes}
        self.trace_paths = [shard_trace_path(trace_dir, index)
                            for index in range(count)]
        self._call_ids = itertools.count()
        self._engine = PartitionEngine(
            count, build_prototype_shard,
            [dict(config=config, partition_index=index, partitions=count,
                  obs_spec=obs_spec, trace_path=self.trace_paths[index],
                  window=self.window)
             for index in range(count)],
            window=self.window)

    # ------------------------------------------------------------------
    # Simulation control
    # ------------------------------------------------------------------
    def run(self, until: Optional[int] = None,
            max_events: Optional[int] = None) -> int:
        if max_events is not None:
            raise ConfigError(
                "partitioned prototypes do not support max_events")
        return self._engine.run_quiescent(until=until)

    @property
    def now(self) -> int:
        return self._engine.global_now

    # ------------------------------------------------------------------
    # Blocking-style memory helpers
    # ------------------------------------------------------------------
    def mem_access(self, node_id: int, tile_index: int, op):
        start = self._engine.global_now
        call_id = next(self._call_ids)
        self._engine.call(self._node_partition[node_id], "mem_access",
                          call_id, node_id, tile_index, op)
        self._engine.run_quiescent()
        if call_id not in self._engine.completions:
            raise SimulationError(f"operation {op} never completed")
        result = self._engine.completions.pop(call_id)
        return result, self._engine.global_now - start

    # ------------------------------------------------------------------
    # Functional memory access
    # ------------------------------------------------------------------
    def _memory_write(self, node_id: int, addr: int, data: bytes) -> None:
        self._engine.call(self._node_partition[node_id], "memory_write",
                          node_id, addr, data)

    def _memory_read(self, node_id: int, addr: int, size: int) -> bytes:
        return self._engine.call(self._node_partition[node_id],
                                 "memory_read", node_id, addr, size)

    # ------------------------------------------------------------------
    # Topology (live component objects stay worker-side)
    # ------------------------------------------------------------------
    def tile(self, node_id: int, tile_index: int):
        raise ConfigError(
            "partitioned prototypes keep component objects in worker "
            "processes; drive them via mem_access/measure_pair_latency")

    def tile_by_global_index(self, index: int):
        self.tile(*divmod(index, self.config.tiles_per_node))

    def all_tiles(self):
        self.tile(0, 0)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def stats_report(self) -> Dict[str, float]:
        merged: Dict[str, float] = {}
        for report in self._engine.broadcast("stats_report"):
            for name, value in report.items():
                merged[name] = merged.get(name, 0) + value
        return merged

    def merged_metrics(self) -> dict:
        """The monolithic ``obs.export_metrics()`` dict, rebuilt exactly
        from the per-partition shards (requires ``obs_spec=``)."""
        shards = self._engine.broadcast("metrics")
        if any(shard is None for shard in shards):
            raise ConfigError(
                "metrics need obs_spec= at construction time")
        from ..obs import merge_metric_shards
        return merge_metric_shards(shards)

    def merged_series(self) -> dict:
        """Probe series across partitions (each source lives in exactly
        one shard, so a plain union merges exactly).

        Streamed planes (``stream_series``) never materialize series in
        worker memory; when tracing shard files exist and the workers
        report nothing, the series are rebuilt from the JSONL counter
        tracks instead — after flushing every shard's buffered output.
        """
        shards = self._engine.broadcast("series")
        merged: dict = {}
        for shard in shards:
            if shard:
                merged.update(shard)
        if not merged and all(self.trace_paths):
            from ..obs.trace import probe_series_from_jsonl
            self._engine.broadcast("flush")
            merged = probe_series_from_jsonl(self.trace_paths)
        return merged

    def partition_metrics(self) -> dict:
        return self._engine.partition_metrics()

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def close(self) -> None:
        engine = getattr(self, "_engine", None)
        if engine is None or engine._closed:
            return
        try:
            engine.broadcast("close")
        except SimulationError:
            pass
        engine.close()

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass
