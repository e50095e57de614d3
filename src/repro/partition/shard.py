"""Worker-side shards: one partition's slice of a system.

A *shard* owns a private :class:`~repro.engine.Simulator` plus whatever
model lives on it, and speaks the small protocol the coordinator's
quantum loop drives: run bounded (`run_until`), surrender captured
boundary traffic (`take_outbox`), accept routed arrivals (`inject`),
and answer named control calls (`handle`).  :class:`PrototypeShard`
builds the nodes of one FPGA group of a :class:`PrototypeConfig`;
``repro.partition.storm`` provides a synthetic shard for the kernel
benchmark.

Builder functions live at module level so the spawn start method can
pickle them by reference.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Dict, List, Optional

from ..core.config import PrototypeConfig
from ..core.node import Node
from ..core.prototype import build_homing
from ..core.addrmap import AddressMap
from ..engine import Simulator, merge_stat_groups
from ..errors import ConfigError, SimulationError
from .fabric import InboxEntry, OutboxEntry, PartitionFabric
from .window import fpga_groups, window_for_config

#: Trace categories a partitioned run may record.  "kernel" wraps raw
#: scheduler channels, and the boundary capture object replaces exactly
#: those on cut links, so its instants cannot be reproduced shard-side.
PARTITION_TRACE_CATEGORIES = ("noc", "cache", "axi", "pcie", "bridge",
                              "mem", "link", "probe")


def partition_trace_categories(categories) -> tuple:
    """Validate / default the traced categories for a partitioned run."""
    if categories is None:
        return PARTITION_TRACE_CATEGORIES
    categories = tuple(categories)
    if "kernel" in categories:
        raise ConfigError(
            "partitioned runs cannot trace the 'kernel' category: the "
            "boundary capture replaces the raw scheduler channels that "
            "category instruments")
    return categories


def build_shard_observer(obs_spec: Optional[dict],
                         trace_path: Optional[str]):
    """Build one worker's observer from a picklable plane dict.

    The worker traces only to its ``trace_path`` shard file (metrics
    only without one), over the plane's categories checked by
    :func:`partition_trace_categories`.
    """
    if obs_spec is None and trace_path is None:
        return None
    from ..obs import Observer, as_plane
    plane = as_plane(obs_spec or {})
    plane = dataclasses.replace(
        plane, tracing=trace_path is not None,
        trace_categories=partition_trace_categories(
            plane.trace_categories))
    return Observer(plane, trace_path=trace_path)


class Shard:
    """Protocol base: the quantum loop's view of one partition."""

    sim: Simulator

    def take_outbox(self) -> List[OutboxEntry]:
        return []

    def inject(self, records: List[InboxEntry]) -> None:
        raise SimulationError(
            f"{type(self).__name__} cannot accept boundary traffic")

    def take_completions(self) -> dict:
        return {}

    def handle(self, name: str, *args):
        handler = getattr(self, "op_" + name, None)
        if handler is None:
            raise SimulationError(
                f"{type(self).__name__}: unknown control call {name!r}")
        return handler(*args)

    # -- control calls common to every shard ---------------------------
    def op_set_now(self, now: int) -> None:
        """Align the local clock with the global one at quiescence (so
        time-derived exports — link utilization gauges divide by
        ``sim.now`` — match the monolithic run)."""
        nxt = self.sim.next_event_time()
        if nxt is not None and nxt < now:
            raise SimulationError(
                f"cannot advance clock to {now} past pending event at {nxt}")
        if self.sim.now < now:
            self.sim.now = now

    def op_events_executed(self) -> int:
        return self.sim.events_executed

    def op_flush(self) -> None:
        """Flush buffered trace output without closing the backend, so
        the coordinator can read complete shard JSONL mid-session
        (streamed probe-series rebuilds)."""
        obs = getattr(self.sim, "obs", None)
        if obs is not None and getattr(obs, "tracer", None) is not None:
            obs.flush()

    def op_close(self) -> None:
        obs = getattr(self.sim, "obs", None)
        if obs is not None and getattr(obs, "tracer", None) is not None:
            obs.flush()
            close = getattr(obs.tracer, "close", None)
            if close is not None:
                close()


class PrototypeShard(Shard):
    """One FPGA group's node trees on a private simulator."""

    def __init__(self, config: PrototypeConfig, partition_index: int,
                 partitions: int, obs_spec: Optional[dict] = None,
                 trace_path: Optional[str] = None,
                 window: Optional[int] = None):
        groups = fpga_groups(config.n_fpgas, partitions)
        fpga_partition = {fpga: index for index, group in enumerate(groups)
                          for fpga in group}
        self.config = config
        self.partition_index = partition_index
        self.local_fpgas = groups[partition_index]
        self.sim = Simulator(obs=build_shard_observer(obs_spec, trace_path))
        self.obs = self.sim.obs
        self.addrmap = AddressMap(config.n_nodes, config.dram_bytes_per_node)
        self.homing = build_homing(config)
        placement = {node: config.fpga_of_node(node)
                     for node in range(config.n_nodes)}
        self.fabric = PartitionFabric(self.sim, "fabric", placement,
                                      self.local_fpgas, fpga_partition)
        local = set(self.local_fpgas)
        self.nodes: Dict[int, Node] = {
            node_id: Node(self.sim, f"n{node_id}", node_id, config,
                          self.homing, self.addrmap, self.fabric)
            for node_id in range(config.n_nodes)
            if config.fpga_of_node(node_id) in local
        }
        self._validate_window(window if window is not None
                              else window_for_config(config))
        self._completions: dict = {}

    def _validate_window(self, window: int) -> None:
        """Check the coordinator's quantum width against the *built*
        system: every boundary cut must have at least ``window`` cycles
        of latency before the burst can act remotely."""
        self.window = window
        for node in self.nodes.values():
            bridge = node.bridge
            shaper = bridge._shaper.latency if bridge._shaper else 0
            slack = (self.fabric.pcie_one_way + bridge.encode_latency
                     + bridge.decode_latency + shaper) - window
            if window < 1 or self.fabric.pcie_one_way < window:
                raise ConfigError(
                    f"quantum window {window} exceeds the PCIe one-way "
                    f"latency {self.fabric.pcie_one_way} of the built "
                    "fabric — unsafe to run partitioned")
            if slack < 0:
                raise ConfigError(
                    f"quantum window {window} leaves no margin at "
                    f"{bridge.name} — unsafe to run partitioned")

    # -- quantum-loop surface ------------------------------------------
    def take_outbox(self) -> List[OutboxEntry]:
        return self.fabric.take_outbox()

    def inject(self, records: List[InboxEntry]) -> None:
        self.fabric.inject(records)

    def take_completions(self) -> dict:
        done, self._completions = self._completions, {}
        return done

    # -- control calls --------------------------------------------------
    def op_mem_access(self, call_id: int, node_id: int, tile_index: int,
                      op) -> None:
        """Issue one cacheable access; its completion is reported to the
        coordinator via the quantum replies."""
        def complete(result, _id=call_id):
            self._completions[_id] = result
        self.nodes[node_id].tiles[tile_index].mem_access(op, complete)

    def op_memory_write(self, node_id: int, addr: int, data: bytes) -> None:
        self.nodes[node_id].memory.write(addr, data)

    def op_memory_read(self, node_id: int, addr: int, size: int) -> bytes:
        return self.nodes[node_id].memory.read(addr, size)

    def op_metrics(self) -> Optional[dict]:
        export = getattr(self.obs, "export_metrics", None)
        return export() if export is not None else None

    def op_series(self) -> Optional[dict]:
        probes = getattr(self.obs, "probes", None)
        return probes.series() if probes is not None else None

    def op_stats_report(self) -> Dict[str, float]:
        groups = []
        for node_id in sorted(self.nodes):
            node = self.nodes[node_id]
            groups.append(node.chipset.controller.stats)
            if node.bridge is not None:
                groups.append(node.bridge.stats)
            for tile in node.tiles:
                groups.extend([tile.bpc.stats, tile.llc.stats, tile.l1.stats])
        return merge_stat_groups(groups)

    def op_pending_responses(self) -> int:
        return self.fabric.pending_responses()


def build_prototype_shard(**kwargs) -> PrototypeShard:
    """Module-level builder (picklable by reference for spawn)."""
    return PrototypeShard(**kwargs)


def shard_trace_path(trace_dir: Optional[str],
                     partition_index: int) -> Optional[str]:
    if trace_dir is None:
        return None
    return os.path.join(trace_dir, f"partition{partition_index}.jsonl")
