"""The SMAPPIC prototype: builds a full system from a configuration.

This is the library's main entry point::

    from repro import Prototype, parse_config

    with Prototype(parse_config("4x1x12")) as proto:
        latency = proto.measure_pair_latency(0, 13)

The prototype wires up A FPGAs x B nodes x C tiles, the homing policy, the
inter-node PCIe fabric, and exposes blocking-style helpers for driving
memory traffic, plus the Fig. 7 latency probes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..cache import (CdrHoming, GlobalInterleaveHoming, MemOp,
                     NodeRangeHoming, line_of, load, store)
from ..engine import Simulator, merge_stat_groups
from ..errors import ConfigError, SimulationError
from ..interconnect import PcieFabric
from ..noc import TileAddr
from .addrmap import AddressMap
from .config import PrototypeConfig, SystemParams, parse_config
from .node import Node
from .tile import Tile


def build_homing(config: PrototypeConfig):
    """The homing policy object for ``config`` (shared with the
    partitioned build, where every shard needs an identical instance)."""
    if config.homing == "global":
        return GlobalInterleaveHoming(config.n_nodes, config.tiles_per_node)
    if config.homing == "numa":
        return NodeRangeHoming(config.n_nodes, config.tiles_per_node,
                               config.dram_bytes_per_node)
    return CdrHoming(config.n_nodes, config.tiles_per_node)


class Prototype:
    """A fully built SMAPPIC system.

    :meth:`close` (or leaving a ``with`` block) frees the model by
    reference counting; a prototype nobody closes waits for the cyclic
    garbage collector instead.
    """

    def __new__(cls, config: Optional[PrototypeConfig] = None, **kwargs):
        # `partitions=` > 1 swaps in the sharded implementation (one
        # worker process per FPGA group, synchronized at the PCIe
        # boundary — see repro.partition); everything else builds the
        # monolithic system below.  Resolution happens here so both
        # classes share one constructor signature and call site.
        partitions = kwargs.get("partitions")
        if (cls is Prototype and config is not None
                and partitions is not None):
            from ..partition import PartitionedPrototype, resolve_partitions
            if resolve_partitions(config, partitions) > 1:
                return object.__new__(PartitionedPrototype)
        return object.__new__(cls)

    def __init__(self, config: PrototypeConfig, *, obs=None,
                 partitions: Optional[int] = None):
        self.config = config
        # obs takes a repro.obs.Observer; components register their stats,
        # gauges, and links with it as they are built, so it must be in
        # place before the node list below.
        self.sim = Simulator(obs=obs)
        self.obs = self.sim.obs
        self.addrmap = AddressMap(config.n_nodes, config.dram_bytes_per_node)
        self.homing = self._build_homing(config)
        self.fabric: Optional[PcieFabric] = None
        if config.n_nodes > 1 and config.coherent_interconnect:
            placement = {node: config.fpga_of_node(node)
                         for node in range(config.n_nodes)}
            self.fabric = PcieFabric(self.sim, "fabric", placement)
        self.nodes: List[Node] = [
            Node(self.sim, f"n{node_id}", node_id, config, self.homing,
                 self.addrmap, self.fabric)
            for node_id in range(config.n_nodes)
        ]

    def _build_homing(self, config: PrototypeConfig):
        return build_homing(config)

    # ------------------------------------------------------------------
    # Topology helpers
    # ------------------------------------------------------------------
    def tile(self, node_id: int, tile_index: int) -> Tile:
        return self.nodes[node_id].tiles[tile_index]

    def tile_by_global_index(self, index: int) -> Tile:
        node_id, tile_index = divmod(index, self.config.tiles_per_node)
        return self.tile(node_id, tile_index)

    def tile_addr(self, index: int) -> TileAddr:
        """The :class:`TileAddr` of a flat Fig. 7 tile index (pure
        topology — works whether or not the tile object lives in this
        process)."""
        node_id, tile_index = divmod(index, self.config.tiles_per_node)
        return TileAddr(node_id, tile_index)

    def all_tiles(self) -> List[Tile]:
        return [tile for node in self.nodes for tile in node.tiles]

    # ------------------------------------------------------------------
    # Simulation control
    # ------------------------------------------------------------------
    def run(self, until: Optional[int] = None,
            max_events: Optional[int] = None) -> int:
        return self.sim.run(until=until, max_events=max_events)

    @property
    def now(self) -> int:
        return self.sim.now

    def seconds(self, cycles: int) -> float:
        """Convert prototype cycles to wall-clock seconds at the
        configuration's achievable frequency."""
        return cycles / (self.config.achievable_frequency_mhz * 1e6)

    # ------------------------------------------------------------------
    # Blocking-style memory helpers (drive the sim until completion)
    # ------------------------------------------------------------------
    def mem_access(self, node_id: int, tile_index: int,
                   op: MemOp) -> Tuple[Optional[bytes], int]:
        """Run one cacheable access to completion; (result, cycles)."""
        result: list = []
        start = self.sim.now
        self.tile(node_id, tile_index).mem_access(op, result.append)
        self.sim.run()
        if not result:
            raise SimulationError(f"operation {op} never completed")
        return result[0], self.sim.now - start

    def read_u64(self, node_id: int, tile_index: int, addr: int) -> int:
        data, _ = self.mem_access(node_id, tile_index, load(addr, 8))
        return int.from_bytes(data, "little")

    def write_u64(self, node_id: int, tile_index: int, addr: int,
                  value: int) -> None:
        self.mem_access(node_id, tile_index,
                        store(addr, (value & (2 ** 64 - 1)).to_bytes(8, "little")))

    # ------------------------------------------------------------------
    # Functional memory access (host-side loaders; bypasses timing)
    # ------------------------------------------------------------------
    def load_image(self, addr: int, data: bytes,
                   node_id: Optional[int] = None) -> None:
        """Write ``data`` into backing DRAM before execution starts.

        Routes each 64-byte line to the node whose DRAM backs it (per the
        homing policy); with ``node_id`` the image goes into that node's
        memory only (independent-node prototypes).
        """
        if node_id is not None:
            self._memory_write(node_id, addr, data)
            return
        cursor = addr
        view = memoryview(data)
        requester = TileAddr(0, 0)
        while view:
            line = line_of(cursor)
            take = min(64 - (cursor - line), len(view))
            owner = self.homing.memory_node_of(line, requester)
            self._memory_write(owner, cursor, bytes(view[:take]))
            cursor += take
            view = view[take:]

    def peek_memory(self, addr: int, size: int,
                    node_id: Optional[int] = None) -> bytes:
        """Functional read of backing DRAM (does not see dirty cache lines)."""
        if node_id is not None:
            return self._memory_read(node_id, addr, size)
        out = bytearray()
        cursor = addr
        remaining = size
        requester = TileAddr(0, 0)
        while remaining:
            line = line_of(cursor)
            take = min(64 - (cursor - line), remaining)
            owner = self.homing.memory_node_of(line, requester)
            out.extend(self._memory_read(owner, cursor, take))
            cursor += take
            remaining -= take
        return bytes(out)

    def _memory_write(self, node_id: int, addr: int, data: bytes) -> None:
        self.nodes[node_id].memory.write(addr, data)

    def _memory_read(self, node_id: int, addr: int, size: int) -> bytes:
        return self.nodes[node_id].memory.read(addr, size)

    # ------------------------------------------------------------------
    # Latency probes (Fig. 7 machinery)
    # ------------------------------------------------------------------
    def address_homed_at(self, target: TileAddr, index: int = 0) -> int:
        """A DRAM address whose home LLC slice is ``target``.

        Only valid under global interleaving (the SMAPPIC default).
        """
        if self.config.homing != "global":
            raise ConfigError("address_homed_at requires global homing")
        total = self.config.total_tiles
        global_tile = self.config.global_tile(target.node, target.tile)
        return (global_tile + index * total) * 64

    def measure_pair_latency(self, sender: int, receiver: int,
                             probe_index: int = 0) -> int:
        """Round-trip latency (cycles) from core ``sender`` to core
        ``receiver`` (flat Fig. 7 indices): the time for the sender to load
        a cache line that the receiver's core owns dirty and whose home
        slice is the receiver's tile — a cache-line transfer between the
        two cores through the coherence fabric.  The full Fig. 7 matrix
        is :func:`repro.parallel.latency_matrix_spec`.
        """
        src = self.tile_addr(sender)
        dst = self.tile_addr(receiver)
        addr = self.address_homed_at(dst, index=1000 + probe_index)
        # Receiver takes ownership (M) of the probe line.
        self.mem_access(dst.node, dst.tile, store(addr, b"\xAA" * 8))
        # Sender's load pulls the line across: request + downgrade + data.
        _, cycles = self.mem_access(src.node, src.tile, load(addr))
        return cycles

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def stats_report(self) -> Dict[str, float]:
        groups = []
        for node in self.nodes:
            groups.append(node.chipset.controller.stats)
            if node.bridge is not None:
                groups.append(node.bridge.stats)
            for tile in node.tiles:
                groups.extend([tile.bpc.stats, tile.llc.stats,
                               tile.l1.stats])
        return merge_stat_groups(groups)

    # ------------------------------------------------------------------
    # Lifetime
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Break the model's reference cycles (:meth:`Simulator.close`).

        Export metrics and read stats first: no component works
        afterwards.  A second call does nothing.
        """
        self.sim.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def build(label: str, obs=None, **kwargs) -> Prototype:
    """Shorthand: ``build("4x1x12", homing="numa")``."""
    return Prototype(parse_config(label, **kwargs), obs=obs)
