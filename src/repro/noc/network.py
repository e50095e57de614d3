"""Per-node NoC: a mesh of routers plus the node-edge demux.

The :class:`NodeNetwork` owns every router of one node, delivers packets to
per-tile endpoint handlers, and hands off-node traffic (chipset requests and
inter-node coherence) to the sinks installed by the chipset and the
inter-node bridge.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..engine import Component, Simulator, merge_stat_groups
from ..errors import ConfigError, ProtocolError
from .packet import NocChannel, Packet, TileAddr
from .router import EndpointHandler, Router
from .topology import Direction, Mesh


class NodeNetwork(Component):
    """All three NoCs of one node, at packet granularity."""

    counted = ("injected", "edge_injected")

    def __init__(self, sim: Simulator, name: str, node_id: int, n_tiles: int,
                 hop_latency: int = 2, credits: int = 4, link_latency: int = 1,
                 cycles_per_flit: float = 1.0, mesh: Optional[Mesh] = None):
        super().__init__(sim, name)
        self.node_id = node_id
        self.mesh = mesh or Mesh.for_tiles(n_tiles)
        if self.mesh.n_tiles != n_tiles:
            raise ConfigError(
                f"{name}: mesh has {self.mesh.n_tiles} tiles, expected {n_tiles}")
        self.routers: List[Router] = []
        for tile in range(n_tiles):
            router = Router(sim, f"{name}/r{tile}", node_id, tile, self.mesh,
                            hop_latency=hop_latency, credits=credits,
                            link_latency=link_latency,
                            cycles_per_flit=cycles_per_flit)
            self.routers.append(router)
        for router, ports in zip(self.routers, self.mesh.ports):
            for direction, neighbor, dests in ports:
                router.connect_neighbor(direction, self.routers[neighbor],
                                        dests)
        self._chipset_sink: Optional[EndpointHandler] = None
        self._bridge_sink: Optional[EndpointHandler] = None
        self.routers[0].connect_offchip(self._offchip_demux)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def register_endpoint(self, tile: int, channel: NocChannel,
                          handler: EndpointHandler) -> None:
        """Attach a tile-local consumer (cache controller, core NIU...)."""
        self.routers[tile].connect_local(channel, handler)

    def set_chipset_sink(self, handler: EndpointHandler) -> None:
        """Consumer for packets addressed to this node's chipset."""
        self._chipset_sink = handler

    def set_bridge_sink(self, handler: EndpointHandler) -> None:
        """Consumer for packets leaving the node (inter-node traffic)."""
        self._bridge_sink = handler

    # ------------------------------------------------------------------
    # Traffic entry points
    # ------------------------------------------------------------------
    def inject(self, packet: Packet, tile: int) -> None:
        """Send a packet from ``tile`` of this node."""
        if packet.src.node != self.node_id:
            raise ProtocolError(
                f"{self.name}: inject from wrong node ({packet})")
        packet.created_at = self.now
        self.injected += 1
        self.routers[tile].inject(packet)

    def inject_many(self, packets, tile: int) -> None:
        """Send a same-cycle burst of packets from ``tile`` of this node."""
        node_id = self.node_id
        now = self.now
        for packet in packets:
            if packet.src.node != node_id:
                raise ProtocolError(
                    f"{self.name}: inject from wrong node ({packet})")
            packet.created_at = now
        self.stats.inc("injected", len(packets))
        self.routers[tile].inject_many(packets)

    def inject_from_edge(self, packet: Packet) -> None:
        """A packet entering the node from the chipset or the bridge."""
        self.edge_injected += 1
        self.routers[0].inject(packet)

    def _offchip_demux(self, packet: Packet) -> None:
        dst = packet.dst
        if dst.node == self.node_id and dst.is_chipset():
            if self._chipset_sink is None:
                raise ProtocolError(f"{self.name}: no chipset attached "
                                    f"for {packet}")
            self._chipset_sink(packet)
            return
        if dst.node != self.node_id:
            if self._bridge_sink is None:
                raise ProtocolError(f"{self.name}: no inter-node bridge "
                                    f"attached for {packet}")
            self._bridge_sink(packet)
            return
        raise ProtocolError(f"{self.name}: local packet {packet} reached "
                            "the off-chip port")

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def router_stats(self) -> Dict[str, float]:
        return merge_stat_groups(r.stats for r in self.routers)

    def hop_count(self, a: int, b: int) -> int:
        """Mesh distance between two tiles of this node."""
        return self.mesh.hop_count(a, b)
