"""Mesh router with credit-based flow control.

Every tile has one router serving the three physical NoCs.  Packets move
whole-packet-at-a-time (virtual cut-through at packet granularity): a hop
costs the router pipeline latency plus link serialization (one cycle per
flit) plus link latency.

Flow control is credit-based, as the paper requires for deadlock freedom of
the inter-node bridge (Sec. 3.1, stage 3): a router may only send toward a
neighbor when it holds a credit for that (port, channel); the credit returns
once the neighbor has forwarded the packet onward.

One event per hop
-----------------

A router-to-router hop is a single event.  The link toward a neighbor
delivers straight into the neighbor's routing stage (:meth:`Router._arrive`)
``hop_latency`` cycles after the wire arrival, as a delivery delay the
link does not count as wire time.  That stage counts the hop, reports it
to ``obs.noc_hop`` with the wire-arrival cycle, returns the upstream
credit, and routes.  Routing reads a per-channel table of
:class:`_OutputPort` objects bound at wiring time, so no
``(direction, channel)`` key is hashed per hop or per credit.

Credits
-------

A credit returned in cycle ``r`` lands in cycle ``r + 1``, before every
other event of that cycle: credit events carry a negative priority,
unique per port and ordered by (node, tile, direction, channel), so the
calendar's stable sort runs a cycle's landings first and in a fixed
order, whenever they were scheduled.  A landing releases the oldest
packet waiting on the port, or else adds a credit any forward of that
cycle may use.

A credit becomes an event only when a packet waits for it.  Otherwise
the upstream port only records the cycle the credit lands, and a forward
that finds no counted credit first collects the credits landed by
``now``.  When a packet has to wait while a recorded credit is still in
flight (it lands next cycle), that credit becomes an event with the
port's priority, so it runs exactly where an eager credit event would
have.  Lazy credits therefore give the same deliveries, stats and clocks
as returning every credit as an event (``tests/credit_reference.py``).
The router raises the simulator's clock floor to each recorded landing,
so a drain still ends where the trailing credit event would have left
the clock.

Same-cycle order: a packet arriving from a neighbour is queued when it
leaves the upstream router, an injected packet when it is injected, so in
a cycle where both reach the routing stage the arrival is routed first.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Callable, List, Sequence

from ..engine import Component, Link, Simulator
from ..errors import ProtocolError, SimulationError
from .packet import CHIPSET, NocChannel, Packet
from .topology import Direction, Mesh, OPPOSITE

#: Route-table targets that are not output ports.
_EJECT = "eject"        # this tile's network interface
_OFFCHIP = "offchip"    # tile 0's off-chip port (chipset / bridge)

#: Credit events sort before a cycle's other events (priority 0): their
#: priorities start here and rise with (node, tile, direction, channel).
_CREDIT_FIRST = -(1 << 62)

_CHANNELS = tuple(NocChannel)

#: Per mesh direction: the link-name suffix of each channel's port (in
#: ``_CHANNELS`` order), the direction a packet crossing the port enters
#: its neighbour from, and the direction's field in a credit priority.
_PORT_WIRING = {
    direction: (tuple(f".{direction.value}.{channel.name}"
                      for channel in _CHANNELS),
                OPPOSITE[direction],
                list(Direction).index(direction) << 2)
    for direction in OPPOSITE}

EndpointHandler = Callable[[Packet], None]


class _OutputPort:
    """Credits, recorded credit landings and a waiting queue for one
    (direction, channel) output of ``router``.

    ``credits`` counts credits the port has collected; ``due`` holds the
    landing cycles of credits returned while nothing waited here, oldest
    first.  ``credits + len(due)`` plus the packets in flight downstream
    is always ``max_credits``.
    """

    __slots__ = ("router", "direction", "channel", "enters_from", "link",
                 "credits", "max_credits", "due", "waiting", "order")

    def __init__(self, router: "Router", direction: Direction,
                 channel: NocChannel, credits: int, enters_from: Direction,
                 order: int):
        self.router = router
        self.direction = direction
        self.channel = channel
        self.enters_from = enters_from
        self.link: Link = None
        self.credits = credits
        self.max_credits = credits
        self.due: List[int] = []
        self.waiting: deque = deque()
        self.order = order


class Router(Component):
    """One tile's router.  Wired up by :class:`~repro.noc.network.NodeNetwork`.

    Its per-packet counters are int attributes (``counted``), and
    ``forwarded`` is derived at export: every forward is one message on
    one of the router's output links.
    """

    counted = ("injected", "received", "ejected", "offchip")

    def __init__(self, sim: Simulator, name: str, node_id: int, tile: int,
                 mesh: Mesh, hop_latency: int = 2, credits: int = 4,
                 link_latency: int = 1, cycles_per_flit: float = 1.0):
        super().__init__(sim, name)
        self.node_id = node_id
        self.tile = tile
        self.mesh = mesh
        self.hop_latency = hop_latency
        self.credit_count = credits
        self.link_latency = link_latency
        self.cycles_per_flit = cycles_per_flit
        self._ports: List[_OutputPort] = []
        # _routes[channel._value_][dest tile] is the routing decision as a
        # bound target.  The extra slot row[CHIPSET] (the last one) is the
        # way off the node, for this node's chipset and for every other
        # node.  Slot 0 is unused (channel values start at 1).
        # connect_neighbor fills in the ports.
        row = [None] * (mesh.n_tiles + 1)
        row[tile] = _EJECT
        if tile == 0:
            row[CHIPSET] = _OFFCHIP
        self._routes = [None] + [list(row) for _ in _CHANNELS]
        self._local_handlers = [None] * len(self._routes)   # by _value_
        self._offchip_handler: EndpointHandler = None
        self._inject_lane = sim.channel(hop_latency, self._route)
        sim.obs.register_gauge(f"{name}.credit_wait", self._credit_wait_depth,
                               category="noc")

    def _credit_wait_depth(self) -> int:
        """Packets parked across all ports waiting for a credit (gauge)."""
        return sum(len(port.waiting) for port in self._ports)

    def export_counters(self, counters) -> None:
        super().export_counters(counters)
        forwarded = sum(port.link.messages for port in self._ports)
        if forwarded:
            counters["forwarded"] = forwarded

    # ------------------------------------------------------------------
    # Wiring (done once at network construction)
    # ------------------------------------------------------------------
    def connect_neighbor(self, direction: Direction, other: "Router",
                         dests: Sequence[int]) -> None:
        """Create the three per-channel output ports toward ``other``.

        ``dests`` are the tiles routed from here through ``direction``
        (:attr:`Mesh.ports`).  Each port takes their slots in its
        channel's route row, and the way off the node too when tile 0
        is among them.
        """
        suffixes, enters_from, direction_bits = _PORT_WIRING[direction]
        if 0 in dests:
            dests = (*dests, CHIPSET)
        # Credit-event priority, unique per port of a prototype (node ids
        # are unique), so a cycle's landings always run in one order.
        order = (_CREDIT_FIRST + (self.node_id << 21) + (self.tile << 5)
                 + direction_bits)
        arrive = other._arrive
        for channel, suffix in zip(_CHANNELS, suffixes):
            port = _OutputPort(self, direction, channel, self.credit_count,
                               enters_from, order + channel._value_)
            port.link = Link(
                self.sim, self.name + suffix, partial(arrive, port),
                latency=self.link_latency,
                cycles_per_unit=self.cycles_per_flit, category="noc",
                delivery_delay=other.hop_latency)
            self._ports.append(port)
            row = self._routes[channel._value_]
            for dest in dests:
                row[dest] = port

    def connect_local(self, channel: NocChannel,
                      handler: EndpointHandler) -> None:
        """Attach the tile's network interface for one channel."""
        self._local_handlers[channel._value_] = handler

    def connect_offchip(self, handler: EndpointHandler) -> None:
        """Attach the node-edge (chipset / inter-node bridge) demux.

        Only tile 0 gets an off-chip port, mirroring OpenPiton.
        """
        if self.tile != 0:
            raise ProtocolError(
                f"{self.name}: off-chip port only exists on tile 0")
        self._offchip_handler = handler

    # ------------------------------------------------------------------
    # Packet movement
    # ------------------------------------------------------------------
    def inject(self, packet: Packet) -> None:
        """Entry point for packets born at this tile (or arriving off-chip)."""
        self.injected += 1
        self.obs.noc_inject(self, packet)
        self._inject_lane.send(packet)

    def _arrive(self, port: _OutputPort, packet: Packet) -> None:
        """Routing stage for a packet that crossed the upstream ``port``.

        Runs ``hop_latency`` cycles after the wire arrival.  The credit
        goes back to ``port`` as an event only if a packet waits there.
        """
        sim = self.sim
        now = sim.now
        self.received += 1
        packet.hops += 1
        self.obs.noc_hop(self, packet, port.enters_from,
                         now - self.hop_latency)
        if port.waiting:
            port.router._credit_event(port, 1)
        else:
            landing = now + 1
            port.due.append(landing)
            sim.clock_floor = landing
        self._route(packet)

    def _route(self, packet: Packet) -> None:
        """Routing stage: eject, leave the node, or forward on a port."""
        dst = packet.dst
        row = self._routes[packet.channel._value_]
        port = row[dst.tile] if dst.node == self.node_id else row[CHIPSET]
        if port is _EJECT:
            handler = self._local_handlers[packet.channel._value_]
            if handler is None:
                raise ProtocolError(
                    f"{self.name}: no local handler for {packet.channel} "
                    f"({packet})")
            self.ejected += 1
            self.obs.noc_eject(self, packet)
            handler(packet)
        elif port is _OFFCHIP:
            if self._offchip_handler is None:
                raise ProtocolError(
                    f"{self.name}: packet {packet} needs off-chip port")
            self.offchip += 1
            self.obs.noc_offchip(self, packet)
            self._offchip_handler(packet)
        elif port is None:
            raise SimulationError(f"{self.name}: no port toward {packet}")
        elif port.credits or self._collect(port):
            port.credits -= 1
            port.link.send(packet, packet.flits)
        else:
            self._wait(port, packet)

    def _collect(self, port: _OutputPort) -> bool:
        """Count the recorded credits that have landed by ``now``."""
        due = port.due
        if len(due) > port.max_credits:
            raise ProtocolError(
                f"{self.name}: credit overflow on {port.direction} "
                f"{port.channel}")
        now = self.sim.now
        landed = 0
        for cycle in due:
            if cycle > now:
                break
            landed += 1
        if not landed:
            return False
        del due[:landed]
        port.credits = landed
        return True

    def _wait(self, port: _OutputPort, packet: Packet) -> None:
        """Park ``packet`` until a credit lands; a recorded credit still
        in flight (it lands next cycle) becomes a credit event."""
        port.waiting.append(packet)
        self.stats.inc("credit_stalls")
        self.obs.noc_credit_stall(self, port.direction, packet)
        if port.due:
            now = self.sim.now
            for cycle in port.due:
                self._credit_event(port, cycle - now)
            port.due.clear()

    def _credit_event(self, port: _OutputPort, delay: int) -> None:
        """Land a credit on this router's ``port`` as an event."""
        self.sim.schedule(delay, self._credit_arrive, port,
                          priority=port.order)

    def _credit_arrive(self, port: _OutputPort) -> None:
        """A credit event landed: release a waiting packet or count it."""
        if port.waiting:
            packet = port.waiting.popleft()
            port.link.send(packet, packet.flits)
        else:
            port.credits += 1
            if port.credits + len(port.due) > port.max_credits:
                raise ProtocolError(
                    f"{self.name}: credit overflow on {port.direction} "
                    f"{port.channel}")
