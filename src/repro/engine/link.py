"""Point-to-point links with latency and serialization bandwidth.

A :class:`Link` is the universal transport in the model: NoC channel hops,
AXI4 channels, the PCIe path between FPGAs, and the DRAM data bus are all
links with different parameters.  A link imposes

* a fixed *latency* (cycles from departure to arrival), and
* a *serialization* cost (``cycles_per_unit`` × message size in units),
  which also makes the link a shared resource: a message cannot start
  transmitting until the previous one has finished.

This is exactly the "traffic shaper with configurable bandwidth and latency"
SMAPPIC inserts at node boundaries (paper Sec. 3.5).
"""

from __future__ import annotations

from typing import Callable

from ..errors import ConfigError
from .component import Component
from .simulator import Simulator

Sink = Callable[[object], None]


class Link(Component):
    """A serializing, latency-imposing connection to a sink callback.

    ``delivery_delay`` hands each message to the sink that many cycles
    after it arrives off the wire, so the receiving pipeline stage (a
    router's ``hop_latency``) rides the delivery event itself.  It is not
    wire time: the returned arrival, :attr:`busy_until`, the link's stats
    and the ``link_transfer`` hook all see the wire arrival.
    """

    def __init__(self, sim: Simulator, name: str, sink: Sink,
                 latency: int = 1, cycles_per_unit: float = 1.0,
                 category: str = "link", delivery_delay: int = 0):
        super().__init__(sim, name)
        if latency < 0:
            raise ConfigError(f"{name}: negative latency {latency}")
        if cycles_per_unit < 0:
            raise ConfigError(
                f"{name}: negative cycles_per_unit {cycles_per_unit}")
        if delivery_delay < 0:
            raise ConfigError(
                f"{name}: negative delivery_delay {delivery_delay}")
        self.sink = sink
        self.latency = latency
        self.cycles_per_unit = cycles_per_unit
        self.category = category
        self.delivery_delay = delivery_delay
        self._free_at = 0
        sim.obs.register_link(self)
        # Deliveries ride the typed fast path: the sink is fixed at
        # construction, only the arrival delay varies (queueing +
        # serialization), so every send is a single-payload send_after.
        self._channel = sim.channel(latency + delivery_delay, sink)

    def send(self, message: object, units: int = 1) -> int:
        """Transmit ``message`` of the given size; returns arrival time.

        The message occupies the link for ``units * cycles_per_unit`` cycles
        starting no earlier than the link becomes free, then arrives
        ``latency`` cycles later.
        """
        sim = self.sim
        now = sim.now
        free_at = self._free_at
        depart = now if free_at < now else free_at
        serialization = round(units * self.cycles_per_unit)
        # A message occupies the link for at least one cycle.
        self._free_at = depart + (serialization or (1 if units else 0))
        arrival = depart + serialization + self.latency
        self._channel.send_after(arrival + self.delivery_delay - now,
                                 message)
        stats = self.stats
        stats.inc("messages")
        stats.inc("units", units)
        stats.observe("queueing", depart - now)
        self.obs.link_transfer(self, units, depart, arrival)
        return arrival

    def send_many(self, messages, units_each: int = 1) -> int:
        """Transmit a train of equally-sized messages; returns the last
        arrival time.

        Delivery-for-delivery identical to ``for m in messages:
        send(m, units_each)``, but the stats/obs updates happen once per
        train and — when serialization is zero, the common case for
        pipeline drains — the whole train lands in the sink's calendar
        bucket with a single batched insert.
        """
        n = len(messages)
        sim = self.sim
        now = sim.now
        if not n:
            return now
        free_at = self._free_at
        depart = now if free_at < now else free_at
        serialization = round(units_each * self.cycles_per_unit)
        # Each message occupies the link for `occupy` cycles, so repeated
        # send() calls step both departure and arrival by exactly that.
        occupy = serialization or (1 if units_each else 0)
        self._free_at = depart + occupy * n
        arrival = depart + serialization + self.latency
        delay = arrival + self.delivery_delay - now
        if occupy == 0:
            # Zero occupancy (units_each == 0): the whole train arrives in
            # one cycle — a single batched calendar insert.
            self._channel.send_after_many(delay, messages)
        else:
            channel = self._channel
            for message in messages:
                channel.send_after(delay, message)
                delay += occupy
            arrival = delay - self.delivery_delay + now - occupy
        stats = self.stats
        stats.inc("messages", n)
        stats.inc("units", units_each * n)
        stats.observe("queueing", depart - now)
        self.obs.link_transfer(self, units_each * n, depart, arrival)
        return arrival

    @property
    def busy_until(self) -> int:
        """Cycle at which the link becomes free for the next message."""
        return self._free_at


class InstantLink(Link):
    """A zero-latency, infinite-bandwidth link (for intra-module wiring)."""

    def __init__(self, sim: Simulator, name: str, sink: Sink):
        super().__init__(sim, name, sink, latency=0, cycles_per_unit=0.0)
