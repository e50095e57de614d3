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

from typing import Callable, Dict, Optional

from ..errors import ConfigError
from .simulator import Simulator
from .stats import Histogram, StatGroup

Sink = Callable[[object], None]


class Link:
    """A serializing, latency-imposing connection to a sink callback.

    ``delivery_delay`` hands each message to the sink that many cycles
    after it arrives off the wire, so the receiving pipeline stage (a
    router's ``hop_latency``) rides the delivery event itself.  It is not
    wire time: the returned arrival, :attr:`busy_until`, the link's stats
    and the ``link_transfer`` hook all see the wire arrival.

    A link keeps its counts as plain attributes, not in a
    :class:`~repro.engine.stats.StatGroup`: :attr:`messages`,
    :attr:`units`, and the ``queueing`` samples that are not 0 (most
    messages find the link free).  :attr:`stats` builds the group view
    from them on every read; see :meth:`export_counters` and
    :meth:`export_histograms`.
    """

    def __init__(self, sim: Simulator, name: str, sink: Sink,
                 latency: int = 1, cycles_per_unit: float = 1.0,
                 category: str = "link", delivery_delay: int = 0):
        if latency < 0:
            raise ConfigError(f"{name}: negative latency {latency}")
        if cycles_per_unit < 0:
            raise ConfigError(
                f"{name}: negative cycles_per_unit {cycles_per_unit}")
        if delivery_delay < 0:
            raise ConfigError(
                f"{name}: negative delivery_delay {delivery_delay}")
        self.sim = sim
        self.name = name
        self.obs = sim.obs
        self.sink = sink
        self.latency = latency
        self.cycles_per_unit = cycles_per_unit
        self.category = category
        self.delivery_delay = delivery_delay
        self._free_at = 0
        #: Messages sent and units (flits, beats) they carried.
        self.messages = 0
        self.units = 0
        # Queueing delays other than 0, from the first one on.
        self._queued: Optional[Histogram] = None
        sim.obs.register_link(self)
        sim._built.append(self)
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
        serialization = round(units * self.cycles_per_unit)
        if free_at > now:
            depart = free_at
            queued = self._queued
            if queued is None:
                queued = self._queued = Histogram()
            queued.add(free_at - now)
        else:
            depart = now
        # A message occupies the link for at least one cycle.
        self._free_at = depart + (serialization or (1 if units else 0))
        arrival = depart + serialization + self.latency
        self._channel.send_after(arrival + self.delivery_delay - now,
                                 message)
        self.messages += 1
        self.units += units
        self.obs.link_transfer(self, units, depart, arrival)
        return arrival

    def send_many(self, messages, units_each: int = 1) -> int:
        """:meth:`send` each of ``messages`` in turn; returns the last
        arrival time (``now`` for no messages)."""
        arrival = self.sim.now
        for message in messages:
            arrival = self.send(message, units_each)
        return arrival

    @property
    def busy_until(self) -> int:
        """Cycle at which the link becomes free for the next message."""
        return self._free_at

    # ------------------------------------------------------------------
    # Stats, derived from the counts above at every read
    # ------------------------------------------------------------------
    @property
    def stats(self) -> StatGroup:
        """A :class:`StatGroup` view of the link's live counts."""
        return StatGroup(self.name, self)

    def export_counters(self, counters: Dict[str, int]) -> None:
        """``messages`` and ``units``, both from the first send on."""
        if self.messages:
            counters["messages"] = self.messages
            counters["units"] = self.units

    def export_histograms(self, histograms: Dict[str, Histogram]) -> None:
        """``queueing``: one sample per message, so its 0 bucket is the
        messages that found the link free."""
        if not self.messages:
            return
        queueing = Histogram()
        queued = self._queued
        idle = self.messages - (queued.count if queued is not None else 0)
        if idle:
            queueing.add(0, idle)
        if queued is not None:
            queueing.merge(queued)
        histograms["queueing"] = queueing


class InstantLink(Link):
    """A zero-latency, infinite-bandwidth link (for intra-module wiring)."""

    def __init__(self, sim: Simulator, name: str, sink: Sink):
        super().__init__(sim, name, sink, latency=0, cycles_per_unit=0.0)
