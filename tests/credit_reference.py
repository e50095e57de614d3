"""Every credit returned as an event: the reference for lazy credits.

A router returns a credit by recording the cycle it lands at and makes
it an event only when a packet waits for it (:mod:`repro.noc.router`).
:func:`return_credits_as_events` swaps :meth:`Router._arrive` for a
routing stage that sends every credit back to the upstream router as a
credit event landing next cycle, whether or not anything waits.  Tests
drive one workload on real routers and once more on this path, and
require identical deliveries, stats and clocks.  Patch before the
network is built: each link binds its downstream ``_arrive`` at wiring
time.
"""

from repro.noc.router import Router


def _arrive_eagerly(self, port, packet):
    """``Router._arrive`` with the credit always sent as an event."""
    now = self.sim.now
    self.stats.inc("received")
    packet.hops += 1
    self.obs.noc_hop(self, packet, port.enters_from, now - self.hop_latency)
    port.router._credit_event(port, 1)
    self._route(packet)


def return_credits_as_events(monkeypatch):
    """Make every router built from here on return credits as events."""
    monkeypatch.setattr(Router, "_arrive", _arrive_eagerly)
