"""The generic ``schedule()`` path dressed as a channel.

:class:`ScheduleChannel` has the :class:`~repro.engine.ConstLatencyChannel`
API but routes every send through :meth:`Simulator.schedule`, the
kernel's reference scheduling path.  Tests drive one workload on real
channels and once more on these, and require identical traces: the typed
channel path must interleave exactly like the generic scheduler.
"""

from repro.engine import Simulator


class ScheduleChannel:
    """A ``(delay, sink)`` channel whose sends are ``schedule()`` calls."""

    def __init__(self, sim, delay, sink):
        self._sim = sim
        self.delay = delay
        self.sink = sink

    def send(self, payload):
        return self._sim.schedule(self.delay, self.sink, payload)

    def send_after(self, delay, payload):
        return self._sim.schedule(delay, self.sink, payload)

    def send_many(self, payloads):
        return [self.send(payload) for payload in payloads]

    def send_after_many(self, delay, payloads):
        return [self.send_after(delay, payload) for payload in payloads]


def schedule_channel(sim, delay, sink):
    """Drop-in for ``Simulator.channel`` that builds a ScheduleChannel
    (still offered to the observer, like a real channel)."""
    return sim.obs.wrap_channel(sim, ScheduleChannel(sim, delay, sink))


def route_channels_through_schedule(monkeypatch):
    """Make every simulator channel built from here on a ScheduleChannel,
    so whole prototypes can run on the reference path."""
    monkeypatch.setattr(Simulator, "channel", schedule_channel)


def scan_matrix(proto):
    """Every Fig. 7 pair probed in place on one prototype, each probe on
    its own line: the whole-run workload the identity tests compare on
    both paths (the paper matrix itself is ``latency_matrix_spec``)."""
    size = proto.config.total_tiles
    return [[proto.measure_pair_latency(sender, receiver,
                                        sender * size + receiver)
             for receiver in range(size)]
            for sender in range(size)]
