"""Batch-lane sends.

The load-bearing properties of this layer:

* ``send_many(ps)`` is event-for-event identical to ``for p in ps:
  send(p)`` — asserted on typed channels and on the generic
  ``schedule()`` reference path, for channels, links, AXI ports, and NoC
  injection;
* a Fig. 7 latency point archives byte-identical metrics
  (``json.dumps`` equality) whether its channels are typed or routed
  through ``schedule()``.
"""

import json

import pytest

from repro import Prototype, parse_config
from repro.axi import AxiPort, AxiRead, AxiReadResp, AxiWrite, AxiWriteResp
from repro.engine import EventHandle, Link, Simulator
from repro.errors import SimulationError
from repro.noc import MsgClass, NocChannel, NodeNetwork, Packet, TileAddr
from repro.obs import Observer
from schedule_reference import route_channels_through_schedule, \
    schedule_channel


def _emit(channel, payloads, batched, after=None):
    """Send ``payloads`` batched or looped; the traces must not differ."""
    if batched:
        if after is None:
            return channel.send_many(payloads)
        return channel.send_after_many(after, payloads)
    if after is None:
        return [channel.send(p) for p in payloads]
    return [channel.send_after(after, p) for p in payloads]


def _burst_storm(batched, make_channel=Simulator.channel):
    """A deterministic workout for the batch lanes.

    Bursts issued at time zero and from inside callbacks, empty bursts,
    zero-delay bursts, ``send_after_many`` trains, cancellation of burst
    members, and interleaved generic/priority events — all traced as
    ``(now, tag, payload)`` in execution order.
    """
    sim = Simulator()
    trace = []

    def sink(p):
        trace.append((sim.now, "sink", p))
        rand = (p * 1103515245 + 12345) & 0x7FFFFFFF
        if p > 0:
            burst = [0] * (rand % 3) + [p - 1]
            _emit(lanes[rand % len(lanes)], burst, batched)
            if p % 5 == 0:
                _emit(zero_lane, [p, p], batched)
            if p % 7 == 0:
                victims = _emit(lanes[0], [99, 98], batched)
                for victim in victims:
                    sim.cancel(victim)

    def zsink(p):
        trace.append((sim.now, "zero", p))

    lanes = [make_channel(sim, delay, sink) for delay in range(1, 5)]
    zero_lane = make_channel(sim, 0, zsink)
    _emit(lanes[0], [], batched)
    _emit(lanes[1], [20], batched)
    _emit(lanes[2], [15, 14, 13], batched)
    _emit(lanes[0], [12, 11], batched, after=6)
    sim.schedule(6, lambda: trace.append((sim.now, "generic", None)))
    sim.schedule(6, lambda: trace.append((sim.now, "urgent", None)),
                 priority=-1)
    sim.run()
    return trace, sim.events_executed, sim.now, sim.pending


class TestSendManyEquivalence:
    def test_batched_equals_looped_under_all_modes(self):
        reference = _burst_storm(batched=False)
        assert reference[1] > 150  # the storm actually ran
        for make_channel in (Simulator.channel, schedule_channel):
            for batched in (True, False):
                run = _burst_storm(batched, make_channel)
                assert run == reference, \
                    f"{make_channel.__name__} batched={batched}"

    def test_empty_burst_is_a_noop(self):
        sim = Simulator()
        lane = sim.channel(3, lambda p: None)
        assert lane.send_many([]) == []
        assert lane.send_after_many(5, []) == []
        assert sim.pending == 0

    def test_burst_members_are_cancelable(self):
        sim = Simulator()
        got = []
        lane = sim.channel(2, got.append)
        events = lane.send_many(["a", "b", "c"])
        sim.cancel(events[1])
        sim.run()
        assert got == ["a", "c"]

    def test_send_after_many_rejects_negative_delay(self):
        sim = Simulator()
        lane = sim.channel(1, lambda p: None)
        with pytest.raises(SimulationError):
            lane.send_after_many(-1, ["x"])

    def test_burst_reuses_the_event_pool(self):
        sim = Simulator()
        lane = sim.channel(1, lambda p: None)
        lane.send_many(list(range(64)))
        sim.run()
        pool = len(sim._free)
        lane.send_many(list(range(64)))
        assert len(sim._free) == pool - 64  # sliced, not reallocated
        sim.run()


class TestDebugBatch:
    def test_send_many_returns_handles(self):
        sim = Simulator(debug=True)
        lane = sim.channel(2, lambda p: None)
        handles = lane.send_many(["a", "b"])
        assert all(isinstance(h, EventHandle) for h in handles)
        handles_after = lane.send_after_many(4, ["c"])
        assert all(isinstance(h, EventHandle) for h in handles_after)

    def test_cancel_batched_before_fire_works(self):
        sim = Simulator(debug=True)
        got = []
        lane = sim.channel(2, got.append)
        handles = lane.send_many(["a", "doomed", "c"])
        sim.cancel(handles[1])
        sim.run()
        assert got == ["a", "c"]

    def test_cancel_batched_after_fire_raises(self):
        sim = Simulator(debug=True)
        lane = sim.channel(2, lambda p: None)
        handles = lane.send_many(["a", "b"])
        sim.run()
        with pytest.raises(SimulationError, match="stale handle"):
            sim.cancel(handles[0])


def _link_train(batched, latency=2, cycles_per_unit=1.0, units_each=3):
    sim = Simulator()
    deliveries = []
    link = Link(sim, "l", lambda m: deliveries.append((sim.now, m)),
                latency=latency, cycles_per_unit=cycles_per_unit,
                delivery_delay=2)
    link.send("warmup", units=2)
    if batched:
        arrival = link.send_many(["a", "b", "c"], units_each=units_each)
    else:
        for message in ("a", "b", "c"):
            arrival = link.send(message, units=units_each)
    busy = link.busy_until
    sim.run()
    return (deliveries, arrival, busy, sim.now,
            link.stats.get("messages"), link.stats.get("units"))


class TestLinkBatch:
    @pytest.mark.parametrize("cycles_per_unit,units_each", [
        (1.0, 3),   # serialized train: arrivals step by occupancy
        (0.5, 1),   # fractional serialization rounding
        (0.0, 1),   # instant link still occupies 1 cycle per message
        (1.0, 0),   # zero-size messages: the whole train shares a cycle
    ])
    def test_send_many_matches_looped_sends(self, cycles_per_unit,
                                            units_each):
        assert _link_train(True, cycles_per_unit=cycles_per_unit,
                           units_each=units_each) == \
            _link_train(False, cycles_per_unit=cycles_per_unit,
                        units_each=units_each)

    def test_empty_train_is_a_noop(self):
        sim = Simulator()
        link = Link(sim, "l", lambda m: None)
        assert link.send_many([]) == sim.now
        assert link.busy_until == 0
        assert sim.pending == 0


class _EchoSlave:
    def __init__(self):
        self.writes = []

    def axi_write(self, txn, reply):
        self.writes.append(txn.addr)
        reply(AxiWriteResp(axi_id=txn.axi_id))

    def axi_read(self, txn, reply):
        reply(AxiReadResp(axi_id=txn.axi_id, data=bytes(txn.length)))


def _axi_train(batched):
    sim = Simulator()
    port = AxiPort(sim, "p", _EchoSlave())
    done = []
    writes = [AxiWrite(addr=4096 * i, data=b"x" * size)
              for i, size in enumerate((64, 64, 128, 64))]
    reads = [AxiRead(addr=4096 * i, length=64) for i in range(3)]
    on_write = lambda resp: done.append((sim.now, "w", resp.uid))
    on_read = lambda resp: done.append((sim.now, "r", resp.uid))
    if batched:
        port.write_many(writes, on_write)
        port.read_many(reads, on_read)
    else:
        for txn in writes:
            port.write(txn, on_write)
        for txn in reads:
            port.read(txn, on_read)
    sim.run()
    # uids are globally allocated, so compare completion *order* and times.
    order = [(t, kind) for t, kind, _ in done]
    return order, sim.now, port.stats.get("writes"), port.stats.get("reads")


class TestAxiPortBatch:
    def test_train_matches_looped_transactions(self):
        assert _axi_train(True) == _axi_train(False)

    def test_duplicate_uid_rejected_in_train(self):
        sim = Simulator()
        port = AxiPort(sim, "p", _EchoSlave())
        txn = AxiWrite(addr=0, data=b"x" * 64)
        with pytest.raises(Exception, match="duplicate"):
            port.write_many([txn, txn], lambda resp: None)


def _inject_burst(batched, n_tiles=6):
    sim = Simulator()
    net = NodeNetwork(sim, "n0", 0, n_tiles)
    received = []
    for tile in range(n_tiles):
        for channel in NocChannel:
            net.register_endpoint(
                tile, channel,
                lambda p, _t=tile: received.append((sim.now, _t, p.payload)))
    packets = [Packet(src=TileAddr(0, 0), dst=TileAddr(0, dst),
                      channel=NocChannel.REQ, msg_class=MsgClass.PING,
                      payload=f"m{i}", payload_flits=1)
               for i, dst in enumerate((1, 5, 3, 5, 2))]
    if batched:
        net.inject_many(packets, 0)
    else:
        for packet in packets:
            net.inject(packet, 0)
    sim.run()
    return received, sim.now, net.router_stats()


class TestInjectMany:
    def test_burst_matches_looped_injects(self):
        assert _inject_burst(True) == _inject_burst(False)

    def test_wrong_node_rejected_in_burst(self):
        sim = Simulator()
        net = NodeNetwork(sim, "n0", 0, 2)
        bad = Packet(src=TileAddr(1, 0), dst=TileAddr(0, 1),
                     channel=NocChannel.REQ, msg_class=MsgClass.PING,
                     payload=None, payload_flits=0)
        with pytest.raises(Exception, match="wrong node"):
            net.inject_many([bad], 0)


class TestFig7PathDeterminism:
    def _fig7_point_metrics(self):
        config = parse_config("1x2x2")
        obs = Observer({"trace": {"enabled": False}})
        proto = Prototype(config, obs=obs)
        latency = proto.measure_pair_latency(0, 3)
        return latency, json.dumps(obs.export_metrics(), sort_keys=True)

    def test_archived_metrics_match_generic_schedule(self, monkeypatch):
        # The acceptance bit-identity: one Fig. 7 latency point archived
        # on typed channels and on the generic schedule() path agrees to
        # the byte.
        reference = self._fig7_point_metrics()
        route_channels_through_schedule(monkeypatch)
        assert self._fig7_point_metrics() == reference
