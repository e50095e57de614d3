"""Stat exports: pinned digests and the counters components keep live.

The digests pin what every reader of a component's stats sees
(``counters``, full histograms, the observer's metric export) on
traffic that exercises queueing and credit stalls, so moving a count
out of :class:`~repro.engine.StatGroup` cannot change a single exported
value.
"""

import hashlib
import json

from repro import Prototype, parse_config
from repro.axi import AxiCrossbar, AxiRead, AxiWrite, Region
from repro.cache import load, store
from repro.engine import Link, Simulator, StatGroup
from repro.noc import TileAddr
from repro.obs import Observer
from repro.parallel.probes import measure_rows_point
from test_axi import EchoSlave
from test_noc import _contended_run, build_network, make_packet, \
    stat_snapshot


def _digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class TestPinnedStats:
    def test_contended_router_and_link_stats(self, monkeypatch):
        runs = {}
        for credits in (1, 2):
            for seed in range(4):
                run = _contended_run(credits, seed, False, monkeypatch)
                runs[f"{credits}/{seed}"] = {"routers": run["routers"],
                                             "links": run["links"]}
        assert _digest(runs) == CONTENDED_STATS

    def test_fig7_row_metrics(self):
        point = {"senders": [0], "probes_per_pair": 1}
        metrics = measure_rows_point(parse_config("2x2x2"), point, 0,
                                     {})["metrics"]
        assert _digest(metrics) == FIG7_ROW_METRICS

    def test_store_invalidating_three_sharers(self):
        # The LLC's Inv fan-out sends one Inv per sharer in the same
        # cycle: one to its own node, two across the bridge.
        proto = Prototype(parse_config("1x2x2"))
        addr = proto.address_homed_at(TileAddr(0, 1))
        for node, tile in ((0, 0), (1, 0), (1, 1)):
            proto.mem_access(node, tile, load(addr))
        _, cycles = proto.mem_access(0, 1, store(addr, b"\x55" * 8))
        assert sum(tile.bpc.invalidations
                   for tile in proto.all_tiles()) == 3
        stats = {"cycles": cycles, "now": proto.now}
        for node in proto.nodes:
            network = node.network
            stats[network.name] = stat_snapshot(network.stats)
            for router in network.routers:
                stats[router.name] = stat_snapshot(router.stats)
            for tile in node.tiles:
                stats[tile.llc.name] = stat_snapshot(tile.llc.stats)
        assert (cycles, proto.now) == (104, 411)
        assert _digest(stats) == INV_FANOUT_STATS


class TestLinkCounts:
    def test_no_counters_before_the_first_send(self):
        link = Link(Simulator(), "l", lambda m: None)
        assert link.stats.counters == {}
        assert link.stats.histograms == {}

    def test_zero_unit_send_creates_units(self):
        link = Link(Simulator(), "l", lambda m: None)
        link.send("m", units=0)
        assert link.stats.counters == {"messages": 1, "units": 0}

    def test_queueing_zero_bucket_is_the_messages_sent_at_once(self):
        sim = Simulator()
        link = Link(sim, "l", lambda m: None, cycles_per_unit=1.0)
        for _ in range(3):
            link.send("m", units=2)     # departs at 0, 2 and 4
        sim.schedule(10, link.send, "late", 1)
        sim.run()
        queueing = link.stats.histograms["queueing"]
        assert queueing.items() == [(0, 2), (2, 1), (4, 1)]
        assert link.stats.as_dict()["queueing.count"] == 4

    def test_observer_exports_link_stats_live(self):
        sim = Simulator(obs=Observer({}))
        link = Link(sim, "node0/l", lambda m: None)
        assert "node0.l.messages" not in sim.obs.export_metrics()
        link.send("m", units=3)
        metrics = sim.obs.export_metrics()
        assert metrics["node0.l.messages"] == 1
        assert metrics["node0.l.units"] == 3
        assert metrics["node0.l.queueing"]["counts"] == {"0": 1}


class TestComponentCounts:
    def test_forwarded_is_the_routers_link_messages(self):
        sim, net, received = build_network()
        net.inject(make_packet(TileAddr(0, 0), TileAddr(0, 3)), 0)
        sim.run()
        stats = [router.stats.counters for router in net.routers[:4]]
        assert [counts.get("forwarded") for counts in stats] == \
            [1, 1, 1, None]
        assert stats[0] == {"injected": 1, "forwarded": 1}
        assert stats[3] == {"received": 1, "ejected": 1}

    def test_histogram_is_listed_from_its_first_sample(self):
        group = StatGroup("g")
        hist = group.histogram("lat")
        assert group.histograms == {}
        hist.add(3)
        assert group.as_dict() == {"lat.mean": 3, "lat.count": 1}

    def test_crossbar_counts_are_its_ports_counts(self):
        sim = Simulator()
        xbar = AxiCrossbar(sim, "xbar")
        xbar.attach(Region(base=0, size=0x1000, name="lo"), EchoSlave())
        xbar.attach(Region(base=0x1000, size=0x1000, name="hi"),
                    EchoSlave())
        assert xbar.stats.counters == {}
        for addr in (0x0, 0x1000, 0x1040):
            xbar.axi_write(AxiWrite(addr=addr, data=b"x" * 8),
                           lambda resp: None)
        xbar.axi_read(AxiRead(addr=0x2000, length=8), lambda resp: None)
        sim.run()
        assert xbar.stats.counters == {"writes": 3, "decode_errors": 1}


CONTENDED_STATS = (
    "fe2dc226358b9c8e987845d3ab061aec7a73e44236149168856ad07281341f08")
FIG7_ROW_METRICS = (
    "630c4ee2a8df9d5dc3bf252c5da28acb04a331dea044572a0ea62e743416d84a")
INV_FANOUT_STATS = (
    "51be3dd58e22cd9271469c337bbb9312796abacf00c3650c823254d6b32a0ab0")
