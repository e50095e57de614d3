"""Unit tests for the NoC: topology, routing, delivery, credits."""

import random

import pytest

from credit_reference import return_credits_as_events
from repro.engine import Simulator
from repro.errors import ConfigError, ProtocolError
from repro.noc import (CHIPSET, Direction, Mesh, MsgClass, NocChannel,
                       NodeNetwork, Packet, TileAddr, data_flits)
from repro.noc.topology import OPPOSITE


def make_packet(src, dst, channel=NocChannel.REQ, payload=None, flits=0):
    return Packet(src=src, dst=dst, channel=channel,
                  msg_class=MsgClass.PING, payload=payload,
                  payload_flits=flits)


class TestMesh:
    def test_for_tiles_near_square(self):
        assert Mesh.for_tiles(12).width == 4
        assert Mesh.for_tiles(12).height == 3
        assert Mesh.for_tiles(2).width == 2
        assert Mesh.for_tiles(1).width == 1

    def test_coords_roundtrip(self):
        mesh = Mesh.for_tiles(12)
        for tile in mesh.all_tiles():
            x, y = mesh.coords(tile)
            assert mesh.tile_at(x, y) == tile

    def test_ragged_last_row(self):
        mesh = Mesh.for_tiles(10)  # 4 wide, 3 tall, last row has 2
        assert mesh.height == 3
        assert mesh.has_tile(1, 2)
        assert not mesh.has_tile(2, 2)

    def test_neighbors_of_corner(self):
        mesh = Mesh.for_tiles(12)
        neighbors = dict(mesh.neighbors(0))
        assert neighbors == {Direction.EAST: 1, Direction.SOUTH: 4}

    def test_route_step_x_then_y(self):
        mesh = Mesh.for_tiles(12)  # 4x3
        # tile 0 at (0,0), tile 11 at (3,2): go east first
        assert mesh.route_step(0, 11) == Direction.EAST
        assert mesh.route_step(3, 11) == Direction.SOUTH
        assert mesh.route_step(11, 11) == Direction.LOCAL

    def test_hop_count_manhattan(self):
        mesh = Mesh.for_tiles(12)
        assert mesh.hop_count(0, 11) == 5
        assert mesh.hop_count(0, 0) == 0

    def test_for_tiles_is_one_mesh_per_count(self):
        assert Mesh.for_tiles(12) is Mesh.for_tiles(12)
        assert Mesh.for_tiles(10) is not Mesh.for_tiles(12)

    def test_invalid_tile_rejected(self):
        with pytest.raises(ConfigError):
            Mesh.for_tiles(0)
        with pytest.raises(ConfigError):
            Mesh.for_tiles(4).coords(4)

    def test_data_flits(self):
        assert data_flits(0) == 0
        assert data_flits(1) == 1
        assert data_flits(8) == 1
        assert data_flits(64) == 8


def quiescent(routers):
    """Every output port holds all its credits and nothing waits."""
    return all(not port.waiting
               and port.credits + len(port.due) == port.max_credits
               for router in routers for port in router._ports)


def build_network(n_tiles=12, node_id=0, sim=None, **kwargs):
    if sim is None:
        sim = Simulator()
    net = NodeNetwork(sim, f"n{node_id}", node_id, n_tiles, **kwargs)
    received = []

    def make_handler(tile):
        def handler(packet):
            received.append((sim.now, tile, packet))
        return handler

    for tile in range(n_tiles):
        for channel in NocChannel:
            net.register_endpoint(tile, channel, make_handler(tile))
    return sim, net, received


class TestNodeNetwork:
    def test_delivery_same_tile_adjacent(self):
        sim, net, received = build_network()
        pkt = make_packet(TileAddr(0, 0), TileAddr(0, 1))
        net.inject(pkt, 0)
        sim.run()
        assert len(received) == 1
        _, tile, got = received[0]
        assert tile == 1 and got is pkt
        assert got.hops == 1

    def test_all_pairs_delivery(self):
        sim, net, received = build_network(n_tiles=12)
        count = 0
        for src in range(12):
            for dst in range(12):
                if src == dst:
                    continue
                net.inject(make_packet(TileAddr(0, src), TileAddr(0, dst)), src)
                count += 1
        sim.run()
        assert len(received) == count
        # every packet landed at its own destination
        for _, tile, pkt in received:
            assert pkt.dst.tile == tile

    def test_latency_grows_with_distance(self):
        sim, net, received = build_network(n_tiles=12)
        net.inject(make_packet(TileAddr(0, 1), TileAddr(0, 2)), 1)
        sim.run()
        near = received[-1][0]
        start = sim.now
        net.inject(make_packet(TileAddr(0, 1), TileAddr(0, 11)), 1)
        sim.run()
        far = sim.now - start
        assert far > near

    def test_hops_match_manhattan_distance(self):
        sim, net, received = build_network(n_tiles=12)
        net.inject(make_packet(TileAddr(0, 0), TileAddr(0, 11)), 0)
        sim.run()
        assert received[0][2].hops == net.hop_count(0, 11)

    def test_chipset_packets_reach_chipset_sink(self):
        sim, net, _ = build_network()
        chipset_got = []
        net.set_chipset_sink(chipset_got.append)
        pkt = make_packet(TileAddr(0, 5), TileAddr(0, CHIPSET))
        net.inject(pkt, 5)
        sim.run()
        assert chipset_got == [pkt]

    def test_inter_node_packets_reach_bridge_sink(self):
        sim, net, _ = build_network()
        bridge_got = []
        net.set_bridge_sink(bridge_got.append)
        pkt = make_packet(TileAddr(0, 5), TileAddr(3, 2))
        net.inject(pkt, 5)
        sim.run()
        assert bridge_got == [pkt]

    def test_edge_injection_reaches_destination_tile(self):
        sim, net, received = build_network()
        pkt = make_packet(TileAddr(3, 2), TileAddr(0, 7), NocChannel.RESP)
        net.inject_from_edge(pkt)
        sim.run()
        assert [(t, p) for _, t, p in received] == [(7, pkt)]

    def test_missing_bridge_raises(self):
        sim, net, _ = build_network()
        net.inject(make_packet(TileAddr(0, 1), TileAddr(2, 0)), 1)
        with pytest.raises(ProtocolError):
            sim.run()

    def test_inject_from_wrong_node_rejected(self):
        sim, net, _ = build_network()
        pkt = make_packet(TileAddr(9, 0), TileAddr(0, 1))
        with pytest.raises(ProtocolError, match="wrong node"):
            net.inject(pkt, 0)
        assert net.stats.counters == {}

    def test_single_tile_node_chipset_path(self):
        sim = Simulator()
        net = NodeNetwork(sim, "n0", 0, 1)
        got = []
        net.set_chipset_sink(got.append)
        for channel in NocChannel:
            net.register_endpoint(0, channel, lambda p: None)
        pkt = make_packet(TileAddr(0, 0), TileAddr(0, CHIPSET))
        net.inject(pkt, 0)
        sim.run()
        assert got == [pkt]

    def test_heavy_fanin_still_delivers_everything(self):
        # 11 tiles hammer tile 0 with multi-flit packets; credits must not
        # deadlock or drop anything.
        sim, net, received = build_network(n_tiles=12)
        total = 0
        for src in range(1, 12):
            for _ in range(20):
                net.inject(make_packet(TileAddr(0, src), TileAddr(0, 0),
                                       flits=8), src)
                total += 1
        sim.run()
        assert len(received) == total
        assert quiescent(net.routers)

    def test_credit_stalls_counted_under_contention(self):
        sim, net, _ = build_network(n_tiles=12)
        for src in range(1, 12):
            for _ in range(50):
                net.inject(make_packet(TileAddr(0, src), TileAddr(0, 0),
                                       flits=8), src)
        sim.run()
        stats = net.router_stats()
        assert stats.get("credit_stalls", 0) > 0


class TestSameCycleOrder:
    def test_arrival_routes_before_a_same_cycle_inject(self):
        # Tile 0's packet reaches tile 1's routing stage at cycle 6
        # (routed at 2, one flit on the wire, arrives at 4, plus the
        # 2-cycle pipeline); tile 1 injects its own packet at cycle 4, so
        # it reaches the routing stage at 6 too.  Both leave east on the
        # same port.  The inject was scheduled first, but the arrival was
        # queued when it left tile 0, before the inject happened, so the
        # arrival takes the port first.
        sim, net, received = build_network()
        from_neighbor = make_packet(TileAddr(0, 0), TileAddr(0, 3),
                                    payload="arrival")
        injected = make_packet(TileAddr(0, 1), TileAddr(0, 3),
                               payload="inject")
        sim.schedule(4, net.inject, injected, 1)
        net.inject(from_neighbor, 0)
        sim.run()
        assert [(cycle, packet.payload) for cycle, _tile, packet
                in received] == [(14, "arrival"), (15, "inject")]


def schedule_hotspot_traffic(sim, net, seed):
    """400 seeded packets on one 12-tile node: half of them go to one
    hot tile, injected over the first 300 cycles."""
    rng = random.Random(seed)
    hot = rng.randrange(12)
    for index in range(400):
        src = rng.randrange(12)
        dst = hot if rng.random() < 0.5 else rng.randrange(12)
        if dst == src:
            dst = (src + 1) % 12
        packet = make_packet(TileAddr(0, src), TileAddr(0, dst),
                             channel=rng.choice(list(NocChannel)),
                             payload=index, flits=rng.choice((0, 1, 4, 8)))
        sim.schedule(rng.randrange(300), net.inject, packet, src)


def _contended_run(credits, seed, reference, monkeypatch, hop_latency=2):
    """Seeded hotspot traffic on one 12-tile node; everything a lazy
    credit could disturb: deliveries in order, router and link stats,
    the stop clock of every ``run_until`` quantum and the final clock."""
    if reference:
        return_credits_as_events(monkeypatch)
    sim, net, received = build_network(credits=credits,
                                       hop_latency=hop_latency)
    schedule_hotspot_traffic(sim, net, seed)
    clocks = []
    for bound in range(23, 1500, 23):
        sim.run_until(bound)
        clocks.append(sim.now)
    sim.run()
    clocks.append(sim.now)
    assert quiescent(net.routers)
    return {
        "deliveries": [(cycle, tile, packet.payload)
                       for cycle, tile, packet in received],
        "routers": [stat_snapshot(router.stats) for router in net.routers],
        "links": [stat_snapshot(port.link.stats) for router in net.routers
                  for port in router._ports],
        "clocks": clocks,
    }


def stat_snapshot(group):
    """A stat group's counters and full histograms, as plain dicts."""
    return {"counters": dict(group.counters),
            "histograms": {key: hist.to_dict()
                           for key, hist in group.histograms.items()}}


class TestLazyCredits:
    """Recorded credits against ``tests/credit_reference.py``, which
    returns every credit as an event."""

    @pytest.mark.parametrize("credits", [1, 2])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_same_run_as_credit_events(self, credits, seed, monkeypatch):
        lazy = _contended_run(credits, seed, False, monkeypatch)
        eager = _contended_run(credits, seed, True, monkeypatch)
        stalls = sum(stats["counters"].get("credit_stalls", 0)
                     for stats in lazy["routers"])
        assert stalls > 50
        assert lazy == eager

    def test_same_run_at_one_cycle_hop_latency(self, monkeypatch):
        lazy = _contended_run(1, 3, False, monkeypatch, hop_latency=1)
        eager = _contended_run(1, 3, True, monkeypatch, hop_latency=1)
        assert lazy == eager

    def test_waiting_packets_make_credits_events(self):
        sim, net, _ = build_network(credits=1)
        for _ in range(6):
            net.inject(make_packet(TileAddr(0, 0), TileAddr(0, 1), flits=4),
                       0)
        sim.run()
        # Five packets waited at tile 0, each released by a credit event:
        # one event per packet for the inject lane and the hop, plus five.
        assert sim.events_executed == 6 + 6 + 5
        assert net.routers[0].stats.get("credit_stalls") == 5
        assert quiescent(net.routers)

    def test_trailing_credit_sets_the_final_clock(self):
        sim, net, received = build_network()
        net.inject(make_packet(TileAddr(0, 0), TileAddr(0, 1)), 0)
        sim.run()
        # Delivered at 6; the credit it returned lands at 7, which the
        # credit event of the three-event hop used to leave in sim.now.
        assert received[0][0] == 6
        assert sim.now == 7
        assert sim.events_executed == 2

    def test_fig7_shard_returns_every_credit(self):
        from repro import parse_config
        from repro.core.prototype import Prototype

        config = parse_config("4x1x12")
        proto = Prototype(config)
        for sender in range(4):
            for receiver in range(config.total_tiles):
                proto.measure_pair_latency(sender, receiver)
        routers = [router for node in proto.nodes
                   for router in node.network.routers]
        assert len(routers) == 48
        assert quiescent(routers)


#: First credit-event priority (``repro.noc.router``); a port's priority
#: adds its (node, tile, direction, channel) fields to it.
CREDIT_FIRST = -(1 << 62)


class TestWiring:
    """Routers wired from :attr:`Mesh.ports` match a full scan."""

    @staticmethod
    def _scanned(router, mesh):
        """Route rows and credit priorities of ``router``'s ports, built
        by scanning every destination for each port: a port takes each
        tile whose step from the router is its direction, and, off tile
        0, the way off the node when the step toward tile 0 is."""
        tile = router.tile
        steps = [mesh.route_step(tile, dest) for dest in range(mesh.n_tiles)]
        rows = {}
        for channel in NocChannel:
            row = rows[channel] = [None] * (mesh.n_tiles + 1)
            row[tile] = "eject"
            if tile == 0:
                row[CHIPSET] = "offchip"
        orders = []
        for port in router._ports:
            row = rows[port.channel]
            for dest, step in enumerate(steps):
                if step is port.direction:
                    row[dest] = port
            if tile != 0 and steps[0] is port.direction:
                row[CHIPSET] = port
            orders.append(CREDIT_FIRST + (router.node_id << 21) + (tile << 5)
                          + (list(Direction).index(port.direction) << 2)
                          + port.channel.value)
        return [rows[channel] for channel in NocChannel], orders

    def test_route_rows_and_credit_order_match_a_full_scan(self):
        for n_tiles in range(1, 21):   # ragged meshes (3, 5, 8, 10...) too
            net = NodeNetwork(Simulator(), "n3/noc", 3, n_tiles)
            mesh = net.mesh
            for router in net.routers:
                neighbors = list(mesh.neighbors(router.tile))
                assert [(port.direction, port.channel)
                        for port in router._ports] == [
                    (direction, channel) for direction, _ in neighbors
                    for channel in NocChannel]
                rows, orders = self._scanned(router, mesh)
                assert router._routes[1:] == rows, (n_tiles, router.tile)
                assert [port.order for port in router._ports] == orders
                for port in router._ports:
                    neighbor = net.routers[dict(neighbors)[port.direction]]
                    assert port.link.name == (
                        f"{router.name}.{port.direction.value}."
                        f"{port.channel.name}")
                    assert port.link.sink.func == neighbor._arrive
                    assert port.link.sink.args == (port,)
                    assert port.enters_from is OPPOSITE[port.direction]


class TestRaggedRouting:
    """Boundary-aware XY routing on meshes with a partial last row."""

    def _walk(self, mesh, src, dst):
        """Follow route_step hop by hop; return the path of tile indices."""
        path = [src]
        here = src
        while here != dst:
            step = mesh.route_step(here, dst)
            assert step != Direction.LOCAL
            moves = dict(mesh.neighbors(here))
            # The chosen direction must point at a tile that exists —
            # this is exactly what broke on ragged meshes.
            assert step in moves, \
                f"route {src}->{dst} stepped {step} off tile {here}"
            here = moves[step]
            path.append(here)
            assert len(path) <= mesh.width + mesh.height + 1
        return path

    def test_all_pairs_reach_destination_on_ragged_meshes(self):
        for n_tiles in (3, 5, 7, 8, 11, 13):
            mesh = Mesh.for_tiles(n_tiles)
            assert mesh.width * mesh.height > n_tiles  # really ragged
            for src in range(n_tiles):
                for dst in range(n_tiles):
                    path = self._walk(mesh, src, dst)
                    assert path[-1] == dst

    def test_detour_stays_minimal(self):
        # The NORTH detour around a hole must not lengthen the path:
        # hop count stays the Manhattan distance.
        for n_tiles in (5, 7, 8, 11):
            mesh = Mesh.for_tiles(n_tiles)
            for src in range(n_tiles):
                for dst in range(n_tiles):
                    path = self._walk(mesh, src, dst)
                    assert len(path) - 1 == mesh.hop_count(src, dst)

    def test_step_table_matches_route_step(self):
        mesh = Mesh.for_tiles(8)
        for here in range(8):
            for dest in range(8):
                assert mesh.step_table[here][dest] == \
                    mesh.route_step(here, dest)

    def test_ragged_node_delivers_all_pairs(self):
        # 8 tiles on a 3-wide mesh: tile 8 (position (2, 2)) is a hole.
        sim = Simulator()
        net = NodeNetwork(sim, "n0", 0, 8)
        got = []
        for tile in range(8):
            net.register_endpoint(tile, NocChannel.REQ,
                                  lambda p, t=tile: got.append((t, p.payload)))
        for src in range(8):
            for dst in range(8):
                if src != dst:
                    net.inject(make_packet(TileAddr(0, src),
                                           TileAddr(0, dst),
                                           payload=(src, dst)), src)
        sim.run()
        assert sorted(p for _t, p in got) == sorted(
            (s, d) for s in range(8) for d in range(8) if s != d)

    def test_ragged_prototype_pair_latency(self):
        # End-to-end regression: this exact call crashed with
        # "no port Direction.EAST" before boundary-aware routing.
        from repro import build

        proto = build("1x1x8")
        assert proto.measure_pair_latency(5, 6) > 0
        assert proto.measure_pair_latency(6, 5) > 0
