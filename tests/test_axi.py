"""Unit tests for the AXI4 transaction model, port, and crossbar."""

import pytest

from repro.axi import (AxiCrossbar, AxiPort, AxiRead, AxiReadResp, AxiResp,
                       AxiWrite, AxiWriteResp, Region, align_request)
from repro.engine import Simulator
from repro.errors import ConfigError, ProtocolError


class EchoSlave:
    """Records writes; reads return a repeating pattern."""

    def __init__(self):
        self.writes = []

    def axi_write(self, txn, reply):
        self.writes.append((txn.addr, txn.data))
        reply(AxiWriteResp(axi_id=txn.axi_id))

    def axi_read(self, txn, reply):
        data = bytes((txn.addr + i) % 256 for i in range(txn.length))
        reply(AxiReadResp(axi_id=txn.axi_id, data=data))


class TestMessages:
    def test_write_beats(self):
        assert AxiWrite(addr=0, data=b"x" * 64).beats == 1
        assert AxiWrite(addr=0, data=b"x" * 65).beats == 2

    def test_4k_boundary_enforced(self):
        with pytest.raises(ProtocolError):
            AxiWrite(addr=4096 - 32, data=b"x" * 64)
        with pytest.raises(ProtocolError):
            AxiRead(addr=4096 - 1, length=2)
        AxiRead(addr=4096, length=4096)  # exactly one page is fine

    def test_empty_write_rejected(self):
        with pytest.raises(ProtocolError):
            AxiWrite(addr=0, data=b"")

    def test_align_request(self):
        addr, size, offset = align_request(0x103, 8)
        assert addr == 0x100
        assert size == 64
        assert offset == 3

    def test_align_request_spanning_two_lines(self):
        addr, size, offset = align_request(0x13c, 16)
        assert addr == 0x100
        assert size == 128
        assert offset == 0x3c

    def test_align_request_already_aligned(self):
        assert align_request(0x140, 64) == (0x140, 64, 0)


class TestPort:
    def test_write_roundtrip(self):
        sim = Simulator()
        slave = EchoSlave()
        port = AxiPort(sim, "p", slave, latency=3)
        done = []
        port.write(AxiWrite(addr=0x40, data=b"hello world!!..."),
                   lambda resp: done.append(resp))
        sim.run()
        assert slave.writes == [(0x40, b"hello world!!...")]
        assert len(done) == 1
        assert done[0].resp is AxiResp.OKAY
        assert port.outstanding == 0

    def test_read_roundtrip(self):
        sim = Simulator()
        port = AxiPort(sim, "p", EchoSlave(), latency=3)
        got = []
        port.read(AxiRead(addr=0x10, length=4), lambda r: got.append(r.data))
        sim.run()
        assert got == [bytes([0x10, 0x11, 0x12, 0x13])]

    def test_multiple_outstanding(self):
        sim = Simulator()
        port = AxiPort(sim, "p", EchoSlave(), latency=3)
        got = []
        for i in range(5):
            port.read(AxiRead(addr=64 * i, length=1),
                      lambda r, i=i: got.append(i))
        sim.run()
        assert sorted(got) == [0, 1, 2, 3, 4]

    def test_duplicate_uid_rejected(self):
        port = AxiPort(Simulator(), "p", EchoSlave())
        txn = AxiWrite(addr=0, data=b"x" * 64)
        port.write(txn, lambda resp: None)
        with pytest.raises(ProtocolError, match="duplicate write uid"):
            port.write(txn, lambda resp: None)

    def test_latency_applied_both_ways(self):
        sim = Simulator()
        port = AxiPort(sim, "p", EchoSlave(), latency=5, cycles_per_beat=0.0)
        times = []
        port.read(AxiRead(addr=0, length=1), lambda r: times.append(sim.now))
        sim.run()
        assert times[0] >= 10  # request latency + response latency


class TestCrossbar:
    def build(self):
        sim = Simulator()
        xbar = AxiCrossbar(sim, "xbar")
        lo, hi = EchoSlave(), EchoSlave()
        xbar.attach(Region(base=0, size=0x1000, name="lo"), lo)
        xbar.attach(Region(base=0x1000, size=0x1000, name="hi"), hi)
        return sim, xbar, lo, hi

    def test_decodes_by_address(self):
        sim, xbar, lo, hi = self.build()
        xbar.axi_write(AxiWrite(addr=0x20, data=b"a" * 8), lambda r: None)
        xbar.axi_write(AxiWrite(addr=0x1020, data=b"b" * 8), lambda r: None)
        sim.run()
        assert lo.writes == [(0x20, b"a" * 8)]
        assert hi.writes == [(0x1020, b"b" * 8)]

    def test_decode_error_on_unmapped(self):
        sim, xbar, _, _ = self.build()
        resps = []
        xbar.axi_read(AxiRead(addr=0x9000, length=4), resps.append)
        sim.run()
        assert resps[0].resp is AxiResp.DECERR

    def test_overlapping_regions_rejected(self):
        sim = Simulator()
        xbar = AxiCrossbar(sim, "xbar")
        xbar.attach(Region(base=0, size=0x1000), EchoSlave())
        with pytest.raises(ConfigError):
            xbar.attach(Region(base=0x800, size=0x1000), EchoSlave())

    def test_region_contains(self):
        region = Region(base=0x100, size=0x100)
        assert region.contains(0x100)
        assert region.contains(0x1ff)
        assert not region.contains(0x200)
        assert not region.contains(0xff)
