"""AXI4 address-decoded crossbar.

SMAPPIC connects nodes on the same FPGA through an AXI4 crossbar and nodes
on different FPGAs through the Hard Shell's AXI4-PCIe transducer (paper
Sec. 3.1).  The crossbar here is itself an AXI slave; it decodes the target
address against its region table and forwards the transaction over the
matching downstream port.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..engine import Component, Simulator
from ..errors import ConfigError
from .messages import (AxiRead, AxiReadResp, AxiResp, AxiWrite, AxiWriteResp)
from .port import AxiPort, AxiSlave, ReadCallback, WriteCallback


@dataclass(frozen=True)
class Region:
    """A decoded address window [base, base+size) owned by one slave."""

    base: int
    size: int
    name: str = ""

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.base + self.size

    def overlaps(self, other: "Region") -> bool:
        return (self.base < other.base + other.size
                and other.base < self.base + self.size)


class AxiCrossbar(Component):
    """N-region address-decoding AXI interconnect (an AxiSlave itself).

    Its ``writes`` and ``reads`` are derived at export: each one is a
    write or read on one of its own downstream ports.
    """

    def __init__(self, sim: Simulator, name: str, latency: int = 1,
                 cycles_per_beat: float = 1.0):
        super().__init__(sim, name)
        self._latency = latency
        self._cycles_per_beat = cycles_per_beat
        self._regions: List[Region] = []
        self._ports: List[AxiPort] = []

    def attach(self, region: Region, slave: AxiSlave) -> None:
        """Map ``region`` to ``slave``.  Regions must not overlap."""
        for existing in self._regions:
            if existing.overlaps(region):
                raise ConfigError(
                    f"{self.name}: region {region} overlaps {existing}")
        port = AxiPort(self.sim, f"{self.name}.{region.name or len(self._ports)}",
                       slave, latency=self._latency,
                       cycles_per_beat=self._cycles_per_beat)
        self._regions.append(region)
        self._ports.append(port)

    def export_counters(self, counters) -> None:
        super().export_counters(counters)
        writes = sum(port.writes for port in self._ports)
        if writes:
            counters["writes"] = writes
        reads = sum(port.reads for port in self._ports)
        if reads:
            counters["reads"] = reads

    def _decode(self, addr: int):
        for region, port in zip(self._regions, self._ports):
            if region.contains(addr):
                return region, port
        return None, None

    # ------------------------------------------------------------------
    # AxiSlave interface
    # ------------------------------------------------------------------
    def axi_write(self, txn: AxiWrite, reply: WriteCallback) -> None:
        region, port = self._decode(txn.addr)
        if port is None:
            self.stats.inc("decode_errors")
            self.obs.axi_route(self, "write", txn, None)
            reply(AxiWriteResp(axi_id=txn.axi_id, resp=AxiResp.DECERR))
            return
        self.obs.axi_route(self, "write", txn, region.name)
        port.write(txn, reply)

    def axi_read(self, txn: AxiRead, reply: ReadCallback) -> None:
        region, port = self._decode(txn.addr)
        if port is None:
            self.stats.inc("decode_errors")
            self.obs.axi_route(self, "read", txn, None)
            reply(AxiReadResp(axi_id=txn.axi_id, data=b"",
                              resp=AxiResp.DECERR))
            return
        self.obs.axi_route(self, "read", txn, region.name)
        port.read(txn, reply)
