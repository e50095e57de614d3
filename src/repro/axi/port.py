"""AXI transport: a master-to-slave connection with latency and bandwidth.

An :class:`AxiPort` carries burst transactions from one master to one slave
and routes responses back to per-transaction callbacks.  Both directions are
serializing :class:`~repro.engine.Link`\\ s, so a port models a real AXI
channel's occupancy (one beat per cycle by default).

A *slave* is any object implementing the :class:`AxiSlave` duck type::

    def axi_write(self, txn: AxiWrite, reply: Callable[[AxiWriteResp], None])
    def axi_read(self, txn: AxiRead, reply: Callable[[AxiReadResp], None])

``reply`` may be called immediately or after scheduling internal work.
"""

from __future__ import annotations

from typing import Callable, Dict, Protocol

from ..engine import Component, Link, Simulator
from ..errors import ProtocolError
from .messages import (AxiRead, AxiReadResp, AxiWrite, AxiWriteResp)

WriteCallback = Callable[[AxiWriteResp], None]
ReadCallback = Callable[[AxiReadResp], None]


class AxiSlave(Protocol):
    """Duck type every AXI slave implements."""

    def axi_write(self, txn: AxiWrite, reply: WriteCallback) -> None: ...

    def axi_read(self, txn: AxiRead, reply: ReadCallback) -> None: ...


class AxiPort(Component):
    """Point-to-point AXI master port bound to one slave."""

    counted = ("writes", "reads")

    def __init__(self, sim: Simulator, name: str, slave: AxiSlave,
                 latency: int = 2, cycles_per_beat: float = 1.0):
        super().__init__(sim, name)
        self.slave = slave
        self._req_link = Link(sim, f"{name}.req", self._deliver_request,
                              latency=latency, cycles_per_unit=cycles_per_beat,
                              category="axi")
        self._resp_link = Link(sim, f"{name}.resp", self._deliver_response,
                               latency=latency, cycles_per_unit=cycles_per_beat,
                               category="axi")
        self._write_waiters: Dict[int, WriteCallback] = {}
        self._read_waiters: Dict[int, ReadCallback] = {}
        sim.obs.register_gauge(f"{name}.outstanding", lambda: self.outstanding,
                               category="axi")

    # ------------------------------------------------------------------
    # Master-side API
    # ------------------------------------------------------------------
    def write(self, txn: AxiWrite, on_resp: WriteCallback) -> None:
        if txn.uid in self._write_waiters:
            raise ProtocolError(f"{self.name}: duplicate write uid {txn.uid}")
        self._write_waiters[txn.uid] = on_resp
        self.writes += 1
        self.obs.axi_txn(self, "write", txn)
        self._req_link.send(txn, units=1 + txn.beats)

    def read(self, txn: AxiRead, on_resp: ReadCallback) -> None:
        if txn.uid in self._read_waiters:
            raise ProtocolError(f"{self.name}: duplicate read uid {txn.uid}")
        self._read_waiters[txn.uid] = on_resp
        self.reads += 1
        self.obs.axi_txn(self, "read", txn)
        self._req_link.send(txn, units=1)

    @property
    def outstanding(self) -> int:
        return len(self._write_waiters) + len(self._read_waiters)

    # ------------------------------------------------------------------
    # Transport internals
    # ------------------------------------------------------------------
    def _deliver_request(self, txn) -> None:
        # Transactions travel bare on the link (single-payload fast path);
        # the message class itself is the write/read discriminator.
        if isinstance(txn, AxiWrite):
            self.slave.axi_write(
                txn, lambda resp, uid=txn.uid: self._send_write_resp(uid, resp))
        else:
            self.slave.axi_read(
                txn, lambda resp, uid=txn.uid: self._send_read_resp(uid, resp))

    def _send_write_resp(self, uid: int, resp: AxiWriteResp) -> None:
        resp.uid = uid
        self._resp_link.send(resp, units=1)

    def _send_read_resp(self, uid: int, resp: AxiReadResp) -> None:
        resp.uid = uid
        self._resp_link.send(resp, units=resp.beats)

    def _deliver_response(self, resp) -> None:
        waiters = (self._write_waiters if isinstance(resp, AxiWriteResp)
                   else self._read_waiters)
        callback = waiters.pop(resp.uid, None)
        if callback is None:
            raise ProtocolError(
                f"{self.name}: response for unknown txn uid {resp.uid}")
        callback(resp)
