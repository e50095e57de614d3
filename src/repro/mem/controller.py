"""NoC-AXI4 memory controller (paper Fig. 5).

BYOC's original memory controller speaks the native NoC protocol; F1 DRAM
wants AXI4.  This controller transduces between the two, mirroring the
paper's pipeline one-to-one:

* **NoC deserializer** — fixed ingress latency per request.
* **Management module** — buffers requests (non-blocking operation) and
  steers reads to the read engine, writes to the write engine.
* **Engines** — each owns a pool of AXI IDs; a request takes a free ID,
  records its MSHR (origin tile, original address/size) in the ID→MSHR map,
  and goes to the AXI port.  When the pool is dry the request waits in the
  engine queue, which is what bounds memory-level parallelism.
* **Alignment** — read requests are aligned to a 64-byte boundary to satisfy
  AXI4; on response the original byte window is selected out.
* **NoC serializer** — fixed egress latency per response.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, Optional, Union

from ..axi.messages import (AxiRead, AxiReadResp, AxiResp, AxiWrite,
                            AxiWriteResp, align_request)
from ..axi.port import AxiPort
from ..engine import Component, Simulator
from ..errors import ProtocolError
from ..noc import TileAddr
from .msgs import MemRead, MemReadResp, MemWrite, MemWriteAck

MemRequest = Union[MemRead, MemWrite]
MemResponse = Union[MemReadResp, MemWriteAck]

#: Callback used to return a response toward the requesting tile.
Responder = Callable[[MemResponse, TileAddr], None]


class _Mshr:
    """Miss-status holding register: everything needed to restore a reply."""

    __slots__ = ("request", "offset", "issued_at")

    def __init__(self, request: MemRequest, offset: int, issued_at: int):
        self.request = request
        self.offset = offset
        self.issued_at = issued_at


class _Engine:
    """Read or write engine: AXI ID pool + overflow queue."""

    def __init__(self, ids: int):
        self.free_ids = deque(range(ids))
        self.queue: deque = deque()
        self.mshrs: Dict[int, _Mshr] = {}

    @property
    def busy(self) -> int:
        return len(self.mshrs)


class NocAxiMemoryController(Component):
    """Transduces NoC memory messages into AXI4 bursts and back."""

    counted = ("reads", "writes")

    def __init__(self, sim: Simulator, name: str, axi_port: AxiPort,
                 respond: Responder, ingress_latency: int = 4,
                 egress_latency: int = 4, ids_per_engine: int = 16):
        super().__init__(sim, name)
        self.axi_port = axi_port
        self.respond = respond
        self.ingress_latency = ingress_latency
        self.egress_latency = egress_latency
        self._read_engine = _Engine(ids_per_engine)
        self._write_engine = _Engine(ids_per_engine)
        self._read_latency = self.stats.histogram("read_latency")
        self._write_latency = self.stats.histogram("write_latency")
        sim.obs.register_gauge(f"{name}.inflight", lambda: self.inflight,
                               category="mem")
        sim.obs.register_gauge(
            f"{name}.queued",
            lambda: len(self._read_engine.queue) + len(
                self._write_engine.queue),
            category="mem")

    # ------------------------------------------------------------------
    # NoC side
    # ------------------------------------------------------------------
    def handle_request(self, request: MemRequest) -> None:
        """Entry point: a deserialized NoC memory request."""
        self.schedule(self.ingress_latency, self._manage, request)

    def _manage(self, request: MemRequest) -> None:
        if isinstance(request, MemRead):
            self.reads += 1
            self._dispatch(self._read_engine, request)
        elif isinstance(request, MemWrite):
            self.writes += 1
            self._dispatch(self._write_engine, request)
        else:
            raise ProtocolError(f"{self.name}: unknown request {request!r}")

    def _dispatch(self, engine: _Engine, request: MemRequest) -> None:
        if not engine.free_ids:
            engine.queue.append(request)
            self.stats.inc("id_stalls")
            self.obs.mem_id_stall(
                self, "read" if engine is self._read_engine else "write")
            return
        self._issue(engine, request)

    def _issue(self, engine: _Engine, request: MemRequest) -> None:
        axi_id = engine.free_ids.popleft()
        if isinstance(request, MemRead):
            aligned_addr, aligned_size, offset = align_request(
                request.addr, request.size)
            engine.mshrs[axi_id] = _Mshr(request, offset, self.now)
            txn = AxiRead(addr=aligned_addr, length=aligned_size,
                          axi_id=axi_id)
            self.axi_port.read(
                txn, lambda resp, i=axi_id: self._read_done(i, resp))
        else:
            engine.mshrs[axi_id] = _Mshr(request, 0, self.now)
            txn = AxiWrite(addr=request.addr, data=request.data,
                           axi_id=axi_id)
            self.axi_port.write(
                txn, lambda resp, i=axi_id: self._write_done(i, resp))

    # ------------------------------------------------------------------
    # AXI side
    # ------------------------------------------------------------------
    def _read_done(self, axi_id: int, resp: AxiReadResp) -> None:
        mshr = self._retire(self._read_engine, axi_id, resp.resp)
        request = mshr.request
        window = resp.data[mshr.offset:mshr.offset + request.size]
        self._read_latency.add(self.now - mshr.issued_at)
        self.obs.mem_retire(self, "read", self.now - mshr.issued_at)
        reply = MemReadResp(uid=request.uid, addr=request.addr, data=window)
        self.schedule(self.egress_latency, self.respond, reply,
                      request.requester)

    def _write_done(self, axi_id: int, resp: AxiWriteResp) -> None:
        mshr = self._retire(self._write_engine, axi_id, resp.resp)
        request = mshr.request
        self._write_latency.add(self.now - mshr.issued_at)
        self.obs.mem_retire(self, "write", self.now - mshr.issued_at)
        reply = MemWriteAck(uid=request.uid, addr=request.addr)
        self.schedule(self.egress_latency, self.respond, reply,
                      request.requester)

    def _retire(self, engine: _Engine, axi_id: int, resp: AxiResp) -> _Mshr:
        mshr = engine.mshrs.pop(axi_id, None)
        if mshr is None:
            raise ProtocolError(f"{self.name}: response for free ID {axi_id}")
        if resp is not AxiResp.OKAY:
            raise ProtocolError(
                f"{self.name}: AXI error {resp} for {mshr.request!r}")
        engine.free_ids.append(axi_id)
        if engine.queue:
            self._issue(engine, engine.queue.popleft())
        return mshr

    @property
    def inflight(self) -> int:
        return self._read_engine.busy + self._write_engine.busy
