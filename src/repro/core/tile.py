"""One tile: network interface + L1 + BPC + LLC slice + core/device slot.

The tile's network interface (NIU) is the dispatch point between the NoC
and the tile's internals:

* REQ channel  -> LLC slice (GetS/GetM homed here), device MMIO requests,
  latency-probe requests;
* RESP channel -> BPC (data/probes), LLC (memory responses), core (MMIO
  responses), probe responses;
* WB channel   -> LLC slice (PutM/InvAck/DowngradeData).

A tile hosts either a core (behind the TRI) or an accelerator device
occupying its MMIO window — mirroring how the GNG and MAPLE case studies
place accelerators in tiles (paper Secs. 4.2, 4.3).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Protocol

from ..cache import Bpc, L1Cache, LlcSlice, MemOp
from ..cache.msgs import (CoherenceMsg, DataM, DataS, Downgrade,
                          DowngradeData, GetM, GetS, Inv, InvAck, PutM, WbAck)
from ..engine import Component, Simulator
from ..errors import ProtocolError
from ..mem.msgs import MemRead, MemReadResp, MemWrite, MemWriteAck
from ..noc import CHIPSET, MsgClass, NocChannel, Packet, TileAddr, data_flits
from .nc import NcRead, NcResponse, NcWrite, PingReq, PingResp

_BPC_MSGS = (DataS, DataM, WbAck, Inv, Downgrade)
_LLC_REQS = (GetS, GetM, PutM, InvAck, DowngradeData)


class MmioDevice(Protocol):
    """Duck type for tile-resident devices (accelerators)."""

    def nc_read(self, offset: int, size: int,
                reply: Callable[[bytes], None]) -> None: ...

    def nc_write(self, offset: int, data: bytes,
                 reply: Callable[[], None]) -> None: ...


class Tile(Component):
    """A tile of one node."""

    def __init__(self, sim: Simulator, name: str, addr: TileAddr,
                 node: "Node", homing, params):
        super().__init__(sim, name)
        self.addr = addr
        self.node = node
        self.homing = homing
        self.bpc = Bpc(sim, f"{name}/bpc", addr, homing,
                       self.send_coherence,
                       size_bytes=params.bpc_bytes, ways=params.bpc_ways)
        self.l1 = L1Cache(sim, f"{name}/l1d", self.bpc,
                          size_bytes=params.l1d_bytes, ways=params.l1d_ways)
        self.llc = LlcSlice(sim, f"{name}/llc", addr, self.send_coherence,
                            self.send_mem,
                            memory_node=self._memory_node_of,
                            size_bytes=params.llc_slice_bytes,
                            ways=params.llc_ways)
        self.device: Optional[MmioDevice] = None
        self.core = None
        self._nc_waiters: Dict[int, Callable] = {}
        self._ping_waiters: Dict[int, Callable] = {}
        self._irq_sink: Optional[Callable] = None
        #: Fixed cost of the probe responder (models the remote tile's NIU).
        self.ping_latency = 4
        network = node.network
        network.register_endpoint(addr.tile, NocChannel.REQ, self._on_req)
        network.register_endpoint(addr.tile, NocChannel.RESP, self._on_resp)
        network.register_endpoint(addr.tile, NocChannel.WB, self._on_wb)

    # ------------------------------------------------------------------
    # Attachments
    # ------------------------------------------------------------------
    def attach_device(self, device: MmioDevice) -> None:
        self.device = device

    def attach_core(self, core) -> None:
        self.core = core

    def set_irq_sink(self, sink: Callable) -> None:
        """Interrupt depacketizer hook (INTERRUPT-class packets)."""
        self._irq_sink = sink

    # ------------------------------------------------------------------
    # Outbound helpers
    # ------------------------------------------------------------------
    def send_coherence(self, msg: CoherenceMsg, dst: TileAddr) -> None:
        packet = Packet(src=self.addr, dst=dst, channel=msg.channel,
                        msg_class=MsgClass.COHERENCE, payload=msg,
                        payload_flits=msg.payload_flits())
        self.node.network.inject(packet, self.addr.tile)

    def send_mem(self, request, node_id: int) -> None:
        flits = 1 + (data_flits(len(request.data))
                     if isinstance(request, MemWrite) else 0)
        packet = Packet(src=self.addr, dst=TileAddr(node_id, CHIPSET),
                        channel=NocChannel.REQ, msg_class=MsgClass.MEMORY,
                        payload=request, payload_flits=flits)
        self.node.network.inject(packet, self.addr.tile)

    def _memory_node_of(self, line: int) -> int:
        return self.homing.memory_node_of(line, self.addr)

    # ------------------------------------------------------------------
    # Core-facing access paths
    # ------------------------------------------------------------------
    def mem_access(self, op: MemOp, on_done: Callable) -> None:
        """Cacheable access through L1 -> BPC -> coherence fabric."""
        self.l1.access(op, on_done)

    def nc_access(self, dst: TileAddr, request, on_done: Callable) -> None:
        """Send an MMIO request to another tile's (or chipset's) device."""
        self._nc_waiters[request.uid] = on_done
        flits = 1 + (data_flits(len(request.data))
                     if isinstance(request, NcWrite) else 0)
        packet = Packet(src=self.addr, dst=dst, channel=NocChannel.REQ,
                        msg_class=MsgClass.IO, payload=request,
                        payload_flits=flits)
        self.node.network.inject(packet, self.addr.tile)

    def ping(self, dst: TileAddr, on_done: Callable) -> None:
        """NoC-level round trip to another tile (probe machinery)."""
        request = PingReq(requester=self.addr)
        self._ping_waiters[request.uid] = on_done
        packet = Packet(src=self.addr, dst=dst, channel=NocChannel.REQ,
                        msg_class=MsgClass.PING, payload=request,
                        payload_flits=1)
        self.node.network.inject(packet, self.addr.tile)

    # ------------------------------------------------------------------
    # NIU dispatch
    # ------------------------------------------------------------------
    def _on_req(self, packet: Packet) -> None:
        payload = packet.payload
        if isinstance(payload, _LLC_REQS):
            self.llc.handle_request(payload)
        elif isinstance(payload, (NcRead, NcWrite)):
            self._device_request(payload)
        elif isinstance(payload, PingReq):
            self.schedule(self.ping_latency, self._pong, payload)
        else:
            raise ProtocolError(f"{self.name}: bad REQ payload {payload!r}")

    def _on_resp(self, packet: Packet) -> None:
        payload = packet.payload
        if isinstance(payload, _BPC_MSGS):
            self.bpc.handle_msg(payload)
        elif isinstance(payload, (MemReadResp, MemWriteAck)):
            self.llc.handle_mem_resp(payload)
        elif isinstance(payload, NcResponse):
            waiter = self._nc_waiters.pop(payload.uid, None)
            if waiter is None:
                raise ProtocolError(f"{self.name}: stray NC response")
            waiter(payload.data)
        elif isinstance(payload, PingResp):
            waiter = self._ping_waiters.pop(payload.uid, None)
            if waiter is None:
                raise ProtocolError(f"{self.name}: stray ping response")
            waiter()
        elif packet.msg_class is MsgClass.INTERRUPT:
            if self._irq_sink is None:
                raise ProtocolError(f"{self.name}: no interrupt sink")
            self._irq_sink(payload)
        else:
            raise ProtocolError(f"{self.name}: bad RESP payload {payload!r}")

    def _on_wb(self, packet: Packet) -> None:
        payload = packet.payload
        if isinstance(payload, _LLC_REQS):
            self.llc.handle_request(payload)
        else:
            raise ProtocolError(f"{self.name}: bad WB payload {payload!r}")

    # ------------------------------------------------------------------
    # Device plumbing
    # ------------------------------------------------------------------
    def _device_request(self, request) -> None:
        if self.device is None:
            raise ProtocolError(f"{self.name}: MMIO request but no device")
        # Devices that care about *who* is accessing them (e.g. engines
        # binding state to a core) read this documented attribute; it holds
        # the tile address the request came from.
        self.device.last_requester = request.requester
        if isinstance(request, NcRead):
            self.device.nc_read(
                request.offset, request.size,
                lambda data, r=request: self._device_reply(r, data))
        else:
            self.device.nc_write(
                request.offset, request.data,
                lambda r=request: self._device_reply(r, b""))

    def _device_reply(self, request, data: bytes) -> None:
        response = NcResponse(uid=request.uid, data=data)
        packet = Packet(src=self.addr, dst=request.requester,
                        channel=NocChannel.RESP, msg_class=MsgClass.IO,
                        payload=response, payload_flits=1 + data_flits(len(data)))
        self.node.network.inject(packet, self.addr.tile)

    def _pong(self, request: PingReq) -> None:
        packet = Packet(src=self.addr, dst=request.requester,
                        channel=NocChannel.RESP, msg_class=MsgClass.PING,
                        payload=PingResp(uid=request.uid), payload_flits=1)
        self.node.network.inject(packet, self.addr.tile)
