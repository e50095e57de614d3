"""Node chipset: NoC-AXI4 memory controller, DRAM, and chipset devices.

The chipset hangs off tile 0's off-chip port (as in OpenPiton) and owns the
node's DRAM interface plus memory-mapped I/O devices (UART, virtual SD
card, interrupt controller).  Incoming NoC packets are memory requests from
LLC slices (local or remote), MMIO requests, or interrupt-controller
accesses.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..axi.port import AxiPort
from ..engine import Component, Simulator
from ..errors import ProtocolError
from ..mem import Dram, MainMemory, NocAxiMemoryController
from ..mem.msgs import MemRead, MemReadResp, MemWrite, MemWriteAck
from ..noc import CHIPSET, MsgClass, NocChannel, Packet, TileAddr, data_flits
from .nc import NcRead, NcResponse, NcWrite

#: Fixed controller-path overhead so the end-to-end DRAM latency lands on
#: Table 2's 80 cycles: NoC + ingress/egress + AXI + device latency.
_CONTROLLER_OVERHEAD = 30


class Chipset(Component):
    """One node's chipset."""

    counted = ("mem_requests",)

    def __init__(self, sim: Simulator, name: str, node_id: int, node,
                 memory: MainMemory, params):
        super().__init__(sim, name)
        self.node_id = node_id
        self.node = node
        self.addr = TileAddr(node_id, CHIPSET)
        self.memory = memory
        device_latency = max(10, params.dram_latency_cycles
                             - _CONTROLLER_OVERHEAD)
        self.dram = Dram(sim, f"{name}/dram", memory,
                         latency=device_latency)
        axi = AxiPort(sim, f"{name}/axi", self.dram, latency=2)
        self.controller = NocAxiMemoryController(
            sim, f"{name}/mc", axi, self._mem_respond)
        #: Chipset MMIO devices by window offset range: offset -> device.
        self._devices: Dict[str, object] = {}
        self._device_router: Optional[Callable] = None
        self._host_waiters: Dict[int, Callable] = {}
        node.network.set_chipset_sink(self.handle_packet)

    # ------------------------------------------------------------------
    # Device registry (UART, SD, interrupt controller plug in here)
    # ------------------------------------------------------------------
    def set_device_router(self, router: Callable) -> None:
        """``router(request, reply)`` dispatches chipset MMIO requests."""
        self._device_router = router

    def install_standard_devices(self, addrmap) -> None:
        """Create the paper's chipset devices and the window router:

        * 0x0000 console UART (115200 baud),
        * 0x0100 data UART (~1 Mbit/s, the pppd link),
        * 0x0200 virtual SD card (top half of node DRAM),
        * 0x0300 interrupt controller.
        """
        from ..io.uart import CONSOLE_BAUD, DATA_BAUD, Uart
        from ..io.virtual_sd import VirtualSdCard
        from ..irq.controller import InterruptController, IrqUpdate

        self.console_uart = Uart(self.sim, f"{self.name}/uart0",
                                 baud=CONSOLE_BAUD)
        self.data_uart = Uart(self.sim, f"{self.name}/uart1", baud=DATA_BAUD)
        self.sd_card = VirtualSdCard(
            self.sim, f"{self.name}/sd", self,
            sd_base=addrmap.sd_base(self.node_id),
            capacity=addrmap.dram_bytes_per_node // 2)
        self.irq_controller = InterruptController(
            self.sim, f"{self.name}/irq", self.node_id, self._send_irq)
        windows = [
            (0x0000, self.console_uart),
            (0x0100, self.data_uart),
            (0x0200, self.sd_card),
            (0x0300, self.irq_controller),
        ]

        def router(request, reply) -> None:
            for base, device in reversed(windows):
                if request.offset >= base:
                    local = request.offset - base
                    if isinstance(request, NcRead):
                        device.nc_read(local, request.size, reply)
                    else:
                        device.nc_write(local, request.data,
                                        lambda: reply(b""))
                    return
            raise ProtocolError(
                f"{self.name}: MMIO at bad offset {request.offset:#x}")

        self.set_device_router(router)

    def _send_irq(self, target: TileAddr, update) -> None:
        packet = Packet(src=self.addr, dst=target, channel=NocChannel.RESP,
                        msg_class=MsgClass.INTERRUPT, payload=update,
                        payload_flits=1)
        self.node.network.inject_from_edge(packet)

    # ------------------------------------------------------------------
    # NoC side
    # ------------------------------------------------------------------
    def handle_packet(self, packet: Packet) -> None:
        payload = packet.payload
        if isinstance(payload, (MemRead, MemWrite)):
            self.mem_requests += 1
            self.controller.handle_request(payload)
        elif isinstance(payload, (MemReadResp, MemWriteAck)):
            waiter = self._host_waiters.pop(payload.uid, None)
            if waiter is None:
                raise ProtocolError(f"{self.name}: stray memory response")
            waiter(payload)
        elif isinstance(payload, (NcRead, NcWrite)):
            self._mmio(payload)
        else:
            raise ProtocolError(
                f"{self.name}: unexpected chipset payload {payload!r}")

    def _mem_respond(self, resp, requester: TileAddr) -> None:
        flits = 1 + (data_flits(len(resp.data))
                     if isinstance(resp, MemReadResp) else 0)
        packet = Packet(src=self.addr, dst=requester,
                        channel=NocChannel.RESP, msg_class=MsgClass.MEMORY,
                        payload=resp, payload_flits=flits)
        self.node.network.inject_from_edge(packet)

    def _mmio(self, request) -> None:
        if self._device_router is None:
            raise ProtocolError(f"{self.name}: MMIO request but no devices")
        self._device_router(
            request,
            lambda data=b"", r=request: self._mmio_reply(r, data))

    def _mmio_reply(self, request, data: bytes) -> None:
        response = NcResponse(uid=request.uid, data=data)
        packet = Packet(src=self.addr, dst=request.requester,
                        channel=NocChannel.RESP, msg_class=MsgClass.IO,
                        payload=response,
                        payload_flits=1 + data_flits(len(data)))
        self.node.network.inject_from_edge(packet)

    # ------------------------------------------------------------------
    # Host-side access (PCIe inbound writes land here; see io.host)
    # ------------------------------------------------------------------
    def host_mem_request(self, request, on_done: Callable) -> None:
        """Inject a memory request as if it arrived over inbound AXI4.

        This is the mechanism the host uses to initialize the virtual SD
        card: PCIe writes become NoC flits targeting the memory controller
        (paper Sec. 3.4.2).  ``on_done`` receives the MemReadResp /
        MemWriteAck when the controller answers.
        """
        request.requester = self.addr
        self._host_waiters[request.uid] = on_done
        self.controller.handle_request(request)
