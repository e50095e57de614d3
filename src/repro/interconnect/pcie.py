"""AXI-over-PCIe fabric between nodes (the Hard Shell's transducer).

SMAPPIC connects nodes on the same FPGA through an AXI4 crossbar and nodes
on different FPGAs through the Hard Shell's AXI4-to-PCIe transducer; the
PCIe traffic goes directly FPGA-to-FPGA without touching the host CPU
(paper Fig. 4, stages 4-8).

The model routes AXI bursts between registered node bridges using each
node's FPGA placement:

* same FPGA  -> crossbar path: a few cycles of latency;
* other FPGA -> PCIe path, calibrated so the full tunnel round trip
  (bridge encode + shell + link, both directions) reproduces the paper's
  measured 1250 ns (125 cycles at 100 MHz).

Every ordered FPGA pair gets its own serializing link, so PCIe bandwidth
contention is modeled per direction.
"""

from __future__ import annotations

from typing import Callable, Dict, Protocol, Tuple

from ..axi.messages import AxiRead, AxiReadResp, AxiWrite, AxiWriteResp
from ..engine import Component, Link, Simulator
from ..errors import ConfigError, ProtocolError

#: The paper measures a 1250 ns (125-cycle at 100 MHz) round trip on the
#: inter-FPGA PCIe path, *including* the Hard Shell transducers and bridge
#: logic at both ends.  The raw link latency below is chosen so the modeled
#: end-to-end tunnel round trip (bridge encode + link + decode, both ways)
#: lands on those 125 cycles.
PCIE_ONE_WAY_CYCLES = 54

#: PCIe Gen3 x16 moves ~16 GB/s; at 100 MHz that is ~160 bytes per cycle,
#: i.e. ~0.4 cycles per 64-byte beat.
PCIE_CYCLES_PER_BEAT = 0.4

#: Crossbar hop between nodes that share an FPGA.
INTRA_FPGA_LATENCY = 6


class BridgeEndpoint(Protocol):
    """What a node's inter-node bridge exposes to the fabric."""

    def recv_write(self, txn: AxiWrite,
                   reply: Callable[[AxiWriteResp], None]) -> None: ...

    def recv_read(self, txn: AxiRead,
                  reply: Callable[[AxiReadResp], None]) -> None: ...


class PcieFabric(Component):
    """Routes AXI bursts between node bridges across FPGAs."""

    counted = ("writes", "reads")

    def __init__(self, sim: Simulator, name: str,
                 placement: Dict[int, int],
                 pcie_one_way: int = PCIE_ONE_WAY_CYCLES,
                 pcie_cycles_per_beat: float = PCIE_CYCLES_PER_BEAT,
                 intra_latency: int = INTRA_FPGA_LATENCY,
                 max_fpgas_linked: int = 4):
        super().__init__(sim, name)
        self.placement = dict(placement)
        fpgas = set(self.placement.values())
        if len(fpgas) > max_fpgas_linked:
            raise ConfigError(
                f"only {max_fpgas_linked} FPGAs share low-latency PCIe links "
                f"in an F1 instance; got {len(fpgas)}")
        self._endpoints: Dict[int, BridgeEndpoint] = {}
        self._links: Dict[Tuple[int, int], Link] = {}
        self.pcie_one_way = pcie_one_way
        self.pcie_cycles_per_beat = pcie_cycles_per_beat
        self.intra_latency = intra_latency
        hosted: Dict[int, int] = {}
        for fpga in self.placement.values():
            hosted[fpga] = hosted.get(fpga, 0) + 1
        for src in sorted(fpgas):
            for dst in sorted(fpgas):
                if src == dst and hosted[src] < 2:
                    # Only one node lives on this FPGA, so its crossbar
                    # link could never carry a message — skip it instead
                    # of registering a dead per-direction obs series.
                    continue
                link = self._build_link(src, dst)
                if link is not None:
                    self._links[(src, dst)] = link

    def _build_link(self, src: int, dst: int) -> Link:
        """One serializing link for the ordered FPGA pair.

        Naming is per path kind: ``name.S->D`` are the true PCIe
        directions, ``name.F.xbar`` the intra-FPGA crossbar hop — so the
        ``->`` metric series always mean inter-FPGA traffic.  Overridden
        by the partitioned fabric to capture cross-partition directions
        into boundary queues instead of delivering locally.
        """
        if src == dst:
            return Link(self.sim, f"{self.name}.{src}.xbar", self._deliver,
                        latency=self.intra_latency, cycles_per_unit=0.1,
                        category="pcie")
        return Link(self.sim, f"{self.name}.{src}->{dst}", self._deliver,
                    latency=self.pcie_one_way,
                    cycles_per_unit=self.pcie_cycles_per_beat,
                    category="pcie")

    def register(self, node_id: int, endpoint: BridgeEndpoint) -> None:
        if node_id not in self.placement:
            raise ConfigError(f"node {node_id} has no FPGA placement")
        self._endpoints[node_id] = endpoint

    def _link(self, src_node: int, dst_node: int) -> Link:
        return self._links[(self.placement[src_node],
                            self.placement[dst_node])]

    def is_inter_fpga(self, src_node: int, dst_node: int) -> bool:
        return self.placement[src_node] != self.placement[dst_node]

    # ------------------------------------------------------------------
    # Sender API (used by bridges)
    # ------------------------------------------------------------------
    def send_write(self, src_node: int, dst_node: int, txn: AxiWrite,
                   on_resp: Callable[[AxiWriteResp], None]) -> None:
        self.writes += 1
        self._send(src_node, dst_node, ("w", txn, on_resp), 1 + txn.beats)

    def send_read(self, src_node: int, dst_node: int, txn: AxiRead,
                  on_resp: Callable[[AxiReadResp], None]) -> None:
        self.reads += 1
        self._send(src_node, dst_node, ("r", txn, on_resp), 1)

    def _send(self, src_node: int, dst_node: int, item, units: int) -> None:
        endpoint = self._endpoints.get(dst_node)
        if endpoint is None:
            raise ProtocolError(f"{self.name}: no bridge at node {dst_node}")
        kind, txn, on_resp = item
        self.obs.pcie_transfer(self, src_node, dst_node, kind, units)
        self._link(src_node, dst_node).send(
            (kind, txn, on_resp, src_node, dst_node), units=units)

    # ------------------------------------------------------------------
    # Delivery and response return (responses share the reverse links)
    # ------------------------------------------------------------------
    def _deliver(self, item) -> None:
        kind = item[0]
        if kind == "resp":
            _, resp, on_resp = item
            on_resp(resp)
            return
        _, txn, on_resp, src_node, dst_node = item
        endpoint = self._endpoints[dst_node]

        def reply(resp) -> None:
            units = resp.beats if isinstance(resp, AxiReadResp) else 1
            self._link(dst_node, src_node).send(
                ("resp", resp, on_resp), units=units)

        if kind == "w":
            endpoint.recv_write(txn, reply)
        else:
            endpoint.recv_read(txn, reply)
