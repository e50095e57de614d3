"""DDR4 DRAM timing model behind an AXI4 slave interface.

Each F1 FPGA exposes four DDR4 controllers; SMAPPIC gives each node one of
them (which is why at most four nodes fit per FPGA).  The model applies a
fixed access latency (Table 2 uses 80 cycles end-to-end for DRAM) plus
bank-limited occupancy, and performs the functional read/write against the
node's :class:`~repro.mem.memory.MainMemory`.
"""

from __future__ import annotations

from ..engine import Component, Simulator
from ..axi.messages import (AxiRead, AxiReadResp, AxiResp, AxiWrite,
                            AxiWriteResp)
from .memory import MainMemory


class Dram(Component):
    """AXI slave with fixed latency and per-bank occupancy.

    ``latency`` is the cycles from request arrival to response issue;
    ``cycles_per_beat`` models the data-bus occupancy of a burst; ``banks``
    requests can be in flight concurrently (round-robin bank hash on the
    line address).
    """

    counted = ("writes", "reads")

    def __init__(self, sim: Simulator, name: str, memory: MainMemory,
                 latency: int = 60, cycles_per_beat: float = 1.0,
                 banks: int = 8):
        super().__init__(sim, name)
        self.memory = memory
        self.latency = latency
        self.cycles_per_beat = cycles_per_beat
        self.banks = banks
        self._bank_free_at = [0] * banks
        self.bytes_written = self.bytes_read = 0
        sim.obs.register_gauge(f"{name}.bank_backlog", self._bank_backlog,
                               category="mem")

    def export_counters(self, counters) -> None:
        """``bytes_*`` from the first access of their kind on, 0 too."""
        super().export_counters(counters)
        if self.writes:
            counters["bytes_written"] = self.bytes_written
        if self.reads:
            counters["bytes_read"] = self.bytes_read

    def _bank_backlog(self) -> int:
        """Cycles of already-committed work across all banks (gauge)."""
        now = self.now
        return sum(free_at - now
                   for free_at in self._bank_free_at if free_at > now)

    def _bank_of(self, addr: int) -> int:
        return (addr // 64) % self.banks

    def _service_delay(self, addr: int, beats: int) -> int:
        """Queueing + access + transfer time for one request."""
        bank = self._bank_of(addr)
        start = max(self.now, self._bank_free_at[bank])
        busy = self.latency + int(round(beats * self.cycles_per_beat))
        self._bank_free_at[bank] = start + busy
        return (start - self.now) + busy

    # ------------------------------------------------------------------
    # AxiSlave interface
    # ------------------------------------------------------------------
    def axi_write(self, txn: AxiWrite, reply) -> None:
        self.writes += 1
        self.bytes_written += len(txn.data)
        delay = self._service_delay(txn.addr, txn.beats)
        self.obs.dram_access(self, "write", delay, txn.beats)

        def finish() -> None:
            self.memory.write(txn.addr, txn.data)
            reply(AxiWriteResp(axi_id=txn.axi_id, resp=AxiResp.OKAY))

        self.schedule(delay, finish)

    def axi_read(self, txn: AxiRead, reply) -> None:
        self.reads += 1
        self.bytes_read += txn.length
        delay = self._service_delay(txn.addr, txn.beats)
        self.obs.dram_access(self, "read", delay, txn.beats)

        def finish() -> None:
            data = self.memory.read(txn.addr, txn.length)
            reply(AxiReadResp(axi_id=txn.axi_id, data=data,
                              resp=AxiResp.OKAY))

        self.schedule(delay, finish)
