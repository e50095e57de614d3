"""Tiny write-through L1 data cache.

Ariane's L1D (8 KB, 4-way in Table 2) sits in front of the BPC.  To keep
the BPC the single coherence point, the L1 is write-through and write-
no-allocate: stores always go to the BPC, loads fill the L1.  The BPC
shoots matching L1 lines down on invalidation or eviction, preserving
inclusion.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..engine import Component, Simulator
from .array import CacheArray
from .bpc import Bpc, OpCallback
from .msgs import LINE_BYTES, line_of
from .ops import MemOp, OpKind


class _L1Line:
    __slots__ = ("data",)

    def __init__(self, data: bytes):
        self.data = bytearray(data)


class L1Cache(Component):
    """Write-through L1D in front of one BPC."""

    counted = ("load_hits", "load_misses", "amos", "stores")

    def __init__(self, sim: Simulator, name: str, bpc: Bpc,
                 size_bytes: int = 8 * 1024, ways: int = 4,
                 hit_latency: int = 1):
        super().__init__(sim, name)
        self.bpc = bpc
        self.array = CacheArray(size_bytes, ways, LINE_BYTES)
        self.hit_latency = hit_latency
        bpc.set_l1_invalidate(self.invalidate)

    def access(self, op: MemOp, on_done: OpCallback) -> None:
        """Issue a load/store through the L1 (and BPC on miss/store)."""
        line = line_of(op.addr)
        offset = op.addr % LINE_BYTES
        if op.kind is OpKind.LOAD:
            entry = self.array.lookup(line)
            if entry is not None:
                self.load_hits += 1
                data = bytes(entry.payload.data[offset:offset + op.size])
                self.schedule(self.hit_latency, on_done, data)
                return
            self.load_misses += 1
            self.bpc.access(op, lambda data: self._fill(op, data, on_done))
            return
        if op.kind is OpKind.AMO:
            # Atomics resolve at the BPC; drop any stale L1 copy.
            self.array.remove(line)
            self.amos += 1
            self.bpc.access(op, on_done)
            return
        # Stores: write-through.  Update the L1 copy if present (no
        # allocate), then let the BPC complete the store.
        entry = self.array.lookup(line, touch=False)
        if entry is not None:
            entry.payload.data[offset:offset + op.size] = op.data
        self.stores += 1
        self.bpc.access(op, on_done)

    def _fill(self, op: MemOp, data: Optional[bytes],
              on_done: OpCallback) -> None:
        line = line_of(op.addr)
        # Fetch the whole line image from the BPC for the L1 fill; the BPC
        # holds it (the miss just completed), so peek is always valid.
        whole = self.bpc.peek(line, LINE_BYTES)
        if whole is not None and not self.array.contains(line):
            victim = self.array.victim_for(line)
            if victim is not None:
                self.array.remove(victim.line_addr)
            self.array.insert(line, _L1Line(whole))
        on_done(data)

    def invalidate(self, line: int) -> None:
        """Shootdown from the BPC (coherence inv or BPC eviction)."""
        if self.array.remove(line) is not None:
            self.stats.inc("shootdowns")

    def peek(self, addr: int, size: int) -> Optional[bytes]:
        entry = self.array.lookup(line_of(addr), touch=False)
        if entry is None:
            return None
        offset = addr % LINE_BYTES
        return bytes(entry.payload.data[offset:offset + size])
