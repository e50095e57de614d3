"""BYOC Private Cache (BPC) controller.

The BPC sits between a tile's core (behind the TRI) and the NoC, and is the
private side of the MSI directory protocol.  It tracks lines in S or M,
keeps an MSHR per outstanding miss, writes dirty victims back with PutM (and
waits for WbAck before re-requesting that line), and answers home-initiated
probes (Inv, Downgrade).

Race rules (the home LLC serializes per line, which keeps these few):

* ``Inv`` for a line being written back (PutM in flight) is ignored — the
  home consumes the PutM as the probe response.
* ``Inv`` for a line we don't hold (stale sharer info after a silent S
  eviction, or a miss in flight) is answered with a clean InvAck.
* ``Inv`` during an S->M upgrade invalidates our S copy but keeps the MSHR;
  the later DataM carries fresh data.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List, Optional

from ..engine import Component, Simulator
from ..errors import ProtocolError
from ..noc import TileAddr
from .array import CacheArray
from .homing import Homing
from .msgs import (LINE_BYTES, CoherenceMsg, DataM, DataS, Downgrade,
                   DowngradeData, GetM, GetS, Inv, InvAck, PutM, WbAck,
                   line_of)
from .ops import AMO_OPS, MemOp, OpKind

#: Called when an op completes; loads get their bytes, stores get None.
OpCallback = Callable[[Optional[bytes]], None]

#: Sends a coherence message to a destination tile over the NoC.
MsgSender = Callable[[CoherenceMsg, TileAddr], None]


class _Line:
    """Resident-line payload: MSI state plus the functional data."""

    __slots__ = ("state", "data")

    def __init__(self, state: str, data: bytes):
        self.state = state          # "S" or "M"
        self.data = bytearray(data)


class _Mshr:
    """Outstanding miss: ops waiting for the fill."""

    __slots__ = ("line", "deferred", "issued_at")

    def __init__(self, line: int, issued_at: int):
        self.line = line
        self.deferred: deque = deque()  # MemOps awaiting the fill
        self.issued_at = issued_at


class Bpc(Component):
    """Private cache controller for one tile."""

    counted = ("misses", "load_hits", "amo_hits", "store_hits", "upgrades",
               "invalidations", "downgrades")

    def __init__(self, sim: Simulator, name: str, tile: TileAddr,
                 homing: Homing, send_msg: MsgSender,
                 size_bytes: int = 8 * 1024, ways: int = 4,
                 hit_latency: int = 8, max_mshrs: int = 8):
        super().__init__(sim, name)
        self.tile = tile
        self.homing = homing
        self.send_msg = send_msg
        self.array = CacheArray(size_bytes, ways, LINE_BYTES)
        self.hit_latency = hit_latency
        self.max_mshrs = max_mshrs
        self._mshrs: Dict[int, _Mshr] = {}
        self._backlog: deque = deque()           # ops stalled on MSHR pressure
        self._evicting: Dict[int, List] = {}     # line -> ops waiting for WbAck
        self._l1_invalidate: Optional[Callable[[int], None]] = None
        # Pipeline fast lanes: the array access latency and the zero-delay
        # replay of ops unblocked by a WbAck / freed MSHR.  The op carries
        # its completion callback (``op.on_done``), so both are
        # single-payload sends.
        self._lookup_lane = sim.channel(hit_latency, self._lookup)
        self._replay_lane = sim.channel(0, self._lookup)
        self._op_latency = self.stats.histogram("op_latency")
        self._miss_latency = self.stats.histogram("miss_latency")
        sim.obs.register_gauge(f"{name}.mshrs", self._mshrs.__len__,
                               category="cache")

    def set_l1_invalidate(self, callback: Callable[[int], None]) -> None:
        """L1 shootdown hook: called with a line address on Inv/eviction."""
        self._l1_invalidate = callback

    # ------------------------------------------------------------------
    # Core side (TRI)
    # ------------------------------------------------------------------
    def access(self, op: MemOp, on_done: OpCallback) -> None:
        """Issue a cacheable load/store; ``on_done`` fires at completion."""
        if not op.cacheable:
            raise ProtocolError(f"{self.name}: non-cacheable op sent to BPC")
        op.issued_at = self.now
        op.on_done = on_done
        self._lookup_lane.send(op)

    def _lookup(self, op: MemOp) -> None:
        line = line_of(op.addr)
        mshr = self._mshrs.get(line)
        if mshr is not None:
            mshr.deferred.append(op)
            return
        if line in self._evicting:
            self._evicting[line].append(op)
            return
        entry = self.array.lookup(line)
        if entry is None:
            self.misses += 1
            self._start_miss(op)
            return
        payload: _Line = entry.payload
        if op.kind is OpKind.LOAD:
            self.load_hits += 1
            self._finish(op, bytes(self._window(payload, op)))
        elif payload.state == "M":
            if op.kind is OpKind.AMO:
                self.amo_hits += 1
                old_bytes = bytes(self._window(payload, op))
                self._apply_amo(payload, op, old_bytes)
                self._finish(op, old_bytes)
            else:
                self.store_hits += 1
                self._write(payload, op)
                self._finish(op, None)
        else:
            # Store/AMO to an S line: upgrade (entry stays until Inv/DataM).
            self.upgrades += 1
            self._start_miss(op, upgrade=True)

    def _window(self, payload: _Line, op: MemOp) -> bytearray:
        offset = op.addr % LINE_BYTES
        return payload.data[offset:offset + op.size]

    def _write(self, payload: _Line, op: MemOp) -> None:
        offset = op.addr % LINE_BYTES
        payload.data[offset:offset + op.size] = op.data

    def _apply_amo(self, payload: _Line, op: MemOp, old_bytes: bytes) -> None:
        old_value = int.from_bytes(old_bytes, "little")
        operand = int.from_bytes(op.data, "little")
        new_value = AMO_OPS[op.amo_op](old_value, operand)
        offset = op.addr % LINE_BYTES
        payload.data[offset:offset + op.size] = \
            new_value.to_bytes(op.size, "little")

    def _finish(self, op: MemOp, result: Optional[bytes]) -> None:
        self._op_latency.add(self.sim.now - op.issued_at)
        self.obs.cache_op(self, op)
        on_done = op.on_done
        op.on_done = None
        on_done(result)

    # ------------------------------------------------------------------
    # Miss path
    # ------------------------------------------------------------------
    def _start_miss(self, op: MemOp, upgrade: bool = False) -> None:
        line = line_of(op.addr)
        if len(self._mshrs) >= self.max_mshrs:
            self._backlog.append(op)
            self.stats.inc("mshr_stalls")
            return
        mshr = _Mshr(line, self.now)
        mshr.deferred.append(op)
        self._mshrs[line] = mshr
        self.obs.cache_miss(self, line)
        if not upgrade:
            self._make_room(line)
        want_m = op.kind in (OpKind.STORE, OpKind.AMO)
        request = GetM(line, self.tile) if want_m else GetS(line, self.tile)
        self.send_msg(request, self.homing.home_of(line, self.tile))

    def _make_room(self, line: int) -> None:
        victim = self.array.victim_for(line)
        if victim is None:
            return
        payload: _Line = victim.payload
        self.array.remove(victim.line_addr)
        if self._l1_invalidate is not None:
            self._l1_invalidate(victim.line_addr)
        if payload.state == "M":
            self.stats.inc("writebacks")
            self._evicting[victim.line_addr] = []
            self.send_msg(PutM(victim.line_addr, self.tile,
                               data=bytes(payload.data)),
                          self.homing.home_of(victim.line_addr, self.tile))
        else:
            self.stats.inc("silent_evictions")

    # ------------------------------------------------------------------
    # NoC side: responses and probes from the home LLC
    # ------------------------------------------------------------------
    def handle_msg(self, msg: CoherenceMsg) -> None:
        if isinstance(msg, (DataS, DataM)):
            self._fill(msg)
        elif isinstance(msg, WbAck):
            self._wb_acked(msg.line)
        elif isinstance(msg, Inv):
            self._invalidate(msg.line)
        elif isinstance(msg, Downgrade):
            self._downgrade(msg.line)
        else:
            raise ProtocolError(f"{self.name}: unexpected message {msg!r}")

    def _fill(self, msg) -> None:
        mshr = self._mshrs.pop(msg.line, None)
        if mshr is None:
            raise ProtocolError(f"{self.name}: fill without MSHR "
                                f"for {msg.line:#x}")
        state = "M" if isinstance(msg, DataM) else "S"
        entry = self.array.lookup(msg.line, touch=True)
        if entry is not None:
            entry.payload.state = state
            entry.payload.data = bytearray(msg.data)
        else:
            self._make_room(msg.line)
            self.array.insert(msg.line, _Line(state, msg.data))
        self._miss_latency.add(self.sim.now - mshr.issued_at)
        # Replay deferred ops synchronously: the fill must satisfy its
        # waiting ops *before* any queued probe is serviced, or a racing
        # Inv could steal the line before use and livelock the requester.
        # (A deferred store after an S fill still re-misses as an upgrade.)
        for op in mshr.deferred:
            self._lookup(op)
        self._drain_backlog()

    def _wb_acked(self, line: int) -> None:
        waiters = self._evicting.pop(line, None)
        if waiters is None:
            raise ProtocolError(f"{self.name}: WbAck for line {line:#x} "
                                "not being written back")
        for op in waiters:
            self._replay_lane.send(op)

    def _invalidate(self, line: int) -> None:
        if line in self._evicting:
            # PutM already in flight; home consumes it as the probe response.
            self.stats.inc("inv_during_wb")
            return
        entry = self.array.lookup(line, touch=False)
        if entry is None:
            # Stale sharer info (silent S eviction) or a miss in flight.
            self.stats.inc("inv_misses")
            self.send_msg(InvAck(line, self.tile, data=None),
                          self.homing.home_of(line, self.tile))
            return
        payload: _Line = entry.payload
        data = bytes(payload.data) if payload.state == "M" else None
        self.array.remove(line)
        if self._l1_invalidate is not None:
            self._l1_invalidate(line)
        self.invalidations += 1
        self.send_msg(InvAck(line, self.tile, data=data),
                      self.homing.home_of(line, self.tile))

    def _downgrade(self, line: int) -> None:
        if line in self._evicting:
            self.stats.inc("downgrade_during_wb")
            return
        entry = self.array.lookup(line, touch=False)
        if entry is None or entry.payload.state != "M":
            raise ProtocolError(
                f"{self.name}: Downgrade for line {line:#x} not held in M")
        entry.payload.state = "S"
        self.downgrades += 1
        self.send_msg(DowngradeData(line, self.tile,
                                    data=bytes(entry.payload.data)),
                      self.homing.home_of(line, self.tile))

    def _drain_backlog(self) -> None:
        # The replay is asynchronous (zero-delay lane), so `_mshrs` cannot
        # change while this drains: one free MSHR releases the *entire*
        # backlog, every op re-arbitrating at `_lookup`.
        if self._backlog and len(self._mshrs) < self.max_mshrs:
            for op in self._backlog:
                self._replay_lane.send(op)
            self._backlog.clear()

    # ------------------------------------------------------------------
    # Introspection (tests, invariant checks)
    # ------------------------------------------------------------------
    def state_of(self, addr: int) -> str:
        """Stable state of the line holding ``addr``: 'I', 'S', or 'M'."""
        entry = self.array.lookup(line_of(addr), touch=False)
        return entry.payload.state if entry is not None else "I"

    def peek(self, addr: int, size: int) -> Optional[bytes]:
        """Functional read without timing (None when not resident)."""
        entry = self.array.lookup(line_of(addr), touch=False)
        if entry is None:
            return None
        offset = addr % LINE_BYTES
        return bytes(entry.payload.data[offset:offset + size])

    @property
    def outstanding_misses(self) -> int:
        return len(self._mshrs)
