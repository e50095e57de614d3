"""Distributed shared LLC slice with an in-array MSI directory.

Each tile carries one LLC slice; the homing policy spreads lines across all
slices of all nodes (paper Sec. 3.1).  A slice serializes coherence per
line: one active transaction at a time, later requests queue behind it.
The directory is embedded in the (inclusive) LLC array: an absent line is
directory-idle by construction.

A transaction walks through up to three waits:

1. *memory fill* — the line missed in the slice array (MemRead via the
   node's NoC-AXI4 memory controller), possibly preceded by a *recall* of a
   victim line (invalidate its sharers/owner, write back if dirty);
2. *owner response* — Downgrade or Inv sent to an M owner; the response is
   DowngradeData, InvAck, or a racing PutM (consumed as the response);
3. *sharer acks* — Inv fan-out to S sharers, counted down by InvAck.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, Optional, Set

from ..engine import Component, Simulator
from ..errors import ProtocolError
from ..mem.msgs import MemRead, MemReadResp, MemWrite, MemWriteAck
from ..noc import TileAddr
from .array import CacheArray
from .msgs import (LINE_BYTES, CoherenceMsg, DataM, DataS, Downgrade,
                   DowngradeData, GetM, GetS, Inv, InvAck, PutM, WbAck)

MsgSender = Callable[[CoherenceMsg, TileAddr], None]
#: Sends a memory request to the chipset of a given node.
MemSender = Callable[[object, int], None]


class _LlcLine:
    """Array payload: functional data + directory state."""

    __slots__ = ("data", "dir_state", "sharers", "owner", "dirty")

    def __init__(self, data: bytes):
        self.data = bytearray(data)
        self.dir_state = "I"                 # "I", "S", or "M"
        self.sharers: Set[TileAddr] = set()
        self.owner: Optional[TileAddr] = None
        self.dirty = False


class _Txn:
    """Active per-line transaction."""

    __slots__ = ("line", "request", "continuation", "waiting_owner",
                 "owner_expected", "acks_needed", "started_at", "on_complete")

    def __init__(self, line: int, request: Optional[CoherenceMsg],
                 started_at: int):
        self.line = line
        self.request = request
        self.continuation: Optional[Callable] = None
        self.waiting_owner = False
        self.owner_expected: Optional[TileAddr] = None
        self.acks_needed = 0
        self.started_at = started_at
        self.on_complete: list = []


class LlcSlice(Component):
    """One slice of the distributed last-level cache, plus directory."""

    counted = ("gets", "getm", "putm", "array_hits", "array_misses")

    def __init__(self, sim: Simulator, name: str, tile: TileAddr,
                 send_msg: MsgSender, send_mem: MemSender,
                 memory_node: Optional[Callable[[int], int]] = None,
                 size_bytes: int = 64 * 1024, ways: int = 4,
                 access_latency: int = 20):
        super().__init__(sim, name)
        self.tile = tile
        self.send_msg = send_msg
        self.send_mem = send_mem
        # Which node's DRAM backs a line; defaults to this slice's node.
        self.memory_node = memory_node or (lambda line: tile.node)
        self.array = CacheArray(size_bytes, ways, LINE_BYTES)
        self.access_latency = access_latency
        self._active: Dict[int, _Txn] = {}
        self._queued: Dict[int, deque] = {}
        self._mem_reads: Dict[int, Callable[[bytes], None]] = {}
        self._mem_writes: Dict[int, Callable[[], None]] = {}
        # Pipeline fast lanes: the slice access latency, the zero-delay
        # redispatch of a request queued behind a completed transaction,
        # and the zero-delay completion hooks.
        self._dispatch_lane = sim.channel(access_latency, self._dispatch)
        self._redispatch_lane = sim.channel(0, self._dispatch)
        self._hook_lane = sim.channel(0, self._run_hook)
        self._txn_latency = self.stats.histogram("txn_latency")
        sim.obs.register_gauge(f"{name}.busy_lines", self._active.__len__,
                               category="cache")

    # ------------------------------------------------------------------
    # NoC entry points
    # ------------------------------------------------------------------
    def handle_request(self, msg: CoherenceMsg) -> None:
        """GetS/GetM/PutM from the REQ/WB networks, and transaction
        responses (InvAck/DowngradeData) from the WB network."""
        self._dispatch_lane.send(msg)

    def handle_mem_resp(self, resp) -> None:
        """MemReadResp / MemWriteAck from the chipset memory controller."""
        if isinstance(resp, MemReadResp):
            callback = self._mem_reads.pop(resp.uid, None)
            if callback is None:
                raise ProtocolError(f"{self.name}: stray memory read resp")
            callback(resp.data)
        elif isinstance(resp, MemWriteAck):
            callback = self._mem_writes.pop(resp.uid, None)
            if callback is None:
                raise ProtocolError(f"{self.name}: stray memory write ack")
            callback()
        else:
            raise ProtocolError(f"{self.name}: unknown mem response {resp!r}")

    # ------------------------------------------------------------------
    # Serialization point
    # ------------------------------------------------------------------
    def _dispatch(self, msg: CoherenceMsg) -> None:
        line = msg.line
        txn = self._active.get(line)
        if txn is not None:
            self._dispatch_into_txn(txn, msg)
            return
        if isinstance(msg, GetS):
            self.gets += 1
            self._start(line, msg, self._txn_gets)
        elif isinstance(msg, GetM):
            self.getm += 1
            self._start(line, msg, self._txn_getm)
        elif isinstance(msg, PutM):
            self.putm += 1
            self._standalone_putm(msg)
        elif isinstance(msg, (InvAck, DowngradeData)):
            raise ProtocolError(
                f"{self.name}: {type(msg).__name__} for idle line "
                f"{line:#x}")
        else:
            raise ProtocolError(f"{self.name}: unexpected request {msg!r}")

    def _dispatch_into_txn(self, txn: _Txn, msg: CoherenceMsg) -> None:
        line = txn.line
        if isinstance(msg, InvAck):
            self._ack_arrived(txn, msg)
            return
        if isinstance(msg, DowngradeData):
            if not txn.waiting_owner:
                raise ProtocolError(
                    f"{self.name}: unexpected DowngradeData for {line:#x}")
            self._owner_responded(txn, msg.data, owner_stays=True)
            return
        if isinstance(msg, PutM):
            if txn.waiting_owner and msg.sender == txn.owner_expected:
                # The owner's eviction raced with our probe: consume the
                # PutM as the probe response and release the evicter.
                self.stats.inc("putm_races")
                self.send_msg(WbAck(line, self.tile), msg.sender)
                self._owner_responded(txn, msg.data, owner_stays=False)
                return
            raise ProtocolError(
                f"{self.name}: PutM from {msg.sender} for busy line "
                f"{line:#x} it does not own")
        # Another GetS/GetM: wait for the active transaction.
        self._queued.setdefault(line, deque()).append(msg)
        self.stats.inc("queued_requests")

    # ------------------------------------------------------------------
    # Transaction bodies
    # ------------------------------------------------------------------
    def _start(self, line: int, msg: CoherenceMsg, body) -> None:
        txn = _Txn(line, msg, self.now)
        self._active[line] = txn
        self._ensure_present(txn, lambda entry: body(txn, entry))

    def _txn_gets(self, txn: _Txn, entry) -> None:
        payload: _LlcLine = entry.payload
        requester = txn.request.sender
        if payload.dir_state in ("I", "S"):
            payload.dir_state = "S"
            payload.sharers.add(requester)
            self.send_msg(DataS(txn.line, self.tile,
                                data=bytes(payload.data)), requester)
            self._complete(txn)
            return
        # dir M: downgrade the owner, then share.
        owner = payload.owner
        if owner == requester:
            raise ProtocolError(
                f"{self.name}: owner {owner} sent GetS for {txn.line:#x}")
        txn.waiting_owner = True
        txn.owner_expected = owner
        self.send_msg(Downgrade(txn.line, self.tile), owner)

        def after_owner(data: bytes, owner_stays: bool) -> None:
            payload.data = bytearray(data)
            payload.dirty = True
            payload.dir_state = "S"
            payload.owner = None
            payload.sharers = {requester} | ({owner} if owner_stays else set())
            self.send_msg(DataS(txn.line, self.tile,
                                data=bytes(payload.data)), requester)
            self._complete(txn)

        txn.continuation = after_owner

    def _txn_getm(self, txn: _Txn, entry) -> None:
        payload: _LlcLine = entry.payload
        requester = txn.request.sender

        def grant() -> None:
            payload.dir_state = "M"
            payload.owner = requester
            payload.sharers = set()
            self.send_msg(DataM(txn.line, self.tile,
                                data=bytes(payload.data)), requester)
            self._complete(txn)

        if payload.dir_state == "I":
            grant()
            return
        if payload.dir_state == "S":
            targets = payload.sharers - {requester}
            if not targets:
                grant()
                return
            txn.acks_needed = len(targets)
            txn.continuation = grant
            for sharer in sorted(targets):
                self.send_msg(Inv(txn.line, self.tile), sharer)
            return
        # dir M elsewhere: invalidate the owner, take its data.
        owner = payload.owner
        if owner == requester:
            raise ProtocolError(
                f"{self.name}: owner {owner} sent GetM for {txn.line:#x}")
        txn.waiting_owner = True
        txn.owner_expected = owner
        self.send_msg(Inv(txn.line, self.tile), owner)

        def after_owner(data: Optional[bytes], owner_stays: bool) -> None:
            if data is not None:
                payload.data = bytearray(data)
                payload.dirty = True
            grant()

        txn.continuation = after_owner

    def _standalone_putm(self, msg: PutM) -> None:
        entry = self.array.lookup(msg.line, touch=True)
        if entry is None or entry.payload.dir_state != "M" \
                or entry.payload.owner != msg.sender:
            raise ProtocolError(
                f"{self.name}: PutM from non-owner {msg.sender} "
                f"for {msg.line:#x}")
        payload: _LlcLine = entry.payload
        payload.data = bytearray(msg.data)
        payload.dirty = True
        payload.dir_state = "I"
        payload.owner = None
        self.send_msg(WbAck(msg.line, self.tile), msg.sender)

    # ------------------------------------------------------------------
    # Response plumbing
    # ------------------------------------------------------------------
    def _ack_arrived(self, txn: _Txn, msg: InvAck) -> None:
        if txn.waiting_owner and msg.sender == txn.owner_expected:
            self._owner_responded(txn, msg.data, owner_stays=False)
            return
        if txn.acks_needed <= 0:
            raise ProtocolError(
                f"{self.name}: unexpected InvAck for {txn.line:#x}")
        if msg.dirty:
            raise ProtocolError(
                f"{self.name}: dirty InvAck from S sharer {msg.sender}")
        txn.acks_needed -= 1
        if txn.acks_needed == 0:
            continuation = txn.continuation
            txn.continuation = None
            continuation()

    def _owner_responded(self, txn: _Txn, data: Optional[bytes],
                         owner_stays: bool) -> None:
        txn.waiting_owner = False
        txn.owner_expected = None
        continuation = txn.continuation
        txn.continuation = None
        continuation(data, owner_stays)

    # ------------------------------------------------------------------
    # Presence: array fill, victim recall
    # ------------------------------------------------------------------
    def _ensure_present(self, txn: _Txn, k) -> None:
        entry = self.array.lookup(txn.line, touch=True)
        if entry is not None:
            self.array_hits += 1
            k(entry)
            return
        self.array_misses += 1
        victim = self.array.victim_for(
            txn.line,
            prefer=lambda e: (e.payload.dir_state == "I"
                              and e.line_addr not in self._active))
        if victim is not None and victim.line_addr in self._active:
            # The chosen victim is mid-recall under another transaction:
            # retry once that transaction completes (the set will then have
            # a free way, or LRU will pick a different victim).
            self._active[victim.line_addr].on_complete.append(
                lambda: self._ensure_present(txn, k))
            return

        def fetch() -> None:
            request = MemRead(addr=txn.line, size=LINE_BYTES,
                              requester=self.tile)
            self._mem_reads[request.uid] = fill
            self.send_mem(request, self.memory_node(txn.line))

        def fill(data: bytes) -> None:
            # Re-check occupancy: while the memory fetch was in flight,
            # transactions on other lines may have filled this set.
            late_victim = self.array.victim_for(
                txn.line,
                prefer=lambda e: (e.payload.dir_state == "I"
                                  and e.line_addr not in self._active))
            if late_victim is not None:
                if late_victim.line_addr in self._active:
                    self._active[late_victim.line_addr].on_complete.append(
                        lambda: fill(data))
                    return
                self._recall(late_victim, lambda: fill(data))
                return
            new_entry = self.array.insert(txn.line, _LlcLine(data))
            k(new_entry)

        if victim is not None:
            self._recall(victim, fetch)
        else:
            fetch()

    def _recall(self, victim_entry, done) -> None:
        """Evict ``victim_entry``: pull it back from sharers/owner, write it
        back if dirty, then run ``done``.  Requests for the victim line queue
        behind a dedicated transaction while this happens."""
        line = victim_entry.line_addr
        payload: _LlcLine = victim_entry.payload
        if line in self._active:
            raise ProtocolError(f"{self.name}: recall of busy line {line:#x}")
        txn = _Txn(line, None, self.now)
        self._active[line] = txn
        self.stats.inc("recalls")

        def writeback_and_finish() -> None:
            self.array.remove(line)
            if payload.dirty:
                request = MemWrite(addr=line, data=bytes(payload.data),
                                   requester=self.tile)
                self._mem_writes[request.uid] = lambda: finish()
                self.send_mem(request, self.memory_node(line))
            else:
                finish()

        def finish() -> None:
            self._complete(txn)
            done()

        if payload.dir_state == "M":
            txn.waiting_owner = True
            txn.owner_expected = payload.owner
            self.send_msg(Inv(line, self.tile), payload.owner)

            def after_owner(data: Optional[bytes], owner_stays: bool) -> None:
                if data is not None:
                    payload.data = bytearray(data)
                    payload.dirty = True
                writeback_and_finish()

            txn.continuation = after_owner
        elif payload.dir_state == "S" and payload.sharers:
            txn.acks_needed = len(payload.sharers)
            txn.continuation = writeback_and_finish
            for sharer in sorted(payload.sharers):
                self.send_msg(Inv(line, self.tile), sharer)
        else:
            writeback_and_finish()

    # ------------------------------------------------------------------
    # Completion and queue draining
    # ------------------------------------------------------------------
    @staticmethod
    def _run_hook(hook: Callable[[], None]) -> None:
        hook()

    def _complete(self, txn: _Txn) -> None:
        self._txn_latency.add(self.sim.now - txn.started_at)
        self.obs.llc_txn(self, txn.line, txn.started_at)
        del self._active[txn.line]
        queue = self._queued.get(txn.line)
        if queue:
            msg = queue.popleft()
            if not queue:
                del self._queued[txn.line]
            self._redispatch_lane.send(msg)
        for hook in txn.on_complete:
            self._hook_lane.send(hook)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def dir_state(self, line: int) -> str:
        entry = self.array.lookup(line, touch=False)
        return entry.payload.dir_state if entry is not None else "I"

    def sharers_of(self, line: int) -> Set[TileAddr]:
        entry = self.array.lookup(line, touch=False)
        return set(entry.payload.sharers) if entry is not None else set()

    def owner_of(self, line: int) -> Optional[TileAddr]:
        entry = self.array.lookup(line, touch=False)
        return entry.payload.owner if entry is not None else None

    @property
    def busy_lines(self) -> int:
        return len(self._active)
