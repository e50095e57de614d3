"""The partition storm: a 4-FPGA-scale synthetic workload for the bench.

Each shard runs the batch-lane storm shape from
``benchmarks/bench_kernel.py`` — self-propagating chains issuing
``send_many`` bursts on typed channels — plus a ring of cross-shard
tokens carried at the PCIe one-way latency, so the quantum loop has real
boundary traffic to order and deliver.  The same model class runs both
ways:

* **monolithic** — every shard model on one simulator, ring tokens on
  local 54-cycle channels (:func:`run_monolithic_storm`);
* **partitioned** — one model per worker process under
  :class:`~repro.partition.engine.PartitionEngine`, ring tokens through
  the boundary outboxes (:func:`run_partitioned_storm`).

Results are *designed* to be interleave-independent so the two modes
can be compared exactly: each chain folds its own deterministic LCG
stream and the per-shard checksum XORs finished chains (commutative),
while ring tokens are emitted at staggered offsets so no two arrivals
share a cycle.  ``verify`` in the bench asserts the monolithic and
partitioned digests match bit for bit.
"""

from __future__ import annotations

import time
from typing import List

from ..engine import Simulator
from ..interconnect.pcie import PCIE_ONE_WAY_CYCLES
from .engine import PartitionEngine
from .fabric import InboxEntry, OutboxEntry
from .shard import Shard
from .window import lookahead_window

#: Default storm shape: ~1M events per shard at the bench scale.
CHAINS = 256
HOPS = 60
BATCH_WIDTH = 16
TOKENS = 64
TOKEN_PERIOD = 17

_MASK = 0xFFFFFFFFFFFFFFFF


class StormModel(Shard):
    """One shard's chains + ring-token endpoints (usable standalone)."""

    def __init__(self, sim: Simulator, index: int, shards: int,
                 chains: int = CHAINS, hops: int = HOPS,
                 batch_width: int = BATCH_WIDTH, tokens: int = TOKENS,
                 token_period: int = TOKEN_PERIOD, send_remote=None):
        self.sim = sim
        self.index = index
        self.shards = shards
        self.chain_check = 0
        self.token_log: List[tuple] = []
        self._send_remote = send_remote
        self._batch_width = batch_width
        self._lanes = []
        for chain in range(chains):
            # remaining sink calls, rolling LCG value
            state = [hops * batch_width,
                     ((index << 20) ^ (chain * 2654435761)) & _MASK]
            lane = sim.channel(1 + chain % 4, self._make_sink(state))
            self._lanes.append(lane)
            lane.send_many(list(range(batch_width)))
        if shards > 1 and tokens and send_remote is not None:
            self._tokens_left = tokens
            self._token_value = ((index + 1) * 2654435761) & _MASK
            # Staggered start offsets keep any two shards' token
            # arrivals on distinct cycles (period >> shard count).
            sim.schedule(index + 1, self._emit_token, token_period)

    def _make_sink(self, state):
        lane_box = []

        def sink(payload):
            value = (state[1] * 1315423911 + payload + 12345) & _MASK
            state[1] = value
            remaining = state[0] - 1
            state[0] = remaining
            if remaining <= 0:
                self.chain_check ^= value
            elif remaining % self._batch_width == 0:
                lane_box[0].send_many(list(range(self._batch_width)))

        def bind(lane):
            lane_box.append(lane)

        sink.bind = bind
        return sink

    # -- ring tokens ----------------------------------------------------
    def _emit_token(self, period: int) -> None:
        value = (self._token_value * 2891336453 + 7) & _MASK
        self._token_value = value
        self._send_remote((self.index + 1) % self.shards, value)
        self._tokens_left -= 1
        if self._tokens_left > 0:
            self.sim.schedule(period, self._emit_token, period)

    def recv_token(self, src: int, value: int) -> None:
        self.token_log.append((self.sim.now, src, value))

    def digest(self) -> dict:
        return {"index": self.index, "chain_check": self.chain_check,
                "token_log": list(self.token_log)}


def _wire_lanes(model: StormModel) -> None:
    for lane in model._lanes:
        lane.sink.bind(lane)


def storm_window() -> int:
    """The ring's lookahead: the raw PCIe latency, no bridge margins."""
    return lookahead_window(PCIE_ONE_WAY_CYCLES, 0, 0, 0)


# ----------------------------------------------------------------------
# Monolithic reference
# ----------------------------------------------------------------------
def run_monolithic_storm(shards: int = 4, **shape) -> dict:
    sim = Simulator()
    models: List[StormModel] = []

    def send_remote_from(src: int):
        def send_remote(dst: int, value: int) -> None:
            rings[(src, dst)].send(value)
        return send_remote

    models = [StormModel(sim, index, shards,
                         send_remote=send_remote_from(index), **shape)
              for index in range(shards)]
    rings = {}
    for src in range(shards):
        dst = (src + 1) % shards
        if dst == src:
            continue
        rings[(src, dst)] = sim.channel(
            PCIE_ONE_WAY_CYCLES,
            lambda value, _d=dst, _s=src: models[_d].recv_token(_s, value))
    for model in models:
        _wire_lanes(model)
    started = time.perf_counter()
    executed = sim.run()
    elapsed = time.perf_counter() - started
    return {
        "digests": [model.digest() for model in models],
        "events": executed,
        "now": sim.now,
        "seconds": elapsed,
        "events_per_sec": executed / elapsed if elapsed else 0.0,
    }


# ----------------------------------------------------------------------
# Partitioned run
# ----------------------------------------------------------------------
class StormShard(StormModel):
    """A :class:`StormModel` on a private simulator, speaking the
    quantum-loop protocol: ring tokens leave via the outbox and arrive
    via ``inject`` at their exact monolithic cycle."""

    def __init__(self, partition_index: int, partitions: int, **shape):
        self._outbox: List[OutboxEntry] = []
        self._seq = 0
        sim = Simulator()
        super().__init__(sim, partition_index, partitions,
                         send_remote=self._capture, **shape)
        _wire_lanes(self)

    def _capture(self, dst: int, value: int) -> None:
        now = self.sim.now
        self._outbox.append(
            (now, now + PCIE_ONE_WAY_CYCLES, self._seq, dst,
             (self.index, value)))
        self._seq += 1

    def take_outbox(self) -> List[OutboxEntry]:
        out, self._outbox = self._outbox, []
        return out

    def inject(self, records: List[InboxEntry]) -> None:
        schedule_at = self.sim.schedule_at
        for _send_time, _src, _seq, arrival, (src, value) in records:
            schedule_at(arrival, self.recv_token, src, value)

    def op_digest(self) -> dict:
        return self.digest()


def build_storm_shard(**kwargs) -> StormShard:
    """Module-level builder (picklable by reference for spawn)."""
    return StormShard(**kwargs)


def run_partitioned_storm(shards: int = 4, **shape) -> dict:
    engine = PartitionEngine(
        shards, build_storm_shard,
        [dict(partition_index=index, partitions=shards, **shape)
         for index in range(shards)],
        window=storm_window())
    try:
        started = time.perf_counter()
        executed = engine.run_quiescent()
        elapsed = time.perf_counter() - started
        digests = engine.broadcast("digest")
        metrics = engine.partition_metrics()
    finally:
        engine.close()
    return {
        "digests": digests,
        "events": executed,
        "now": engine.global_now,
        "seconds": elapsed,
        "events_per_sec": executed / elapsed if elapsed else 0.0,
        "partition_metrics": metrics,
    }
