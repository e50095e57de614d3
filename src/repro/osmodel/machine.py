"""NUMA machine description used by the phase-level performance model.

Long-running OS-level benchmarks (NPB IS class C, SPECint) cannot be run
instruction-by-instruction inside the event simulator; the paper runs them
for hundreds of seconds on the FPGA prototype.  Our documented substitution
(DESIGN.md) is a phase-level model whose *inputs* — local and remote
round-trip latencies, link bandwidth — are measured from the cycle-level
prototype simulation of the same configuration, tying the two fidelity
levels together.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from ..errors import ConfigError


@dataclass(frozen=True)
class NumaMachine:
    """What the OS model needs to know about the prototype."""

    n_nodes: int
    cores_per_node: int
    frequency_hz: float = 100e6
    #: Average round-trip to a line homed on the local node (cycles).
    local_latency: float = 100.0
    #: Average round-trip to a line homed on a remote node (cycles).
    remote_latency: float = 280.0
    #: Inter-node link capacity in cache lines per cycle per node pair
    #: (PCIe Gen3 x16 at 100 MHz moves ~2.5 64B lines/cycle; coherence
    #: protocol overhead roughly halves it).
    inter_node_lines_per_cycle: float = 1.2

    def __post_init__(self) -> None:
        if self.n_nodes < 1 or self.cores_per_node < 1:
            raise ConfigError("machine needs nodes and cores")

    @property
    def total_cores(self) -> int:
        return self.n_nodes * self.cores_per_node

    def seconds(self, cycles: float) -> float:
        return cycles / self.frequency_hz

    def to_dict(self) -> dict:
        """JSON-safe field dump; floats survive the round trip exactly,
        so ``from_dict(to_dict(m)) == m`` (the result-store contract)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "NumaMachine":
        return cls(**data)


def machine_from_prototype(proto, probes: int = 6) -> NumaMachine:
    """Measure a :class:`NumaMachine` from a built cycle-level prototype.

    Samples intra- and inter-node pair latencies with the Fig. 7 probe
    machinery.  A node with one tile has no intra-node pair, so its local
    latency falls back to the Table 2 default; a single-node system's
    remote latency is its local one.
    """
    config = proto.config
    tiles = config.tiles_per_node
    local_samples = [proto.measure_pair_latency(0, j)
                     for j in range(1, min(tiles, probes + 1))]
    local = (sum(local_samples) / len(local_samples) if local_samples
             else NumaMachine.local_latency)
    if config.n_nodes == 1:
        remote = local
    else:
        remote_samples = [proto.measure_pair_latency(0, tiles + j)
                          for j in range(min(tiles, probes))]
        remote = sum(remote_samples) / len(remote_samples)
    return NumaMachine(
        n_nodes=config.n_nodes,
        cores_per_node=tiles,
        frequency_hz=config.achievable_frequency_mhz * 1e6,
        local_latency=local,
        remote_latency=remote,
    )
