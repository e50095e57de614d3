"""NPB Integer Sort (IS) performance model — Figs. 8 and 9.

The paper runs NPB IS class C (parallel bucket sort of a 134-million-key
array) on the 48-core prototype under full Linux, with NUMA mode on/off
and with threads pinned to 1-4 nodes.  Running minutes of OS-level
execution through the event simulator is infeasible (documented
substitution), so IS is modeled at phase level:

* each key costs fixed compute plus cache misses, split between the
  *local* phase (key generation, bucket counting — first-touch memory) and
  the *exchange* phase (all-to-all key redistribution);
* miss latencies come from the NUMA machine description (measured from the
  cycle-level prototype); remote misses additionally queue at the
  inter-node bridge, modeled as an M/M/1 server whose utilization rises
  with thread count — this queueing is what makes the NUMA win grow from
  ~1.6x at 3 threads to ~2.8x at 48 (the paper's headline).

The model solves the per-key cycle cost by fixed point (the bridge
utilization depends on the runtime it produces).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import WorkloadError
from ..osmodel import NumaKernel, NumaMachine, Taskset

#: NPB class C problem size.
CLASS_C_KEYS = 1 << 27
CLASS_S_KEYS = 1 << 16


@dataclass(frozen=True)
class IntSortParams:
    """Calibrated workload constants (per key, per iteration)."""

    n_keys: int = CLASS_C_KEYS
    iterations: int = 10
    #: Compute + cache-hit cycles per key on the in-order Ariane.
    compute_cycles: float = 40.0
    #: Cache misses per key in the local (generation/count) phase.
    local_phase_misses: float = 1.6
    #: Cache misses per key in the all-to-all exchange phase.
    exchange_misses: float = 0.3
    #: DRAM access cost added on top of the coherence round trip.
    dram_extra: float = 60.0
    #: Bridge service time per remote miss (serialization + processing).
    bridge_service: float = 130.0
    #: Barrier/synchronization overhead per iteration (cycles).
    barrier_cycles: float = 50_000.0
    #: Non-NUMA mode lets threads migrate freely (no affinity), which
    #: destroys private-cache locality: multiplier on misses per key.
    migration_miss_factor: float = 1.1


class IntSortModel:
    """Runtime model for one (machine, kernel-mode) combination."""

    def __init__(self, machine: NumaMachine, numa_on: bool,
                 params: IntSortParams = IntSortParams()):
        self.machine = machine
        self.kernel = NumaKernel(machine, numa_on)
        self.params = params

    # ------------------------------------------------------------------
    # Core model
    # ------------------------------------------------------------------
    def runtime_cycles(self, n_threads: int,
                       taskset: Taskset = None) -> float:
        machine = self.machine
        params = self.params
        if taskset is None:
            taskset = Taskset.all_nodes(machine)
        if n_threads < 1:
            raise WorkloadError("need at least one thread")
        placement = self.kernel.place_threads(n_threads, taskset)
        active_nodes = len(set(placement.thread_nodes))
        keys_per_thread = params.n_keys * params.iterations / n_threads

        local_lat = machine.local_latency + params.dram_extra
        remote_base = machine.remote_latency + params.dram_extra

        # Remote fractions per phase.
        p_local_pages = placement.local_page_fraction
        remote_frac_a = 1.0 - p_local_pages
        remote_frac_b = self.kernel.exchange_remote_fraction(taskset)

        miss_scale = 1.0 if self.kernel.numa_on \
            else params.migration_miss_factor
        total_misses = (params.local_phase_misses
                        + params.exchange_misses) * miss_scale
        remote_misses_per_key = (params.local_phase_misses * remote_frac_a
                                 + params.exchange_misses
                                 * remote_frac_b) * miss_scale
        local_misses_per_key = total_misses - remote_misses_per_key

        threads_per_node = n_threads / active_nodes
        # Remote traffic spreads over the per-pair PCIe links: one link to
        # each node that holds remote data.
        if self.kernel.numa_on:
            remote_links = max(1, active_nodes - 1)
        else:
            remote_links = max(1, machine.n_nodes - 1)

        # Latency-bound time: fixed point between per-key cycles and the
        # bridge utilization they imply (damped; utilization capped below
        # saturation — saturation itself is handled by the roofline below).
        per_key = (params.compute_cycles
                   + local_misses_per_key * local_lat
                   + remote_misses_per_key * remote_base)
        for _ in range(50):
            remote_rate_per_link = (threads_per_node * remote_misses_per_key
                                    / per_key / remote_links)
            utilization = min(0.9,
                              remote_rate_per_link * params.bridge_service)
            queueing = (params.bridge_service * utilization
                        / (1.0 - utilization))
            remote_lat = remote_base + queueing
            target = (params.compute_cycles
                      + local_misses_per_key * local_lat
                      + remote_misses_per_key * remote_lat)
            per_key = 0.5 * (per_key + target)   # damping
        latency_bound = keys_per_thread * per_key
        # Bandwidth roofline: each node's bridge serializes its threads'
        # remote misses at one per ``bridge_service`` cycles.
        bandwidth_bound = (threads_per_node * keys_per_thread
                           * remote_misses_per_key * params.bridge_service
                           / remote_links)
        return (max(latency_bound, bandwidth_bound)
                + params.iterations * params.barrier_cycles)

    def runtime_seconds(self, n_threads: int,
                        taskset: Taskset = None) -> float:
        return self.machine.seconds(self.runtime_cycles(n_threads, taskset))

