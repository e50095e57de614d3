"""Fig. 8/9 series computed directly from one measured machine.

The library's Fig. 8/9 path is ``fig8_spec``/``fig9_spec`` through
``run_sweep``, one point per thread or node count.  These two functions
evaluate the same :class:`~repro.workloads.intsort.IntSortModel` over
the whole axis of a given :class:`~repro.osmodel.NumaMachine` in one
call: the serial reference the sweep tests compare against, and the
model-only path the IS band tests use.
"""

from repro.osmodel import NumaMachine, Taskset
from repro.workloads.intsort import IntSortModel, IntSortParams


def fig8_series(machine: NumaMachine,
                thread_counts=(3, 6, 12, 24, 48),
                params: IntSortParams = IntSortParams()):
    """Fig. 8: runtime vs threads, NUMA on and off."""
    on = IntSortModel(machine, numa_on=True, params=params)
    off = IntSortModel(machine, numa_on=False, params=params)
    return {
        "threads": list(thread_counts),
        "numa_on": [on.runtime_seconds(t) for t in thread_counts],
        "numa_off": [off.runtime_seconds(t) for t in thread_counts],
    }


def fig9_series(machine: NumaMachine, n_threads: int = 12,
                params: IntSortParams = IntSortParams()):
    """Fig. 9: 12 threads pinned to 1..4 nodes, NUMA on and off."""
    on = IntSortModel(machine, numa_on=True, params=params)
    off = IntSortModel(machine, numa_on=False, params=params)
    node_counts = list(range(1, machine.n_nodes + 1))
    return {
        "active_nodes": node_counts,
        "numa_on": [on.runtime_seconds(n_threads, Taskset.first_nodes(k))
                    for k in node_counts],
        "numa_off": [off.runtime_seconds(n_threads, Taskset.first_nodes(k))
                     for k in node_counts],
    }
