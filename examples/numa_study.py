#!/usr/bin/env python3
"""NUMA case study (paper Sec. 4.1): the 48-core, 4-node prototype.

Reproduces the workflow of the paper's flagship example:

1. build the 4x1x12 prototype (48 Ariane cores over 4 FPGAs);
2. measure the inter-core latency structure (Fig. 7);
3. feed the measured machine into the NPB integer-sort model and compare
   NUMA-aware vs non-NUMA Linux (Fig. 8), plus the taskset pinning study
   (Fig. 9).

Run:  python examples/numa_study.py
"""

from repro import build
from repro.analysis import heatmap, line_series
from repro.parallel import fig8_spec, fig9_spec, run_sweep


def main() -> None:
    print("building 4x1x12 prototype (48 cores)...")
    proto = build("4x1x12")

    # A reduced Fig. 7: probe one sender per node against all 48 receivers.
    senders = [0, 12, 24, 36]
    matrix = [[proto.measure_pair_latency(s, r) for r in range(48)]
              for s in senders]
    print(heatmap(matrix, title="inter-core latency, one sender per node"))

    # Figs. 8 and 9 measure the NUMA machine on a fresh prototype of the
    # same config, then evaluate the IS model once per sweep point.
    fig8 = run_sweep(fig8_spec(proto.config)).value
    machine = fig8["machine"]
    local, remote = machine["local_latency"], machine["remote_latency"]
    print(f"\nmeasured: local={local:.0f} cycles, "
          f"remote={remote:.0f} cycles ({remote / local:.1f}x)")

    # Fig. 8: runtime scaling with NUMA mode on/off.
    series = fig8["series"]
    print()
    print(line_series([f"{t}T" for t in series["threads"]],
                      {"NUMA on": series["numa_on"],
                       "NUMA off": series["numa_off"]},
                      title="NPB IS class C runtime (seconds)", unit="s"))
    ratios = [f"{off / on:.1f}x" for on, off
              in zip(series["numa_on"], series["numa_off"])]
    print(f"NUMA mode wins by {', '.join(ratios)} "
          "(3 -> 48 threads)")

    # Fig. 9: 12 threads pinned to 1..4 nodes.
    pinning = run_sweep(fig9_spec(proto.config)).value["series"]
    print()
    print(line_series([f"{k} nodes" for k in pinning["active_nodes"]],
                      {"NUMA on": pinning["numa_on"],
                       "NUMA off": pinning["numa_off"]},
                      title="12 threads pinned via taskset (seconds)",
                      unit="s"))


if __name__ == "__main__":
    main()
