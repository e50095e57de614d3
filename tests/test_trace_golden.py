"""Observer output of one fine-grained traced run, pinned byte for byte.

``repro trace 2x1x2 --seed 7`` drives one Fig. 7 sender row under a
plane that traces every hardware category and samples probes every few
cycles, so the digests below move if a hook fires at another cycle or in
another order: ``noc`` hop instants, link ``xfer`` spans, router
``credit_wait`` samples.  The NoC delivers a hop into the routing stage
``hop_latency`` cycles after the wire arrival and reports the hop with
the arrival cycle, which keeps these bytes as they were when the hop
took three events.  The run is uncontended; DESIGN.md ("One event per
NoC hop") says where hop records differ under traffic.
"""

import hashlib
import json

from repro.cli import main

PLANE = {
    "sample_interval": 8,
    "sample_intervals": {"noc": 4},
    "trace": {"categories": ["noc", "cache", "mem", "link", "probe", "axi",
                             "pcie", "bridge"]},
}

GOLDEN = {
    "trace.json":
        "28422d8243d9c2ffe35fcb977834fce8710949ec6b6450de78cb7e2b5d22311e",
    "metrics.json":
        "1af856999b03e72b0abf271a59f2dd15edf8ea31a91d57f95347c8ed2aadc5c7",
    "run/series.json":
        "1147e0ee9457f13c42a9cac158aa3e0d875fdc9b0a284baadad13fdd2f125cb9",
}


def test_fine_plane_trace_metrics_and_series_are_pinned(tmp_path):
    spec = tmp_path / "plane.json"
    spec.write_text(json.dumps(PLANE))
    assert main(["trace", "2x1x2", "--seed", "7", "--instrument", str(spec),
                 "--out", str(tmp_path / "trace.json"),
                 "--metrics", str(tmp_path / "metrics.json"),
                 "--archive", str(tmp_path / "run")]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes())
               .hexdigest() for name in GOLDEN}
    assert digests == GOLDEN
