"""Observer output of one fine-grained traced run, pinned byte for byte.

``repro trace 2x1x2 --seed 7`` drives one Fig. 7 sender row under a
plane that traces every hardware category and samples probes every few
cycles, so the digests below move if a hook fires at another cycle or in
another order: ``noc`` hop instants, link ``xfer`` spans, router
``credit_wait`` samples.  The NoC delivers a hop into the routing stage
``hop_latency`` cycles after the wire arrival and reports the hop with
the arrival cycle, which keeps these bytes as they were when the hop
took three events.  That run is uncontended; DESIGN.md ("One event per
NoC hop") says where hop records differ under traffic, and the second
test pins them there: seeded hotspot traffic on one 12-tile node with a
single credit per port, so packets wait for credits and a hop's routing
stage can run after the router's later records.
"""

import hashlib
import json

from repro.cli import main
from repro.engine import Simulator
from repro.obs import Observer
from test_noc import build_network, schedule_hotspot_traffic
from test_stat_export import _digest

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


CONTENDED_PLANE = {
    "sample_interval": 8,
    "trace": {"categories": ["noc", "link", "probe"]},
}

CONTENDED_GOLDEN = {
    "trace":
        "d987b9c99545fba3ccdb2561df78999eac8477159c5c9e0c62671827e73255a7",
    "metrics":
        "d6bc283cba7a8e23f0a42791adcaee697969854cd1ab819c6e25b03ee626fcb3",
    "deliveries":
        "72b8aba839f49e7fa67aaeecdbddcc33e6dd0b1b49bb0e5ea205b7b5bd86e5fb",
}


def test_contended_trace_metrics_and_deliveries_are_pinned():
    runs = {"trace": {}, "metrics": {}, "deliveries": {}}
    for seed in (0, 1):
        sim, net, received = build_network(
            credits=1, sim=Simulator(obs=Observer(CONTENDED_PLANE)))
        schedule_hotspot_traffic(sim, net, seed)
        sim.run()
        runs["trace"][seed] = sim.obs.tracer.to_chrome()
        runs["metrics"][seed] = sim.obs.export_metrics()
        runs["deliveries"][seed] = [(cycle, tile, packet.payload)
                                    for cycle, tile, packet in received]
    assert {name: _digest(value) for name, value in runs.items()} \
        == CONTENDED_GOLDEN
