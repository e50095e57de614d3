"""The enabled observer: hooks -> tracer spans, registry, probe samples.

:class:`Observer` implements the hook surface defined by
:class:`~repro.engine.observer.NullObserver`.  Pass one to
``Prototype(config, obs=Observer(plane))`` (or ``Simulator(obs=...)``) and
every component constructed against that simulator wires itself up:
stat groups bind into the :class:`~repro.obs.registry.MetricRegistry`
under hierarchical dotted names, links register occupancy probes, and
the per-subsystem hooks start feeding the tracer.

The plane's trace categories pick which subsystems trace (``noc``,
``cache``, ``axi``, ``pcie``, ``bridge``, ``mem``, ``link``,
``kernel``); the membership test happens once at construction, so a
disabled category costs one boolean load per hook.  Sampling is
activity-driven (see :mod:`repro.obs.probes`): each hook nudges its
component's probes, nothing is ever scheduled into the simulation, and
architectural results stay bit-identical to an unobserved run.
"""

from __future__ import annotations

import re
from functools import partial

from ..engine.observer import NullObserver
from .plane import GatedTracer, InstrumentationPlane, as_plane
from .probes import ProbeSet, link_utilization_probe
from .registry import MetricRegistry
from .trace import StreamingTracer, Tracer

#: Every category the instrumentation emits.
TRACE_CATEGORIES = ("noc", "cache", "axi", "pcie", "bridge", "mem",
                    "link", "kernel", "probe")

_SEGMENT_EXPANSIONS = (
    (re.compile(r"^n(\d+)$"), r"node\1"),
    (re.compile(r"^t(\d+)$"), r"tile\1"),
    (re.compile(r"^r(\d+)$"), r"router\1"),
)


def metric_path(component_name: str) -> str:
    """A component's ``/``-separated name as a dotted metric path.

    ``n0/t3/bpc`` becomes ``node0.tile3.bpc`` — the hierarchy the paper's
    users think in, and the prefix every bound counter hangs off.  Dots
    already present (gauge suffixes, per-direction link names) also
    delimit segments.
    """
    segments = []
    for segment in component_name.replace("/", ".").split("."):
        for pattern, repl in _SEGMENT_EXPANSIONS:
            expanded = pattern.sub(repl, segment)
            if expanded != segment:
                segment = expanded
                break
        segments.append(segment)
    return ".".join(segments)


def _sink_name(sink) -> str:
    """A channel sink's track name: its qualified name, or that of the
    function a ``functools.partial`` binds (a NoC link's sink is
    ``partial(Router._arrive, port)``).  A repr would hold object
    addresses, so two same-seed runs would name their tracks apart."""
    while isinstance(sink, partial):
        sink = sink.func
    return getattr(sink, "__qualname__", type(sink).__qualname__)


class _TracedChannel:
    """Kernel-category shim around a ConstLatencyChannel.

    Installed by :meth:`Observer.wrap_channel` only when the ``kernel``
    category is traced, so the un-traced fast path keeps its original
    object (and its original performance) untouched.
    """

    __slots__ = ("_channel", "_tracer", "_sim", "_comp", "delay", "sink")

    def __init__(self, sim, channel, tracer: Tracer):
        self._channel = channel
        self._tracer = tracer
        self._sim = sim
        sink = channel.sink
        self._comp = "kernel/" + _sink_name(sink)
        self.delay = channel.delay
        self.sink = sink

    def send(self, payload):
        self._tracer.instant("kernel", self._comp, "send", self._sim.now)
        return self._channel.send(payload)

    def send_after(self, delay, payload):
        self._tracer.instant("kernel", self._comp, "send_after",
                             self._sim.now)
        return self._channel.send_after(delay, payload)

    def send_many(self, payloads):
        # One instant per burst: batched sends are one scheduling action.
        self._tracer.instant("kernel", self._comp, "send_many",
                             self._sim.now)
        return self._channel.send_many(payloads)


class Observer(NullObserver):
    """Live observer: metrics registry + tracer + sampling probes.

    ``plane`` — an :class:`~repro.obs.plane.InstrumentationPlane`, its
    spec dict, or None for the default plane — is the whole
    configuration: it prunes metric/probe registration to its glob
    selection, sets the probe intervals, picks the traced categories and
    the ring bound (or no tracer at all with ``trace.enabled: false``),
    wraps the tracer in a :class:`~repro.obs.plane.GatedTracer` when
    triggers are declared, and — with ``stream_series`` — stops
    materializing probe series in memory (they then live in the
    tracer's JSONL stream).

    ``trace_path`` is where the run is deployed, not what it observes:
    given, the plane's tracer streams to that JSONL file
    (:class:`~repro.obs.trace.StreamingTracer`) instead of keeping
    per-component rings.
    """

    enabled = True

    def __init__(self, plane=None, *, trace_path=None) -> None:
        plane = as_plane(plane) or InstrumentationPlane()
        self.plane = plane
        self._select = plane.metric_filter()
        self.registry = MetricRegistry()
        tracer = None
        if plane.tracing:
            if trace_path is not None:
                tracer = StreamingTracer(trace_path,
                                         categories=plane.trace_categories)
            else:
                tracer = Tracer(categories=plane.trace_categories,
                                ring_capacity=plane.ring_capacity)
            if plane.gated:
                tracer = GatedTracer(tracer, plane)
        self.tracer = tracer
        self.probes = ProbeSet(
            tracer=tracer, interval=plane.sample_interval,
            intervals=plane.sample_intervals,
            materialize=not plane.stream_series,
            on_sample=self._metric_trigger_check(plane, tracer))
        tracing = tracer is not None
        self._want_noc = tracing and tracer.wants("noc")
        self._want_cache = tracing and tracer.wants("cache")
        self._want_axi = tracing and tracer.wants("axi")
        self._want_pcie = tracing and tracer.wants("pcie")
        self._want_bridge = tracing and tracer.wants("bridge")
        self._want_mem = tracing and tracer.wants("mem")
        self._want_link = tracing and tracer.wants("link")
        self._want_kernel = tracing and tracer.wants("kernel")

    def _metric_trigger_check(self, plane, tracer):
        """The probe-cadence callback arming metric-threshold triggers.

        Returns None (no per-sample cost at all) unless the plane
        declares ``arm_on_metric`` triggers; the check then reads the
        named metrics from the registry at every probe sample until the
        trigger fires, and unhooks itself afterwards.
        """
        if tracer is None or not plane.metric_triggers:
            return None
        pending = list(plane.metric_triggers)
        registry = self.registry

        def check(now: int) -> None:
            for trigger in list(pending):
                value = registry.value(trigger.metric)
                if value is not None and value >= trigger.above:
                    pending.remove(trigger)
                    tracer.open_at(now)
            if not pending:
                self.probes._on_sample = None

        return check

    # ------------------------------------------------------------------
    # Construction-time registration
    # ------------------------------------------------------------------
    def register_gauge(self, name, fn, category="gauge"):
        path = metric_path(name)
        if self._select is not None and not self._select(path):
            return
        self.registry.gauge(path, fn)
        # The owning component's name is the gauge name minus its final
        # ``.suffix`` segment — the key the component's hooks nudge with.
        self.probes.add(path, fn, category=category,
                        owner=name.rsplit(".", 1)[0])

    def register_link(self, link):
        path = metric_path(link.name)
        # A link keeps no StatGroup; this view reads its counts live.
        self.registry.bind_group(path, link.stats)
        if self._select is not None \
                and not self._select(f"{path}.utilization"):
            return
        # Lifetime average occupancy for the metrics dump...
        cpu = link.cycles_per_unit

        def lifetime_utilization() -> float:
            now = link.sim.now
            if not now:
                return 0.0
            return min(1.0, link.units * cpu / now)

        self.registry.gauge(f"{path}.utilization", lifetime_utilization)
        # ...and a windowed series for the heatmap/time-series charts,
        # sampled on the link's own category interval (noc/axi/pcie).
        self.probes.add(f"{path}.utilization", link_utilization_probe(link),
                        category=link.category, owner=link.name)

    def bind_stats(self, prefix, group):
        self.registry.bind_group(metric_path(prefix), group)

    def wrap_channel(self, sim, channel):
        if self._want_kernel:
            return _TracedChannel(sim, channel, self.tracer)
        return channel

    # ------------------------------------------------------------------
    # Export / lifecycle
    # ------------------------------------------------------------------
    def export_metrics(self):
        """The registry dump plus the obs layer's own accounting.

        This is what run archives persist and sweep workers return:
        :meth:`MetricRegistry.to_dict` extended with ``obs.trace.dropped``
        (total ring evictions) and one ``obs.trace.dropped.<component>``
        counter per truncated ring, so a partial trace is visible in the
        archive instead of silently passing for a complete one; plus
        ``obs.probes.failed`` (sources disabled after raising) and — for
        planes with triggers — ``obs.plane.triggers.armed`` /
        ``obs.plane.triggers.fired`` and ``obs.plane.trace.suppressed``.

        A plane's metric globs filter the registry dump here too, so the
        archive records exactly the selection (``obs.*`` accounting is
        always kept).  Trigger counters are exported as floats on
        purpose: per-shard values are identical for cycle triggers, so
        :func:`~repro.obs.archive.merge_metric_shards`'s float-mean
        preserves them across partitions, while the suppressed-event
        count is an int (events partition across shards, so the sum is
        exact).
        """
        out = self.registry.to_dict()
        select = self._select
        if select is not None:
            out = {name: value for name, value in out.items()
                   if name.startswith("obs.") or select(name)}
        out["obs.probes.failed"] = self.probes.failed
        tracer = self.tracer
        if tracer is not None:
            out["obs.trace.dropped"] = tracer.dropped
            for component, count in sorted(
                    tracer.dropped_by_component().items()):
                out[f"obs.trace.dropped.{metric_path(component)}"] = count
        plane = self.plane
        if plane.gated:
            gate = tracer
            out["obs.plane.triggers.armed"] = (
                float(gate.armed) if gate is not None
                else float(len(plane.triggers)))
            out["obs.plane.triggers.fired"] = (
                float(gate.fired) if gate is not None else 0.0)
            if gate is not None:
                out["obs.plane.trace.suppressed"] = gate.suppressed
        return out

    def flush(self):
        """Push buffered trace chunks to disk (streaming backends)."""
        if self.tracer is not None:
            self.tracer.flush()

    def close(self):
        if self.tracer is not None:
            self.tracer.close()

    # ------------------------------------------------------------------
    # Event hooks
    # ------------------------------------------------------------------
    def link_transfer(self, link, units, depart, arrival):
        self.probes.nudge(link.name, link.sim.now)
        if self._want_link or (self._want_axi and link.category == "axi") \
                or (self._want_pcie and link.category == "pcie") \
                or (self._want_noc and link.category == "noc"):
            self.tracer.complete(link.category, link.name, "xfer",
                                 depart, max(arrival - depart, 1),
                                 {"units": units})

    def noc_inject(self, router, packet):
        if self._want_noc:
            self.tracer.instant("noc", router.name, "inject",
                                router.sim.now,
                                {"dst": str(packet.dst),
                                 "ch": packet.channel.name})

    def noc_hop(self, router, packet, from_direction, at):
        self.probes.nudge(router.name, at)
        if self._want_noc:
            self.tracer.instant("noc", router.name, "hop", at,
                                {"from": from_direction.value,
                                 "ch": packet.channel.name})

    def noc_eject(self, router, packet):
        now = router.sim.now
        self.probes.nudge(router.name, now)
        if self._want_noc:
            born = packet.created_at
            self.tracer.complete(
                "noc", router.name, f"pkt.{packet.channel.name}",
                born, now - born,
                {"hops": packet.hops, "src": str(packet.src)})

    def noc_offchip(self, router, packet):
        if self._want_noc:
            self.tracer.instant("noc", router.name, "offchip",
                                router.sim.now, {"dst": str(packet.dst)})

    def noc_credit_stall(self, router, direction, packet):
        if self._want_noc:
            self.tracer.instant("noc", router.name, "credit_stall",
                                router.sim.now,
                                {"dir": direction.value,
                                 "ch": packet.channel.name})

    def cache_op(self, cache, op):
        now = cache.sim.now
        self.probes.nudge(cache.name, now)
        if self._want_cache:
            self.tracer.complete("cache", cache.name, op.kind.name.lower(),
                                 op.issued_at, now - op.issued_at,
                                 {"addr": f"{op.addr:#x}"})

    def cache_miss(self, cache, line):
        if self._want_cache:
            self.tracer.instant("cache", cache.name, "miss",
                                cache.sim.now, {"line": f"{line:#x}"})

    def llc_txn(self, llc, line, started_at):
        now = llc.sim.now
        self.probes.nudge(llc.name, now)
        if self._want_cache:
            self.tracer.complete("cache", llc.name, "txn", started_at,
                                 now - started_at, {"line": f"{line:#x}"})

    def axi_txn(self, port, kind, txn):
        now = port.sim.now
        self.probes.nudge(port.name, now)
        if self._want_axi:
            self.tracer.instant("axi", port.name, kind, now,
                                {"addr": f"{txn.addr:#x}"})

    def axi_route(self, crossbar, kind, txn, region):
        if self._want_axi:
            self.tracer.instant(
                "axi", crossbar.name, f"route.{kind}", crossbar.sim.now,
                {"region": region if region is not None else "DECERR"})

    def pcie_transfer(self, fabric, src_node, dst_node, kind, units):
        now = fabric.sim.now
        self.probes.nudge(fabric.name, now)
        if self._want_pcie:
            self.tracer.instant("pcie", fabric.name, kind, now,
                                {"src": src_node, "dst": dst_node,
                                 "units": units})

    def bridge_packet(self, bridge, packet):
        now = bridge.sim.now
        self.probes.nudge(bridge.name, now)
        if self._want_bridge:
            self.tracer.instant("bridge", bridge.name, "tunnel", now,
                                {"dst": str(packet.dst),
                                 "ch": packet.channel.name})

    def bridge_credit_stall(self, bridge, key):
        if self._want_bridge:
            peer, channel = key
            self.tracer.instant("bridge", bridge.name, "credit_stall",
                                bridge.sim.now,
                                {"peer": peer, "ch": channel.name})

    def mem_retire(self, controller, kind, latency):
        now = controller.sim.now
        self.probes.nudge(controller.name, now)
        if self._want_mem:
            self.tracer.complete("mem", controller.name, kind,
                                 now - latency, latency)

    def mem_id_stall(self, controller, kind):
        if self._want_mem:
            self.tracer.instant("mem", controller.name, f"id_stall.{kind}",
                                controller.sim.now)

    def dram_access(self, dram, kind, delay, beats):
        now = dram.sim.now
        self.probes.nudge(dram.name, now)
        if self._want_mem:
            self.tracer.complete("mem", dram.name, kind, now,
                                 max(delay, 1), {"beats": beats})
