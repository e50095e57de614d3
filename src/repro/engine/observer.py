"""Observability hook surface: the null object every component sees.

Every :class:`~repro.engine.component.Component` carries ``self.obs``,
taken from its simulator.  By default that is :data:`NO_OBS`, an instance
of :class:`NullObserver` whose hook methods all do nothing — component
code calls ``self.obs.noc_inject(self, packet)`` unconditionally,
with no ``if`` guarding the call site, and the disabled path costs one
no-op method call.  The hooks deliberately take cheap positional
arguments (the component itself plus objects the caller already holds);
anything expensive — name formatting, dict building, time lookups — is
deferred to the enabled implementation in :mod:`repro.obs`.

The interface lives in the engine (not in :mod:`repro.obs`) so the
kernel has no dependency on the observability package; ``repro.obs``
subclasses :class:`NullObserver` and overrides the hooks it wants.

Hook contract: an observer must never mutate model state, never schedule
events, and never raise — enabling observability cannot change a single
architectural result bit (the determinism tests assert exactly that).
"""

from __future__ import annotations


class NullObserver:
    """Do-nothing observer; the default for every simulator.

    ``enabled`` is False exactly here; :class:`repro.obs.Observer` sets it
    True.  Construction-time registration hooks (``register_gauge``,
    ``register_link``, ``bind_stats``, ``wrap_channel``) are no-ops too,
    so wiring code stays unconditional as well.
    """

    enabled = False
    registry = None
    tracer = None
    probes = None

    # ------------------------------------------------------------------
    # Construction-time registration (cold path)
    # ------------------------------------------------------------------
    def register_gauge(self, name, fn, category="gauge"):
        """Expose ``fn()`` as a live gauge (and sampled probe source).

        ``category`` names the subsystem (``noc``, ``mem``, ``cache``...)
        so the enabled observer can sample it on a per-category interval.
        """

    def register_link(self, link):
        """Track a Link for occupancy sampling."""

    def bind_stats(self, prefix, group):
        """Export a StatGroup's counters/histograms under ``prefix``."""

    def wrap_channel(self, sim, channel):
        """Optionally wrap a ConstLatencyChannel for kernel-event tracing;
        the null observer returns it untouched."""
        return channel

    def flush(self):
        """Spill any buffered trace output (streaming backends); called
        by the simulator when a drain completes."""

    # ------------------------------------------------------------------
    # Event hooks (hot paths; all no-ops here)
    # ------------------------------------------------------------------
    def link_transfer(self, link, units, depart, arrival):
        """A message occupied ``link`` from ``depart`` to ``arrival``."""

    def noc_inject(self, router, packet):
        """A packet was injected at ``router``."""

    def noc_hop(self, router, packet, from_direction, at):
        """A packet arrived at ``router`` over ``from_direction``; ``at``
        is its wire-arrival cycle.  The hook runs at the routing stage,
        ``hop_latency`` cycles later, after any other hook the router
        fired in between."""

    def noc_eject(self, router, packet):
        """A packet reached its destination tile."""

    def noc_offchip(self, router, packet):
        """A packet left the node through tile 0's off-chip port."""

    def noc_credit_stall(self, router, direction, packet):
        """A forward had to wait for a returning credit."""

    def cache_op(self, cache, op):
        """A core-side memory op completed (op carries issued_at)."""

    def cache_miss(self, cache, line):
        """A lookup missed and a coherence request was issued."""

    def llc_txn(self, llc, line, started_at):
        """An LLC slice transaction on ``line`` completed."""

    def axi_txn(self, port, kind, txn):
        """An AXI burst entered ``port`` ('read' or 'write')."""

    def axi_route(self, crossbar, kind, txn, region):
        """A crossbar decoded ``txn`` into ``region`` (None = DECERR)."""

    def pcie_transfer(self, fabric, src_node, dst_node, kind, units):
        """An AXI burst entered the inter-FPGA fabric."""

    def bridge_packet(self, bridge, packet):
        """The inter-node bridge tunneled a NoC packet outward."""

    def bridge_credit_stall(self, bridge, key):
        """The bridge stalled a packet waiting for tunnel credits."""

    def mem_retire(self, controller, kind, latency):
        """The memory controller retired a request after ``latency``."""

    def mem_id_stall(self, controller, kind):
        """A request queued because the engine's AXI ID pool was dry."""

    def dram_access(self, dram, kind, delay, beats):
        """A DRAM access was scheduled to finish ``delay`` cycles out."""


#: The process-wide disabled observer (stateless, safe to share).
NO_OBS = NullObserver()
