"""Base class for simulated hardware components.

A component owns a name (hierarchical, ``/``-separated, mirroring the
FPGA/node/tile hierarchy of a SMAPPIC prototype), a reference to the
simulator, and a :class:`~repro.engine.stats.StatGroup` for counters.
"""

from __future__ import annotations

from typing import Dict, Tuple

from .simulator import Simulator
from .stats import Histogram, StatGroup


class Component:
    """A named piece of simulated hardware.

    Subclasses schedule their own events through ``self.sim`` and count
    interesting happenings through ``self.stats``.

    A count taken once per message or access is a plain int attribute
    instead (``self.key += 1``), named in the class's :attr:`counted`
    tuple.  Reads of ``self.stats`` list it once it is nonzero, which
    is when ``stats.inc`` would have created it; a cold path may still
    ``stats.inc`` the same name, and the two counts add up.  The
    attributes are set to 0 here, before the subclass's own, so every
    instance keeps them in CPython's shared-key attribute layout: an
    attribute first set after many instances exist can make each
    instance that sets it fall back to a dict of its own.
    """

    #: Int attributes exported as counters while they are nonzero.
    counted: Tuple[str, ...] = ()

    def __init__(self, sim: Simulator, name: str):
        self.sim = sim
        self.name = name
        for key in self.counted:
            setattr(self, key, 0)
        self.stats = StatGroup(name, self)
        # Bind the simulator's schedule directly: component hot paths call
        # self.schedule per message, and the instance attribute skips the
        # passthrough frame below.
        self.schedule = sim.schedule
        # Observability: hooks go through self.obs unconditionally; the
        # default NO_OBS makes every one a no-op.  Binding the stat group
        # here means an enabled observer exports every component's
        # counters under its hierarchical name with zero per-component
        # registration code.
        self.obs = sim.obs
        sim.obs.bind_stats(name, self.stats)
        sim._built.append(self)

    def export_counters(self, counters: Dict[str, int]) -> None:
        """Add the nonzero attribute counts to a ``self.stats`` read."""
        for key in self.counted:
            value = getattr(self, key)
            if value:
                counters[key] = counters.get(key, 0) + value

    def export_histograms(self, histograms: Dict[str, Histogram]) -> None:
        """Add histograms derived at export time (none by default)."""

    @property
    def now(self) -> int:
        """Current simulation time in cycles."""
        return self.sim.now

    def schedule(self, delay, callback, *args, priority=0):
        """Convenience passthrough to :meth:`Simulator.schedule`."""
        return self.sim.schedule(delay, callback, *args, priority=priority)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"
