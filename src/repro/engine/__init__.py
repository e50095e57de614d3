"""Discrete-event simulation kernel used by every simulated subsystem."""

from .component import Component
from .link import InstantLink, Link
from .observer import NO_OBS, NullObserver
from .rng import derive_seed, derived_rng
from .simulator import ConstLatencyChannel, Event, Simulator
from .stats import Histogram, StatGroup, merge_stat_groups

__all__ = [
    "Component",
    "ConstLatencyChannel",
    "Event",
    "Histogram",
    "InstantLink",
    "Link",
    "NO_OBS",
    "NullObserver",
    "Simulator",
    "StatGroup",
    "derive_seed",
    "derived_rng",
    "merge_stat_groups",
]
