"""Discrete-event simulation kernel used by every simulated subsystem."""

from .._lazy import lazy_exports

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

__getattr__, __dir__ = lazy_exports(globals(), {
    ".component": ("Component",),
    ".link": ("InstantLink", "Link"),
    ".observer": ("NO_OBS", "NullObserver"),
    ".rng": ("derive_seed", "derived_rng"),
    ".simulator": ("ConstLatencyChannel", "Event", "Simulator"),
    ".stats": ("Histogram", "StatGroup", "merge_stat_groups"),
})
