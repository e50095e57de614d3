"""SMAPPIC reproduction: scalable multi-FPGA architecture prototypes.

Reproduction of *SMAPPIC: Scalable Multi-FPGA Architecture Prototype
Platform in the Cloud* (Chirkov & Wentzlaff, ASPLOS 2023) as an
event-driven simulation of the full platform stack, plus the paper's
cost models and case-study workloads.

Quick start::

    from repro import build

    proto = build("1x1x4")                # 1 FPGA, 1 node, 4 tiles
    proto.write_u64(0, 0, 0x1000, 42)     # store from node 0, tile 0
    assert proto.read_u64(0, 3, 0x1000) == 42   # coherent load, tile 3
"""

from ._lazy import lazy_exports
from .errors import (BuildError, ConfigError, ProtocolError, ReproError,
                     ResourceError, SimulationError, WorkloadError)

__version__ = "1.0.0"

__all__ = [
    "BuildError",
    "ConfigError",
    "ProtocolError",
    "Prototype",
    "PrototypeConfig",
    "ReproError",
    "ResourceError",
    "SimulationError",
    "SystemParams",
    "WorkloadError",
    "build",
    "parse_config",
    "__version__",
]

# The simulator loads on first use of a name below, so ``import
# repro.serve.client`` or ``repro --help`` never builds it.
__getattr__, __dir__ = lazy_exports(globals(), {
    ".core.config": ("PrototypeConfig", "SystemParams", "parse_config"),
    ".core.prototype": ("Prototype", "build"),
})
