"""The SMAPPIC platform: configuration, prototype builder, probes."""

from .._lazy import lazy_exports

__all__ = [
    "AddressMap",
    "MMIO_BASE",
    "MMIO_TILE_WINDOW",
    "NcRead",
    "NcResponse",
    "NcWrite",
    "Node",
    "PingReq",
    "PingResp",
    "Prototype",
    "PrototypeConfig",
    "SystemParams",
    "Tile",
    "build",
    "parse_config",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    ".addrmap": ("AddressMap", "MMIO_BASE", "MMIO_TILE_WINDOW"),
    ".config": ("PrototypeConfig", "SystemParams", "parse_config"),
    ".nc": ("NcRead", "NcResponse", "NcWrite", "PingReq", "PingResp"),
    ".node": ("Node",),
    ".prototype": ("Prototype", "build"),
    ".tile": ("Tile",),
})
