"""Set-associative cache array with true-LRU replacement.

Shared by the L1, the BPC (private cache) and the LLC slices.  The array
stores an opaque payload per line (the controllers keep coherence state
and data in it) and never initiates traffic itself.

A set's dict is made on its first :meth:`CacheArray.insert`, so building
a 4x1x12 prototype (15,360 sets, 320 per tile) allocates none of them.
Reads of a set that has never held a line see one shared, read-only
empty mapping and allocate nothing either.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Callable, Dict, Iterator, List, Mapping, Optional

from ..errors import ConfigError

#: What :meth:`CacheArray._set_of` returns for a set holding no line.
_NO_LINES: Mapping[int, "CacheEntry"] = MappingProxyType({})


class CacheEntry:
    """One resident line."""

    __slots__ = ("line_addr", "payload", "_stamp")

    def __init__(self, line_addr: int, payload: object, stamp: int):
        self.line_addr = line_addr
        self.payload = payload
        self._stamp = stamp

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CacheEntry {self.line_addr:#x}>"


class CacheArray:
    """``size_bytes`` of storage, ``ways``-associative, ``line_bytes`` lines."""

    def __init__(self, size_bytes: int, ways: int, line_bytes: int = 64):
        if size_bytes <= 0 or ways <= 0 or line_bytes <= 0:
            raise ConfigError("cache geometry must be positive")
        if size_bytes % (ways * line_bytes):
            raise ConfigError(
                f"size {size_bytes} not divisible by ways*line "
                f"({ways}*{line_bytes})")
        self.line_bytes = line_bytes
        self.ways = ways
        self.n_sets = size_bytes // (ways * line_bytes)
        # None until the set's first insert.
        self._sets: List[Optional[Dict[int, CacheEntry]]] = \
            [None] * self.n_sets
        self._clock = 0
        self.hits = 0
        self.misses = 0

    def _set_of(self, line_addr: int) -> Mapping[int, CacheEntry]:
        """The set of ``line_addr`` for reading; allocates nothing."""
        index = (line_addr // self.line_bytes) % self.n_sets
        return self._sets[index] or _NO_LINES

    def _tick(self) -> int:
        self._clock += 1
        return self._clock

    def lookup(self, line_addr: int, touch: bool = True) -> Optional[CacheEntry]:
        """Return the entry for ``line_addr`` or None; updates LRU on hit."""
        entry = self._set_of(line_addr).get(line_addr)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        if touch:
            entry._stamp = self._tick()
        return entry

    def contains(self, line_addr: int) -> bool:
        return line_addr in self._set_of(line_addr)

    def victim_for(self, line_addr: int,
                   prefer: Optional[Callable[[CacheEntry], bool]] = None
                   ) -> Optional[CacheEntry]:
        """Entry that must be evicted to make room for ``line_addr``.

        Returns None when the set has a free way.  ``prefer`` marks entries
        that are cheaper to evict (e.g. directory-idle lines in the LLC);
        preferred entries are chosen (oldest first) before any other.
        """
        target_set = self._set_of(line_addr)
        if line_addr in target_set:
            return None
        if len(target_set) < self.ways:
            return None
        candidates = sorted(target_set.values(), key=lambda e: e._stamp)
        if prefer is not None:
            for entry in candidates:
                if prefer(entry):
                    return entry
        return candidates[0]

    def insert(self, line_addr: int, payload: object) -> CacheEntry:
        """Insert a line.  The caller must have evicted any victim first."""
        index = (line_addr // self.line_bytes) % self.n_sets
        target_set = self._sets[index]
        if target_set is None:
            target_set = self._sets[index] = {}
        elif line_addr not in target_set and len(target_set) >= self.ways:
            raise ConfigError(
                f"set full inserting {line_addr:#x}; evict a victim first")
        entry = CacheEntry(line_addr, payload, self._tick())
        target_set[line_addr] = entry
        return entry

    def remove(self, line_addr: int) -> Optional[CacheEntry]:
        target_set = self._sets[(line_addr // self.line_bytes) % self.n_sets]
        return None if target_set is None else target_set.pop(line_addr, None)

    def entries(self) -> Iterator[CacheEntry]:
        for target_set in self._sets:
            if target_set:
                yield from target_set.values()

    @property
    def resident(self) -> int:
        return sum(len(s) for s in self._sets if s)
