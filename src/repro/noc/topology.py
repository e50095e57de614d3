"""2D-mesh topology for a node's tiles.

OpenPiton arranges tiles in a 2D mesh with dimension-ordered (X-then-Y)
routing.  SMAPPIC keeps this inside each node; anything leaving the node is
first routed to tile 0 and ejected through its off-chip ("north") port into
the chipset or the inter-node bridge (paper Fig. 4, stage 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from typing import Iterator, List, Tuple

from ..errors import ConfigError


class Direction(Enum):
    """Router ports.  OFFCHIP exists only on tile 0."""

    NORTH = "N"
    SOUTH = "S"
    EAST = "E"
    WEST = "W"
    LOCAL = "L"
    OFFCHIP = "O"


OPPOSITE = {
    Direction.NORTH: Direction.SOUTH,
    Direction.SOUTH: Direction.NORTH,
    Direction.EAST: Direction.WEST,
    Direction.WEST: Direction.EAST,
}


@dataclass(frozen=True)
class Mesh:
    """Geometry of a node's tile grid.

    Tiles are numbered row-major: tile ``t`` sits at
    ``(x, y) = (t % width, t // width)``.  The grid may be ragged in the last
    row (e.g. 12 tiles as 4x3 is exact; 10 tiles as 4x3 leaves two holes),
    matching how OpenPiton lays out non-square tile counts.

    :meth:`for_tiles` returns one mesh per tile count for the life of
    the process, so its tables (:attr:`step_table`, :attr:`ports`) are
    computed once and shared, read-only, by every prototype built with
    that count.
    """

    n_tiles: int
    width: int

    def __post_init__(self) -> None:
        if self.n_tiles < 1:
            raise ConfigError(f"mesh needs >=1 tile, got {self.n_tiles}")
        if self.width < 1:
            raise ConfigError(f"mesh width must be >=1, got {self.width}")

    @staticmethod
    @lru_cache(maxsize=None)
    def for_tiles(n_tiles: int) -> "Mesh":
        """The mesh of ``n_tiles`` with a near-square width (wider than
        tall); the same object on every call with the same count."""
        if n_tiles < 1:
            raise ConfigError(f"mesh needs >=1 tile, got {n_tiles}")
        width = math.ceil(math.sqrt(n_tiles))
        return Mesh(n_tiles=n_tiles, width=width)

    @property
    def height(self) -> int:
        return math.ceil(self.n_tiles / self.width)

    def coords(self, tile: int) -> Tuple[int, int]:
        if not 0 <= tile < self.n_tiles:
            raise ConfigError(f"tile {tile} out of range 0..{self.n_tiles - 1}")
        return tile % self.width, tile // self.width

    def tile_at(self, x: int, y: int) -> int:
        tile = y * self.width + x
        if x < 0 or x >= self.width or y < 0 or tile >= self.n_tiles:
            raise ConfigError(f"no tile at ({x}, {y})")
        return tile

    def has_tile(self, x: int, y: int) -> bool:
        return (0 <= x < self.width and 0 <= y < self.height
                and y * self.width + x < self.n_tiles)

    def neighbors(self, tile: int) -> Iterator[Tuple[Direction, int]]:
        """Yield (direction, neighbor tile) pairs for existing neighbors."""
        x, y = self.coords(tile)
        candidates = [
            (Direction.EAST, x + 1, y),
            (Direction.WEST, x - 1, y),
            (Direction.SOUTH, x, y + 1),
            (Direction.NORTH, x, y - 1),
        ]
        for direction, nx, ny in candidates:
            if self.has_tile(nx, ny):
                yield direction, self.tile_at(nx, ny)

    def route_step(self, here: int, dest: int) -> Direction:
        """Next hop under boundary-aware X-then-Y routing.

        Pure dimension-ordered routing breaks on a ragged last row: an
        eastward X step can point at a hole (a grid position past the last
        tile).  Only EAST can ever step into a hole — holes exist solely at
        the end of the last row, so WEST/NORTH moves stay inside the mesh
        and a SOUTH move into the last row only happens when ``dest``
        itself (an existing tile) is there.  When the EAST step is blocked,
        ``dest`` must lie in an earlier row (its x > ours is only reachable
        above the ragged row), so detouring NORTH first is still minimal.
        """
        hx, hy = self.coords(here)
        dx, dy = self.coords(dest)
        if hx < dx:
            if hy * self.width + hx + 1 < self.n_tiles:
                return Direction.EAST
            return Direction.NORTH
        if hx > dx:
            return Direction.WEST
        if hy < dy:
            return Direction.SOUTH
        if hy > dy:
            return Direction.NORTH
        return Direction.LOCAL

    @cached_property
    def step_table(self) -> Tuple[Tuple[Direction, ...], ...]:
        """``step_table[here][dest]`` = :meth:`route_step` for every pair."""
        return tuple(tuple(self.route_step(here, dest)
                           for dest in range(self.n_tiles))
                     for here in range(self.n_tiles))

    @cached_property
    def ports(self) -> Tuple[Tuple[Tuple[Direction, int, Tuple[int, ...]],
                                   ...], ...]:
        """``ports[tile]``: one ``(direction, neighbor, dests)`` per
        :meth:`neighbors` pair of ``tile``, in that order.

        ``dests`` lists, ascending, every tile whose :attr:`step_table`
        step from ``tile`` is ``direction``: the destinations the
        router's output port toward ``neighbor`` serves.  Routers are
        wired from this table, so a build scans no step row.
        """
        return tuple(
            tuple((direction, neighbor,
                   tuple(dest for dest, step in enumerate(steps)
                         if step is direction))
                  for direction, neighbor in self.neighbors(tile))
            for tile, steps in enumerate(self.step_table))

    def hop_count(self, a: int, b: int) -> int:
        """Manhattan distance between tiles ``a`` and ``b``."""
        ax, ay = self.coords(a)
        bx, by = self.coords(b)
        return abs(ax - bx) + abs(ay - by)

    def all_tiles(self) -> List[int]:
        return list(range(self.n_tiles))
