"""Finite grid models of physical qubit layouts with nearest-neighbour adjacency."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, NamedTuple


class Site(NamedTuple):
    """A grid coordinate. ``z`` stays 0 on 2D lattices."""

    x: int
    y: int
    z: int = 0

    def manhattan(self, other: "Site") -> int:
        return abs(self.x - other.x) + abs(self.y - other.y) + abs(self.z - other.z)


_STEPS = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))


@dataclass(frozen=True)
class Lattice:
    """An open-boundary square/cubic grid of qubit sites."""

    dx: int
    dy: int
    dz: int = 1

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.dx, self.dy, self.dz)

    @property
    def dimensionality(self) -> int:
        return 2 if self.dz == 1 else 3

    @property
    def size(self) -> int:
        return self.dx * self.dy * self.dz

    def __contains__(self, site: Site) -> bool:
        return 0 <= site.x < self.dx and 0 <= site.y < self.dy and 0 <= site.z < self.dz

    def sites(self) -> Iterator[Site]:
        for x in range(self.dx):
            for y in range(self.dy):
                for z in range(self.dz):
                    yield Site(x, y, z)

    def check(self, site: Site) -> None:
        if site not in self:
            raise ValueError(f"site {tuple(site)} outside lattice {self.dims}")

    @cached_property
    def sorted_neighbours(self) -> dict[Site, tuple[Site, ...]]:
        """Site -> its in-lattice nearest neighbours as one sorted tuple."""
        table = {}
        for s in self.sites():
            cands = (Site(s.x + dx, s.y + dy, s.z + dz) for dx, dy, dz in _STEPS)
            table[s] = tuple(sorted(c for c in cands if c in self))
        return table


def grid(dx: int, dy: int, dz: int = 1) -> Lattice:
    """Build a ``dx * dy * dz`` lattice. ``dz == 1`` yields a 2D lattice."""
    if dx < 1 or dy < 1 or dz < 1:
        raise ValueError(f"lattice dimensions must be positive, got ({dx}, {dy}, {dz})")
    return Lattice(dx, dy, dz)

