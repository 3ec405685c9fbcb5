"""Finite grid models of physical qubit layouts with nearest-neighbour adjacency."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from operator import index
from typing import NamedTuple


class _SiteFields(NamedTuple):
    x: int
    y: int
    z: int = 0


class Site(_SiteFields):
    """A grid coordinate. ``z`` stays 0 on 2D lattices. Each coordinate is an
    exact ``int`` (``operator.index``): ``True`` becomes ``1`` and a float
    raises ``TypeError``, so a site's JSON text is a function of its value."""

    __slots__ = ()

    def __new__(cls, x: int, y: int, z: int = 0) -> "Site":
        return tuple.__new__(cls, (index(x), index(y), index(z)))

    def manhattan(self, other: "Site") -> int:
        return abs(self.x - other.x) + abs(self.y - other.y) + abs(self.z - other.z)


@dataclass(frozen=True)
class Lattice:
    """An open-boundary grid of qubit sites, each dimension an exact ``int``
    (``operator.index``, as ``Site``) of at least 1.

    Site ``(x, y, z)`` has the index ``(x * dy + y) * dz + z``, so index order
    is ascending ``Site`` order. ``all_sites`` (index to site) and
    ``index_of`` (site to index) are the two conversions, each built once,
    and ``adjacency`` is read by index.
    """

    dx: int
    dy: int
    dz: int = 1

    def __post_init__(self):
        for name in ("dx", "dy", "dz"):  # exact ints, as Site's coordinates
            object.__setattr__(self, name, index(getattr(self, name)))
        if self.dx < 1 or self.dy < 1 or self.dz < 1:
            raise ValueError(f"lattice dimensions must be positive, got {self.dims}")

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.dx, self.dy, self.dz)

    @property
    def size(self) -> int:
        return self.dx * self.dy * self.dz

    def __contains__(self, site: Site) -> bool:
        return 0 <= site.x < self.dx and 0 <= site.y < self.dy and 0 <= site.z < self.dz

    def check(self, site: Site) -> None:
        if site not in self:
            raise ValueError(f"site {tuple(site)} outside lattice {self.dims}")

    @cached_property
    def all_sites(self) -> tuple[Site, ...]:
        """Every site in index order: ``all_sites[i]`` has the index ``i``."""
        return tuple(itertools.starmap(Site, itertools.product(*map(range, self.dims))))

    @cached_property
    def index_of(self) -> dict[Site, int]:
        """Per site, its index."""
        return dict(zip(self.all_sites, range(self.size)))

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Per site index, the indices of its in-lattice nearest neighbours in
        ascending order: -x, -y, -z, +z, +y, +x. A unit step ``d`` along an
        axis is taken where the coordinate plus ``d`` stays in range, and adds
        ``d`` times the axis's stride to the index."""
        dims, stride = self.dims, (self.dy * self.dz, self.dz, 1)
        units = ((0, -1), (1, -1), (2, -1), (2, 1), (1, 1), (0, 1))  # (axis, d) in ascending index order
        return tuple(tuple([i + d * stride[a] for a, d in units if 0 <= site[a] + d < dims[a]])
                     for i, site in enumerate(self.all_sites))


grid = Lattice

