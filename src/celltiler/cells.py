"""The standard-cell library: wire/vertex/role templates and their placement."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, cached_property
from types import MappingProxyType
from typing import Mapping

from celltiler.circuit import Schedule
from celltiler.lattice import Lattice, Site

ROLE_CONTROL = "control"
ROLE_TARGET = "target"
ROLE_ANCILLA = "ancilla"
ROLE_AND_RESULT = "and_result"

DATA_ROLES = {ROLE_CONTROL, ROLE_TARGET, ROLE_AND_RESULT}


# The 24 proper rotations of the cube in a fixed order, each stored as rows:
# its columns are the images cx and cy of the x and y axes, two perpendicular
# unit vectors, and their cross product, so the determinant is +1.
ROTATIONS_3D = [
    tuple(zip(cx, cy, (cx[1] * cy[2] - cx[2] * cy[1], cx[2] * cy[0] - cx[0] * cy[2], cx[0] * cy[1] - cx[1] * cy[0])))
    for cx, cy in itertools.permutations(((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)), 2)
    if sum(a * b for a, b in zip(cx, cy)) == 0
]


def _apply_rotation(mat, site: Site) -> tuple[int, int, int]:
    (a, b, c), (d, e, f), (g, h, i) = mat
    x, y, z = site
    return (a * x + b * y + c * z, d * x + e * y + f * z, g * x + h * y + i * z)


@dataclass(frozen=True)
class Tile:
    """A standard cell: the hosted decomposition's wire and role on each local
    vertex. Its sticks, the allowed two-qubit interactions, are the pairs of
    nearest-neighbour vertices."""

    name: str
    vertices: tuple[tuple[str, Site, str], ...]  # (wire, vertex, role)

    def __post_init__(self):
        if len({v for _, v, _ in self.vertices}) != len(self.vertices):
            raise ValueError("duplicate tile vertex")
        if len({w for w, _, _ in self.vertices}) != len(self.vertices):
            raise ValueError("duplicate tile wire")


def toffoli_cube() -> Tile:
    """The 7-vertex cube cell hosting a T-depth-1 Toffoli decomposition.

    Two controls and the target sit on one parity class of the cube, the four
    parity ancillae on the other; the eighth corner is absent. The sticks,
    the nearest-neighbour pairs, are the nine cube edges between present
    vertices, which is exactly the CNOT set the decomposition needs.
    """
    a, b, c = Site(1, 0, 0), Site(0, 1, 0), Site(0, 0, 1)
    z1, z2, z3, z4 = Site(1, 1, 0), Site(1, 0, 1), Site(0, 1, 1), Site(0, 0, 0)
    vertices = (
        ("a", a, ROLE_CONTROL), ("b", b, ROLE_CONTROL), ("c", c, ROLE_TARGET),
        ("z1", z1, ROLE_ANCILLA), ("z2", z2, ROLE_ANCILLA), ("z3", z3, ROLE_ANCILLA), ("z4", z4, ROLE_ANCILLA),
    )
    return Tile("toffoli_cube", vertices)


def tdepth2_tile() -> Tile:
    """2D cell for the T-depth-2 Toffoli: 2 controls, target, 3 ancillae.

    The thrice-targeted parity ancilla sits at the crossing between the
    control and target sticks.
    """
    a, b, t = Site(0, 0, 0), Site(2, 0, 0), Site(1, 1, 0)
    x, y, w = Site(0, 1, 0), Site(2, 1, 0), Site(1, 0, 0)
    vertices = (
        ("a", a, ROLE_CONTROL), ("b", b, ROLE_CONTROL), ("t", t, ROLE_TARGET),
        ("x", x, ROLE_ANCILLA), ("y", y, ROLE_ANCILLA), ("w", w, ROLE_ANCILLA),
    )
    return Tile("tdepth2", vertices)


def and_tile() -> Tile:
    """2D cell for the measurement-based Toffoli built around a logical AND.

    The AND result (red vertex) feeds the true target by a CNOT; the parity
    ancilla between the controls doubles as the mediator of the classically
    controlled CZ correction.
    """
    a, b = Site(2, 0, 0), Site(2, 2, 0)
    w = Site(1, 1, 0)
    z2, z3, z4 = Site(1, 0, 0), Site(1, 2, 0), Site(2, 1, 0)
    t = Site(0, 1, 0)
    vertices = (
        ("a", a, ROLE_CONTROL), ("b", b, ROLE_CONTROL), ("t", t, ROLE_TARGET),
        ("w", w, ROLE_AND_RESULT),
        ("z2", z2, ROLE_ANCILLA), ("z3", z3, ROLE_ANCILLA), ("z4", z4, ROLE_ANCILLA),
    )
    return Tile("and_mb", vertices)


def tile_supports(tile: Tile, schedule: Schedule) -> bool:
    """Whether every operand pair of every gate lies on a stick, that is on
    two nearest-neighbour vertices.

    Each schedule wire sits on the tile vertex that hosts it; a gate on one
    wire has no pair. No Toffoli is ever supported: no three lattice sites
    are pairwise nearest neighbours.
    """
    site_of = {w: v for w, v, _ in tile.vertices}
    for wire in schedule.wires():
        if wire not in site_of:
            raise ValueError(f"wire {wire!r} has no tile vertex")
    return all(
        site_of[a].manhattan(site_of[b]) == 1
        for g in schedule.gates() for a, b in itertools.combinations(g.operands, 2)
    )


@cache
def _placed(tile: Tile, orientation: int, offset: Site) -> tuple[Mapping[Site, str], frozenset[Site]]:
    """A placement's sites, computed once per distinct placement: the
    read-only lattice site -> role of every tile vertex, in tile order, and
    the corners of its bounding box that share the parity of its data
    vertices, a corner no vertex sits on included."""
    mat = ROTATIONS_3D[orientation]
    raw = [_apply_rotation(mat, v) for _, v, _ in tile.vertices]
    dx, dy, dz = (o - min(axis) for o, axis in zip(offset, zip(*raw)))
    roles = {Site(x + dx, y + dy, z + dz): role for (x, y, z), (_, _, role) in zip(raw, tile.vertices)}
    parities = {sum(s) % 2 for s, role in roles.items() if role in DATA_ROLES}
    box = itertools.product(*({min(axis), max(axis)} for axis in zip(*roles)))
    return MappingProxyType(roles), frozenset(Site(*c) for c in box if sum(c) % 2 in parities)


@dataclass(frozen=True)
class Placement:
    """A tile instantiated at a lattice offset under one of 24 axis rotations."""

    tile: Tile
    offset: Site
    orientation: int = 0

    def __post_init__(self):
        if type(self.orientation) is not int or not 0 <= self.orientation < len(ROTATIONS_3D):
            raise ValueError(f"orientation must be an int in 0..{len(ROTATIONS_3D) - 1}, got {self.orientation!r}")

    @cached_property
    def vertex_roles(self) -> Mapping[Site, str]:
        """Lattice site -> role of every tile vertex; computed once, read-only."""
        return _placed(self.tile, self.orientation, self.offset)[0]

    @cached_property
    def data_corners(self) -> frozenset[Site]:
        """The corners of the placement's bounding box that share the parity
        of its data vertices, including the corner no vertex sits on: on the
        cube, the four sites a Toffoli may join. Computed once."""
        return _placed(self.tile, self.orientation, self.offset)[1]

    def sites(self) -> set[Site]:
        return set(self.vertex_roles)


class Layout:
    """A lattice with placed cells and named storage queues.

    ``queue_of`` maps each queue site to the name of its one queue.
    """

    def __init__(self, lattice: Lattice):
        self.lattice = lattice
        self.placements: list[Placement] = []
        self.queues: dict[str, list[Site]] = {}
        self.queue_of: dict[Site, str] = {}

    def add_queue(self, name: str, chain: list[Site]) -> None:
        if name in self.queues:
            raise ValueError(f"queue {name!r} already exists")
        for s in chain:
            self.lattice.check(s)
            if s in self.queue_of:
                raise ValueError(f"site {tuple(s)} is already in queue {self.queue_of[s]!r}")
        for a, b in zip(chain, chain[1:]):
            if a.manhattan(b) != 1:
                raise ValueError(f"queue {name!r} is not a chain at {a}->{b}")
        self.queues[name] = list(chain)
        self.queue_of.update(dict.fromkeys(chain, name))

    def used_sites(self) -> set[Site]:
        used = set(self.queue_of)
        for p in self.placements:
            used |= p.sites()
        return used

    def computational_sites(self) -> set[Site]:
        out = set()
        for p in self.placements:
            for s, role in p.vertex_roles.items():
                if role in (ROLE_CONTROL, ROLE_TARGET):
                    out.add(s)
        return out

    def payload(self) -> dict:
        """The layout as a dict that ``json_value`` writes; sites stay ``Site``."""
        return {
            "lattice": self.lattice.dims,
            "placements": [
                {"tile": p.tile.name, "offset": p.offset, "orientation": p.orientation}
                for p in self.placements
            ],
            "queues": dict(self.queues),
        }


def place(layout: Layout, tile: Tile, offset: Site, orientation: int = 0) -> Layout:
    """Add a placement; overlap is legal only where no two data roles collide."""
    cand = Placement(tile, offset, orientation)
    roles = cand.vertex_roles
    for s in roles:
        if s not in layout.lattice:
            raise ValueError(f"tile {tile.name} at {tuple(offset)} leaves the lattice at {tuple(s)}")
    for prev in layout.placements:
        prev_roles = prev.vertex_roles
        for s, role in roles.items():
            other = prev_roles.get(s)
            if other is None:
                continue
            if role in DATA_ROLES and other in DATA_ROLES:
                raise ValueError(f"role conflict at {tuple(s)}: {other} vs {role}")
    layout.placements.append(cand)
    return layout
