"""Tiled multiplier layouts: qubit accounting, queues and the initial mapping."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Hashable

from celltiler.cells import Layout, ROTATIONS_3D, place, toffoli_cube
from celltiler.lattice import Lattice, Site

# Column shorthands on the 2 x 3 x H lattice, one cached Site per height. The
# window of product bits zig-zags between the S and N columns by height parity;
# L is the ladder the control climbs; E holds the A register.
S = cache(lambda z: Site(0, 0, z))
E = cache(lambda z: Site(1, 0, z))
L = cache(lambda z: Site(0, 1, z))
N = cache(lambda z: Site(1, 1, z))
YELLOW = cache(lambda z: Site(0, 2, z))
MAGENTA = cache(lambda z: Site(1, 2, z))


def col(z: int) -> Site:
    """The window column at height z: N for even z, S for odd."""
    return N(z) if z % 2 == 0 else S(z)


def col_other(z: int) -> Site:
    return S(z) if z % 2 == 0 else N(z)


def seat(k: int, n: int) -> Site:
    """Lattice seat of window bit k: height n - k on the parity column."""
    return col(n - k)


def fourth(p: int) -> Site:
    """Cube p's spare data corner, opposite the window seat at its top face."""
    return col_other(p + 1)


def tower_height(n: int) -> int:
    """Lattice height of the n-bit multiplier; the one home of the width rule."""
    if n < 1:
        raise ValueError(f"operand width must be >= 1, got {n}")
    return n + 1 + math.ceil(n / 4) + n // 2


def qubit_count(n: int) -> int:
    """Total lattice qubits of the n-bit multiplier device."""
    return 2 * 3 * tower_height(n)


@dataclass(frozen=True)
class RegisterSpec:
    """Logical register labels for an n-bit multiplication."""

    n: int
    a: tuple[str, ...]
    b: tuple[str, ...]
    p: tuple[str, ...]
    z: str = "Z"

    @classmethod
    def for_width(cls, n: int) -> "RegisterSpec":
        if n < 1:
            raise ValueError(f"operand width must be >= 1, got {n}")
        return cls(
            n=n,
            a=tuple(f"A{i}" for i in range(n)),
            b=tuple(f"B{i}" for i in range(n)),
            p=tuple(f"P{i}" for i in range(2 * n)),
        )

    def all_data(self) -> tuple[str, ...]:
        return self.a + self.b + self.p + (self.z,)


_IDENTITY = ROTATIONS_3D.index(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
_Z180 = ROTATIONS_3D.index(((-1, 0, 0), (0, -1, 0), (0, 0, 1)))


def cube_orientation(p: int) -> int:
    """Orientation putting cube p's target corner on the spare data corner."""
    return _Z180 if p % 2 == 0 else _IDENTITY


def build_multiplier_layout(n: int) -> Layout:
    """Tile n Toffoli cubes into a 2 x 3 x H tower and attach the queues.

    Queues: ``yellow`` feeds the B operand (and parks Z and spent controls),
    ``magenta`` feeds the zero ancillae that become high product bits,
    ``grey_out`` takes finished product bits off the window head, and
    ``grey_aux`` takes the first partial product off the tower top.
    """
    h = tower_height(n)
    if h < 2 * n - 1 and n > 1:
        # queues above the tower would overflow; holds for n <= 10
        raise ValueError(f"multiplier schedules are not supported for n={n}")
    layout = Layout(Lattice(2, 3, h))
    tile = toffoli_cube()
    for p in range(n):
        place(layout, tile, Site(0, 0, p), cube_orientation(p))
    layout.add_queue("yellow", [YELLOW(z) for z in range(n + 1)])
    layout.add_queue("magenta", [MAGENTA(z) for z in range(max(n - 1, 1))])
    head = col(n)
    grey = [Site(head.x, head.y, z) for z in range(n, h)]
    for z in range(h - 1, n, -1):
        if len(grey) >= n:
            break
        grey.append(L(z))  # bend over the free ladder top
    layout.add_queue("grey_out", grey)
    aux = col_other(n)
    layout.add_queue("grey_aux", [Site(aux.x, aux.y, z) for z in range(n + 1, min(n + 3, h))])
    return layout


def initial_mapping(layout: Layout, spec: RegisterSpec) -> dict[Hashable, Site]:
    """Seed the registers: A up the E column, partial products on the spare
    corners, B0 at the ladder foot, B tail and Z in yellow, future high
    product bits in magenta; ancillae fill every remaining used site."""
    n = spec.n
    if len(layout.placements) != n:
        raise ValueError(f"layout has {len(layout.placements)} cubes, spec expects {n}")
    mapping: dict[Hashable, Site] = {}
    for i in range(n):
        mapping[spec.a[i]] = E(n - 1 - i)
        mapping[spec.p[i]] = fourth(n - 1 - i)
    mapping[spec.p[n]] = seat(n - 1, n)  # the carry receiver of the first add
    mapping[spec.b[0]] = L(0)
    if n == 1:
        mapping[spec.z] = YELLOW(0)
    else:
        mapping[spec.b[1]] = YELLOW(0)
        mapping[spec.z] = YELLOW(1)
        for j in range(2, n):
            mapping[spec.b[j]] = YELLOW(j)
    for k in range(n - 1):
        mapping[spec.p[n + 1 + k]] = MAGENTA(k)

    taken = set(mapping.values())
    used = sorted(layout.used_sites())
    idx = 0
    for site in used:
        if site in taken:
            continue
        mapping[f"anc{idx}"] = site
        idx += 1
    if len(mapping) != len(used):
        raise AssertionError("mapping does not cover the used sites exactly")
    return mapping


def usage_ratio(layout: Layout) -> Fraction:
    """Used sites (tiles plus queues) over total lattice sites."""
    return Fraction(len(layout.used_sites()), layout.lattice.size)


def effectiveness_ratio(layout: Layout) -> Fraction:
    """Computational (control/target) sites over total lattice sites."""
    return Fraction(len(layout.computational_sites()), layout.lattice.size)
