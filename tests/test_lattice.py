import itertools

import pytest
from hypothesis import given, strategies as st

from celltiler.lattice import Lattice, Site, grid


def test_grid_sizes():
    assert grid(2, 3, 8).size == 48
    assert grid(1, 1, 1).size == 1
    assert grid(2, 2, 2).size == 8


@pytest.mark.parametrize("dims", [(0, 1, 1), (1, -1, 1), (1, 1, 0)])
def test_grid_rejects_bad_dims(dims):
    with pytest.raises(ValueError):
        grid(*dims)


@pytest.mark.parametrize("dims, text", [
    ((2, 3, -1), "(2, 3, -1)"), ((0, 3, 2), "(0, 3, 2)"), ((2, 0), "(2, 0, 1)"),
])
def test_lattice_checks_its_own_dims(dims, text):
    with pytest.raises(ValueError) as err:
        Lattice(*dims)
    assert str(err.value) == f"lattice dimensions must be positive, got {text}"


def test_lattice_takes_only_exact_int_dims():
    # as Site's coordinates: a bool becomes its int, a float or str never builds
    lat = Lattice(True, 3)
    assert lat.dims == (1, 3, 1) and all(type(d) is int for d in lat.dims)
    assert lat == Lattice(1, 3) and lat.adjacency == Lattice(1, 3).adjacency
    for dims in [(2.0, 3), ("2", 3), (2, 3, 1.0)]:
        with pytest.raises(TypeError):
            Lattice(*dims)


def _axis_order_neighbours(lat, s):
    """The in-lattice nearest neighbours of ``s`` in axis order +x, -x, +y,
    -y, +z, -z, bounds-checked against the dimensions."""
    steps = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))
    cands = (Site(s.x + dx, s.y + dy, s.z + dz) for dx, dy, dz in steps)
    return [c for c in cands if all(0 <= v < d for v, d in zip(c, lat.dims))]


def test_adjacent_basics():
    lat = grid(3, 3, 3)
    nbs = lat.adjacency[lat.index_of[Site(0, 0, 0)]]
    assert lat.index_of[Site(1, 0, 0)] in nbs
    assert lat.index_of[Site(1, 1, 0)] not in nbs
    assert lat.index_of[Site(0, 0, 0)] not in nbs
    assert nbs == tuple(lat.index_of[s] for s in (Site(0, 0, 1), Site(0, 1, 0), Site(1, 0, 0)))


@given(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
)
def test_adjacency_symmetric(a, b):
    lat = grid(4, 4, 4)
    table = lat.adjacency
    sa, sb = Site(*a), Site(*b)
    ia, ib = lat.index_of[sa], lat.index_of[sb]
    assert (ib in table[ia]) == (ia in table[ib]) == (sa.manhattan(sb) == 1)


def test_interior_neighbour_counts():
    lat = grid(3, 3, 3)
    assert len(lat.adjacency[lat.index_of[Site(1, 1, 1)]]) == 6
    lat = grid(3, 3)
    assert len(lat.adjacency[lat.index_of[Site(1, 1, 0)]]) == 4


def _check_index_order_and_adjacency(lat):
    # site (x, y, z) has the index (x * dy + y) * dz + z, which is its place
    # in ascending Site order; each site's adjacency holds its sorted
    # axis-order neighbours, mapped to indices by that order
    _dx, dy, dz = lat.dims
    order = sorted(Site(*c) for c in itertools.product(*map(range, lat.dims)))
    assert [(s.x * dy + s.y) * dz + s.z for s in order] == list(range(lat.size))
    assert lat.index_of == {s: (s.x * dy + s.y) * dz + s.z for s in order}
    assert list(lat.all_sites) == order
    assert len(lat.adjacency) == lat.size
    for i, s in enumerate(order):
        assert [order[j] for j in lat.adjacency[i]] == sorted(_axis_order_neighbours(lat, s))


@pytest.mark.parametrize("dims", [(1, 1, 1), (2, 3), (2, 3, 5), (3, 3, 3), (4, 1, 2)])
def test_neighbours_axis_order(dims):
    _check_index_order_and_adjacency(grid(*dims))


@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))
def test_index_order_and_adjacency_on_every_small_grid(dx, dy, dz):
    _check_index_order_and_adjacency(grid(dx, dy, dz))
