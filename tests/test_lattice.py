import itertools

import pytest
from hypothesis import given, strategies as st

from celltiler.lattice import Site, grid


def test_grid_sizes():
    assert grid(2, 3, 8).size == 48
    assert grid(1, 1, 1).size == 1
    assert grid(2, 2, 2).size == 8


@pytest.mark.parametrize("dims", [(0, 1, 1), (1, -1, 1), (1, 1, 0)])
def test_grid_rejects_bad_dims(dims):
    with pytest.raises(ValueError):
        grid(*dims)


def test_dimensionality():
    assert grid(4, 4).dimensionality == 2
    assert grid(4, 4, 1).dimensionality == 2
    assert grid(2, 2, 2).dimensionality == 3


def _axis_order_neighbours(lat, s):
    """The in-lattice nearest neighbours of ``s`` in axis order +x, -x, +y,
    -y, +z, -z, bounds-checked against the dimensions."""
    steps = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))
    cands = (Site(s.x + dx, s.y + dy, s.z + dz) for dx, dy, dz in steps)
    return [c for c in cands if all(0 <= v < d for v, d in zip(c, lat.dims))]


def test_adjacent_basics():
    lat = grid(3, 3, 3)
    nbs = lat.adjacency[lat.index(Site(0, 0, 0))]
    assert lat.index(Site(1, 0, 0)) in nbs
    assert lat.index(Site(1, 1, 0)) not in nbs
    assert lat.index(Site(0, 0, 0)) not in nbs
    assert nbs == tuple(lat.index(s) for s in (Site(0, 0, 1), Site(0, 1, 0), Site(1, 0, 0)))


@given(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
)
def test_adjacency_symmetric(a, b):
    lat = grid(4, 4, 4)
    table = lat.adjacency
    sa, sb = Site(*a), Site(*b)
    ia, ib = lat.index(sa), lat.index(sb)
    assert (ib in table[ia]) == (ia in table[ib]) == (sa.manhattan(sb) == 1)


def test_interior_neighbour_counts():
    lat = grid(3, 3, 3)
    assert len(lat.adjacency[lat.index(Site(1, 1, 1))]) == 6
    lat = grid(3, 3)
    assert len(lat.adjacency[lat.index(Site(1, 1, 0))]) == 4


def _check_index_order_and_adjacency(lat):
    # index i is the i-th site in ascending Site order; each site's adjacency
    # holds its sorted axis-order neighbours, mapped to indices by that order
    order = sorted(lat.sites())
    assert order == [Site(*c) for c in itertools.product(*map(range, lat.dims))]
    assert [lat.index(s) for s in order] == list(range(lat.size))
    assert [lat.site(i) for i in range(lat.size)] == order
    assert len(lat.adjacency) == lat.size
    for i, s in enumerate(order):
        assert [order[j] for j in lat.adjacency[i]] == sorted(_axis_order_neighbours(lat, s))


@pytest.mark.parametrize("dims", [(1, 1, 1), (2, 3), (2, 3, 5), (3, 3, 3), (4, 1, 2)])
def test_neighbours_axis_order(dims):
    _check_index_order_and_adjacency(grid(*dims))


@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))
def test_index_order_and_adjacency_on_every_small_grid(dx, dy, dz):
    _check_index_order_and_adjacency(grid(dx, dy, dz))
