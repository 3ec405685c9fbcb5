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
    nbs = grid(3, 3, 3).sorted_neighbours[Site(0, 0, 0)]
    assert Site(1, 0, 0) in nbs
    assert Site(1, 1, 0) not in nbs
    assert Site(0, 0, 0) not in nbs


@given(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
)
def test_adjacency_symmetric(a, b):
    table = grid(4, 4, 4).sorted_neighbours
    sa, sb = Site(*a), Site(*b)
    assert (sb in table[sa]) == (sa in table[sb]) == (sa.manhattan(sb) == 1)


def test_interior_neighbour_counts():
    assert len(grid(3, 3, 3).sorted_neighbours[Site(1, 1, 1)]) == 6
    assert len(grid(3, 3).sorted_neighbours[Site(1, 1, 0)]) == 4


@pytest.mark.parametrize("dims", [(1, 1, 1), (2, 3), (2, 3, 5), (3, 3, 3), (4, 1, 2)])
def test_neighbours_axis_order(dims):
    # the one table holds every site, each with the sorted axis-order neighbours
    lat = grid(*dims)
    assert sorted(lat.sorted_neighbours) == sorted(lat.sites())
    for s in lat.sites():
        assert lat.sorted_neighbours[s] == tuple(sorted(_axis_order_neighbours(lat, s)))
