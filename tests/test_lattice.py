import pytest
from hypothesis import given, strategies as st

from celltiler.lattice import Site, adjacent, grid


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


def test_adjacent_basics():
    lat = grid(3, 3, 3)
    assert adjacent(lat, Site(0, 0, 0), Site(1, 0, 0))
    assert not adjacent(lat, Site(0, 0, 0), Site(1, 1, 0))
    assert not adjacent(lat, Site(0, 0, 0), Site(0, 0, 0))


def test_adjacent_out_of_bounds():
    lat = grid(2, 2, 2)
    with pytest.raises(ValueError):
        adjacent(lat, Site(0, 0, 0), Site(2, 0, 0))


@given(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
)
def test_adjacency_symmetric(a, b):
    lat = grid(4, 4, 4)
    sa, sb = Site(*a), Site(*b)
    assert adjacent(lat, sa, sb) == adjacent(lat, sb, sa)


def test_interior_neighbour_counts():
    lat3 = grid(3, 3, 3)
    assert len(lat3.neighbours(Site(1, 1, 1))) == 6
    lat2 = grid(3, 3)
    assert len(lat2.neighbours(Site(1, 1, 0))) == 4


def _axis_order_neighbours(lat, s):
    steps = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))
    cands = (Site(s.x + dx, s.y + dy, s.z + dz) for dx, dy, dz in steps)
    return [c for c in cands if c in lat]


@pytest.mark.parametrize("dims", [(1, 1, 1), (2, 3), (2, 3, 5), (3, 3, 3), (4, 1, 2)])
def test_neighbours_axis_order(dims):
    lat = grid(*dims)
    for s in lat.sites():
        assert lat.neighbours(s) == _axis_order_neighbours(lat, s)


def test_neighbours_rejects_outside_site():
    lat = grid(2, 3, 4)
    for s in (Site(2, 0, 0), Site(0, -1, 0), Site(0, 0, 4)):
        with pytest.raises(ValueError):
            lat.neighbours(s)


def test_neighbours_returns_a_copy():
    lat = grid(3, 3, 3)
    got = lat.neighbours(Site(1, 1, 1))
    got.clear()
    got.append(Site(0, 0, 0))
    assert lat.neighbours(Site(1, 1, 1)) == _axis_order_neighbours(lat, Site(1, 1, 1))
