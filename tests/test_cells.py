import itertools
import json
from collections import Counter

import pytest

from celltiler import decomp
from celltiler.cells import (
    Layout,
    Placement,
    ROTATIONS_3D,
    Tile,
    _apply_rotation,
    and_tile,
    place,
    tdepth2_tile,
    tile_supports,
    toffoli_cube,
)
from celltiler.circuit import Schedule, gate, json_value
from celltiler.lattice import Site, grid


def test_rotation_table():
    assert len(ROTATIONS_3D) == 24
    assert len(set(ROTATIONS_3D)) == 24


def test_rotation_is_the_matrix_product():
    def product(mat, v):
        return tuple(sum(mat[i][j] * v[j] for j in range(3)) for i in range(3))

    sites = [Site(0, 0, 0), Site(1, 0, 0), Site(0, 1, 0), Site(0, 0, 1), Site(1, 2, 3), Site(2, 1, 5)]
    for mat in ROTATIONS_3D:
        for site in sites:
            assert _apply_rotation(mat, site) == product(mat, site)


def test_toffoli_cube_shape():
    tile = toffoli_cube()
    assert len(tile.vertices) == 7
    assert Counter(r for *_, r in tile.vertices) == {"control": 2, "target": 1, "ancilla": 4}
    sites = [v for _, v, _ in tile.vertices]
    assert sum(u.manhattan(v) == 1 for u, v in itertools.combinations(sites, 2)) == 9


def test_toffoli_cube_supports_its_circuit():
    assert tile_supports(toffoli_cube(), decomp.toffoli_cube_circuit())


def test_tdepth2_tile_shape():
    tile = tdepth2_tile()
    assert len(tile.vertices) == 6
    assert Counter(r for *_, r in tile.vertices) == {"control": 2, "target": 1, "ancilla": 3}
    assert all(v.z == 0 for _, v, _ in tile.vertices)


def test_tdepth2_tile_supports_toffoli():
    assert tile_supports(tdepth2_tile(), decomp.toffoli_tdepth2())


def test_tdepth2_tile_rejects_control_control_cnot():
    sched = Schedule([[gate("cnot", "a", "b")]])
    assert not tile_supports(tdepth2_tile(), sched)


def test_and_tile_shape():
    tile = and_tile()
    assert [r for *_, r in tile.vertices].count("and_result") == 1
    assert all(v.z == 0 for _, v, _ in tile.vertices)


def test_and_tile_supports_measurement_based_toffoli():
    assert tile_supports(and_tile(), decomp.toffoli_mb())


@pytest.mark.parametrize(
    "tile, circuit",
    [(toffoli_cube(), decomp.toffoli_cube_circuit()),
     (tdepth2_tile(), decomp.toffoli_tdepth2()),
     (and_tile(), decomp.toffoli_mb())],
    ids=["toffoli_cube", "tdepth2", "and_mb"],
)
def test_tile_hosts_exactly_the_wires_of_its_circuit(tile, circuit):
    assert {w for w, _, _ in tile.vertices} == set(circuit.wires())


def test_tile_supports_vacuous():
    assert tile_supports(toffoli_cube(), Schedule())


def test_tile_supports_unassigned_wire():
    with pytest.raises(ValueError, match="^wire 'mystery' has no tile vertex$"):
        tile_supports(toffoli_cube(), Schedule([[gate("h", "mystery")]]))


def test_place_fits():
    layout = Layout(grid(2, 3, 8))
    place(layout, toffoli_cube(), Site(0, 0, 0))
    assert len(layout.placements) == 1


def test_place_out_of_bounds():
    layout = Layout(grid(2, 3, 8))
    with pytest.raises(ValueError, match=r"^tile toffoli_cube at \(0, 0, 7\) leaves the lattice at "):
        place(layout, toffoli_cube(), Site(0, 0, 7))


def test_place_tower_of_four():
    layout = Layout(grid(2, 3, 8))
    for k in range(4):
        place(layout, toffoli_cube(), Site(0, 0, k), orientation=k % 2)
    assert len(layout.placements) == 4


def test_place_role_conflict():
    layout = Layout(grid(2, 3, 8))
    place(layout, toffoli_cube(), Site(0, 0, 0))
    with pytest.raises(ValueError, match="^role conflict at "):
        place(layout, toffoli_cube(), Site(0, 0, 0))


def test_placement_rotation_preserves_sticks():
    tile = toffoli_cube()
    for orientation in range(24):
        p = Placement(tile, Site(0, 0, 0), orientation)
        roles = p.vertex_roles
        assert len(roles) == 7
        coords = set(roles)
        assert all(0 <= s.x <= 1 and 0 <= s.y <= 1 and 0 <= s.z <= 1 for s in coords)


@pytest.mark.parametrize("orientation", [-1, 24, True])
def test_placement_refuses_an_orientation_outside_the_rotation_table(orientation):
    # the layout records the orientation as given, so no other value may stand for one
    layout = Layout(grid(2, 3, 8))
    with pytest.raises(ValueError, match=rf"^orientation must be an int in 0\.\.23, got {orientation}$"):
        place(layout, toffoli_cube(), Site(0, 0, 0), orientation)
    assert layout.placements == []


def test_queue_sites_belong_to_one_queue():
    layout = Layout(grid(2, 3, 8))
    layout.add_queue("q", [Site(0, 2, 0), Site(0, 2, 1)])
    with pytest.raises(ValueError, match="already in queue 'q'"):
        layout.add_queue("r", [Site(0, 2, 1), Site(0, 2, 2)])
    assert layout.queue_of == {Site(0, 2, 0): "q", Site(0, 2, 1): "q"}
    assert list(layout.queues) == ["q"]


def test_queue_names_are_unique():
    layout = Layout(grid(2, 3, 8))
    layout.add_queue("q", [Site(0, 2, 0), Site(0, 2, 1)])
    with pytest.raises(ValueError, match="^queue 'q' already exists$"):
        layout.add_queue("q", [Site(1, 2, 0)])
    assert layout.queues == {"q": [Site(0, 2, 0), Site(0, 2, 1)]}
    assert layout.queue_of == {Site(0, 2, 0): "q", Site(0, 2, 1): "q"}


def test_vertex_roles_computed_once_and_read_only():
    p = Placement(toffoli_cube(), Site(0, 0, 1), 5)
    assert p.vertex_roles is p.vertex_roles
    with pytest.raises(TypeError):
        p.vertex_roles[Site(0, 0, 1)] = "control"


def test_layout_json():
    layout = Layout(grid(2, 3, 8))
    place(layout, toffoli_cube(), Site(0, 0, 0), 5)
    layout.add_queue("q", [Site(0, 2, 0), Site(0, 2, 1)])
    expected = {
        "lattice": [2, 3, 8],
        "placements": [{"tile": "toffoli_cube", "offset": [0, 0, 0], "orientation": 5}],
        "queues": {"q": [[0, 2, 0], [0, 2, 1]]},
    }
    assert json_value(layout.payload(), 0) == json.dumps(expected, indent=2, sort_keys=True)


def test_tile_rejects_duplicate_vertex():
    v = Site(0, 0, 0)
    with pytest.raises(ValueError, match="^duplicate tile vertex$"):
        Tile("t", (("a", v, "control"), ("b", v, "target")))


def test_tile_rejects_duplicate_wire():
    a, b = Site(0, 0, 0), Site(1, 0, 0)
    with pytest.raises(ValueError, match="^duplicate tile wire$"):
        Tile("t", (("a", a, "control"), ("a", b, "target")))


@pytest.mark.parametrize("tile", [toffoli_cube(), tdepth2_tile(), and_tile()], ids=lambda t: t.name)
def test_no_tile_supports_a_toffoli(tile):
    # sticks are nearest-neighbour, so no three vertices are pairwise joined
    wires = [w for w, _, _ in tile.vertices]
    for trio in itertools.combinations(wires, 3):
        assert not tile_supports(tile, Schedule([[gate("toffoli", *trio)]]))


def test_queue_must_be_a_chain():
    layout = Layout(grid(2, 3, 8))
    with pytest.raises(ValueError, match=r"^queue 'q' is not a chain at Site\(x=0, y=2, z=0\)->Site\(x=0, y=2, z=2\)$"):
        layout.add_queue("q", [Site(0, 2, 0), Site(0, 2, 2)])
    assert layout.queues == {} and layout.queue_of == {}
