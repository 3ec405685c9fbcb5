from fractions import Fraction

import pytest

from celltiler.cells import Layout, place, toffoli_cube
from celltiler.lattice import Site, grid
from celltiler.tiler import (
    RegisterSpec,
    build_multiplier_layout,
    cube_orientation,
    effectiveness_ratio,
    initial_mapping,
    qubit_count,
    tower_height,
    usage_ratio,
)


def test_qubit_count_values():
    assert qubit_count(4) == 48
    assert qubit_count(1) == 18
    assert qubit_count(2) == 30


def test_qubit_count_rejects_zero():
    with pytest.raises(ValueError):
        qubit_count(0)


def test_qubit_count_matches_layout():
    for n in range(1, 9):
        layout = build_multiplier_layout(n)
        assert layout.lattice.size == qubit_count(n)


def test_layout_structure_n4():
    layout = build_multiplier_layout(4)
    assert layout.lattice.dims == (2, 3, 8)
    assert len(layout.placements) == 4
    assert len(layout.used_sites()) == 33


def test_layout_n1():
    layout = build_multiplier_layout(1)
    assert len(layout.placements) == 1


def test_usage_ratio_multiplier():
    assert usage_ratio(build_multiplier_layout(4)) == Fraction(33, 48)


def test_usage_ratio_single_cube():
    layout = Layout(grid(2, 2, 2))
    place(layout, toffoli_cube(), Site(0, 0, 0))
    assert usage_ratio(layout) == Fraction(7, 8)
    assert effectiveness_ratio(layout) == Fraction(3, 8)


def test_usage_ratio_empty():
    assert usage_ratio(Layout(grid(2, 2, 2))) == 0


def test_tower_cubes_share_one_face():
    layout = build_multiplier_layout(4)
    sites = [p.sites() for p in layout.placements]
    for i in range(len(sites)):
        for j in range(i + 1, len(sites)):
            shared = sites[i] & sites[j]
            if j == i + 1:
                assert len(shared) == 3  # the 7-vertex cells share a face minus a corner
                zs = {s.z for s in shared}
                assert len(zs) == 1
            else:
                assert not shared


def test_initial_mapping_bijective():
    for n in range(1, 7):
        layout = build_multiplier_layout(n)
        spec = RegisterSpec.for_width(n)
        mapping = initial_mapping(layout, spec)
        used = layout.used_sites()
        assert set(mapping.values()) == used
        assert len(mapping) == len(used)


def test_initial_mapping_registers_n1():
    layout = build_multiplier_layout(1)
    spec = RegisterSpec.for_width(1)
    mapping = initial_mapping(layout, spec)
    data = {k for k in mapping if not str(k).startswith("anc")}
    assert data == {"A0", "B0", "P0", "P1", "Z"}


def test_initial_mapping_z_in_yellow():
    layout = build_multiplier_layout(4)
    spec = RegisterSpec.for_width(4)
    mapping = initial_mapping(layout, spec)
    assert mapping["Z"] in set(layout.queues["yellow"])


def test_register_spec_labels():
    spec = RegisterSpec.for_width(3)
    assert len(spec.a) == 3 and len(spec.b) == 3 and len(spec.p) == 6
    assert len(set(spec.all_data())) == 13


def test_register_spec_rejects_zero_width():
    with pytest.raises(ValueError, match="^operand width must be >= 1, got 0$"):
        RegisterSpec.for_width(0)


@pytest.mark.parametrize("kwargs", [{}, {"a": ("A0",), "b": ("B0",)}])
def test_register_spec_needs_its_registers(kwargs):
    # a spec without registers would reach initial_mapping and die on an index
    with pytest.raises(TypeError):
        RegisterSpec(1, **kwargs)


def test_layout_rejects_widths_whose_queues_overflow():
    with pytest.raises(ValueError, match="^multiplier schedules are not supported for n=11$"):
        build_multiplier_layout(11)


def test_initial_mapping_rejects_a_width_mismatch():
    with pytest.raises(ValueError, match="^layout has 3 cubes, spec expects 2$"):
        initial_mapping(build_multiplier_layout(3), RegisterSpec.for_width(2))


def test_initial_mapping_needs_the_queues():
    # the cubes alone: B, Z and the high product bits have no used site
    n = 2
    layout = Layout(grid(2, 3, tower_height(n)))
    for p in range(n):
        place(layout, toffoli_cube(), Site(0, 0, p), cube_orientation(p))
    with pytest.raises(AssertionError, match="^mapping does not cover the used sites exactly$"):
        initial_mapping(layout, RegisterSpec.for_width(n))
