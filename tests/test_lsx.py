import pytest

from celltiler import decomp
from celltiler.circuit import GateKind, Schedule, gate
from celltiler.lsx import (
    INIT_PLUS,
    LSInstruction,
    LSProgram,
    MEASURE_X,
    MERGE_XX,
    MERGE_ZZ,
    OP,
    TRANSVERSAL,
    ModeError,
    extract_ls,
    validate_ls,
)
from celltiler.scheduler import full_multiplier_schedule
from celltiler.tiler import build_multiplier_layout

K = GateKind


def test_single_cnot_pattern():
    prog = extract_ls(Schedule([[gate("cnot", "a", "b")]]), None, "2d")
    kinds = [ins.kind for ins in prog.steps[0]]
    assert kinds == [INIT_PLUS, MERGE_ZZ, MERGE_XX, MEASURE_X]
    assert prog.pattern_count == 1 and prog.transversal_count == 0


def test_empty_schedule():
    prog = extract_ls(Schedule(), None, "2d")
    assert prog.steps == []
    assert validate_ls(prog, "2d").ok


def test_shared_control_cnots_one_step():
    sched = Schedule()
    sched.append(gate("cnot", "c", "t1"), mode="new-moment")
    sched.append(gate("cnot", "c", "t2"), mode="new-moment")
    prog = extract_ls(sched, None, "2d")
    assert len(prog.steps) == 1
    assert validate_ls(prog, "2d").ok


def test_three_cnots_on_one_patch_split_steps():
    sched = Schedule()
    for t in ("t1", "t2", "t3"):
        sched.append(gate("cnot", "c", t), mode="new-moment")
    prog = extract_ls(sched, None, "2d")
    assert len(prog.steps) == 2  # the bound of two forces a second step
    assert validate_ls(prog, "2d").ok


def test_validate_flags_overfull_step():
    bad = LSProgram(
        steps=[[
            LSInstruction(MERGE_ZZ, ("p", "q1"), 1),
            LSInstruction(MERGE_ZZ, ("p", "q2"), 2),
            LSInstruction(MERGE_ZZ, ("p", "q3"), 3),
        ]]
    )
    report = validate_ls(bad, "2d")
    assert not report.ok


def test_validate_ancilla_reuse_conflict():
    bad = LSProgram(
        steps=[[
            LSInstruction(MERGE_ZZ, ("a", "ls_anc0"), 1),
            LSInstruction(MERGE_ZZ, ("b", "ls_anc0"), 2),
        ]]
    )
    assert not validate_ls(bad, "2d").ok


def test_mode_error_on_3d_layout():
    layout = build_multiplier_layout(2)
    sched, _ = full_multiplier_schedule(2)
    lowered = decomp.lower_schedule(sched)
    with pytest.raises(ModeError):
        extract_ls(lowered, layout, "2d")


def test_transversal_in_2d_flagged():
    prog = LSProgram(steps=[[LSInstruction("transversal_cnot", ("a", "b"), 1)]])
    assert not validate_ls(prog, "2d").ok


def test_cube_toffoli_packs_to_depth_three():
    circ = decomp.toffoli_cube_circuit()
    prog = extract_ls(circ, None, "3d", site_map=decomp.ccz_cube_assignment())
    assert len(prog.steps) == 3
    sticks = {ins.patches for step in prog.steps for ins in step if ins.kind == TRANSVERSAL}
    assert sticks == {("a", "z2"), ("b", "z3"), ("c", "z4")}  # the three vertical sticks
    # each stick carries a compute and an uncompute CNOT, split by the T moment
    assert prog.transversal_count == 2 * len(sticks)
    assert prog.cnot_count() == circ.count(K.CNOT)
    assert validate_ls(prog, "3d").ok


def test_cube_toffoli_riding_h_order():
    # the H pair on the target rides in steps 0 and 2; depth three holds only
    # because each is ordered within its step against every use of patch c
    prog = extract_ls(
        decomp.toffoli_cube_circuit(), None, "3d", site_map=decomp.ccz_cube_assignment()
    )

    def order(step):
        on_c = [i for i, ins in enumerate(step) if "c" in ins.patches]
        h = [i for i in on_c if step[i].kind == OP and step[i].label == "h"]
        assert len(h) == 1
        return h[0], [i for i in on_c if i != h[0]]

    h0, others0 = order(prog.steps[0])
    assert others0 and all(h0 < i for i in others0)
    h2, others2 = order(prog.steps[2])
    assert others2 and all(h2 > i for i in others2)
    assert not any(ins.kind == OP and ins.label == "h" for ins in prog.steps[1])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_multiplier_roundtrip_and_bounds(n):
    sched, _ = full_multiplier_schedule(n)
    lowered = decomp.lower_schedule(sched)
    layout = build_multiplier_layout(n)
    prog = extract_ls(lowered, layout, "3d")
    assert prog.cnot_count() == lowered.count(K.CNOT)
    assert validate_ls(prog, "3d").ok


def test_program_json_and_render():
    prog = extract_ls(Schedule([[gate("cnot", "a", "b")]]), None, "2d")
    assert '"steps"' in prog.to_json()
    assert prog.render().startswith("step 000:")
