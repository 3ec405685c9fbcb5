import hashlib
import json
import re
from unittest.mock import patch

import pytest
from hypothesis import example, given, strategies as st

from celltiler import decomp, lsx
from celltiler.cells import toffoli_cube
from celltiler.circuit import GateKind, Schedule, gate
from celltiler.lsx import (
    INIT_PLUS,
    LSInstruction,
    LSProgram,
    MEASURE_X,
    MERGE_XX,
    MERGE_ZZ,
    OP,
    RIDING_OPS,
    ROTATE,
    TRANSVERSAL,
    extract_ls,
    validate_ls,
)
from celltiler.lattice import Site, grid
from celltiler.scheduler import full_multiplier_schedule

K = GateKind
CUBE_SITES = {w: v for w, v, _ in toffoli_cube().vertices}
ONE_QUBIT = ["h", "t", "tdag", "s", "sdag", "x", "mx", "mz"]


def test_single_cnot_pattern():
    prog = extract_ls(Schedule([[gate("cnot", "a", "b")]]))
    kinds = [ins.kind for ins in prog.steps[0]]
    assert kinds == [INIT_PLUS, MERGE_ZZ, MERGE_XX, MEASURE_X]
    assert prog.pattern_count == 1 and prog.transversal_count == 0


# the first two-patch use sets a patch's boundary: z for a control or a CZ /
# CC_CZ operand, x for a CNOT target; H flips a boundary once one is set
@pytest.mark.parametrize(
    "gates, rotated",
    [([gate("cnot", "c", "a"), gate("cnot", "a", "b")], ["a"]),
     ([gate("cnot", "a", "b"), gate("cnot", "c", "a")], ["a"]),
     ([gate("cz", "c", "a"), gate("cnot", "a", "b")], []),
     ([gate("cc_cz", "c", "a", condition=0), gate("cnot", "a", "b")], []),
     ([gate("cnot", "c", "a"), gate("cz", "b", "a")], ["a"]),
     ([gate("cnot", "c", "a"), gate("cc_cz", "a", "b", condition=0)], ["a"]),
     ([gate("cnot", "c", "a"), gate("h", "a"), gate("cnot", "a", "b")], []),
     ([gate("cnot", "c", "a"), gate("h", "a"), gate("cnot", "b", "a")], ["a"]),
     ([gate("cnot", "c", "a"), gate("h", "a"), gate("h", "a"), gate("cnot", "a", "b")], ["a"]),
     ([gate("h", "a"), gate("cnot", "a", "b")], []),
     ([gate("h", "a"), gate("cnot", "b", "a")], []),
     ([gate("cnot", "c", "a"), gate("cnot", "d", "a"), gate("cnot", "b", "a")], []),
     ([gate("cnot", "c", "a"), gate("cnot", "a", "b"), gate("cnot", "d", "a")], ["a", "a"])],
)
def test_a_patch_rotates_when_a_use_needs_its_other_boundary(gates, rotated):
    prog = extract_ls(Schedule([[g] for g in gates]))
    assert [ins.patches[0] for step in prog.steps for ins in step if ins.kind == ROTATE] == rotated
    for step in prog.steps:
        for i, ins in enumerate(step):
            if ins.kind == ROTATE:  # listed before its own instance's merge on that patch
                merges = [j for j, other in enumerate(step) if other.instance == ins.instance
                          and other.kind in (MERGE_ZZ, MERGE_XX) and ins.patches[0] in other.patches]
                assert len(merges) == 1 and i < merges[0]


def test_empty_schedule():
    prog = extract_ls(Schedule())
    assert prog.steps == []
    assert validate_ls(prog).ok


def test_shared_control_cnots_one_step():
    sched = Schedule()
    sched.extend_moment([gate("cnot", "c", "t1")])
    sched.extend_moment([gate("cnot", "c", "t2")])
    prog = extract_ls(sched)
    assert len(prog.steps) == 1
    assert validate_ls(prog).ok


def test_three_cnots_on_one_patch_split_steps():
    sched = Schedule()
    for t in ("t1", "t2", "t3"):
        sched.extend_moment([gate("cnot", "c", t)])
    prog = extract_ls(sched)
    assert len(prog.steps) == 2  # the bound of two forces a second step
    assert validate_ls(prog).ok


def test_validate_flags_overfull_step():
    bad = LSProgram(
        steps=[[
            LSInstruction(MERGE_ZZ, ("p", "q1"), 1),
            LSInstruction(MERGE_ZZ, ("p", "q2"), 2),
            LSInstruction(MERGE_ZZ, ("p", "q3"), 3),
        ]]
    )
    report = validate_ls(bad)
    assert not report.ok


def test_validate_ancilla_reuse_conflict():
    bad = LSProgram(
        steps=[[
            LSInstruction(MERGE_ZZ, ("a", "ls_anc0"), 1),
            LSInstruction(MERGE_ZZ, ("b", "ls_anc0"), 2),
        ]]
    )
    assert not validate_ls(bad).ok


def test_validate_flags_third_transversal_cnot_in_3d():
    bad = LSProgram(steps=[[LSInstruction(TRANSVERSAL, ("a", f"q{i}"), i) for i in range(3)]])
    assert validate_ls(bad).violations == ["step 0: patch a joins 3 transversal CNOTs"]


def test_validate_3d_allows_two_transversal_and_two_merges_per_patch():
    # the CLI's "parallel bound 4": two merge/splits plus two transversal CNOTs
    prog = LSProgram(
        steps=[[
            LSInstruction(TRANSVERSAL, ("a", "q1"), 1),
            LSInstruction(TRANSVERSAL, ("a", "q2"), 2),
            LSInstruction(MERGE_ZZ, ("a", "q3"), 3),
            LSInstruction(MERGE_XX, ("a", "q4"), 4),
        ]]
    )
    assert validate_ls(prog).ok


def test_stacking_comes_from_the_sites():
    # every site of the planar grid(3, 3) has z = 0, so no CNOT there stacks;
    # stood upright (x becomes z), the same row of CNOTs is a column of sticks
    planar = grid(3, 3)
    row = [(Site(0, 1), Site(1, 1)), (Site(1, 1), Site(2, 1)), (Site(1, 1), Site(2, 1))]
    assert planar.dz == 1 and all(s in planar for pair in row for s in pair)
    flat = extract_ls(Schedule([[gate("cnot", *pair)] for pair in row]))
    assert (flat.transversal_count, flat.pattern_count) == (0, 3)
    upright = extract_ls(Schedule([[gate("cnot", *(Site(s.y, 0, s.x) for s in pair))] for pair in row]))
    assert (upright.transversal_count, upright.pattern_count) == (3, 0)
    assert validate_ls(upright).ok  # the third stick on the middle patch waits a step
    one_step = LSProgram([[ins for step in upright.steps for ins in step]])
    assert validate_ls(one_step).violations == ["step 0: patch q1_0_1 joins 3 transversal CNOTs"]


def test_cube_toffoli_packs_to_depth_three():
    circ = decomp.toffoli_cube_circuit()
    prog = extract_ls(circ, site_map=CUBE_SITES)
    assert len(prog.steps) == 3
    sticks = {ins.patches for step in prog.steps for ins in step if ins.kind == TRANSVERSAL}
    assert sticks == {("a", "z2"), ("b", "z3"), ("c", "z4")}  # the three vertical sticks
    # each stick carries a compute and an uncompute CNOT, split by the T moment
    assert prog.transversal_count == 2 * len(sticks)
    assert prog.cnot_count() == circ.count(K.CNOT)
    assert validate_ls(prog).ok


def test_cube_toffoli_riding_h_order():
    # the H pair on the target rides in steps 0 and 2; depth three holds only
    # because each is ordered within its step against every use of patch c
    prog = extract_ls(decomp.toffoli_cube_circuit(), site_map=CUBE_SITES)

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
    prog = extract_ls(lowered)
    assert prog.cnot_count() == lowered.count(K.CNOT)
    assert validate_ls(prog).ok


def test_program_json():
    prog = extract_ls(Schedule([[gate("cnot", "a", "b")]]))
    assert '"steps"' in prog.to_json()


# --- direct JSON writer against the stdlib encoder -------------------------


def _reference_to_json(prog: LSProgram) -> str:
    """The payload-and-json.dumps writer the direct writer must reproduce."""
    return json.dumps(
        {
            "steps": [
                [
                    {
                        "kind": ins.kind,
                        "patches": list(ins.patches),
                        "instance": ins.instance,
                        "label": ins.label,
                        "condition": ins.condition,
                    }
                    for ins in step
                ]
                for step in prog.steps
            ],
            "transversal_count": prog.transversal_count,
            "pattern_count": prog.pattern_count,
        },
        indent=2,
        sort_keys=True,
    )


labels_st = st.text(max_size=4)  # non-ASCII labels included
# a small pool, so ("a", "b"), ("b", "a") and ("a",) share the text of a name
patches_st = st.lists(st.sampled_from(["a", "b", "c", "", "\u00e4"]), max_size=2).map(tuple)
# a run of records that share one instance object, as one CNOT's records do
run_st = st.builds(
    lambda instance, fields: [LSInstruction(kind, patches, instance, label, condition)
                              for kind, patches, label, condition in fields],
    st.integers(0, 10**6),
    st.lists(st.tuples(
        st.sampled_from([INIT_PLUS, MERGE_ZZ, MERGE_XX, MEASURE_X, TRANSVERSAL, OP]),
        patches_st,
        st.one_of(st.just(""), labels_st),
        st.one_of(st.none(), st.integers(-3, 40)),
    ), min_size=1, max_size=3),
)
step_st = st.lists(run_st, max_size=3).map(lambda runs: [ins for run in runs for ins in run])


# consecutive records whose instances and conditions are equal but written
# differently, on patches that share their names' text
@example(
    [[LSInstruction(MERGE_ZZ, ("a", "b"), 1, "", 0),
      LSInstruction(MERGE_XX, ("b", "a"), True, "", False),
      LSInstruction(OP, ("a",), 1, "t", None)]],
    0,
    0,
)
@given(st.lists(step_st, max_size=4), st.integers(0, 10**4), st.integers(0, 10**4))
def test_to_json_matches_stdlib_encoder(steps, transversal, patterns):
    prog = LSProgram(steps, transversal, patterns)
    assert prog.to_json() == _reference_to_json(prog)


def test_to_json_empty_program():
    assert LSProgram().to_json() == _reference_to_json(LSProgram())


def test_to_json_tells_equal_values_apart():
    # 1, True and 1.0 are equal dict keys, but JSON writes each differently
    values = (1, True, 1.0, None)
    step = [LSInstruction(MERGE_ZZ, (p, "b"), i, "", c) for p in (*values, "1") for i in values for c in values]
    prog = LSProgram([step, step[::-1]])
    assert prog.to_json() == _reference_to_json(prog)


def test_ls_instruction_is_an_immutable_record():
    ins = LSInstruction(OP, ("a",), 0)
    assert ins.label == "" and ins.condition is None
    assert LSInstruction._fields == ("kind", "patches", "instance", "label", "condition")
    with pytest.raises(AttributeError):
        ins.label = "t"


# sha256 of to_json().encode() for the tiled schedule, its tdepth2 lowering and
# the 3d LS program, as the CLI's schedule/ls commands write them
GOLDEN = {
    4: (
        "8e652e46999e27eb39ab25a52c0f58da788c86a11bf245955d24e78d1ccdf369",
        "64996a72c48623c076aa57830b5a4f4b07e11fd337ca02f8d78decd8f608a89f",
        "8328772d774378decdaa2367103b99b430fc15ef829c9560a5375f2a2f1c93b2",
    ),
    6: (
        "70a1bb6e0d53d3d3758ca9281b565e1a8c64a63e07d9fc3238fe748ab07152a5",
        "7daed406d5158abca0a497f46365efb78915f6ed1260df38b1f7ab88730216da",
        "fc9517f4d2d186caaaa23a6ad23ede4d6057fe92553ba76404cd0d174f31f169",
    ),
    8: (
        "993ea01f2f61dbde8959dd468048f8e84c1d787b37d19d43dc2633ae066c84c8",
        "78ad9e6881813e38336318e0d5c2cf4cfb26db20240af492364b29b10304980b",
        "2eec46db5379788a3c2fec6a92a420bbc9f4a4dee05e52737bc2e65c7f38db9d",
    ),
    10: (
        "d10a1039430d5bd339cea5ac177a7cb01b0e44a283758e4b811a286b0af4ac4b",
        "d31a8813f86888f515f890db72974dc199c534621920f7d45c6171cc5c327f93",
        "4d58df654936558c70a92e5e936ba6f7832c998484d14b4863c9421e34cf852f",
    ),
}


@pytest.mark.parametrize("n", sorted(GOLDEN))
def test_artifacts_pinned(n):
    sched, _ = full_multiplier_schedule(n)
    lowered = decomp.lower_schedule(sched)
    prog = extract_ls(lowered)
    digests = tuple(
        hashlib.sha256(x.to_json().encode()).hexdigest() for x in (sched, lowered, prog)
    )
    assert digests == GOLDEN[n]


# --- placement against the linear-scan oracle ----------------------------


class _LinearScanExtractor:
    """A reference for ``extract_ls`` that states its rules without masks.

    An instance scans the per-step use tables forward from its patches'
    earliest step ``hard_avail``, the step after their latest T; a T also
    waits for ``hard_avail``. A pattern's ancilla is numbered by the
    patterns already in its step."""

    def __init__(self):
        self.program = LSProgram()
        self.last_step: dict[str, int] = {}
        self.hard_avail: dict[str, int] = {}
        self.ls_use: list[dict[str, int]] = []
        self.tv_use: list[dict[str, int]] = []
        self.orientation: dict[str, str] = {}
        self.instance = 0

    def _ensure(self, s):
        while len(self.program.steps) <= s:
            self.program.steps.append([])
            self.ls_use.append({})
            self.tv_use.append({})

    def _place_two(self, patches, transversal):
        s = max(self.hard_avail.get(p, 0) for p in patches)
        limit = lsx.TRANSVERSAL_LIMIT if transversal else lsx.MERGE_SPLIT_LIMIT
        while True:
            self._ensure(s)
            use = (self.tv_use if transversal else self.ls_use)[s]
            if all(use.get(p, 0) < limit for p in patches):
                break
            s += 1
        for p in patches:
            use[p] = use.get(p, 0) + 1
            self.last_step[p] = max(self.last_step.get(p, 0), s)
        self.instance += 1
        return s

    def pattern(self, ctrl, tgt, second=MERGE_XX, condition=None):
        step = self.program.steps[self._place_two((ctrl, tgt), False)]
        i = self.instance
        anc = f"ls_anc{sum(ins.kind == INIT_PLUS for ins in step)}"
        step.append(LSInstruction(INIT_PLUS, (anc,), i))
        target_boundary = "x" if second == MERGE_XX else "z"
        for p, kind, boundary, pair in ((ctrl, MERGE_ZZ, "z", (ctrl, anc)),
                                        (tgt, second, target_boundary, (anc, tgt))):
            if self.orientation.setdefault(p, boundary) != boundary:
                step.append(LSInstruction(ROTATE, (p,), i))
                self.orientation[p] = boundary
            step.append(LSInstruction(kind, pair, i, condition=condition))
        step.append(LSInstruction(MEASURE_X, (anc,), i))
        self.program.pattern_count += 1

    def transversal(self, ctrl, tgt):
        s = self._place_two((ctrl, tgt), True)
        self.program.steps[s].append(LSInstruction(TRANSVERSAL, (ctrl, tgt), self.instance))
        self.program.transversal_count += 1

    def single(self, patch, name):
        if name in RIDING_OPS:
            s = self.last_step.get(patch, 0)
            if name == "h" and patch in self.orientation:
                self.orientation[patch] = {"z": "x", "x": "z"}[self.orientation[patch]]
        else:
            s = max(self.hard_avail.get(patch, 0), self.last_step.get(patch, -1) + 1)
            self.last_step[patch] = s
            self.hard_avail[patch] = s + 1
        self._ensure(s)
        self.program.steps[s].append(LSInstruction(OP, (patch,), 0, label=name))


def _reference_extract(schedule, site_map=None):
    """extract_ls with every gate's patch names and stacking resolved anew,
    placed by ``_LinearScanExtractor``."""
    ex = _LinearScanExtractor()

    def site_of(label):
        if isinstance(label, Site):
            return label
        if site_map and label in site_map:
            return site_map[label]
        return None

    for g in schedule.gates():
        names = tuple(f"q{q.x}_{q.y}_{q.z}" if isinstance(q, Site) else str(q) for q in g.operands)
        if g.kind is K.CNOT:
            sa, sb = site_of(g.operands[0]), site_of(g.operands[1])
            stacked = (
                sa is not None
                and sb is not None
                and sa.x == sb.x and sa.y == sb.y and abs(sa.z - sb.z) == 1
            )
            if stacked:
                ex.transversal(*names)
            else:
                ex.pattern(*names)
        elif g.kind in (K.CZ, K.CC_CZ):
            ex.pattern(*names, second=MERGE_ZZ, condition=g.condition)
        else:
            ex.single(names[0], g.kind.value)
    return ex.program


# neighbours in z are stacked, so half the CNOTs between two of the four
# column sites are transversal
COLUMN = [Site(0, 0, z) for z in range(4)]
stream_st = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["cnot", "cnot", "cz", "cc_cz"]), st.permutations(range(4))),
        st.tuples(st.sampled_from(["t", "tdag", "h", "s", "x", "mz"]), st.permutations(range(4))),
    ),
    max_size=60,
)


# on labels p0..p3, each on its column site: p0 is full at steps 0 and 1
# and p3 at step 2, so cnot(p3, p0) must pass full steps of both patches to
# land at step 3
@example(
    [
        ("t", (1, 0, 2, 3)),
        ("t", (1, 0, 2, 3)),
        ("cnot", (3, 1, 0, 2)),
        ("cnot", (0, 2, 1, 3)),
        ("cnot", (0, 2, 1, 3)),
        ("cnot", (3, 0, 1, 2)),
    ],
    False,
    1,
    2,
)
@given(stream_st, st.booleans(), st.integers(1, 3), st.integers(1, 3))
def test_placement_matches_linear_scan(stream, on_sites, merge_split_limit, transversal_limit):
    # the wires are the column's sites, or labels that a site map puts there
    labels = [f"p{i}" for i in range(4)]
    wires, site_map = (COLUMN, None) if on_sites else (labels, dict(zip(labels, COLUMN)))
    sched = Schedule(
        [gate(op, *(wires[i] for i in order[:1 if op in ONE_QUBIT else 2]),
              condition=order[2] if op == "cc_cz" else None)]
        for op, order in stream
    )
    with patch.object(lsx, "MERGE_SPLIT_LIMIT", merge_split_limit), \
            patch.object(lsx, "TRANSVERSAL_LIMIT", transversal_limit):
        prog = extract_ls(sched, site_map)
        assert validate_ls(prog).ok
        assert prog == _reference_extract(sched, site_map)


@pytest.mark.parametrize("n", range(1, 7))
def test_each_step_numbers_its_own_ancillas(n):
    lowered = decomp.lower_schedule(full_multiplier_schedule(n)[0])
    prog = extract_ls(lowered)
    per_step = []
    for step in prog.steps:
        names = [ins.patches[0] for ins in step if ins.kind == INIT_PLUS]
        assert names == [f"ls_anc{k}" for k in range(len(names))]
        per_step.append(len(names))
    ancillas = {p for step in prog.steps for ins in step for p in ins.patches if p.startswith("ls_anc")}
    assert len(ancillas) == max(per_step)


# --- extraction against a per-gate reference loop ------------------------


# a 2 x 1 x 3 box, so vertically stacked pairs are common
SITES = [Site(x, 0, z) for x in range(2) for z in range(3)]
LABELS = ["a", "b", "c", "q0_0_1"]  # "q0_0_1" shares its patch name with Site(0, 0, 1)
gate_st = st.one_of(
    st.builds(
        lambda kind, q: gate(kind, q),
        st.sampled_from(ONE_QUBIT),
        st.sampled_from(SITES + LABELS),
    ),
    st.builds(
        lambda kind, qs, c: gate(kind, *qs, condition=c if kind == "cc_cz" else None),
        st.sampled_from(["cnot", "cnot", "cz", "cc_cz"]),
        st.lists(st.sampled_from(SITES + LABELS), min_size=2, max_size=2, unique=True),
        st.integers(0, 3),
    ),
)


@example(
    [gate("cnot", Site(0, 0, 0), Site(0, 0, 1)), gate("cnot", "a", Site(1, 0, 2)),
     gate("h", "a"), gate("cnot", "a", "b"), gate("t", "b")],
    {"a": Site(1, 0, 1), "b": Site(1, 0, 2)},
)
@example([gate("h", Site(0, 0, 1)), gate("cnot", "a", "q0_0_1")], None)
# "b" is first seen as a CNOT's target, then in two more operand tuples;
# only its first CNOT is a stick
@example(
    [gate("cnot", "a", "b"), gate("cz", "b", "c"), gate("h", "b"), gate("cnot", "c", "b")],
    {"a": Site(0, 0, 0), "b": Site(0, 0, 1), "c": Site(1, 0, 1)},
)
# a stick between a mapped label and a site, in both operand orders
@example(
    [gate("cnot", "c", Site(1, 0, 2)), gate("t", "c"), gate("cnot", Site(1, 0, 2), "c")],
    {"c": Site(1, 0, 1)},
)
@given(
    st.lists(gate_st, max_size=40),
    st.one_of(st.none(), st.dictionaries(st.sampled_from(LABELS), st.sampled_from(SITES))),
)
def test_extract_matches_per_gate_reference(gates, site_map):
    sched = Schedule()
    for g in gates:
        sched.append(g)
    if {"q0_0_1", Site(0, 0, 1)} <= set(sched.wires()):
        with pytest.raises(ValueError, match="share the patch name 'q0_0_1'$"):
            extract_ls(sched, site_map)
    else:
        assert extract_ls(sched, site_map) == _reference_extract(sched, site_map)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_multiplier_extraction_matches_linear_scan(n):
    lowered = decomp.lower_schedule(full_multiplier_schedule(n)[0])
    prog = extract_ls(lowered)
    assert prog == _reference_extract(lowered)


def test_extracted_records_are_ls_instructions():
    # the n = 4 program, and toffoli_mb for a conditioned CZ
    lowered = decomp.lower_schedule(full_multiplier_schedule(4)[0])
    programs = (extract_ls(lowered), extract_ls(decomp.toffoli_mb()))
    records = [ins for prog in programs for step in prog.steps for ins in step]
    assert any(type(ins.condition) is int for ins in records)
    for ins in records:
        assert type(ins) is LSInstruction
        assert type(ins.kind) is str and type(ins.label) is str and type(ins.instance) is int
        assert type(ins.patches) is tuple and all(type(p) is str for p in ins.patches)
        assert ins.condition is None or type(ins.condition) is int


@pytest.mark.parametrize(
    "gates, message",
    [([gate("cnot", "q0_0_0", Site(0, 0, 0))],
      "wires 'q0_0_0' and Site(x=0, y=0, z=0) share the patch name 'q0_0_0'"),
     ([gate("h", Site(1, 2, 3)), gate("cnot", "a", "q1_2_3")],
      "wires Site(x=1, y=2, z=3) and 'q1_2_3' share the patch name 'q1_2_3'"),
     ([gate("cnot", "ls_anc0", "b")], "wire 'ls_anc0' takes the reserved patch name 'ls_anc0'")],
)
def test_extract_rejects_a_wire_whose_patch_name_is_taken(gates, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        extract_ls(Schedule([[g] for g in gates]))


def test_equal_labels_share_a_patch():
    # 1 and True are one wire to a Schedule, so they are one patch
    prog = extract_ls(Schedule([[gate("h", 1)], [gate("cnot", True, "b")]]))
    assert {p for step in prog.steps for ins in step for p in ins.patches} == {"1", "b", "ls_anc0"}


def test_validate_flags_an_instruction_naming_one_patch_twice():
    prog = LSProgram(steps=[[LSInstruction(MERGE_ZZ, ("a", "a"), 1)]])
    assert validate_ls(prog).violations == [
        "step 0: merge_split_zz names patch a twice"
    ]


def test_validate_reports_each_limit_class_in_a_fixed_order():
    # per step: the per-instruction rules in instruction order, then the
    # merge/split, transversal and ancilla limits, each in first-use order
    prog = LSProgram(
        steps=[[
            LSInstruction(TRANSVERSAL, ("t", "u1"), 1),
            LSInstruction(MERGE_ZZ, ("p", "ls_anc0"), 2),
            LSInstruction(MERGE_XX, ("p", "ls_anc0"), 3),
            LSInstruction(MERGE_ZZ, ("c", "p"), 4),
            LSInstruction(MERGE_ZZ, ("a", "a"), 5),
            LSInstruction(TRANSVERSAL, ("t", "u2"), 6),
            LSInstruction(MERGE_ZZ, ("c", "d"), 7),
            LSInstruction(TRANSVERSAL, ("t", "u3"), 8),
            LSInstruction(MERGE_ZZ, ("c", "e"), 9),
        ]]
    )
    assert validate_ls(prog).violations == [
        "step 0: merge_split_zz names patch a twice",
        "step 0: patch p joins 3 merge/split operations",
        "step 0: patch c joins 3 merge/split operations",
        "step 0: patch t joins 3 transversal CNOTs",
        "step 0: ancilla patch ls_anc0 mediates 2 CNOTs",
    ]


@pytest.mark.parametrize(
    "kind, message",
    [("toffoli", "lower Toffoli/CCZ to Clifford+T before LS extraction"),
     ("swap", "expand SWAPs to CNOTs before LS extraction")],
)
def test_extract_ls_needs_a_lowered_schedule(kind, message):
    operands = ("a", "b", "c")[:3 if kind == "toffoli" else 2]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        extract_ls(Schedule([[gate(kind, *operands)]]))
