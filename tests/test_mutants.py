"""A mutant corpus: single mutations of real artifacts, each of which a check
must refuse, with a ``Report`` message or a ``ValueError``.

A mutant that no check refuses is a hole in the checks. The known holes are
pinned in :data:`SURVIVORS`, so a new survivor fails the corpus, and so does
a check that stops refusing its mutants. Mutation analysis as a
test-adequacy criterion follows DeMillo, Lipton and Sayward, "Hints on Test
Data Selection", IEEE Computer, 1978.
"""

import pytest

from celltiler import cli, decomp
from celltiler.circuit import STORAGE, Gate, GateKind, Schedule, gate, swap_metrics
from celltiler.lattice import Site
from celltiler.lsx import INIT_PLUS, MERGE_SPLIT_LIMIT, MERGE_ZZ, LSInstruction, extract_ls, validate_ls
from celltiler.scheduler import full_multiplier_schedule, validate_schedule
from celltiler.sim import assert_equiv, statevector_run
from celltiler.tiler import E, L, N, S, RegisterSpec, build_multiplier_layout, initial_mapping
from labels import occupied, swap_labels

K = GateKind

# The gates whose removal from the n-bit tiled schedule no check notices, as
# (moment, kind, operands): ctrl-add 1's top carry block (at n = 3, A2·P3 and
# anc5·P3 onto anc0) in the compute wave and again in the uncompute wave.
# They never fire, since P[n] is still 0 there.
SURVIVORS = {
    2: [
        (12, "toffoli", ((1, 0, 0), (0, 0, 1), (0, 1, 0))),
        (13, "toffoli", ((1, 1, 1), (0, 0, 1), (0, 1, 0))),
        (22, "toffoli", ((1, 0, 0), (0, 0, 1), (0, 1, 0))),
        (23, "toffoli", ((1, 1, 1), (0, 0, 1), (0, 1, 0))),
    ],
    3: [
        (19, "toffoli", ((1, 0, 0), (0, 0, 1), (0, 1, 0))),
        (20, "toffoli", ((1, 1, 1), (0, 0, 1), (0, 1, 0))),
        (29, "toffoli", ((1, 0, 0), (0, 0, 1), (0, 1, 0))),
        (30, "toffoli", ((1, 1, 1), (0, 0, 1), (0, 1, 0))),
    ],
}

# Storage SWAPs that exchange an idle ancilla with a finished label, a spent
# control in yellow or a product bit in grey_out. Dropping one leaves every
# product right, as the oracle reads values by label, but the label then ends
# elsewhere than the emitter says; only the final-mapping check refuses it.
LABEL_MOVES = {
    2: [
        (33, "swap", ((0, 2, 1), (0, 2, 2))),
        (34, "swap", ((1, 1, 2), (1, 1, 3))),
    ],
    3: [
        (49, "swap", ((0, 2, 2), (0, 2, 3))),
        (94, "swap", ((0, 2, 1), (0, 2, 2))),
        (95, "swap", ((0, 2, 2), (0, 2, 3))),
        (96, "swap", ((0, 0, 5), (0, 0, 4))),
        (97, "swap", ((0, 0, 3), (0, 0, 4))),
    ],
}
MAPPING_REFUSAL = "final mapping differs from the emitted one\n"


def _tiled(n: int):
    layout = build_multiplier_layout(n)
    spec = RegisterSpec.for_width(n)
    sched, final = full_multiplier_schedule(n, layout=layout)
    return layout, spec, initial_mapping(layout, spec), sched, final


def _without(sched: Schedule, mi: int, gi: int) -> Schedule:
    return Schedule([[g for j, g in enumerate(m) if (i, j) != (mi, gi)] for i, m in enumerate(sched.moments)])


@pytest.mark.parametrize("n", sorted(SURVIVORS))
def test_dropping_a_gate_is_refused_unless_pinned(n, monkeypatch, capsys):
    _layout, spec, mapping, sched, final = _tiled(n)
    # the counted-SWAP closed forms, which the benchmark also pins
    closed = (10 * n * n + 6 * n - 13, 4 * n * n + 9 * n - 13)
    assert swap_metrics(sched) == closed
    survivors = []
    refused: dict[tuple, str] = {}
    for mi, moment in enumerate(sched.moments):
        for gi, g in enumerate(moment):
            mutant = _without(sched, mi, gi)
            if swap_metrics(mutant) != closed:
                continue
            # ``verify n``: the replay's final mapping against the emitter's,
            # then the all-inputs oracle (a wrong product or a nonzero label)
            monkeypatch.setattr(cli, "full_multiplier_schedule", lambda *args, **kwargs: (mutant, final))
            code = cli.main(["verify", str(n)])
            out = capsys.readouterr().out
            key = (mi, g.kind.value, tuple(map(tuple, g.operands)))
            if code == cli.EXIT_OK:
                survivors.append(key)
            else:
                assert code == cli.EXIT_FAIL
                assert out == MAPPING_REFUSAL or out.endswith(f"/{4 ** n} products correct\n"), out
                refused[key] = out
    assert survivors == SURVIVORS[n]
    # each label-moving SWAP is refused by the final mapping alone
    assert {key: refused.get(key) for key in LABEL_MOVES[n]} == dict.fromkeys(LABEL_MOVES[n], MAPPING_REFUSAL)
    label_at, wire_of = occupied(mapping)
    swaps = {(mi, ops) for mi, _kind, ops in LABEL_MOVES[n]}
    for mi, moment in enumerate(sched.moments):
        for g in moment:
            if (mi, tuple(map(tuple, g.operands))) in swaps:
                labels = {label_at[q] for q in g.operands}
                finished = labels & {*spec.b, *spec.p}
                assert STORAGE in g.tags and len(finished) == 1, (mi, labels)
                assert not (labels - finished) & set(spec.all_data()), (mi, labels)
            if g.kind is K.SWAP:
                swap_labels(label_at, wire_of, *g.operands)


def _verify(n: int, moments: list[list[Gate]], final: dict, monkeypatch, capsys) -> tuple[int, str]:
    """Exit code and stdout of ``verify n`` when the emitter yields these
    moments, written past the IR's overlap refusal, and its true final mapping."""
    mutant = Schedule()
    mutant.moments.extend(moments)
    monkeypatch.setattr(cli, "full_multiplier_schedule", lambda *args, **kwargs: (mutant, final))
    code = cli.main(["verify", str(n)])
    return code, capsys.readouterr().out


def _refused(n: int, code: int, out: str) -> bool:
    """Whether ``verify n`` refused with one of its three verdicts: a replay
    violation, a final mapping the emitter did not report, or a product."""
    verdicts = out.startswith("adjacency violations: ") or out == MAPPING_REFUSAL or (
        out.endswith(f"/{4 ** n} products correct\n") and not out.startswith(f"{4 ** n}/"))
    return code == cli.EXIT_FAIL and verdicts


@pytest.mark.parametrize("n", [2, 3])
def test_a_swap_repeated_in_the_next_moment_is_refused(n, monkeypatch, capsys):
    # the repeat undoes the SWAP, so its two labels end on each other's sites
    _layout, _spec, _mapping, sched, final = _tiled(n)
    moments = [list(m) for m in sched.moments] + [[]]  # the last SWAP's next moment
    checked = 0
    for mi, moment in enumerate(moments):
        for g in moment:
            if g.kind is K.SWAP:
                mutant = [m + [g] if i == mi + 1 else m for i, m in enumerate(moments)]
                assert _refused(n, *_verify(n, [m for m in mutant if m], final, monkeypatch, capsys)), (mi, g)
                checked += 1
    assert checked == sched.count(K.SWAP)


def _commute(g: Gate, h: Gate) -> bool:
    """Whether two gates commute whatever the input: they share no wire, they
    SWAP the same pair, or both flip a target that is no control of the other."""
    if not set(g.operands) & set(h.operands):
        return True
    if g.kind is K.SWAP or h.kind is K.SWAP:
        return g.kind is h.kind and set(g.operands) == set(h.operands)
    return g.operands[-1] not in h.operands[:-1] and h.operands[-1] not in g.operands[:-1]


# The exchanges of adjacent moments that do not commute and that ``verify
# n`` accepts: the SWAP that brings P[n] from the ladder onto a site of the
# first pinned Toffoli of ctrl-add 1's uncompute wave (see SURVIVORS), and
# that Toffoli. Exchanged, it reads a zero ancilla where it read P[n], which
# is still 0 there.
EXCHANGE_SURVIVORS = {2: [21], 3: [28]}


@pytest.mark.parametrize("n", sorted(EXCHANGE_SURVIVORS))
def test_two_adjacent_moments_exchanged_are_refused_unless_they_commute(n, monkeypatch, capsys):
    _layout, _spec, _mapping, sched, final = _tiled(n)
    moments = [list(m) for m in sched.moments]
    survivors = []
    commuting = 0
    for mi in range(len(moments) - 1):
        first, second = moments[mi], moments[mi + 1]
        code, out = _verify(n, [*moments[:mi], second, first, *moments[mi + 2:]], final, monkeypatch, capsys)
        if all(_commute(g, h) for g in first for h in second):
            # the same circuit: verify must still accept it
            assert code == cli.EXIT_OK, (mi, out)
            commuting += 1
        elif code == cli.EXIT_OK:
            survivors.append(mi)
        else:
            assert _refused(n, code, out), (mi, out)
    assert survivors == EXCHANGE_SURVIVORS[n]
    assert commuting > 0


@pytest.mark.parametrize("n", [2, 3])
def test_a_toffoli_operand_moved_one_site_along_the_ladder_is_refused(n, monkeypatch, capsys):
    layout, _spec, _mapping, sched, final = _tiled(n)
    moments = [list(m) for m in sched.moments]
    checked = 0
    for mi, moment in enumerate(moments):
        for gi, g in enumerate(moment):
            if g.kind is not K.TOFFOLI:
                continue
            for oi, q in enumerate(g.operands):
                for dz in (-1, 1):
                    moved = Site(q.x, q.y, q.z + dz)
                    if moved not in layout.lattice or moved in g.operands:
                        continue
                    ops = (*g.operands[:oi], moved, *g.operands[oi + 1:])
                    mutant = [*moments[:mi], [*moment[:gi], Gate(K.TOFFOLI, ops), *moment[gi + 1:]], *moments[mi + 1:]]
                    # off its cube: the replay's tile rule refuses it
                    assert _verify(n, mutant, final, monkeypatch, capsys) == (cli.EXIT_FAIL, "adjacency violations: 1\n")
                    checked += 1
    assert checked == {2: 67, 3: 226}[n]  # of 6 per Toffoli, those inside the lattice and off the gate


def _replaced(sched: Schedule, mi: int, g: Gate, operands: tuple) -> Schedule:
    moments = [list(m) for m in sched.moments]
    moments[mi] = [Gate(h.kind, operands, h.condition, h.tags) if h is g else h for h in moments[mi]]
    return Schedule(moments)


def test_a_toffoli_target_moved_off_its_cell_is_refused():
    layout, _spec, mapping, sched, _final = _tiled(3)
    # each cube's data corners by the tower formula, not by the code under test
    cells = [frozenset((E(p), L(p), S(p + 1), N(p + 1))) for p in range(len(layout.placements))]
    lattice = layout.lattice
    checked = 0
    for mi, moment in enumerate(sched.moments):
        for g in moment:
            if g.kind is not K.TOFFOLI:
                continue
            c1, c2, t = g.operands
            moved = next(s for s in (lattice.all_sites[i] for i in lattice.adjacency[lattice.index_of[t]])
                         if s not in (c1, c2) and not any({c1, c2, s} <= cell for cell in cells))
            report = validate_schedule(layout, mapping, _replaced(sched, mi, g, (c1, c2, moved)))
            assert report.violations == [f"moment {mi}: toffoli {sorted(map(tuple, (c1, c2, moved)))} not on a cell"]
            checked += 1
    assert checked == 8 * 9 - 11 * 3 + 4


def test_a_swap_stretched_to_distance_two_is_refused():
    layout, _spec, mapping, sched, _final = _tiled(3)
    checked = 0
    for mi, moment in enumerate(sched.moments):
        busy = {q for g in moment for q in g.operands}
        for g in moment:
            if g.kind is not K.SWAP:
                continue
            a, b = g.operands
            far = Site(*(2 * v - u for u, v in zip(a, b)))  # one more step past b
            if far not in layout.lattice or far in busy:
                continue
            report = validate_schedule(layout, mapping, _replaced(sched, mi, g, (a, far)))
            assert report.violations == [f"moment {mi}: swap between non-adjacent {tuple(a)},{tuple(far)}"]
            checked += 1
    assert checked > 20


def _ls_program():
    program = extract_ls(decomp.lower_schedule(full_multiplier_schedule(2)[0]))
    assert validate_ls(program).ok
    return program


def test_a_merge_past_the_limit_is_refused():
    program = _ls_program()
    fresh = 1 + max(ins.instance for step in program.steps for ins in step)
    for si, step in enumerate(program.steps):
        joins: dict[str, set] = {}
        for ins in step:
            if ins.kind == MERGE_ZZ and not ins.patches[0].startswith("ls_anc"):
                joins.setdefault(ins.patches[0], set()).add(ins.instance)
        full = [p for p, instances in joins.items() if len(instances) == MERGE_SPLIT_LIMIT]
        if full:
            break
    step.append(LSInstruction(MERGE_ZZ, (full[0], "ls_anc_extra"), fresh))
    assert validate_ls(program).violations == [
        f"step {si}: patch {full[0]} joins {MERGE_SPLIT_LIMIT + 1} merge/split operations"]


def test_an_ancilla_mediating_two_patterns_is_refused():
    program = _ls_program()
    si, step = next((si, step) for si, step in enumerate(program.steps)
                    if sum(ins.kind == INIT_PLUS for ins in step) >= 2)
    step[:] = [ins._replace(patches=tuple("ls_anc0" if p == "ls_anc1" else p for p in ins.patches))
               for ins in step]
    assert validate_ls(program).violations == [f"step {si}: ancilla patch ls_anc0 mediates 2 CNOTs"]


def test_a_record_naming_one_patch_twice_is_refused():
    program = _ls_program()
    si, step = next((si, step) for si, step in enumerate(program.steps) if any(ins.kind == MERGE_ZZ for ins in step))
    i, ins = next((i, ins) for i, ins in enumerate(step) if ins.kind == MERGE_ZZ)
    step[i] = ins._replace(patches=(ins.patches[0],) * 2)
    assert validate_ls(program).violations == [f"step {si}: {MERGE_ZZ} names patch {ins.patches[0]} twice"]


@pytest.mark.parametrize("condition", [None, -1, True])
def test_a_cc_cz_without_a_record_index_is_refused(condition):
    # toffoli_mb's correction reads record 0, its one X measurement
    moments = decomp.toffoli_mb().moments
    assert assert_equiv(Schedule(moments), "toffoli", ("a", "b", "t")).ok
    with pytest.raises(ValueError, match=f"^cc_cz gate needs a record index, an int >= 0: {condition!r}$"):
        Schedule([[Gate(g.kind, g.operands, condition, g.tags) if g.kind is K.CC_CZ else g for g in m]
                  for m in moments])


def test_a_cc_cz_before_its_record_is_refused():
    moments = decomp.toffoli_mb().moments
    mi = next(i for i, m in enumerate(moments) if m[0].kind is K.MEASURE_X)
    ci = next(i for i, m in enumerate(moments) if m[0].kind is K.CC_CZ)
    mutant = Schedule([*moments[:mi], moments[ci], *(m for i, m in enumerate(moments[mi:], mi) if i != ci)])
    with pytest.raises(ValueError, match="^classically controlled CZ references a future record$"):
        assert_equiv(mutant, "toffoli", ("a", "b", "t"))
    # where append once put a CC_CZ that shares no wire with its measurement
    gates = [gate("h", "m"), gate("h", "m"), gate("mz", "m"), gate("cc_cz", "a", "b", condition=0)]
    with pytest.raises(ValueError, match="^classically controlled CZ references a future record$"):
        statevector_run(Schedule([[gates[0], gates[3]], [gates[1]], [gates[2]]]))
    appended = Schedule()
    for g in gates:
        appended.append(g)
    (branch,) = statevector_run(appended)  # H twice leaves m in |0>
    assert branch.records == (0,)
