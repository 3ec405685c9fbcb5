import hashlib
import json
import re
import sys
from functools import partial

import pytest

from celltiler import scheduler
from celltiler.cells import Layout, place, toffoli_cube
from celltiler.circuit import STORAGE, Gate, GateKind, Schedule, swap_metrics
from celltiler.lattice import Site, grid
from celltiler.router import greedy_route, logical_multiplier_circuit, routing_mapping
from celltiler.scheduler import (
    RESET_SWAP_DEPTH,
    ctrl_add_step,
    full_multiplier_schedule,
    render_timeline,
    reset_step,
    step_budgets,
    timeline_rows,
    toffoli_step,
    validate_schedule,
)
from celltiler.sim import classical_run
from celltiler.tiler import (
    E, L, MAGENTA, N, YELLOW, RegisterSpec, S, build_multiplier_layout, initial_mapping,
)
from labels import occupied, swap_labels

K = GateKind


def setup_boards(n):
    layout = build_multiplier_layout(n)
    spec = RegisterSpec.for_width(n)
    mapping = initial_mapping(layout, spec)
    return layout, spec, mapping


def board(n=2):
    layout, _spec, mapping = setup_boards(n)
    return scheduler._Board(layout, mapping)


def run_step(b, kind, step, *args, **kwargs):
    """Run one step on the board, close it as ``kind`` and return a schedule
    of the step's own moments."""
    start = len(b.sched.moments)
    step(b, *args, **kwargs)
    b.finish(kind)
    return Schedule(b.sched.moments[start:])


@pytest.mark.parametrize("n", range(2, 9))
def test_toffoli_step_budget(n):
    sched = run_step(board(n), "toffoli", toffoli_step)
    assert swap_metrics(sched) == (5 * (n - 1) + 12, 2 * (n - 1) + 5)


@pytest.mark.parametrize("n", range(2, 9))
def test_ctrl_add_budget(n):
    b = board(n)
    run_step(b, "toffoli", toffoli_step)
    sched = run_step(b, "ctrl-add", ctrl_add_step, 1)
    assert swap_metrics(sched) == (6 * (n - 1) + 16, 4 * (n - 1) + 10)


@pytest.mark.parametrize("n", range(2, 9))
def test_reset_budget_and_constant_depth(n):
    b = board(n)
    run_step(b, "toffoli", toffoli_step)
    run_step(b, "ctrl-add", ctrl_add_step, 1)
    sched = run_step(b, "reset", reset_step, 1)
    count, depth = swap_metrics(sched)
    assert count == 4 * (n - 1) + 9
    assert depth == RESET_SWAP_DEPTH == 5


@pytest.mark.parametrize("n", range(2, 9))
def test_full_schedule_totals(n):
    sched, _ = full_multiplier_schedule(n)
    totals = (10 * n * n + 6 * n - 13, 4 * n * n + 9 * n - 13)
    assert swap_metrics(sched) == totals
    rows = step_budgets(n)
    assert (sum(c for _, c, _ in rows), sum(d for _, _, d in rows)) == totals


def test_n1_schedule_is_toffoli_step_only():
    sched, _ = full_multiplier_schedule(1)
    step = run_step(board(1), "toffoli", toffoli_step)
    assert sched.to_json() == step.to_json()
    assert sched.count(K.TOFFOLI) == 1


@pytest.mark.parametrize("n", range(1, 9))
def test_full_schedule_adjacency(n):
    layout, spec, mapping = setup_boards(n)
    sched, final = full_multiplier_schedule(n)
    report = validate_schedule(layout, mapping, sched)
    assert report.ok, report.violations[:5]
    assert report.final_mapping == final  # the validator's replay meets the emitter's


def test_validator_flags_diagonal_swap():
    layout, spec, mapping = setup_boards(2)
    bad = Schedule([[Gate(K.SWAP, (Site(0, 0, 0), Site(1, 1, 0)))]])
    report = validate_schedule(layout, mapping, bad)
    assert len(report.violations) == 1


def _one_gate_report(g, toffoli_rule="tile"):
    layout, spec, mapping = setup_boards(2)
    return validate_schedule(layout, mapping, Schedule([[g]]), toffoli_rule=toffoli_rule)


def test_validator_flags_toffoli_off_every_cube():
    # E(0), L(0) and S(0) are adjacent but S(0) is no data corner of cube 0
    report = _one_gate_report(Gate(K.TOFFOLI, (Site(1, 0, 0), Site(0, 1, 0), Site(0, 0, 0))))
    assert len(report.violations) == 1 and "not on a cell" in report.violations[0]
    ok = _one_gate_report(Gate(K.TOFFOLI, (Site(1, 0, 0), Site(0, 1, 0), Site(1, 1, 1))))
    assert ok.ok


def _one_cube_report(*sites):
    # one cube at (1, 0, 0) in orientation 0 on a 3 x 3 x 2 grid: its data
    # corners are (2, 0, 0), (1, 1, 0), (1, 0, 1) and the absent (2, 1, 1)
    layout = place(Layout(grid(3, 3, 2)), toffoli_cube(), Site(1, 0, 0), 0)
    return validate_schedule(layout, {}, Schedule([[Gate(K.TOFFOLI, sites)]]))


def test_the_tile_rule_reads_the_cells_of_the_layout():
    assert _one_cube_report(Site(2, 0, 0), Site(1, 1, 0), Site(1, 0, 1)).ok
    assert _one_cube_report(Site(2, 1, 1), Site(1, 1, 0), Site(1, 0, 1)).ok


def test_the_tile_rule_refuses_sites_off_the_layouts_cells():
    # the data corners of the multiplier's cube 0, two of them off this cube
    report = _one_cube_report(Site(1, 0, 0), Site(0, 1, 0), Site(0, 0, 1))
    assert report.violations == ["moment 0: toffoli [(0, 0, 1), (0, 1, 0), (1, 0, 0)] not on a cell"]


def _tower_corners(p):
    """Cube p's data corners by the tower formula, written out here so that
    the references below do not read the code they check."""
    return frozenset((E(p), L(p), S(p + 1), N(p + 1)))


@pytest.mark.parametrize("n", range(1, 11))
def test_multiplier_cubes_have_the_tower_data_corners(n):
    layout = build_multiplier_layout(n)
    assert [p.data_corners for p in layout.placements] == [_tower_corners(p) for p in range(n)]


def test_validator_flags_toffoli_not_chain_adjacent():
    # a cube's data corners are pairwise two apart, so no chain joins them
    g = Gate(K.TOFFOLI, (Site(1, 0, 0), Site(0, 1, 0), Site(1, 1, 1)))
    report = _one_gate_report(g, toffoli_rule="chain")
    assert len(report.violations) == 1 and "not chain-adjacent" in report.violations[0]
    chain = Gate(K.TOFFOLI, (Site(0, 0, 0), Site(1, 0, 0), Site(1, 1, 0)))
    assert _one_gate_report(chain, toffoli_rule="chain").ok


def test_validator_flags_site_outside_lattice():
    report = _one_gate_report(Gate(K.SWAP, (Site(0, 2, 0), Site(0, 3, 0))))
    assert len(report.violations) == 1 and "outside lattice" in report.violations[0]


def test_validator_flags_non_site_operand():
    report = _one_gate_report(Gate(K.SWAP, (Site(0, 0, 0), "A0")))
    assert len(report.violations) == 1 and "non-site operand" in report.violations[0]


def test_validator_rejects_unknown_toffoli_rule():
    with pytest.raises(ValueError, match="unknown toffoli rule"):
        _one_gate_report(Gate(K.SWAP, (Site(0, 0, 0), Site(0, 1, 0))), toffoli_rule="cube")


def test_validator_empty_schedule_identity():
    layout, spec, mapping = setup_boards(2)
    report = validate_schedule(layout, mapping, Schedule())
    assert report.ok
    assert report.final_mapping == mapping


def test_swap_involution():
    layout, spec, mapping = setup_boards(2)
    a, b = Site(0, 1, 0), Site(0, 2, 0)
    twice = Schedule([[Gate(K.SWAP, (a, b))], [Gate(K.SWAP, (a, b))]])
    report = validate_schedule(layout, mapping, twice)
    assert report.final_mapping == mapping


@pytest.mark.parametrize("n", [2, 3])
def test_multiplier_exhaustive(n):
    layout, spec, mapping = setup_boards(n)
    sched, _ = full_multiplier_schedule(n)
    for a in range(2 ** n):
        for b in range(2 ** n):
            bits = {spec.a[i]: (a >> i) & 1 for i in range(n)}
            bits |= {spec.b[i]: (b >> i) & 1 for i in range(n)}
            out = classical_run(sched, mapping, bits)
            p = sum(out[spec.p[k]] << k for k in range(2 * n))
            assert p == a * b, f"{a}*{b} gave {p}"
            assert out[spec.z] == 0
            for i in range(n):
                assert out[spec.a[i]] == (a >> i) & 1
                assert out[spec.b[i]] == (b >> i) & 1


def test_mapping_bijective_after_each_step():
    n = 3
    layout, spec, mapping = setup_boards(n)
    sched, final = full_multiplier_schedule(n)
    assert sorted(map(tuple, final.values())) == sorted(map(tuple, mapping.values()))
    assert set(final) == set(mapping)


def test_toffoli_step_fires_one_gate_per_cube():
    for n in (1, 3):
        sched = run_step(board(n), "toffoli", toffoli_step)
        assert sched.count(K.TOFFOLI) == n


def test_ctrl_add_rejects_bad_index():
    with pytest.raises(ValueError):
        ctrl_add_step(board(3), 0)
    with pytest.raises(ValueError):
        ctrl_add_step(board(3), 3)


def test_reset_rejects_bad_index():
    with pytest.raises(ValueError):
        reset_step(board(3), 0)


def test_control_label_constant_through_iteration():
    n = 3
    spec = RegisterSpec.for_width(n)
    b = board(n)
    run_step(b, "toffoli", toffoli_step)
    mapping = b.occ.mapping()
    sched = run_step(b, "ctrl-add", ctrl_add_step, 1)
    # replay and confirm every sum Toffoli uses B1 as a control
    occupant = {s: l for l, s in mapping.items()}
    sum_controls = set()
    for moment in sched.moments:
        for g in moment:
            if g.kind is K.SWAP:
                a, b = g.operands
                occupant[a], occupant[b] = occupant.get(b), occupant.get(a)
            elif g.kind is K.TOFFOLI:
                labels = [occupant.get(q) for q in g.operands]
                if spec.b[1] in labels:
                    sum_controls.add(labels[0] if labels[0] == spec.b[1] else labels[1])
    assert sum_controls == {spec.b[1]}


def test_optimized_toffoli_depth_variant():
    n = 4
    sched = run_step(board(n), "toffoli-opt", toffoli_step, optimize_depth=True)
    count, depth = swap_metrics(sched)
    assert count == 5 * (n - 1) + 12
    assert depth == 2 * (n - 1) + 2


def test_timeline_rows_cover_swap_moments():
    sched, _ = full_multiplier_schedule(2)
    rows = timeline_rows(sched)
    counted, depth = swap_metrics(sched)
    assert sum(len(r["swaps"]) for r in rows) == counted
    assert sum(1 for r in rows if r["swaps"]) == depth
    text = render_timeline(sched)
    assert text.splitlines()


@pytest.mark.parametrize("n", range(1, 11))
def test_timeline_rows_split_swaps_by_queue(n):
    # an independent split: a SWAP is storage iff its two sites share a queue
    layout = build_multiplier_layout(n)
    queue_of = {s: name for name, chain in layout.queues.items() for s in chain}
    for optimize in (False, True) if n >= 3 else (False,):
        sched, _ = full_multiplier_schedule(n, optimize_toffoli_depth=optimize)
        expected = []
        for mi, moment in enumerate(sched.moments):
            split = {False: [], True: []}
            for g in moment:
                if g.kind is K.SWAP:
                    a, b = g.operands
                    split[a in queue_of and queue_of[a] == queue_of.get(b)].append([list(a), list(b)])
            if split[False] or split[True]:
                expected.append({"moment": mi, "swaps": split[False], "storage": split[True]})
        rows = timeline_rows(sched)
        assert rows == expected, (n, optimize)
        assert all(list(row) == ["moment", "swaps", "storage"] for row in rows)


def test_storage_swaps_stay_inside_queues():
    # storage tags are derived: a SWAP is storage iff both sites share a queue
    for n in range(1, 11):
        layout = build_multiplier_layout(n)
        queue_of = {s: name for name, chain in layout.queues.items() for s in chain}
        assert layout.queue_of == queue_of
        sched, _ = full_multiplier_schedule(n)
        storage = 0
        for g in sched.gates():
            if g.kind is K.SWAP:
                a, b = g.operands
                same_queue = a in queue_of and queue_of[a] == queue_of.get(b)
                assert (STORAGE in g.tags) == same_queue, (n, g)
                storage += STORAGE in g.tags
        assert storage > 0 or n == 1  # n = 1 has no controlled add


def test_non_injective_start_mapping_rejected():
    layout, spec, mapping = setup_boards(2)
    clash = dict(mapping)
    shared = clash[spec.a[1]] = mapping[spec.a[0]]
    # the message names the shared Site, never the slot it sits on
    text = f"mapping is not injective: two labels start on {shared!r}"
    assert text.endswith("two labels start on Site(x=1, y=0, z=1)")
    refusals = [
        lambda: toffoli_step(scheduler._Board(layout, clash)),
        lambda: validate_schedule(layout, clash, Schedule()),
        lambda: classical_run(Schedule(), clash, {}),
        lambda: greedy_route(Schedule(), layout.lattice, clash),
    ]
    for refuse in refusals:
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            refuse()
    # a shared str wire is named by its repr too
    with pytest.raises(ValueError, match="^mapping is not injective: two labels start on 'w'$"):
        classical_run(Schedule(), {"a": "w", "b": "w"}, {})


@pytest.mark.parametrize("n", [1, 2])
def test_optimized_toffoli_depth_needs_three_rungs(n):
    with pytest.raises(ValueError, match="needs n >= 3"):
        toffoli_step(board(n), optimize_depth=True)


def test_step_budgets_rows_match_emitted_steps():
    n = 4
    b = board(n)
    emitted = [swap_metrics(run_step(b, "toffoli-opt", toffoli_step, optimize_depth=True))]
    for j in range(1, n):
        emitted.append(swap_metrics(run_step(b, "ctrl-add", ctrl_add_step, j)))
        if j <= n - 2:
            emitted.append(swap_metrics(run_step(b, "reset", reset_step, j)))
    rows = step_budgets(n, optimize_toffoli_depth=True)
    assert [(c, d) for _, c, d in rows] == emitted
    assert [name for name, _, _ in rows] == [
        "toffoli step", "ctrl-add 1", "reset 1", "ctrl-add 2", "reset 2", "ctrl-add 3",
    ]


def chained_steps(n, optimize):
    """The multiplier as the public step functions emit it, a fresh board per
    step, with the steps' moments concatenated into one schedule."""
    layout, spec, mapping = setup_boards(n)
    total = Schedule()
    steps = [("toffoli-opt" if optimize else "toffoli", partial(toffoli_step, optimize_depth=optimize))]
    for j in range(1, n):
        steps.append(("ctrl-add", partial(ctrl_add_step, j=j)))
        if j <= n - 2:
            steps.append(("reset", partial(reset_step, j=j)))
    for kind, step in steps:
        b = scheduler._Board(layout, mapping)
        for m in run_step(b, kind, step).moments:
            total.extend_moment(m)
        mapping = b.occ.mapping()
    return total, mapping


@pytest.mark.parametrize(
    "n,optimize", [(n, opt) for n in range(1, 11) for opt in (False, True) if n >= 3 or not opt]
)
def test_one_board_matches_the_chained_steps(n, optimize):
    sched, final = full_multiplier_schedule(n, optimize_toffoli_depth=optimize)
    reference, reference_final = chained_steps(n, optimize)
    assert sched.to_json() == reference.to_json()
    assert final == reference_final


# sha256 of to_json(), a newline and the sorted final mapping as JSON; a
# refactor of the emitters must leave every byte of both outputs unchanged
SCHEDULE_PINS = {
    (1, False): "955cd61b37eb87cd7e38cbc8da982bf59424813fcdd8662567c2688f00e96270",
    (2, False): "48221bbffe02b9052c63b51706383d56db8ca3373a69b54b05fe7004a355dfd2",
    (3, False): "ea03e1c272db2ab0a87e9d00de721acd049587a6226d999b1a84816cf22ac2f0",
    (4, False): "c3e736b2f6ea024e02e0bf9387aed5b2fcfeac2c727752f58aebe08645da8535",
    (5, False): "06b6eee10f99d07dd12c4565983ea6644713539b146b0d798777c5b55e16bd15",
    (6, False): "0d0857453bd7b95eab5370ba64d7badf504c63461df36ca1080bc03038e94674",
    (7, False): "34b022face326ea502f842864f620918d086d522d7745ee6de626b537237029d",
    (8, False): "24619dddd2cc6e5f3a153828cb1aa4e4fbeb1fe03dea087419e67195c5a38b42",
    (9, False): "f7fba5e3c50ab30de87d7c4ee67da90e73aadf239100fc894402f264fe358f6b",
    (10, False): "33d0e838f2706b91c75d38805bcef7c0018a93c980a44423da51a3bed596668e",
    (3, True): "bf3d40793144039904dcbdd93bb44abef4fe618935c049ffd622aa20d92e4173",
    (4, True): "141a90d303e4ca820244a37f61de22ac655debde91be42eb9eae982a5c36173c",
    (5, True): "8da9b8bb333ebb265565194808667c15525c5054cc13956a4182b8c7ee6a142d",
    (6, True): "46de931203f69f7813cd402e8385ca9a21ab0b7b818394f4035e258fa13ca376",
    (7, True): "c06180053ca0bc27685ec0d2a0a4875f35e151117a14f2bc5a07dcff1b8cc627",
    (8, True): "26d8952683a70bfef38cec782b2519bb762b31667e75b212b890e00342d5a749",
    (9, True): "29c28cc7302c42cc40ab3a1cd20450b3818a65d7c8912e828aa899d723ae2c0d",
    (10, True): "c87143cf2da9a4b6a8f0e0284ac5e8fa94e3d83d5c20ec8718070d6f066c55d0",
}


@pytest.mark.parametrize("n,optimize", sorted(SCHEDULE_PINS))
def test_schedule_bytes_pinned(n, optimize):
    sched, final = full_multiplier_schedule(n, optimize_toffoli_depth=optimize)
    mapping = json.dumps(sorted((str(label), list(site)) for label, site in final.items()))
    text = sched.to_json() + "\n" + mapping
    assert hashlib.sha256(text.encode()).hexdigest() == SCHEDULE_PINS[n, optimize]


# each perturbed closed form: (STEP_SWAPS kind, 0 for the count or 1 for the depth)
PERTURBED = {
    "toffoli_step_swaps": ("toffoli", 0),
    "toffoli_step_swap_depth": ("toffoli", 1),
    "ctrl_add_swaps": ("ctrl-add", 0),
    "ctrl_add_swap_depth": ("ctrl-add", 1),
    "RESET_SWAP_DEPTH": ("reset", 1),
}


@pytest.mark.parametrize("delta", [-1, 1])
@pytest.mark.parametrize("budget", list(PERTURBED))
def test_step_off_its_budget_raises(monkeypatch, budget, delta):
    kind, field = PERTURBED[budget]
    original = scheduler.STEP_SWAPS[kind]

    def perturbed(n):
        cost = list(original(n))
        cost[field] += delta
        return tuple(cost)

    monkeypatch.setitem(scheduler.STEP_SWAPS, kind, perturbed)
    with pytest.raises(ValueError, match="budget"):
        full_multiplier_schedule(4)


def test_stale_positional_spec_rejected():
    spec = RegisterSpec.for_width(4)
    with pytest.raises(TypeError):
        toffoli_step(board(4), spec)
    with pytest.raises(TypeError):
        ctrl_add_step(board(4), 1, spec)
    with pytest.raises(TypeError):
        reset_step(board(4), 1, spec)


def test_validate_schedule_reports_overlapping_support():
    layout, _spec, mapping = setup_boards(2)
    sched = Schedule()
    # Schedule refuses the overlap itself, so the moment is written past it
    sched.moments.append([Gate(K.SWAP, (S(0), S(1))), Gate(K.SWAP, (S(1), S(2)))])
    report = validate_schedule(layout, mapping, sched)
    assert report.violations == ["moment 0: overlapping support at [(0, 0, 1)]"]


@pytest.mark.parametrize(
    "emit, message",
    [
        (lambda b: b.moment((Site(0, 1, 2), Site(0, 1, 3))), "site (0, 1, 3) is outside the used region"),
        (lambda b: b.bubble_to("nope", YELLOW(0)), "label 'nope' not on the board"),
        (lambda b: b.moment((S(0), S(2))), "SWAP (0, 0, 0)<->(0, 0, 2) is not nearest-neighbour"),
        (lambda b: b.bubble_to("B1", MAGENTA(0)), "bubble of 'B1' must stay inside one queue"),
        (lambda b: b.bubble_hole_to("magenta", MAGENTA(0)), "queue magenta has no free slot"),
    ],
    ids=["outside", "unknown-label", "not-adjacent", "across-queues", "no-free-slot"],
)
def test_board_rejects_a_bad_move(emit, message):
    with pytest.raises(ValueError) as err:
        emit(board())
    assert str(err.value) == message


@pytest.mark.parametrize(
    "emit, message",
    [
        (lambda b: b.moment((S(0), S(1)), (S(1), S(2))),
         "overlapping support in moment 0: Gate(kind=<GateKind.SWAP: 'swap'>, "
         "operands=(Site(x=0, y=0, z=1), Site(x=0, y=0, z=2)), condition=None, tags=frozenset())"),
        # the second moment's (S(0), S(1)) reuses the gate the first one made
        (lambda b: [b.moment((S(0), S(1))), b.moment((S(1), S(2)), (S(0), S(1)))],
         "overlapping support in moment 1: Gate(kind=<GateKind.SWAP: 'swap'>, "
         "operands=(Site(x=0, y=0, z=0), Site(x=0, y=0, z=1)), condition=None, tags=frozenset())"),
        (lambda b: b.fire(S(0), S(1), S(0)),
         "duplicate operand in toffoli gate: "
         "(Site(x=0, y=0, z=0), Site(x=0, y=0, z=1), Site(x=0, y=0, z=0))"),
    ],
    ids=["used-twice", "used-twice-cached", "toffoli-used-twice"],
)
def test_board_move_using_a_site_twice_is_refused_by_the_ir(emit, message):
    # the board leaves this rule to Schedule.extend_moment and Gate, which
    # raise ValueError, as the board does; cli.main maps it to exit 2
    with pytest.raises(ValueError) as err:
        emit(board())
    assert str(err.value) == message


@pytest.mark.parametrize(
    "n, optimize", [(n, o) for n in range(1, 11) for o in (False, True) if n >= 3 or not o]
)
def test_emission_keeps_the_used_region_and_shares_each_move(n, optimize):
    layout, _spec, mapping = setup_boards(n)
    sched, final = full_multiplier_schedule(n, optimize, layout=layout)
    # every gate acts on labelled sites, so every SWAP leaves both labelled:
    # the board's once-per-move region checks rest on this
    used = set(mapping.values())
    assert all(q in used for g in sched.gates() for q in g.operands)
    assert set(final.values()) == used
    # one object per distinct Toffoli triple and per directed SWAP edge
    shared: dict = {}
    for g in sched.gates():
        assert shared.setdefault((g.kind, g.operands), g) is g
    triples = sum(1 for kind, _ops in shared if kind is K.TOFFOLI)
    assert triples == {4: 22, 10: 58}.get(n, triples)


def test_full_multiplier_schedule_takes_the_callers_layout():
    layout = build_multiplier_layout(4)
    assert full_multiplier_schedule(4, layout=layout)[0].to_json() == full_multiplier_schedule(4)[0].to_json()
    with pytest.raises(ValueError, match="^layout has 4 cubes, spec expects 3$"):
        full_multiplier_schedule(3, layout=layout)


def test_board_reports_unplaced_spacers(monkeypatch):
    monkeypatch.setattr(scheduler._Board, "_spacer_pairs", staticmethod(lambda h: []))
    b = board()
    b.moment(spacers=1)
    with pytest.raises(ValueError) as err:
        b.finish("reset")
    assert str(err.value) == "unplaced spacer swaps: 1"


def count_step_calls(monkeypatch):
    """Wrap each step function wherever a celltiler module holds it, the way
    the benchmark's traced mode does, and count the calls by name."""
    calls = dict.fromkeys(("toffoli_step", "ctrl_add_step", "reset_step"), 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        original = getattr(scheduler, name)
        wrapper = counted(name, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "celltiler" or mod_name.startswith("celltiler."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, attr, wrapper)
    return calls


@pytest.mark.parametrize(
    "n, optimize", [(n, o) for n in range(1, 11) for o in (False, True) if n >= 3 or not o]
)
def test_wrapped_step_functions_see_every_step(n, optimize, monkeypatch):
    calls = count_step_calls(monkeypatch)
    full_multiplier_schedule(n, optimize)
    assert calls == {"toffoli_step": 1, "ctrl_add_step": n - 1, "reset_step": max(n - 2, 0)}


def _reference_replay(layout, mapping0, schedule, toffoli_rule="tile"):
    """A reference replay that redoes every test for every occurrence of a
    gate and moves labels on plain dicts. Returns (violations, final
    mapping)."""
    corner_sets = [_tower_corners(p) for p in range(len(layout.placements))]
    label_at, wire_of = occupied(mapping0)
    violations = []
    for mi, moment in enumerate(schedule.moments):
        touched = set()
        for g in moment:
            sites = [q for q in g.operands if isinstance(q, Site)]
            if len(sites) != len(g.operands):
                violations.append(f"moment {mi}: non-site operand in {g.kind.value}")
                continue
            for s in sites:
                if s not in layout.lattice:
                    violations.append(f"moment {mi}: {tuple(s)} outside lattice")
            overlap = touched.intersection(sites)
            if overlap:
                violations.append(f"moment {mi}: overlapping support at {sorted(map(tuple, overlap))}")
            touched.update(sites)
            if len(sites) == 2:
                if sites[0].manhattan(sites[1]) != 1:
                    violations.append(
                        f"moment {mi}: {g.kind.value} between non-adjacent {tuple(sites[0])},{tuple(sites[1])}"
                    )
            elif len(sites) == 3:
                sset = frozenset(sites)
                if toffoli_rule == "tile":
                    if not any(sset <= cs for cs in corner_sets):
                        violations.append(f"moment {mi}: toffoli {sorted(map(tuple, sites))} not on a cell")
                else:
                    dists = sorted(sites[a].manhattan(sites[b]) for a in range(3) for b in range(a + 1, 3))
                    if dists[:2] != [1, 1]:
                        violations.append(f"moment {mi}: toffoli {sorted(map(tuple, sites))} not chain-adjacent")
            if g.kind is K.SWAP:
                swap_labels(label_at, wire_of, *g.operands)
    return violations, wire_of


def _matches_reference(layout, mapping, schedule, toffoli_rule="tile"):
    report = validate_schedule(layout, mapping, schedule, toffoli_rule=toffoli_rule)
    assert (report.violations, report.final_mapping) == _reference_replay(layout, mapping, schedule, toffoli_rule)
    return report


def _written(moments):
    """A schedule holding exactly these moments, written past the IR's own
    overlap refusal, so a moment may use a site twice."""
    sched = Schedule()
    sched.moments.extend(list(m) for m in moments)
    return sched


@pytest.mark.parametrize("n", range(1, 7))
def test_replay_matches_the_reference_on_tiled_schedules(n):
    layout, _spec, mapping = setup_boards(n)
    sched, final = full_multiplier_schedule(n, layout=layout)
    # one gate object serves many occurrences
    assert len({id(g) for g in sched.gates()}) < sum(map(len, sched.moments))
    report = _matches_reference(layout, mapping, sched)
    assert report.ok and report.final_mapping == final


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("rule", ["chain", "tile"])
def test_replay_matches_the_reference_on_routed_schedules(n, rule):
    layout = build_multiplier_layout(n)
    m0 = routing_mapping(layout)
    routed, _ = greedy_route(logical_multiplier_circuit(n), layout.lattice, m0)
    report = _matches_reference(layout, m0, routed, rule)
    # the routed Toffolis form chains, not cells
    assert report.ok == (rule == "chain")


def test_replay_checks_each_occurrence_of_a_reused_gate():
    layout, _spec, mapping = setup_boards(3)
    sched, _ = full_multiplier_schedule(3, layout=layout)
    moments = [list(m) for m in sched.moments]
    g = next(g for m in moments for g in m if g.kind is K.SWAP)
    # the first SWAP object again at the end, next to a gate on one of its sites
    clash = Gate(K.SWAP, (g.operands[0], Site(*(2 * u - v for u, v in zip(*g.operands)))))
    moments.append([clash, g])
    report = _matches_reference(layout, mapping, _written(moments))
    overlaps = [v for v in report.violations if "overlapping support" in v]
    assert overlaps == [f"moment {len(moments) - 1}: overlapping support at [{tuple(g.operands[0])}]"]


def test_replay_reports_a_reused_off_cell_toffoli_at_each_occurrence():
    layout, _spec, mapping = setup_boards(3)
    sched, _ = full_multiplier_schedule(3, layout=layout)
    moments = [list(m) for m in sched.moments]
    # E(0), L(0) and S(0) are adjacent but S(0) is no data corner of cube 0
    off = Gate(K.TOFFOLI, (Site(1, 0, 0), Site(0, 1, 0), Site(0, 0, 0)))
    moments[3:3] = [[off], [off]]
    report = _matches_reference(layout, mapping, _written(moments))
    text = "toffoli [(0, 0, 0), (0, 1, 0), (1, 0, 0)] not on a cell"
    assert report.violations == [f"moment 3: {text}", f"moment 4: {text}"]


def test_replay_matches_the_reference_on_bad_operands():
    layout, _spec, mapping = setup_boards(2)
    sched, _ = full_multiplier_schedule(2, layout=layout)
    moments = [list(m) for m in sched.moments]
    named = Gate(K.SWAP, (Site(0, 0, 0), "A0"))
    outside = Gate(K.SWAP, (Site(0, 2, 0), Site(0, 3, 0)))  # (0, 3, 0) is off the 2 x 3 floor
    far = Gate(K.SWAP, (Site(0, 0, 0), Site(0, 2, 0)))
    # a non-site gate takes no part in the overlap test or the occupancy replay
    moments[1:1] = [[named, far], [outside], [named], [outside, far]]
    report = _matches_reference(layout, mapping, _written(moments))
    assert report.violations == [
        "moment 1: non-site operand in swap",
        "moment 1: swap between non-adjacent (0, 0, 0),(0, 2, 0)",
        "moment 2: (0, 3, 0) outside lattice",
        "moment 3: non-site operand in swap",
        "moment 4: (0, 3, 0) outside lattice",
        "moment 4: overlapping support at [(0, 2, 0)]",
        "moment 4: swap between non-adjacent (0, 0, 0),(0, 2, 0)",
    ]
