"""Acceptance suite: every shipped claim re-checked at its stated tolerance.

Each criterion prints one PASS line when it holds; any failure trips the
assert with a diagnostic.
"""

from fractions import Fraction

from celltiler import decomp
from celltiler.cells import Layout, place, tile_supports, toffoli_cube, tdepth2_tile, and_tile
from celltiler.circuit import GateKind, POLICIES, Schedule, depth, swap_metrics, t_metrics
from celltiler.lattice import Site, grid
from celltiler.lsx import extract_ls, validate_ls
from celltiler.router import compare, compare_csv
from celltiler.scheduler import (
    RESET_SWAP_DEPTH,
    _Board,
    ctrl_add_step,
    full_multiplier_schedule,
    reset_step,
    toffoli_step,
    validate_schedule,
)
from celltiler.sim import EQUIV_TOL, assert_equiv, classical_run
from celltiler.tiler import (
    RegisterSpec,
    build_multiplier_layout,
    effectiveness_ratio,
    initial_mapping,
    qubit_count,
    usage_ratio,
)

K = GateKind
TOL = 1e-10


def report(criterion: int, text: str) -> None:
    print(f"criterion {criterion:2d}: PASS - {text}")


def test_criterion_1_multiplier_correctness():
    for n in (2, 3, 4):
        layout = build_multiplier_layout(n)
        spec = RegisterSpec.for_width(n)
        mapping = initial_mapping(layout, spec)
        sched, _ = full_multiplier_schedule(n)
        for a in range(2 ** n):
            for b in range(2 ** n):
                bits = {spec.a[i]: (a >> i) & 1 for i in range(n)}
                bits |= {spec.b[i]: (b >> i) & 1 for i in range(n)}
                out = classical_run(sched, mapping, bits)
                p = sum(out[spec.p[k]] << k for k in range(2 * n))
                assert p == a * b, f"n={n}: {a}*{b} -> {p}"
                assert out[spec.z] == 0
                assert all(out[spec.a[i]] == (a >> i) & 1 for i in range(n))
                assert all(out[spec.b[i]] == (b >> i) & 1 for i in range(n))
    report(1, "P = A*B with A, B preserved and Z = 0, exhaustive for n = 2, 3, 4")


def _steps(n):
    """The Toffoli step, ctrl-add 1 and reset 1, chained on one board as the
    CLI emits them; each comes back as a schedule of its own moments."""
    layout = build_multiplier_layout(n)
    board = _Board(layout, initial_mapping(layout, RegisterSpec.for_width(n)))
    steps = []
    for kind, step, args in (("toffoli", toffoli_step, ()), ("ctrl-add", ctrl_add_step, (1,)),
                             ("reset", reset_step, (1,))):
        start = len(board.sched.moments)
        step(board, *args)
        board.finish(kind)
        steps.append(Schedule(board.sched.moments[start:]))
    return steps


def test_criterion_2_swap_count_closed_forms():
    for n in range(2, 9):
        t, ca, r = _steps(n)
        assert swap_metrics(t)[0] == 5 * (n - 1) + 12
        assert swap_metrics(ca)[0] == 6 * (n - 1) + 16
        assert swap_metrics(r)[0] == 4 * (n - 1) + 9
        full, _ = full_multiplier_schedule(n)
        assert swap_metrics(full)[0] == 10 * n * n + 6 * n - 13
    report(2, "per-step counts 5(n-1)+12, 6(n-1)+16, 4(n-1)+9; total 10n^2+6n-13 for n = 2..8")


def test_criterion_3_swap_depths():
    for n in range(2, 9):
        t, ca, r = _steps(n)
        assert swap_metrics(t)[1] == 2 * (n - 1) + 5
        assert swap_metrics(ca)[1] == 4 * (n - 1) + 10
        full, _ = full_multiplier_schedule(n)
        component_sum = (
            (2 * (n - 1) + 5)
            + (n - 1) * (4 * (n - 1) + 10)
            + (n - 2) * RESET_SWAP_DEPTH
        )
        assert component_sum == 4 * n * n + 9 * n - 13
        assert swap_metrics(full)[1] == component_sum
    report(3, "per-step depths 2(n-1)+5 and 4(n-1)+10; total equals the component sum "
              "4n^2+9n-13 (the 4n^2+5n-13 closed form is a documented erratum)")


def test_criterion_4_reset_depth_constant():
    for n in range(2, 9):
        _, _, r = _steps(n)
        assert swap_metrics(r)[1] == 5
    report(4, "reset-step SWAP depth is 5 for every n in 2..8")


def test_criterion_5_decomposition_equivalence():
    assert EQUIV_TOL == TOL
    assert assert_equiv(decomp.ccz_tdepth1(), "ccz", ("a", "b", "c")).ok
    assert assert_equiv(decomp.toffoli_tdepth2(), "toffoli", ("a", "b", "t")).ok
    assert assert_equiv(decomp.controlled_s("a"), "cs", ("q1", "q2")).ok
    assert assert_equiv(decomp.toffoli_mb(), "toffoli", ("a", "b", "t")).ok
    report(5, "ccz_tdepth1=CCZ, toffoli_tdepth2=Toffoli, controlled_s=CS, "
              "toffoli_mb=Toffoli on both branches at 1e-10")


def test_criterion_6_decomposition_metrics():
    assert t_metrics(decomp.ccz_tdepth1()) == (7, 1)
    assert t_metrics(decomp.and_4anc()) == (4, 1)
    assert t_metrics(decomp.and_3anc()) == (4, 1)
    t2 = decomp.toffoli_tdepth2()
    assert t_metrics(t2)[1] == 2
    assert t2.count(K.CNOT) == 14
    for policy in POLICIES.values():
        assert 6 <= depth(t2, policy) <= 9
    assert depth(decomp.and_3anc(), POLICIES["parallel"]) == 7
    assert depth(decomp.controlled_s("a"), POLICIES["strict"]) == 5
    report(6, "T counts/depths, 14 CNOTs, policy depths within [6, 9], AND depth 7, CS depth 5")


def test_criterion_7_layout_accounting():
    assert qubit_count(4) == 48
    assert usage_ratio(build_multiplier_layout(4)) == Fraction(33, 48)
    single = Layout(grid(2, 2, 2))
    place(single, toffoli_cube(), Site(0, 0, 0))
    assert usage_ratio(single) == Fraction(7, 8)
    assert effectiveness_ratio(single) == Fraction(3, 8)
    report(7, "qubit_count(4)=48, usage 33/48 and 7/8, effectiveness 3/8")


def test_criterion_8_tile_contracts_and_adjacency():
    assert tile_supports(toffoli_cube(), decomp.toffoli_cube_circuit())
    assert tile_supports(tdepth2_tile(), decomp.toffoli_tdepth2())
    assert tile_supports(and_tile(), decomp.toffoli_mb())
    for n in range(1, 9):
        layout = build_multiplier_layout(n)
        spec = RegisterSpec.for_width(n)
        mapping = initial_mapping(layout, spec)
        sched, _ = full_multiplier_schedule(n)
        rep = validate_schedule(layout, mapping, sched)
        assert rep.ok, f"n={n}: {rep.violations[:3]}"
    report(8, "all three tile contracts hold; zero adjacency violations for n = 1..8")


def test_criterion_9_router_dominance():
    rows = compare(range(2, 6))
    for r in rows:
        assert r["tiled_swapC"] < r["routed_swapC"], r
        assert r["tiled_swapD"] < r["routed_swapD"], r
    csv = compare_csv(rows)
    assert csv.splitlines()[0] == "n,tiled_swapC,tiled_swapD,routed_swapC,routed_swapD"
    ratios = ", ".join(
        f"n={r['n']}: C x{r['ratio_swapC']:.2f} D x{r['ratio_swapD']:.2f}" for r in rows
    )
    report(9, f"tiled strictly dominates the greedy baseline for n = 2..5 ({ratios})")


def test_criterion_10_lattice_surgery():
    for n in range(1, 5):
        sched, _ = full_multiplier_schedule(n)
        lowered = decomp.lower_schedule(sched)
        prog = extract_ls(lowered)
        assert prog.cnot_count() == lowered.count(K.CNOT)
        assert validate_ls(prog).ok
    cube = decomp.toffoli_cube_circuit()
    cube_sites = {w: v for w, v, _ in toffoli_cube().vertices}
    prog = extract_ls(cube, site_map=cube_sites)
    assert len(prog.steps) == 3, f"cube packs to {len(prog.steps)} steps"
    assert validate_ls(prog).ok
    report(10, "round-trip CNOT counts preserved, parallel bounds clean for n = 1..4, "
               "depth-3 cube packing achieved")
