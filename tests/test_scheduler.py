import pytest

from celltiler.circuit import Gate, GateKind, Schedule, swap_metrics
from celltiler.lattice import Site
from celltiler.scheduler import (
    RESET_SWAP_DEPTH,
    ctrl_add_step,
    ctrl_add_swap_depth,
    ctrl_add_swaps,
    full_multiplier_schedule,
    render_timeline,
    reset_step,
    reset_swaps,
    step_budgets,
    timeline_rows,
    toffoli_step,
    toffoli_step_swap_depth,
    toffoli_step_swaps,
    total_swap_depth,
    total_swaps,
    validate_schedule,
)
from celltiler.sim import classical_run
from celltiler.tiler import RegisterSpec, build_multiplier_layout, initial_mapping

K = GateKind


def setup_boards(n):
    layout = build_multiplier_layout(n)
    spec = RegisterSpec.for_width(n)
    mapping = initial_mapping(layout, spec)
    return layout, spec, mapping


@pytest.mark.parametrize("n", range(2, 9))
def test_toffoli_step_budget(n):
    layout, spec, mapping = setup_boards(n)
    sched, _ = toffoli_step(layout, mapping, spec)
    assert swap_metrics(sched) == (toffoli_step_swaps(n), toffoli_step_swap_depth(n))


@pytest.mark.parametrize("n", range(2, 9))
def test_ctrl_add_budget(n):
    layout, spec, mapping = setup_boards(n)
    _, mapping = toffoli_step(layout, mapping, spec)
    sched, _ = ctrl_add_step(layout, mapping, 1, spec)
    assert swap_metrics(sched) == (ctrl_add_swaps(n), ctrl_add_swap_depth(n))


@pytest.mark.parametrize("n", range(2, 9))
def test_reset_budget_and_constant_depth(n):
    layout, spec, mapping = setup_boards(n)
    _, mapping = toffoli_step(layout, mapping, spec)
    _, mapping = ctrl_add_step(layout, mapping, 1, spec)
    sched, _ = reset_step(layout, mapping, 1, spec)
    count, depth = swap_metrics(sched)
    assert count == reset_swaps(n)
    assert depth == RESET_SWAP_DEPTH


@pytest.mark.parametrize("n", range(2, 9))
def test_full_schedule_totals(n):
    sched, _ = full_multiplier_schedule(n)
    assert swap_metrics(sched) == (total_swaps(n), total_swap_depth(n))


def test_n1_schedule_is_toffoli_step_only():
    sched, _ = full_multiplier_schedule(1)
    layout, spec, mapping = setup_boards(1)
    step, _ = toffoli_step(layout, mapping, spec)
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
        layout, spec, mapping = setup_boards(n)
        sched, _ = toffoli_step(layout, mapping, spec)
        assert sched.count(K.TOFFOLI) == n


def test_ctrl_add_rejects_bad_index():
    layout, spec, mapping = setup_boards(3)
    with pytest.raises(ValueError):
        ctrl_add_step(layout, mapping, 0, spec)
    with pytest.raises(ValueError):
        ctrl_add_step(layout, mapping, 3, spec)


def test_reset_rejects_bad_index():
    layout, spec, mapping = setup_boards(3)
    with pytest.raises(ValueError):
        reset_step(layout, mapping, 0, spec)


def test_control_label_constant_through_iteration():
    n = 3
    layout, spec, mapping = setup_boards(n)
    _, mapping = toffoli_step(layout, mapping, spec)
    sched, _ = ctrl_add_step(layout, mapping, 1, spec)
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
    layout, spec, mapping = setup_boards(n)
    sched, _ = toffoli_step(layout, mapping, spec, optimize_depth=True)
    count, depth = swap_metrics(sched)
    assert count == toffoli_step_swaps(n)
    assert depth == 2 * (n - 1) + 2


def test_timeline_rows_cover_swap_moments():
    sched, _ = full_multiplier_schedule(2)
    rows = timeline_rows(sched)
    counted, depth = swap_metrics(sched)
    assert sum(len(r["swaps"]) for r in rows) == counted
    assert sum(1 for r in rows if r["swaps"]) == depth
    text = render_timeline(sched)
    assert text.splitlines()


def test_storage_swaps_stay_inside_queues():
    n = 3
    layout, spec, mapping = setup_boards(n)
    sched, _ = full_multiplier_schedule(n)
    queue_sites = layout.queue_sites()
    for g in sched.gates():
        if g.kind is K.SWAP and g.is_storage():
            assert all(q in queue_sites for q in g.operands)


def test_non_injective_start_mapping_rejected():
    layout, spec, mapping = setup_boards(2)
    clash = dict(mapping)
    clash[spec.a[1]] = mapping[spec.a[0]]
    with pytest.raises(ValueError, match="not injective"):
        toffoli_step(layout, clash, spec)
    with pytest.raises(ValueError, match="not injective"):
        validate_schedule(layout, clash, Schedule())


@pytest.mark.parametrize("n", [1, 2])
def test_optimized_toffoli_depth_needs_three_rungs(n):
    layout, spec, mapping = setup_boards(n)
    with pytest.raises(ValueError, match="needs n >= 3"):
        toffoli_step(layout, mapping, spec, optimize_depth=True)


def test_step_budgets_rows_match_emitted_steps():
    n = 4
    layout, spec, mapping = setup_boards(n)
    emitted = []
    step, mapping = toffoli_step(layout, mapping, spec, optimize_depth=True)
    emitted.append(swap_metrics(step))
    for j in range(1, n):
        step, mapping = ctrl_add_step(layout, mapping, j, spec)
        emitted.append(swap_metrics(step))
        if j <= n - 2:
            step, mapping = reset_step(layout, mapping, j, spec)
            emitted.append(swap_metrics(step))
    rows = step_budgets(n, optimize_toffoli_depth=True)
    assert [(c, d) for _, c, d in rows] == emitted
    assert [name for name, _, _ in rows] == [
        "toffoli step", "ctrl-add 1", "reset 1", "ctrl-add 2", "reset 2", "ctrl-add 3",
    ]
