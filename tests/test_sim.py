import itertools
import math
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from celltiler import cli, decomp, sim
from celltiler.circuit import GateKind, Schedule, gate
from celltiler.lattice import Site
from celltiler.scheduler import full_multiplier_schedule, validate_schedule
from celltiler.sim import (
    MAX_TERMS,
    _apply_gate,
    assert_equiv,
    classical_run,
    statevector_run,
)
from celltiler.tiler import RegisterSpec, build_multiplier_layout, initial_mapping
from dense import dense, sparse
from labels import occupied, swap_labels
from test_scheduler import _reference_replay

K = GateKind


def test_classical_gates():
    s = Schedule()
    s.append(gate("x", "a"))
    s.append(gate("cnot", "a", "b"))
    s.append(gate("toffoli", "a", "b", "c"))
    out = classical_run(s, None, {"a": 0, "b": 0, "c": 0})
    assert out == {"a": 1, "b": 1, "c": 1}


def test_classical_swap_moves_labels():
    s = Schedule([[gate("swap", "u", "v")]])
    out = classical_run(s, None, {"u": 1, "v": 0})
    assert out["u"] == 1 and out["v"] == 0  # the label rides with its value


def test_classical_rejects_nonclassical():
    s = Schedule([[gate("h", "a")]])
    with pytest.raises(ValueError, match="^classical oracle cannot run h$"):
        classical_run(s, None, {"a": 0})


def test_statevector_h():
    branches = statevector_run(Schedule([[gate("h", "q")]]), {"q": 0})
    state = dense(branches[0].state, 1)
    assert np.allclose(state, np.array([1, 1]) / math.sqrt(2))


def test_statevector_ccz_phase():
    sched = decomp.ccz_tdepth1()
    branches = statevector_run(sched, {"a": 1, "b": 1, "c": 1})
    wires = sched.wires()
    state = dense(branches[0].state, len(wires))
    idx = [0] * state.ndim
    for i, w in enumerate(wires):
        if w in ("a", "b", "c"):
            idx[i] = 1
    assert abs(state[tuple(idx)] + 1) < 1e-9  # phase -1 on |111>


def test_capacity_error():
    s = Schedule()
    for i in range(15):
        s.append(gate("h", f"q{i}"))
    with pytest.raises(ValueError, match=f"^{2 * MAX_TERMS} terms exceed the {MAX_TERMS}-term cap$"):
        statevector_run(s)


def test_capacity_counts_terms_not_wires():
    # 60 wires and 60 records hold one term
    wires = [f"q{i}" for i in range(60)]
    s = Schedule([[gate("x", q) for q in wires], [gate("mz", q) for q in wires]])
    (branch,) = statevector_run(s)
    assert branch.records == (1,) * 60 and branch.state == {0: 1}
    # 14 H gates make exactly MAX_TERMS terms, the 15th twice that
    assert MAX_TERMS == 1 << 14
    (branch,) = statevector_run(Schedule([[gate("h", q) for q in wires[:14]]]))
    assert len(branch.state) == MAX_TERMS
    with pytest.raises(ValueError, match=f"{2 * MAX_TERMS} terms exceed the {MAX_TERMS}-term cap"):
        statevector_run(Schedule([[gate("h", q) for q in wires[:15]]]))


@pytest.mark.parametrize(
    "condition, message",
    [(None, "^cc_cz gate needs a record index, an int >= 0: None$"),
     (1, "^classically controlled CZ references a future record$")],
    ids=["no-record", "future-record"],
)
def test_cc_cz_needs_an_earlier_record(condition, message):
    # a gate without a record index is refused when it is built, a future
    # record only by the run
    with pytest.raises(ValueError, match=message):
        statevector_run(Schedule([[gate("mz", "m")], [gate("cc_cz", "a", "b", condition=condition)]]))


def test_measurement_branch_probabilities():
    s = Schedule([[gate("h", "q")], [gate("mz", "q")]])
    branches = statevector_run(s, {"q": 0})
    assert len(branches) == 2
    assert all(abs(b.probability - 0.5) < 1e-9 for b in branches)
    assert abs(sum(b.probability for b in branches) - 1) < 1e-9


def test_measurement_recycles_wire():
    s = Schedule([[gate("h", "q")], [gate("mx", "q")]])
    for br in statevector_run(s, {"q": 0}):
        assert abs(abs(dense(br.state, 1)[0]) - 1) < 1e-9  # wire reset to |0>


def test_cross_oracle_agreement():
    rng = random.Random(7)
    wires = [f"w{i}" for i in range(8)]
    sched = Schedule()
    for _ in range(60):
        kind = rng.choice(["x", "cnot", "toffoli", "swap"])
        ops = rng.sample(wires, {"x": 1, "cnot": 2, "swap": 2, "toffoli": 3}[kind])
        sched.append(gate(kind, *ops))
    # classical_run keys bits by label and labels follow SWAPs; the state's
    # axes are wires. Track which label ends on each wire to compare them.
    label_on = {w: w for w in wires}
    for g in sched.gates():
        if g.kind is GateKind.SWAP:
            a, b = g.operands
            label_on[a], label_on[b] = label_on[b], label_on[a]
    assert any(label_on[w] != w for w in wires)  # the SWAPs moved labels
    for trial in range(5):
        bits = {w: rng.randint(0, 1) for w in wires}
        classical = classical_run(sched, None, bits)
        branches = statevector_run(sched, bits, wires=wires)
        assert len(branches) == 1
        state = dense(branches[0].state, len(wires))
        idx = tuple(classical[label_on[w]] for w in wires)
        assert abs(abs(state[idx]) - 1) < 1e-9


CLASSICAL_ARITY = {"x": 1, "cnot": 2, "toffoli": 3, "swap": 2}


@given(st.data())
def test_oracles_agree_on_random_circuits(data):
    wires = [f"w{i}" for i in range(data.draw(st.integers(3, 6)))]
    sched = Schedule()
    for kind in data.draw(st.lists(st.sampled_from(sorted(CLASSICAL_ARITY)), max_size=25)):
        ops = data.draw(st.permutations(wires))[: CLASSICAL_ARITY[kind]]
        sched.append(gate(kind, *ops))
    # some wires start with a label (the wire's own name, or another name
    # through mapping0); every other wire carries its own name
    labelled = data.draw(st.lists(st.sampled_from(wires), unique=True))
    own_names = data.draw(st.booleans())
    start = {(w if own_names else f"L{w}"): w for w in labelled}
    bits = {label: data.draw(st.integers(0, 1)) for label in start}
    classical = classical_run(sched, None if own_names else start, bits)

    label_on = {w: w for w in wires}
    label_on.update({w: label for label, w in start.items()})
    touched = set(sched.wires())
    assert set(classical) == set(start) | {w for w in touched if w not in labelled}
    for g in sched.gates():
        if g.kind is GateKind.SWAP:
            a, b = g.operands
            label_on[a], label_on[b] = label_on[b], label_on[a]

    branches = statevector_run(sched, {start[label]: bit for label, bit in bits.items()}, wires=wires)
    assert len(branches) == 1
    # a wire that no gate touches and no label starts on stays 0
    idx = tuple(classical[label_on[w]] if w in touched or w in labelled else 0 for w in wires)
    assert abs(abs(dense(branches[0].state, len(wires))[idx]) - 1) < 1e-9


@st.composite
def lane_cases(draw):
    """A random classical circuit, a start mapping (or None) and one input
    dict per lane, 1 to 70 lanes."""
    wires = [f"w{i}" for i in range(draw(st.integers(3, 6)))]
    gates = [
        (kind, *draw(st.permutations(wires))[: CLASSICAL_ARITY[kind]])
        for kind in draw(st.lists(st.sampled_from(sorted(CLASSICAL_ARITY)), max_size=25))
    ]
    labelled = draw(st.lists(st.sampled_from(wires), unique=True))
    mapping0 = None if draw(st.booleans()) else {f"L{w}": w for w in labelled}
    labels = labelled if mapping0 is None else list(mapping0)
    lanes = draw(st.integers(1, 70))
    lane_bits = st.fixed_dictionaries({label: st.integers(0, 1) for label in labels})
    return gates, mapping0, draw(st.lists(lane_bits, min_size=lanes, max_size=lanes))


# X flips every lane, past 64 too: a flip mask of lane 0 only, of one 64-bit
# word or of unbounded ones fails here
@example(case=(
    [("x", "w0"), ("cnot", "w0", "w1"), ("x", "w1")], None,
    [{"w0": lane % 2, "w1": lane // 3 % 2} for lane in range(70)],
))
@given(lane_cases())
def test_lanes_match_one_scalar_run_per_lane(case):
    gates, mapping0, per_lane = case
    sched = Schedule()
    for kind, *ops in gates:
        sched.append(gate(kind, *ops))
    lanes = len(per_lane)
    packed = {label: sum(bits[label] << lane for lane, bits in enumerate(per_lane)) for label in per_lane[0]}
    out = classical_run(sched, mapping0, packed, lanes=lanes)
    for lane, bits in enumerate(per_lane):
        scalar = classical_run(sched, mapping0, bits)
        assert {label: value >> lane & 1 for label, value in out.items()} == scalar
    assert all(0 <= value < 1 << lanes for value in out.values())


@pytest.mark.parametrize("lanes, inputs", [(0, {"a": 0}), (1, {"a": 2}), (3, {"a": 8}), (2, {"a": -1})])
def test_classical_run_rejects_inputs_outside_the_lanes(lanes, inputs):
    with pytest.raises(ValueError):
        classical_run(Schedule([[gate("x", "a")]]), None, inputs, lanes=lanes)


@pytest.mark.parametrize("value", [2, -1])
def test_statevector_run_rejects_initial_values_that_are_not_bits(value):
    # a 2 on q0 must not set q1's bit
    with pytest.raises(ValueError, match="must be 0 or 1"):
        statevector_run(Schedule([[gate("h", "q0")]]), {"q0": value}, wires=["q0", "q1"])


def test_statevector_run_rejects_initial_wires_outside_the_schedule():
    with pytest.raises(ValueError, match=r"not in the schedule: \['b'\]"):
        statevector_run(Schedule([[gate("h", "a")]]), {"b": 1})


def test_assert_equiv_negative():
    report = assert_equiv(decomp.and_3anc(), "toffoli", ("a", "b", "t"))
    assert not report.ok
    (line,) = report.violations
    assert re.fullmatch(r"worst deviation \d\.\d{3}e[+-]\d\d", line)


@pytest.mark.parametrize("target", sorted(cli.DECOMPS))
def test_assert_equiv_runs_the_circuit_once(target, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return statevector_run(*args, **kwargs)

    monkeypatch.setattr(sim, "statevector_run", counted)
    build, reference, data, _ = cli.DECOMPS[target]
    assert assert_equiv(build(), reference, data).ok
    assert len(calls) == 1


@pytest.mark.parametrize(
    "scrambler, ok", [(gate("cnot", "a", "z"), False), (gate("h", "z"), True)], ids=["cnot", "h"]
)
def test_assert_equiv_rejects_records_that_read_the_data(scrambler, ok):
    # a record copied from the control a decoheres a superposed input; a
    # record of a fresh |+> carries nothing about the data
    s = Schedule([[gate("toffoli", "a", "b", "t")], [scrambler], [gate("mz", "z")]])
    assert assert_equiv(s, "toffoli", ("a", "b", "t")).ok is ok


def test_assert_equiv_unknown_reference():
    with pytest.raises(ValueError):
        assert_equiv(decomp.and_3anc(), "nonsense", ("a", "b"))


@pytest.mark.parametrize(
    "reference, data, needs",
    [("toffoli", ("a", "b"), 3), ("cs", ("a", "b", "t"), 2), ("ccz", ("a", "a", "b"), 3)],
)
def test_assert_equiv_rejects_wrong_data_wires(reference, data, needs):
    message = f"{reference} needs {needs} distinct data wires, got {data!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        assert_equiv(Schedule([[gate("toffoli", "a", "b", "t")]]), reference, data)


def test_classical_run_rejects_an_input_outside_mapping0():
    s = Schedule([[gate("cnot", "a", "b")]])
    with pytest.raises(ValueError, match="^input 'c' is not a label of mapping0$"):
        classical_run(s, {"a": "a", "b": "b"}, {"c": 1})


def test_classical_run_rejects_every_input_under_an_empty_mapping0():
    # an empty mapping0 maps no label; only None starts each label on its own wire
    s = Schedule([[gate("cnot", "a", "b")]])
    with pytest.raises(ValueError, match="^input 'a' is not a label of mapping0$"):
        classical_run(s, {}, {"a": 1})
    assert classical_run(s, None, {"a": 1}) == {"a": 1, "b": 1}


@pytest.mark.parametrize(
    "wires, message",
    [(["a"], "wires miss schedule wires: ['b']"),
     (["a", "a", "b"], "wires name a wire twice: ['a', 'a', 'b']")],
    ids=["missing", "repeated"],
)
def test_statevector_run_rejects_bad_wires(wires, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        statevector_run(Schedule([[gate("cnot", "a", "b")]]), wires=wires)


def test_classical_run_values_stay_int():
    n = 3
    layout = build_multiplier_layout(n)
    spec = RegisterSpec.for_width(n)
    sched, _ = full_multiplier_schedule(n)
    bits = {label: 1 for label in spec.a + spec.b}
    out = classical_run(sched, initial_mapping(layout, spec), bits)
    assert sum(out[spec.p[k]] << k for k in range(2 * n)) == 49
    assert {type(v) for v in out.values()} == {int}


def _reference_classical_run(schedule, mapping0, inputs, *, lanes=1):
    """``classical_run`` as it placed new wires and tested the kind on every
    occurrence of a gate, its labels and values in plain dicts keyed by
    wire and label."""
    every_lane = (1 << lanes) - 1
    label_at, wire_of = occupied({label: label for label in inputs} if mapping0 is None else mapping0)
    value = {wire: 0 for wire in label_at}
    for label, bits in inputs.items():
        value[wire_of[label]] = int(bits)
    for g in schedule.gates():
        for q in g.operands:
            if q not in value:
                if q in wire_of:
                    raise ValueError(f"cannot place {q!r} on {q!r}: already in use")
                value[q] = 0
                label_at[q] = q
                wire_of[q] = q
        if g.kind is K.SWAP:
            a, b = g.operands
            value[a], value[b] = value[b], value[a]
            swap_labels(label_at, wire_of, a, b)
        elif g.kind in (K.X, K.CNOT, K.TOFFOLI):
            *controls, t = g.operands
            flip = every_lane
            for c in controls:
                flip &= value[c]
            value[t] ^= flip
        else:
            raise ValueError(f"classical oracle cannot run {g.kind.value}")
    return {label: value[wire] for label, wire in wire_of.items()}


@pytest.mark.parametrize("n", range(1, 5))
def test_classical_run_matches_the_per_occurrence_loop_on_every_lane(n):
    layout = build_multiplier_layout(n)
    spec = RegisterSpec.for_width(n)
    sched, _ = full_multiplier_schedule(n, layout=layout)
    cases = 4 ** n
    bits = {spec.a[i]: cli._packed([lane >> n for lane in range(cases)], i) for i in range(n)}
    bits |= {spec.b[i]: cli._packed([lane & (2 ** n - 1) for lane in range(cases)], i) for i in range(n)}
    mapping0 = initial_mapping(layout, spec)
    out = classical_run(sched, mapping0, bits, lanes=cases)
    assert out == _reference_classical_run(sched, mapping0, bits, lanes=cases)


@pytest.mark.parametrize("n", range(2, 5))
def test_classical_run_matches_the_per_occurrence_loop_when_routed(n):
    from celltiler.router import greedy_route, logical_multiplier_circuit, routing_mapping

    layout = build_multiplier_layout(n)
    spec = RegisterSpec.for_width(n)
    m0 = routing_mapping(layout)
    routed, _ = greedy_route(logical_multiplier_circuit(n), layout.lattice, m0)
    rng = random.Random(n)
    for _ in range(4):
        bits = {label: rng.getrandbits(1) for label in spec.a + spec.b}
        assert classical_run(routed, m0, bits) == _reference_classical_run(routed, m0, bits)


# the 2-bit layout: its lattice holds the drawn sites, and one more step
# along x leaves it
LAYOUT_2 = build_multiplier_layout(2)
OFF_LATTICE = Site(LAYOUT_2.lattice.dx, 0, 0)


@st.composite
def mixed_schedules(draw):
    """A schedule of a few reused gate objects over wires that mix ``str``
    labels, sites inside the 2-bit lattice and one site outside it; a
    moment may hold a gate object twice or two gates on one wire. Labels
    start on some wires (by their own name when ``mapping0`` is None) and
    every other wire a gate reaches is placed, under its own name, on first
    use; a placed name may clash with a label, which both oracles refuse.
    Returns the schedule, ``mapping0``, the validation mapping, the inputs
    and the lane count."""
    sites = draw(st.lists(st.sampled_from(list(LAYOUT_2.lattice.all_sites)), min_size=2, max_size=6, unique=True))
    wires = [*sites, OFF_LATTICE, "a", "b", "w"]
    started = draw(st.lists(st.sampled_from(wires), unique=True))
    if draw(st.booleans()):
        mapping0 = None
        start = {w: w for w in started}
    else:
        names = draw(st.lists(st.sampled_from(["a", "b", "L0", "L1", "L2", "L3", "L4", "L5", "L6", "L7", "L8", "L9"]),
                              min_size=len(started), max_size=len(started), unique=True))
        mapping0 = start = dict(zip(names, started))
    pool = []
    for kind in draw(st.lists(st.sampled_from(sorted(CLASSICAL_ARITY)), min_size=1, max_size=6)):
        arity = CLASSICAL_ARITY[kind]
        pool.append(gate(kind, *draw(st.lists(st.sampled_from(wires), min_size=arity, max_size=arity, unique=True))))
    moments = draw(st.lists(st.lists(st.sampled_from(pool), min_size=1, max_size=3), max_size=12))
    schedule = Schedule()
    schedule.moments.extend(moments)  # past the IR's overlap refusal
    lanes = draw(st.integers(1, 5))
    inputs = {label: draw(st.integers(0, (1 << lanes) - 1)) for label in start}
    return schedule, mapping0, start, inputs, lanes


def _outcome(run):
    try:
        return run()
    except ValueError as exc:
        return f"ValueError: {exc}"


@settings(max_examples=250, deadline=None)
@given(mixed_schedules())
def test_slot_replays_match_the_dict_references_on_mixed_wires(case):
    schedule, mapping0, start, inputs, lanes = case
    # every lane at once: the values are the lanes' bits
    got = _outcome(lambda: classical_run(schedule, mapping0, inputs, lanes=lanes))
    assert got == _outcome(lambda: _reference_classical_run(schedule, mapping0, inputs, lanes=lanes))
    for rule in ("tile", "chain"):
        report = validate_schedule(LAYOUT_2, start, schedule, toffoli_rule=rule)
        violations, final = _reference_replay(LAYOUT_2, start, schedule, rule)
        assert report.violations == violations
        assert report.final_mapping == final


def test_classical_run_places_a_reused_gates_new_wire_once():
    g = gate("cnot", "a", "new")
    sched = Schedule([[g], [gate("x", "a")], [g], [gate("swap", "new", "b")], [g]])
    for mapping0 in (None, {"a": "a", "b": "b"}):
        out = classical_run(sched, mapping0, {"a": 1})
        assert out == _reference_classical_run(sched, mapping0, {"a": 1})
    assert classical_run(sched, None, {"a": 1}) == {"a": 0, "new": 1, "b": 0}


def test_classical_run_refuses_a_reused_non_classical_gate_at_its_first_occurrence():
    h = gate("h", "a")
    sched = Schedule([[gate("x", "a")], [h], [h]])
    for run in (classical_run, _reference_classical_run):
        with pytest.raises(ValueError, match="^classical oracle cannot run h$"):
            run(sched, None, {"a": 0})


CLASSICAL_KINDS = {K.X, K.CNOT, K.TOFFOLI, K.SWAP}


@pytest.mark.parametrize("kind", list(GateKind), ids=lambda k: k.value)
def test_every_kind_is_run_or_rejected(kind):
    ops = [f"w{i}" for i in range(kind.arity)]
    g = gate(kind, *ops, condition=0 if kind is K.CC_CZ else None)
    # record 0 comes from a Z measurement on a wire of its own
    try:
        branches = statevector_run(Schedule([[gate(K.MEASURE_Z, "m")], [g]]))
    except ValueError as err:
        assert kind.value in str(err)
    else:
        assert abs(sum(br.probability for br in branches) - 1) < 1e-12
    if kind in CLASSICAL_KINDS:
        classical_run(Schedule([[g]]), None, dict.fromkeys(ops, 1))
    else:
        with pytest.raises(ValueError, match=kind.value):
            classical_run(Schedule([[g]]), None, dict.fromkeys(ops, 0))


# Dense reference unitaries, the first operand the most significant bit.
_SQRT_HALF = 1 / math.sqrt(2)
REFERENCE_UNITARIES = {
    K.H: np.array([[1, 1], [1, -1]]) * _SQRT_HALF,
    K.X: np.eye(2)[[1, 0]],
    K.T: np.diag([1, np.exp(1j * math.pi / 4)]),
    K.TDAG: np.diag([1, np.exp(-1j * math.pi / 4)]),
    K.S: np.diag([1, 1j]),
    K.SDAG: np.diag([1, -1j]),
    K.CNOT: np.eye(4)[[0, 1, 3, 2]],
    K.CZ: np.diag([1, 1, 1, -1]),
    K.SWAP: np.eye(4)[[0, 2, 1, 3]],
    K.TOFFOLI: np.eye(8)[[0, 1, 2, 3, 4, 5, 7, 6]],
    K.CCZ: np.diag([1, 1, 1, 1, 1, 1, 1, -1]),
}


def _apply_dense(psi: np.ndarray, unitary: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    k = len(axes)
    u = unitary.astype(complex).reshape((2,) * (2 * k))
    out = np.tensordot(u, psi, axes=(list(range(k, 2 * k)), list(axes)))
    return np.moveaxis(out, list(range(k)), list(axes))


def _random_state(rng: np.random.Generator, n: int) -> np.ndarray:
    psi = rng.normal(size=(2,) * n) + 1j * rng.normal(size=(2,) * n)
    return psi / np.linalg.norm(psi)


@pytest.mark.parametrize("kind", [*REFERENCE_UNITARIES, K.CC_CZ], ids=lambda k: k.value)
def test_apply_gate_matches_dense_reference(kind):
    rng = np.random.default_rng(11)
    if kind is K.CC_CZ:
        # a run rewrites CC_CZ as a CCZ on its record's bit; a bare one has no unitary
        with pytest.raises(ValueError, match="cc_cz"):
            _apply_gate(sparse(_random_state(rng, 3)), gate(kind, "w0", "w1", condition=0), {"w0": 0, "w1": 1})
        return
    below = above = False
    for n in (3, 4, 5):
        ax = {f"w{i}": i for i in range(n)}
        # every ordered choice of operand axes, so controls sit both above
        # and below the target
        for axes in itertools.permutations(range(n), kind.arity):
            below |= any(c < axes[-1] for c in axes[:-1])
            above |= any(c > axes[-1] for c in axes[:-1])
            psi = _random_state(rng, n)
            got = dense(_apply_gate(sparse(psi), gate(kind, *(f"w{a}" for a in axes)), ax), n)
            want = _apply_dense(psi, REFERENCE_UNITARIES[kind], axes)
            assert np.max(np.abs(got - want)) < 1e-12, (n, axes)
    assert kind.arity == 1 or (below and above)


def _projector_measure(psi: np.ndarray, axis: int, x_basis: bool):
    """Measurement by explicit projectors, recycling the wire to |0>."""
    n = psi.ndim

    def at(bit: int) -> tuple:
        idx: list = [slice(None)] * n
        idx[axis] = bit
        return tuple(idx)

    outcomes = []
    if x_basis:
        flipped = np.flip(psi, axis=axis)
        for outcome, sign in ((0, 1), (1, -1)):
            proj = (psi + sign * flipped) / 2
            prob = float(np.sum(np.abs(proj) ** 2))
            if prob < 1e-12:
                continue
            post = np.zeros_like(psi)
            post[at(0)] = proj[at(0)] * math.sqrt(2)
            outcomes.append((prob, outcome, post / math.sqrt(prob)))
    else:
        for outcome in (0, 1):
            sub = psi[at(outcome)]
            prob = float(np.sum(np.abs(sub) ** 2))
            if prob < 1e-12:
                continue
            post = np.zeros_like(psi)
            post[at(0)] = sub
            outcomes.append((prob, outcome, post / math.sqrt(prob)))
    return outcomes


def _measure_cases():
    rng = random.Random(5)
    for n in (3, 4):
        wires = [f"w{i}" for i in range(n)]
        prefix = Schedule()
        for _ in range(4 * n):
            kind = rng.choice(["h", "t", "cnot"])
            prefix.append(gate(kind, *rng.sample(wires, 2 if kind == "cnot" else 1)))
        yield wires, prefix
    # w1 is |+> and w2 is |0>: outcome 1 has probability 0 in the X basis on
    # w1 and in the Z basis on w2, so the run prunes it
    yield ["w0", "w1", "w2"], Schedule([[gate("h", "w0"), gate("h", "w1")], [gate("t", "w0")], [gate("h", "w0")]])


@pytest.mark.parametrize("x_basis", [False, True], ids=["z", "x"])
def test_measure_matches_projector_reference(x_basis):
    kind = K.MEASURE_X if x_basis else K.MEASURE_Z
    skipped = False
    for wires, prefix in _measure_cases():
        (start,) = statevector_run(prefix, wires=wires)
        # measure each wire in turn, one moment each, by projectors; keep the
        # outcomes whose joint probability reaches 1e-12
        want = [(1.0, (), dense(start.state, len(wires)))]
        for axis in range(len(wires)):
            grown = []
            for p, records, psi in want:
                outcomes = _projector_measure(psi, axis, x_basis)
                skipped |= len(outcomes) == 1
                grown += [(p * q, records + (o,), post) for q, o, post in outcomes if p * q >= 1e-12]
            want = grown
        got = statevector_run(Schedule([*prefix.moments, *([gate(kind, w)] for w in wires)]), wires=wires)
        assert [br.records for br in got] == [records for _, records, _ in want]
        for br, (p, _, ref) in zip(got, want):
            assert abs(br.probability - p) < 1e-12
            assert np.max(np.abs(dense(br.state, len(wires)) - ref)) < 1e-12
    assert skipped


@st.composite
def unitary_circuits(draw):
    """Start bits on 3 to 6 wires and up to 40 gates of the reference kinds,
    each as (kind, operand axes)."""
    n = draw(st.integers(3, 6))
    kinds = draw(st.lists(st.sampled_from(sorted(REFERENCE_UNITARIES, key=lambda k: k.value)), max_size=40))
    gates = [(kind, tuple(draw(st.permutations(range(n)))[: kind.arity])) for kind in kinds]
    return draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), gates


# amplitudes of 1/4 after four H gates: a run that prunes them fails here
@example(case=([0, 1, 0, 1], [*((K.H, (i,)) for i in range(4)), (K.T, (0,)), (K.H, (0,))]))
@given(unitary_circuits())
def test_runs_match_the_product_of_reference_unitaries(case):
    # whole random circuits, so amplitudes that H splits, cancels and prunes
    # over many gates are checked, not one gate at a time
    start, gates = case
    n = len(start)
    wires = [f"w{i}" for i in range(n)]
    want = np.zeros((2,) * n, dtype=complex)
    want[tuple(start)] = 1
    sched = Schedule()
    for kind, axes in gates:
        sched.append(gate(kind, *(wires[a] for a in axes)))
        want = _apply_dense(want, REFERENCE_UNITARIES[kind], axes)
    (branch,) = statevector_run(sched, dict(zip(wires, start)), wires=wires)
    assert np.max(np.abs(dense(branch.state, n) - want)) < 1e-10


def test_statevector_run_checks_the_norm(monkeypatch):
    # an internal fault: a gate that doubles every amplitude
    apply = sim._apply_gate
    monkeypatch.setattr(sim, "_apply_gate", lambda psi, g, bit: {k: 2 * a for k, a in apply(psi, g, bit).items()})
    with pytest.raises(AssertionError, match=r"^norm drifted to 4\.0$"):
        statevector_run(Schedule([[gate("x", "a")]]))


def test_statevector_run_checks_the_branch_sum(monkeypatch):
    # an internal fault: every branch reports twice its probability
    branch = sim.Branch
    monkeypatch.setattr(sim, "Branch", lambda prob, records, state: branch(2 * prob, records, state))
    with pytest.raises(AssertionError, match=r"^branch probabilities sum to 2\.0$"):
        statevector_run(Schedule([[gate("x", "a")]]))
