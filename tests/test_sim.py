import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from celltiler import decomp
from celltiler.circuit import GateKind, Schedule, gate
from celltiler.sim import (
    CapacityError,
    UnsupportedGateError,
    assert_equiv,
    classical_run,
    statevector_run,
)


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
    with pytest.raises(UnsupportedGateError):
        classical_run(s, None, {"a": 0})


def test_statevector_h():
    branches = statevector_run(Schedule([[gate("h", "q")]]), {"q": 0})
    state = branches[0].state
    assert np.allclose(state, np.array([1, 1]) / math.sqrt(2))


def test_statevector_ccz_phase():
    sched = decomp.ccz_tdepth1()
    branches = statevector_run(sched, {"a": 1, "b": 1, "c": 1})
    state = branches[0].state
    idx = [0] * state.ndim
    wires = sched.wires()
    for i, w in enumerate(wires):
        if w in ("a", "b", "c"):
            idx[i] = 1
    assert abs(state[tuple(idx)] + 1) < 1e-9  # phase -1 on |111>


def test_capacity_error():
    s = Schedule()
    for i in range(15):
        s.append(gate("h", f"q{i}"))
    with pytest.raises(CapacityError):
        statevector_run(s)


def test_measurement_branch_probabilities():
    s = Schedule([[gate("h", "q")], [gate("mz", "q")]])
    branches = statevector_run(s, {"q": 0})
    assert len(branches) == 2
    assert all(abs(b.probability - 0.5) < 1e-9 for b in branches)
    assert abs(sum(b.probability for b in branches) - 1) < 1e-9


def test_measurement_recycles_wire():
    s = Schedule([[gate("h", "q")], [gate("mx", "q")]])
    for br in statevector_run(s, {"q": 0}):
        assert abs(abs(br.state[0]) - 1) < 1e-9  # wire reset to |0>


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
        state = branches[0].state
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
    assert abs(abs(branches[0].state[idx]) - 1) < 1e-9


def test_assert_equiv_negative():
    report = assert_equiv(decomp.and_3anc(), "toffoli", ("a", "b", "t"), 1e-10)
    assert not report.ok


def test_assert_equiv_unknown_reference():
    with pytest.raises(ValueError):
        assert_equiv(decomp.and_3anc(), "nonsense", ("a", "b"))
