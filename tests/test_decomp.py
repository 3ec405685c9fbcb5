import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from celltiler import cli, decomp
from celltiler.circuit import Gate, GateKind, Schedule, gate, t_metrics
from celltiler.lattice import Site
from celltiler.scheduler import full_multiplier_schedule
from celltiler.sim import assert_equiv, statevector_run
from celltiler.tiler import RegisterSpec, build_multiplier_layout, initial_mapping
from dense import dense

K = GateKind
TOL = 1e-10


def cnots(s: Schedule) -> int:
    return s.count(K.CNOT)


def kind_counts(s: Schedule) -> dict:
    out: dict = {}
    for g in s.gates():
        out[g.kind] = out.get(g.kind, 0) + 1
    return out


def test_ccz_equivalence():
    assert assert_equiv(decomp.ccz_tdepth1(), "ccz", ("a", "b", "c")).ok


def test_ccz_fixes_all_zero():
    sched = decomp.ccz_tdepth1()
    branches = statevector_run(sched, {})
    state = dense(branches[0].state, len(sched.wires()))
    assert abs(state[(0,) * state.ndim] - 1) < 1e-9


def test_toffoli_tdepth2_equivalence():
    assert assert_equiv(decomp.toffoli_tdepth2(), "toffoli", ("a", "b", "t")).ok


def test_toffoli_tdepth2_counts():
    sched = decomp.toffoli_tdepth2()
    assert cnots(sched) == 14
    assert t_metrics(sched) == (7, 2)


def test_controlled_s_equivalence_both_variants():
    assert assert_equiv(decomp.controlled_s("a"), "cs", ("q1", "q2")).ok
    assert assert_equiv(decomp.controlled_s("b"), "cs", ("q1", "q2")).ok


def test_controlled_s_unknown_variant():
    with pytest.raises(ValueError):
        decomp.controlled_s("c")


def test_and_circuits_compute_and():
    assert assert_equiv(decomp.and_4anc(), "and", ("a", "b", "t")).ok
    assert assert_equiv(decomp.and_3anc(), "and", ("a", "b", "t")).ok


@pytest.mark.parametrize("build", [decomp.and_4anc, decomp.and_3anc])
def test_and_without_final_s_rejected(build):
    # the S cancels the (-i)^(ab) relative phase; the AND check is phase-exact
    sched = build()
    *rest, last = sched.moments
    assert [(g.kind, g.operands) for g in last] == [(K.S, ("t",))]
    assert not assert_equiv(Schedule(rest), "and", ("a", "b", "t")).ok


def test_and4_counts():
    ccz = decomp.ccz_tdepth1()
    and4 = decomp.and_4anc()
    assert t_metrics(and4) == (4, 1)
    assert cnots(and4) == cnots(ccz) - 4


def test_and4_multiset_delta_from_ccz():
    ccz = kind_counts(decomp.ccz_tdepth1())
    and4 = kind_counts(decomp.and_4anc())
    assert ccz[K.CNOT] - and4[K.CNOT] == 4
    t_removed = (ccz[K.T] - and4.get(K.T, 0)) + (ccz[K.TDAG] - and4.get(K.TDAG, 0))
    assert t_removed == 3
    # target dressing: the H conjugation plus the phase-fixing S
    assert and4.get(K.H, 0) == 2 and and4.get(K.S, 0) == 1


def test_and3_multiset_delta_from_and4():
    and4 = kind_counts(decomp.and_4anc())
    and3 = kind_counts(decomp.and_3anc())
    assert and4[K.CNOT] - and3[K.CNOT] == 2
    assert and3.get(K.T, 0) == and4.get(K.T, 0)
    assert and3.get(K.TDAG, 0) == and4.get(K.TDAG, 0)
    assert t_metrics(decomp.and_3anc()) == (4, 1)


def test_toffoli_mb_equivalence_and_count():
    sched = decomp.toffoli_mb()
    assert t_metrics(sched)[0] == 4
    report = assert_equiv(sched, "toffoli", ("a", "b", "t"))
    assert report.ok


def test_toffoli_mb_has_both_branches():
    sched = decomp.toffoli_mb()
    branches = statevector_run(sched, {"a": 1, "b": 1})
    assert len(branches) == 2
    assert abs(sum(b.probability for b in branches) - 1) < 1e-9
    records = {b.records for b in branches}
    assert records == {(0,), (1,)}


def test_toffoli_mb_flipping_case():
    # data |110> must become |111> in every branch
    sched = decomp.toffoli_mb()
    wires = sched.wires()
    ax = {w: i for i, w in enumerate(wires)}
    for br in statevector_run(sched, {"a": 1, "b": 1, "t": 0}):
        idx = [0] * len(wires)
        idx[ax["a"]] = idx[ax["b"]] = idx[ax["t"]] = 1
        assert abs(abs(dense(br.state, len(wires))[tuple(idx)]) - 1) < 1e-9


# The logical ANDs compute a.b into t, which starts at |0> but is an output,
# not an ancilla (Gidney, arXiv:1709.06648).
AND_OUTPUT = {decomp.and_4anc: "t", decomp.and_3anc: "t"}


@pytest.mark.parametrize(
    "build, data",
    [
        (decomp.ccz_tdepth1, ("a", "b", "c")),
        (decomp.and_4anc, ("a", "b")),
        (decomp.and_3anc, ("a", "b")),
        (decomp.toffoli_tdepth2, ("a", "b", "t")),
        (lambda: decomp.controlled_s("a"), ("q1", "q2")),
        (decomp.toffoli_mb, ("a", "b", "t")),
    ],
)
def test_ancillae_restored(build, data):
    sched = build()
    wires = sched.wires()
    output = AND_OUTPUT.get(build)
    anc = [w for w in wires if w not in data and w != output]
    ax = {w: i for i, w in enumerate(wires)}
    for v in range(2 ** len(data)):
        bits = {w: (v >> i) & 1 for i, w in enumerate(data)}
        for br in statevector_run(sched, bits, wires=wires):
            marg = np.abs(dense(br.state, len(wires))) ** 2
            for w in anc:
                ones = np.take(marg, 1, axis=ax[w]).sum()
                assert ones < 1e-12, f"ancilla {w} not restored"
            if output is not None:
                ones = np.take(marg, 1, axis=ax[output]).sum()
                assert abs(ones - (bits["a"] & bits["b"])) < 1e-12, f"output {output} != a.b"


def test_lower_schedule_expands_toffoli():
    sched = Schedule([[gate("toffoli", "x", "y", "z")]])
    low = decomp.lower_schedule(sched)
    assert low.count(K.TOFFOLI) == 0
    assert low.count(K.CNOT) == 14
    assert assert_equiv(low, "toffoli", ("x", "y", "z")).ok


def test_lower_schedule_expands_ccz_as_ccz():
    sched = Schedule([[gate("ccz", "x", "y", "z")]])
    low = decomp.lower_schedule(sched)
    assert low.count(K.CCZ) == 0 and low.count(K.H) == 0
    assert low.count(K.CNOT) == 14
    assert assert_equiv(low, "ccz", ("x", "y", "z")).ok
    assert not assert_equiv(low, "toffoli", ("x", "y", "z")).ok


def test_lower_schedule_expands_swap():
    sched = Schedule([[gate("swap", "x", "y")]])
    low = decomp.lower_schedule(sched)
    assert low.count(K.CNOT) == 3


def _reference_lower(schedule: Schedule) -> Schedule:
    """The per-gate lowering loop: one fresh Gate per template gate."""
    for q in schedule.wires():
        if isinstance(q, str) and q.startswith("_anc"):
            raise ValueError(f"wire {q!r} takes the reserved ancilla prefix '_anc'")
    toffoli = decomp.toffoli_tdepth2().moments
    h_t = gate(K.H, "t")
    ccz = [[h for h in m if h != h_t] for m in toffoli]
    templates = {K.TOFFOLI: toffoli, K.CCZ: ccz}
    out = Schedule()
    pool = 0
    for moment in schedule.moments:
        pending, simple = [], []
        for g in moment:
            if g.kind in templates:
                names = dict(zip(("a", "b", "t"), g.operands))
                for wire in ("x", "y", "w"):
                    names[wire] = f"_anc{pool}"
                    pool += 1
                pending.append([
                    [Gate(h.kind, tuple(names[q] for q in h.operands), h.condition, h.tags) for h in m]
                    for m in templates[g.kind]
                ])
            elif g.kind is K.SWAP:
                a, b = g.operands
                pending.append([[Gate(K.CNOT, (a, b), tags=g.tags)], [Gate(K.CNOT, (b, a), tags=g.tags)],
                                [Gate(K.CNOT, (a, b), tags=g.tags)]])
            else:
                simple.append(g)
        if simple:
            out.extend_moment(simple)
        for i in range(max((len(p) for p in pending), default=0)):
            out.extend_moment([h for p in pending if i < len(p) for h in p[i]])
    return out


def _disjoint(gates: list[Gate]) -> list[Gate]:
    """The gates whose supports miss every earlier kept gate's."""
    kept, used = [], set()
    for g in gates:
        if used.isdisjoint(g.operands):
            kept.append(g)
            used.update(g.operands)
    return kept


LOWER_KINDS = [K.TOFFOLI, K.CCZ, K.SWAP, K.H, K.T, K.X, K.S]
lower_gate_st = st.builds(
    lambda kind, ops, tags: Gate(kind, tuple(ops[: kind.arity]), tags=tags),
    st.sampled_from(LOWER_KINDS),
    st.permutations(["a", "b", "c", "d", "e", "f", Site(0, 0, 0), Site(1, 0, 0), Site(0, 1, 2)]),
    st.sampled_from([frozenset(), frozenset({"storage"})]),
)


@given(st.lists(st.lists(lower_gate_st, max_size=4).map(_disjoint), max_size=5))
def test_lower_schedule_matches_the_per_gate_loop(moments):
    sched = Schedule(moments)
    assert decomp.lower_schedule(sched).to_json() == _reference_lower(sched).to_json()


def test_lowered_multiplier_shares_repeated_gates():
    # each Toffoli builds its 15 distinct template gates once, each distinct
    # SWAP gate object two, however often the schedule repeats it
    for n in range(1, 11):
        sched, _ = full_multiplier_schedule(n)
        counts = kind_counts(sched)
        assert set(counts) == {K.TOFFOLI, K.SWAP}
        swaps = len({id(g) for g in sched.gates() if g.kind is K.SWAP})
        assert swaps < counts[K.SWAP]
        lowered = decomp.lower_schedule(sched)
        assert len({id(g) for g in lowered.gates()}) == 15 * counts[K.TOFFOLI] + 2 * swaps, n


@pytest.mark.parametrize("moments, message", [
    # the first Toffoli would draw _anc0 for its x wire, which is already its control
    ([[gate("toffoli", "_anc0", "b", "t")]], "wire '_anc0' takes the reserved ancilla prefix '_anc'"),
    # the first Toffoli's y wire would be _anc1, a control of the second
    ([[gate("toffoli", "a", "b", "t"), gate("toffoli", "_anc1", "c", "d")]],
     "wire '_anc1' takes the reserved ancilla prefix '_anc'"),
    # an earlier label would share the Toffoli's x wire: with no refusal the
    # lowered circuit leaves t in a superposition where the input sets it to 1
    ([[gate("x", "_anc0")], [gate("toffoli", "a", "b", "t")], [gate("cnot", "_anc0", "c")]],
     "wire '_anc0' takes the reserved ancilla prefix '_anc'"),
], ids=["own-control", "other-expansion", "earlier-moment"])
def test_lower_schedule_rejects_a_label_named_like_an_ancilla(moments, message):
    for lower in (decomp.lower_schedule, _reference_lower):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            lower(Schedule(moments))


@pytest.mark.parametrize("n, optimize", [(n, opt) for n in range(1, 11) for opt in (False, True) if n >= 3 or not opt])
def test_lowered_multiplier_gates_are_well_formed(n, optimize):
    # lower_schedule refuses ancilla-named input wires once and builds every
    # template gate as a bare record, so every gate must still meet Gate's checks
    sched, _ = full_multiplier_schedule(n, optimize_toffoli_depth=optimize)
    for g in decomp.lower_schedule(sched).gates():
        assert type(g) is Gate
        assert len(g.operands) == g.kind.arity
        assert len(set(g.operands)) == len(g.operands)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_lowered_multiplier_computes_the_product(n):
    # H over every A and B site, each copied onto a reference wire, puts all
    # 4^n inputs in one run of the lowered Clifford+T multiplier
    spec = RegisterSpec.for_width(n)
    start = initial_mapping(build_multiplier_layout(n), spec)
    sched, final = full_multiplier_schedule(n)
    lowered = decomp.lower_schedule(sched)
    inputs = spec.a + spec.b
    run = Schedule([
        [gate("h", start[label]) for label in inputs],
        [gate("cnot", start[label], f"ref_{label}") for label in inputs],
        *lowered.moments,
    ])
    wires = list(dict.fromkeys([*final.values(), *run.wires()]))
    bit = {w: i for i, w in enumerate(wires)}
    (branch,) = statevector_run(run, wires=wires)
    assert len(branch.state) == 4 ** n

    def value(key: int, wires_of_bits: list) -> int:
        return sum((key >> bit[w] & 1) << i for i, w in enumerate(wires_of_bits))

    ancillae = [w for w in wires if isinstance(w, str) and w.startswith("_anc")]
    assert ancillae
    zeros = [final[label] for label in final if label not in inputs + spec.p] + ancillae
    for key, amplitude in branch.state.items():
        a, b = (value(key, [f"ref_{label}" for label in reg]) for reg in (spec.a, spec.b))
        assert value(key, [final[label] for label in spec.a]) == a
        assert value(key, [final[label] for label in spec.b]) == b
        assert value(key, [final[label] for label in spec.p]) == a * b
        assert value(key, zeros) == 0
        assert abs(amplitude - 2 ** -n) < TOL


# sha256 of to_json().encode() for each circuit: composing one circuit from
# another (toffoli_mb from and_4anc, the cube circuit from ccz_tdepth1) must
# leave its bytes unchanged
DECOMP_SHA256 = {
    "ccz_tdepth1": "3f112191f677c8dc22da70c023adbed320a70982ad3003129699f337e5388039",
    "toffoli_tdepth2": "2c9da3389d7138b8959f33ad51e6e895b55e1f20c832b67270975a6cd825b864",
    "toffoli_mb": "e9df71339710d59278ad0200405149951d73f17ea38a335c2e7a6409e25e9d1e",
    "controlled_s": "cebd8ae3d46eb56731cafb8676257ad86d3b48681dabcf819db166c2dceb2bea",
    "and_4anc": "2ce059dcf2ef7ed4c114e18f0f76801f250aff2a152ddba2e8caf1d261b0117e",
    "and_3anc": "6d24ff1b5c269588b82d434c61de1016e28f36d6980d9b5a315865f680f1c5be",
    "toffoli_cube_circuit": "39a397fbe43ba09d0f765a0042a8e38d4c09fea7e6123decd0d80b97c24c8235",
}


@pytest.mark.parametrize("name", sorted(DECOMP_SHA256))
def test_decomposition_bytes_pinned(name):
    builds = {target: entry[0] for target, entry in cli.DECOMPS.items()}
    build = builds.get(name, decomp.toffoli_cube_circuit)
    assert hashlib.sha256(build().to_json().encode()).hexdigest() == DECOMP_SHA256[name]


def test_controlled_s_variant_b_bytes_pinned():
    # the CLI builds variant "a" only; "b" is mirrored from its own compute half
    digest = hashlib.sha256(decomp.controlled_s("b").to_json().encode()).hexdigest()
    assert digest == "01c5a4286c82e728861e273d4513b1811e8a2bbe5379c1876458acc9eb497d28"
