import json
import re

import pytest
from hypothesis import example, given, strategies as st

from celltiler import cli, decomp
from celltiler.circuit import (
    POLICIES,
    STORAGE,
    Gate,
    GateKind,
    Occupancy,
    Schedule,
    _counted,
    _RECORDS,
    depth,
    gate,
    json_value,
    swap_metrics,
    t_metrics,
)
from celltiler.lattice import Site, grid

K = GateKind


def test_gate_arity_checks():
    with pytest.raises(ValueError):
        gate(K.CNOT, "a")
    with pytest.raises(ValueError):
        gate(K.CNOT, "a", "a")
    with pytest.raises(ValueError):
        gate(K.TOFFOLI, "a", "b")


def test_gate_keeps_its_error_texts():
    with pytest.raises(ValueError) as err:
        Gate(K.CNOT, ("a",))
    assert str(err.value) == "cnot expects 2 operands, got 1"
    with pytest.raises(ValueError) as err:
        Gate(K.TOFFOLI, ("a", "b", "a"))
    assert str(err.value) == "duplicate operand in toffoli gate: ('a', 'b', 'a')"


@pytest.mark.parametrize("kind", [k for k in GateKind if k is not K.CC_CZ])
def test_only_cc_cz_takes_a_condition(kind):
    # a conditioned CZ would act unconditionally in the oracles, and a
    # conditioned CNOT would lose its condition in LS extraction
    ops = ("a", "b", "c")[: kind.arity]
    text = f"{kind.value} gate takes no condition (only cc_cz does): 0"
    with pytest.raises(ValueError) as err:
        Gate(kind, ops, 0)
    assert str(err.value) == text
    record = {"kind": kind.value, "operands": list(ops), "condition": 0, "tags": []}
    with pytest.raises(ValueError) as err:
        Schedule.from_json(json.dumps({"moments": [[record]]}))
    assert str(err.value) == text
    assert Gate(K.CC_CZ, ("a", "b"), 0).condition == 0


def test_gate_equality_hash_and_defaults():
    ops = (Site(0, 0, 0), Site(0, 0, 1))
    g = Gate(K.SWAP, ops, tags=frozenset({STORAGE}))
    twin = Gate(K.SWAP, (Site(0, 0, 0), Site(0, 0, 1)), None, frozenset({STORAGE}))
    assert g == twin and g is not twin
    # the hash a frozen dataclass gives: that of its fields as one tuple
    assert hash(g) == hash(twin) == hash((K.SWAP, ops, None, frozenset({STORAGE})))
    assert g != Gate(K.SWAP, ops)
    assert (g.kind, g.operands, g.condition, g.tags) == (K.SWAP, ops, None, frozenset({STORAGE}))
    plain = Gate(K.H, ("a",))
    assert plain.condition is None and plain.tags == frozenset()


@pytest.mark.parametrize("name", ["kind", "operands", "condition", "tags", "extra"])
def test_gate_is_immutable(name):
    g = Gate(K.CNOT, ("a", "b"))
    with pytest.raises(AttributeError):
        setattr(g, name, None)
    assert g == Gate(K.CNOT, ("a", "b"))


def _kinds(sched: Schedule) -> list[list[str]]:
    return [[g.kind.value for g in m] for m in sched.moments]


@pytest.mark.parametrize("gates, moments", [
    # the CC_CZ shares no wire with the measurement, yet must follow it
    ([gate("h", "m"), gate("h", "m"), gate("mz", "m"), gate("cc_cz", "a", "b", condition=0)],
     [["h"], ["h"], ["mz"], ["cc_cz"]]),
    # record 0 stays p's measurement, though q's could go first
    ([gate("x", "p"), gate("x", "p"), gate("mz", "p"), gate("mz", "q"), gate("cc_cz", "a", "b", condition=0)],
     [["x"], ["x"], ["mz"], ["mz"], ["cc_cz"]]),
    # other gates still fit in earlier moments
    ([gate("mx", "p"), gate("h", "q"), gate("mz", "q"), gate("x", "r")], [["mx", "h", "x"], ["mz"]]),
], ids=["cc-cz-after-record", "records-in-order", "others-pack"])
def test_append_keeps_the_record_stream_in_order(gates, moments):
    sched = Schedule()
    for g in gates:
        sched.append(g)
    assert _kinds(sched) == moments


def test_extend_moment_keeps_the_record_stream_for_append():
    sched = Schedule([[gate("mz", "m")]])
    with pytest.raises(ValueError, match="overlapping support in moment 1"):
        sched.extend_moment([gate("x", "p"), gate("x", "p")])
    sched.append(gate("cc_cz", "a", "b", condition=0))
    assert _kinds(sched) == [["mz"], ["cc_cz"]]


def test_gate_repr_is_pinned_in_the_overlap_error():
    g = Gate(K.CC_CZ, ("a", Site(0, 1, 2)), 3, frozenset({STORAGE}))
    text = (
        "Gate(kind=<GateKind.CC_CZ: 'cc_cz'>, operands=('a', Site(x=0, y=1, z=2)), "
        "condition=3, tags=frozenset({'storage'}))"
    )
    assert repr(g) == text
    with pytest.raises(ValueError) as err:
        Schedule().extend_moment([Gate(K.CNOT, ("b", "a")), g])
    assert str(err.value) == f"overlapping support in moment 0: {text}"


def test_append_first_gate():
    s = Schedule()
    s.append(gate(K.CNOT, "a", "b"))
    assert len(s) == 1


def test_append_earliest_fit_disjoint():
    s = Schedule()
    s.append(gate(K.CNOT, "a", "b"))
    s.append(gate(K.CNOT, "c", "d"))
    assert len(s) == 1 and len(s.moments[0]) == 2


def test_append_earliest_fit_shared_operand():
    s = Schedule()
    s.append(gate(K.CNOT, "a", "b"))
    s.append(gate(K.H, "a"))
    assert len(s) == 2


def test_append_new_moment():
    # a fresh moment comes from extend_moment, even for disjoint gates
    s = Schedule()
    s.extend_moment([gate(K.CNOT, "a", "b")])
    s.extend_moment([gate(K.CNOT, "c", "d")])
    assert len(s) == 2


def test_moment_disjointness_enforced():
    s = Schedule()
    with pytest.raises(ValueError):
        Schedule([[gate(K.H, "a"), gate(K.CNOT, "a", "b")]])


@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=30))
def test_moment_disjointness_after_appends(pairs):
    s = Schedule()
    for a, b in pairs:
        if a == b:
            continue
        s.append(gate(K.CNOT, f"q{a}", f"q{b}"))
    for m in s.moments:
        seen = set()
        for g in m:
            assert not seen.intersection(g.operands)
            seen.update(g.operands)


@given(st.lists(st.lists(st.integers(0, 6), min_size=1, max_size=3, unique=True), max_size=40))
def test_append_places_each_gate_after_its_operands(operand_lists):
    kinds = {1: K.H, 2: K.CNOT, 3: K.TOFFOLI}
    gates = [gate(kinds[len(ops)], *(f"q{i}" for i in ops)) for ops in operand_lists]
    s = Schedule()
    for g in gates:
        s.append(g)
    moment_of = {id(g): i for i, m in enumerate(s.moments) for g in m}
    assert len(moment_of) == len(gates)
    last: dict = {}  # per wire, the moment of the last gate appended on it
    for g in gates:
        want = 1 + max(last.get(q, -1) for q in g.operands)
        assert moment_of[id(g)] == want
        for q in g.operands:
            last[q] = want
    for m in s.moments:
        wires = [q for g in m for q in g.operands]
        assert len(wires) == len(set(wires))


def test_depth_empty():
    assert depth(Schedule()) == 0


def test_depth_bounded_by_gate_count():
    sched = decomp.ccz_tdepth1()
    assert depth(sched, POLICIES["strict"]) <= sum(len(m) for m in sched.moments)


def test_depth_monotone_under_new_moment():
    s = Schedule()
    prev = 0
    for i in range(5):
        s.extend_moment([gate(K.H, f"q{i % 2}")])
        cur = depth(s)
        assert cur >= prev
        prev = cur


def test_depth_policies_toffoli_tdepth2_in_range():
    sched = decomp.toffoli_tdepth2()
    for policy in POLICIES.values():
        assert 6 <= depth(sched, policy) <= 9


def test_depth_and3_parallel_policy():
    assert depth(decomp.and_3anc(), POLICIES["parallel"]) == 7


# depth under parallel, strict, swap3 and swap2; no circuit here holds a SWAP
DEPTHS = {
    "ccz_tdepth1": (7, 11, 11, 11),
    "toffoli_tdepth2": (8, 9, 9, 9),
    "toffoli_mb": (10, 14, 14, 14),
    "controlled_s": (5, 5, 5, 5),
    "and_4anc": (7, 10, 10, 10),
    "and_3anc": (7, 9, 9, 9),
    "toffoli_cube_circuit": (7, 13, 13, 13),
}


@pytest.mark.parametrize("name", DEPTHS)
def test_depth_of_each_decomposition_under_each_policy(name):
    build = decomp.toffoli_cube_circuit if name == "toffoli_cube_circuit" else cli.DECOMPS[name][0]
    sched = build()
    got = tuple(depth(sched, POLICIES[p]) for p in ("parallel", "strict", "swap3", "swap2"))
    assert got == DEPTHS[name]


def test_depth_waits_on_the_record_stream():
    # the CC_CZ shares no wire with mz(m) but reads its record, so it comes 4th
    sched = Schedule()
    for g in (gate("h", "m"), gate("h", "m"), gate("mz", "m"), gate("cc_cz", "a", "b", condition=0)):
        sched.append(g)
    assert depth(sched, POLICIES["strict"]) == len(sched.moments) == 4
    # two measurements on separate wires keep their record order too
    two = Schedule([[gate("mz", "p")], [gate("mx", "q")]])
    assert depth(two, POLICIES["strict"]) == 2


@pytest.mark.parametrize("policy, weight", [("strict", 1), ("swap2", 2), ("swap3", 3)])
def test_depth_weighs_a_swap_by_policy(policy, weight):
    sched = Schedule([[gate(K.SWAP, "a", "b")], [gate(K.CNOT, "b", "c")]])
    assert depth(sched, POLICIES[policy]) == weight + 1


def test_t_metrics_examples():
    assert t_metrics(decomp.ccz_tdepth1()) == (7, 1)
    assert t_metrics(decomp.and_4anc()) == (4, 1)
    assert t_metrics(decomp.toffoli_tdepth2())[1] == 2


def test_t_metrics_counts_a_tagged_t():
    s = Schedule([[Gate(K.T, ("a",), None, frozenset({STORAGE})), gate("tdag", "b")], [gate("h", "a")]])
    s.extend_moment([gate("t", "b")])
    assert t_metrics(s) == (3, 2)


def test_swap_metrics_empty():
    assert swap_metrics(Schedule()) == (0, 0)


def test_swap_metrics_counts_and_depth():
    s = Schedule()
    s.extend_moment([gate(K.SWAP, "a", "b"), gate(K.SWAP, "c", "d")])
    s.extend_moment([gate(K.SWAP, "a", "c")])
    assert swap_metrics(s) == (3, 2)


def test_swap_metrics_storage_exclusion():
    s = Schedule()
    s.extend_moment([gate(K.SWAP, "a", "b", tags=("storage",))])
    s.extend_moment([gate(K.SWAP, "c", "d")])
    assert swap_metrics(s) == (1, 1)


def test_swap_depth_le_count():
    s = Schedule()
    s.extend_moment([gate(K.SWAP, "a", "b"), gate(K.SWAP, "c", "d")])
    c, d = swap_metrics(s)
    assert d <= c


def test_json_roundtrip():
    sched = decomp.toffoli_mb()
    again = Schedule.from_json(sched.to_json())
    assert [[(g.kind, g.operands, g.condition) for g in m] for m in sched.moments] == [
        [(g.kind, g.operands, g.condition) for g in m] for m in again.moments
    ]


def test_json_roundtrip_sites():
    from celltiler.scheduler import full_multiplier_schedule

    sched, _ = full_multiplier_schedule(1)
    again = Schedule.from_json(sched.to_json())
    assert sched.to_json() == again.to_json()


@pytest.mark.parametrize("text", [
    "[1]",
    json.dumps({"moments": [[{"kind": "h", "condition": None, "tags": []}]]}),
    json.dumps({"moments": [[{"kind": "h", "operands": ["a"], "condition": None, "tags": 5}]]}),
], ids=["not an object", "no operands", "int tags"])
def test_from_json_refuses_a_malformed_payload(text):
    with pytest.raises(ValueError, match="^malformed schedule JSON: "):
        Schedule.from_json(text)


@pytest.mark.parametrize("n", [4, 10])
def test_json_roundtrip_multiplier_artifacts(n):
    # write, read, write: the tiled and the lowered multiplier read back to the same text
    from celltiler.scheduler import full_multiplier_schedule

    sched, _ = full_multiplier_schedule(n)
    for s in sched, decomp.lower_schedule(sched):
        text = s.to_json()
        assert Schedule.from_json(text).to_json() == text


# --- packing against the linear-scan oracle ------------------------------

WIRES = ("q0", "q1", "q2", "q3", Site(0, 0, 0), Site(0, 0, 1))
PACK_KINDS = (K.H, K.T, K.CNOT, K.SWAP, K.TOFFOLI)

gates_st = st.sampled_from(PACK_KINDS).flatmap(
    lambda kind: st.permutations(WIRES).map(lambda ws: Gate(kind, tuple(ws[: kind.arity])))
)
ops_st = st.lists(
    st.one_of(
        st.tuples(st.just("new-moment"), gates_st),
        st.tuples(st.just("earliest-fit"), gates_st),
        st.tuples(st.just("extend"), st.lists(gates_st, max_size=4)),
        st.tuples(st.just("roundtrip"), st.none()),
    ),
    max_size=40,
)


def _disjoint(gates):
    """Keep the gates whose supports do not meet an earlier kept gate's."""
    kept, used = [], set()
    for g in gates:
        if not used.intersection(g.operands):
            kept.append(g)
            used.update(g.operands)
    return kept


def _reference_pack(ops):
    """Linear-scan packer: earliest-fit rescans every moment for each gate."""
    moments = []
    for op, arg in ops:
        if op == "new-moment" or (op == "earliest-fit" and not moments):
            moments.append([arg])
        elif op == "earliest-fit":
            last = -1
            for i, m in enumerate(moments):
                if any(set(other.operands) & set(arg.operands) for other in m):
                    last = i
            if last + 1 == len(moments):
                moments.append([arg])
            else:
                moments[last + 1].append(arg)
        elif op == "extend":
            moments.append(_disjoint(arg))
    return moments


@given(ops_st)
def test_packing_matches_linear_scan(ops):
    s = Schedule()
    for op, arg in ops:
        if op == "extend":
            s.extend_moment(_disjoint(arg))
        elif op == "roundtrip":
            s = Schedule.from_json(s.to_json())
        elif op == "new-moment":
            s.extend_moment([arg])
        else:
            s.append(arg)
    assert s.moments == _reference_pack(ops)
    assert Schedule(s.moments).moments == s.moments


def test_overlap_rejected_by_every_builder():
    clash = [gate(K.H, "a"), gate(K.CNOT, "b", "a")]
    with pytest.raises(ValueError, match="overlapping support"):
        Schedule([[gate(K.X, "a")], clash])
    s = Schedule()
    s.append(gate(K.H, "a"))
    with pytest.raises(ValueError, match="overlapping support"):
        s.extend_moment(clash)
    text = json.dumps({"moments": [[
        {"kind": "h", "operands": [[0, 0, 1]], "condition": None, "tags": []},
        {"kind": "cnot", "operands": ["b", [0, 0, 1]], "condition": None, "tags": []},
    ]]})
    with pytest.raises(ValueError, match="overlapping support"):
        Schedule.from_json(text)


def test_refused_moment_leaves_the_schedule_as_it_was():
    s = Schedule([[gate(K.X, "b")]])
    with pytest.raises(ValueError, match="overlapping support in moment 1"):
        s.extend_moment([gate(K.CNOT, "a", "b"), gate(K.H, "a")])
    assert s.moments == [[gate(K.X, "b")]]
    s.append(gate(K.H, "c"))
    s.append(gate(K.H, "b"))
    assert s.moments == [[gate(K.X, "b"), gate(K.H, "c")], [gate(K.H, "b")]]
    s.extend_moment([gate(K.CNOT, "a", "c")])
    assert s.moments[2] == [gate(K.CNOT, "a", "c")]


# --- the lazy earliest-fit table against an eager one ----------------------


class _EagerSchedule:
    """A schedule whose ``extend_moment`` writes every operand into the
    earliest-fit table, and rebuilds it after a refused moment, as
    ``Schedule`` did before it built the table on the first ``append``."""

    def __init__(self):
        self.moments = []
        self._last = {}

    def append(self, g):
        last = self._last
        ops = g.operands
        if g.kind.records:
            ops = (*ops, _RECORDS)
        target = 0
        for q in ops:
            after = last.get(q, -1) + 1
            if after > target:
                target = after
        if target == len(self.moments):
            self.moments.append([g])
        else:
            self.moments[target].append(g)
        for q in ops:
            last[q] = target
        return self

    def extend_moment(self, gates):
        idx = len(self.moments)
        moment = list(gates)
        last = self._last
        for g in moment:
            for q in g.operands:
                if last.get(q) == idx:
                    rebuilt = _EagerSchedule()
                    for m in self.moments:
                        rebuilt.extend_moment(m)
                    self._last = rebuilt._last
                    raise ValueError(f"overlapping support in moment {idx}: {g}")
                last[q] = idx
            if g.kind.records:
                last[_RECORDS] = idx
        self.moments.append(moment)


LAZY_WIRES = ("a", "b", "c", "d")
lazy_gate_st = st.one_of(
    st.sampled_from(LAZY_WIRES).flatmap(
        lambda w: st.sampled_from([gate(K.H, w), gate(K.MEASURE_Z, w), gate(K.MEASURE_X, w)])
    ),
    st.tuples(st.permutations(LAZY_WIRES), st.integers(0, 2)).flatmap(
        lambda pc: st.sampled_from([
            gate(K.CNOT, *pc[0][:2]), gate(K.CC_CZ, *pc[0][:2], condition=pc[1]),
        ])
    ),
)
lazy_ops_st = st.lists(
    st.one_of(
        st.tuples(st.just("append"), lazy_gate_st),
        st.tuples(st.just("extend"), st.lists(lazy_gate_st, max_size=3)),
    ),
    max_size=30,
)


def _outcome(call):
    try:
        call()
    except ValueError as err:
        return str(err)
    return None


@example([("extend", [gate(K.MEASURE_Z, "a")]), ("append", gate(K.H, "b")),
          ("extend", [gate(K.H, "c"), gate(K.CNOT, "d", "c")]),
          ("append", gate(K.CC_CZ, "b", "c", condition=0))])
@given(lazy_ops_st)
def test_lazy_table_packs_as_the_eager_one(ops):
    lazy, eager = Schedule(), _EagerSchedule()
    for op, arg in ops:
        calls = [getattr(s, "extend_moment" if op == "extend" else "append") for s in (lazy, eager)]
        assert _outcome(lambda: calls[0](arg)) == _outcome(lambda: calls[1](arg))
        assert [[id(g) for g in m] for m in lazy.moments] == [[id(g) for g in m] for m in eager.moments]
    assert lazy._last in (None, eager._last)


def test_refused_moment_changes_nothing_before_or_after_the_first_append():
    s = Schedule([[gate(K.X, "a")]])
    clash = [gate(K.H, "b"), gate(K.CNOT, "c", "b")]
    with pytest.raises(ValueError, match="overlapping support in moment 1"):
        s.extend_moment(clash)
    assert s.moments == [[gate(K.X, "a")]] and s._last is None
    s.append(gate(K.H, "b"))
    with pytest.raises(ValueError, match="overlapping support in moment 1"):
        s.extend_moment(clash)
    assert s.moments == [[gate(K.X, "a"), gate(K.H, "b")]]
    s.append(gate(K.H, "c"))  # the refused moment left no trace of c
    assert s.moments == [[gate(K.X, "a"), gate(K.H, "b"), gate(K.H, "c")]]


def test_append_after_extends_lands_after_the_last_record():
    s = Schedule([[gate(K.H, "a")], [gate(K.MEASURE_Z, "m")], [gate(K.H, "a")]])
    s.append(gate(K.CC_CZ, "b", "c", condition=0))
    s.append(gate(K.MEASURE_X, "d"))
    s.append(gate(K.H, "e"))
    assert _kinds(s) == [["h", "h"], ["mz"], ["h", "cc_cz"], ["mx"]]


def test_extend_after_append_keeps_the_table_current():
    s = Schedule()
    s.append(gate(K.H, "a"))
    s.extend_moment([gate(K.MEASURE_Z, "m"), gate(K.X, "b")])
    s.append(gate(K.CC_CZ, "c", "d", condition=0))  # after the record, on fresh wires
    s.append(gate(K.H, "b"))
    s.append(gate(K.H, "e"))
    assert _kinds(s) == [["h", "h"], ["mz", "x"], ["cc_cz", "h"]]


# --- the counted-SWAP tally against a per-moment reference -----------------


def _reference_counted(moments):
    per = [sum(1 for g in m if g.kind is K.SWAP and STORAGE not in g.tags) for m in moments]
    return sum(per), len(per) - per.count(0)


def test_counted_matches_a_per_moment_reference_by_hand():
    storage, plain = gate(K.SWAP, "a", "b", tags=(STORAGE,)), gate(K.SWAP, "c", "d")
    moments = [
        [], [storage], [plain, gate(K.H, "a")], [storage, plain], [gate(K.X, "e")],
        [gate(K.SWAP, "a", "e", tags=("other",)), gate(K.CNOT, "b", "c")], [plain, gate(K.SWAP, "a", "b")],
    ]
    assert _counted(moments) == _reference_counted(moments) == (5, 4)
    assert _counted([]) == _reference_counted([]) == (0, 0)


@pytest.mark.parametrize("n", range(2, 7))
def test_counted_matches_a_per_moment_reference_on_the_multiplier(n):
    from celltiler.router import greedy_route, logical_multiplier_circuit, routing_mapping
    from celltiler.scheduler import full_multiplier_schedule
    from celltiler.tiler import build_multiplier_layout

    layout = build_multiplier_layout(n)
    tiled, _ = full_multiplier_schedule(n, layout=layout)
    routed, _ = greedy_route(logical_multiplier_circuit(n), layout.lattice, routing_mapping(layout))
    for sched in (tiled, routed):
        assert _counted(sched.moments) == _reference_counted(sched.moments)


# --- direct JSON writer against the stdlib encoder -------------------------


def _reference_to_json(sched: Schedule) -> str:
    """The payload-and-json.dumps writer the direct writer must reproduce."""
    payload = {
        "moments": [
            [
                {
                    "kind": g.kind.value,
                    "operands": [[q.x, q.y, q.z] if isinstance(q, Site) else q for q in g.operands],
                    "condition": g.condition,
                    "tags": sorted(g.tags),
                }
                for g in m
            ]
            for m in sched.moments
        ]
    }
    return json.dumps(payload, indent=2, sort_keys=True)


# non-ASCII labels, and operands the writer hands to the stdlib fallback
# (a bool, a float, a tuple that encodes as a multi-line list)
labels_st = st.text(max_size=3)
operand_st = st.one_of(
    labels_st,
    st.integers(-300, 300),
    st.builds(Site, st.integers(-2, 3), st.integers(-2, 3), st.integers(0, 3)),
    st.sampled_from([True, 2.5, ("é", 3)]),
)
# only a cc_cz takes a condition, and it must take a record index
any_gate_st = st.builds(
    lambda kind, ops, condition, tags: Gate(
        kind, tuple(ops[: kind.arity]), condition if kind is K.CC_CZ else None, tags),
    st.sampled_from(list(GateKind)),
    st.lists(operand_st, min_size=3, max_size=3, unique=True),
    st.integers(0, 50),
    st.frozensets(labels_st, max_size=2),
)


@given(st.lists(st.lists(any_gate_st, max_size=4).map(_disjoint), max_size=5))
def test_to_json_matches_stdlib_encoder(moments):
    sched = Schedule(moments)
    assert sched.to_json() == _reference_to_json(sched)


# the writer caches text per operand and per condition: each pair compares
# (and hashes) equal, but is written differently
@pytest.mark.parametrize("first, second", [(1, True), (2, 2.0), (Site(1, 2, 3), (1, 2, 3)), (0.0, -0.0)])
def test_to_json_tells_equal_operands_apart(first, second):
    sched = Schedule([
        [Gate(K.H, (first,))], [Gate(K.H, (second,))],
        [Gate(K.CNOT, ("a", second))], [Gate(K.CNOT, ("a", first))],
    ])
    assert sched.to_json() == _reference_to_json(sched)


def test_site_coordinates_are_exact_ints():
    # Site(1, True, 3) equals and hashes as Site(1, 1, 3), so the operand
    # cache can only write both alike if both hold the int 1
    sched = Schedule([[Gate(K.H, (Site(1, 1, 3),))], [Gate(K.H, (Site(1, True, 3),))]])
    assert sched.to_json() == _reference_to_json(sched)
    assert type(Site(1, True, 3).y) is int
    with pytest.raises(TypeError):
        Site(1.5, 0, 0)


@pytest.mark.parametrize("condition", [True, False, None, -1, 1.0, "0"], ids=repr)
def test_cc_cz_refuses_a_condition_that_is_no_record_index(condition):
    # a bool equals its int, so the writer could not tell True from 1; a
    # negative index would read a record from the end, and None no record
    text = f"cc_cz gate needs a record index, an int >= 0: {condition!r}"
    with pytest.raises(ValueError) as err:
        Gate(K.CC_CZ, ("a", "b"), condition)
    assert str(err.value) == text
    record = {"kind": "cc_cz", "operands": ["a", "b"], "condition": condition, "tags": []}
    with pytest.raises(ValueError) as err:
        Schedule.from_json(json.dumps({"moments": [[record]]}))
    assert str(err.value) == text


# the writer caches a record per Gate object: one object may fill many
# moments, and a twin that compares equal may still be written differently
TWINS = (Gate(K.CNOT, ("a", 1)), Gate(K.CNOT, ("a", True)))


@given(
    st.lists(any_gate_st, min_size=1, max_size=4),
    st.lists(st.lists(st.integers(0, 5), max_size=4), max_size=6),
)
def test_to_json_with_repeated_gate_objects(pool, picks):
    pool = [*pool, *TWINS]
    moments = [[TWINS[0]], [TWINS[1]]]
    moments += [_disjoint([pool[i % len(pool)] for i in pick]) for pick in picks]
    moments.append([TWINS[0]])
    sched = Schedule(moments)
    assert sched.moments[0][0] is sched.moments[-1][0]
    assert sched.to_json() == _reference_to_json(sched)


def test_to_json_empty_schedule():
    assert Schedule().to_json() == _reference_to_json(Schedule()) == '{\n  "moments": []\n}'


json_st = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-300, 300), st.floats(allow_nan=False), st.text(max_size=3)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=3), inner, max_size=3),
        st.dictionaries(st.integers(-5, 5), inner, max_size=2),
        st.lists(inner, max_size=2).map(tuple),
    ),
    max_leaves=12,
)


@given(json_st, st.integers(0, 3))
def test_json_value_matches_stdlib_encoder(v, level):
    expected = json.dumps(v, indent=2, sort_keys=True).replace("\n", "\n" + "  " * level)
    assert json_value(v, level) == expected


# a list of three ints reads back as a Site, any other list as a tuple
roundtrip_operand_st = st.one_of(
    st.text(max_size=3),
    st.integers(-300, 300),
    st.builds(Site, st.integers(-2, 3), st.integers(-2, 3), st.integers(0, 3)),
    st.lists(st.one_of(st.text(max_size=2), st.integers(-5, 5)), max_size=4).map(tuple),
    st.sampled_from([(("a", 1), 2), ((),)]),
)
roundtrip_gate_st = st.builds(
    lambda kind, ops, condition: Gate(kind, tuple(ops[: kind.arity]), condition if kind is K.CC_CZ else None),
    st.sampled_from(list(GateKind)),
    st.lists(roundtrip_operand_st, min_size=3, max_size=3, unique=True),
    st.integers(0, 9),
)


@given(st.lists(st.lists(roundtrip_gate_st, max_size=4).map(_disjoint), max_size=5))
@example([[gate(K.CNOT, ("é", 3), "b")]])
def test_from_json_round_trip(moments):
    sched = Schedule(moments)
    text = sched.to_json()
    again = Schedule.from_json(text)
    assert again.moments == sched.moments
    assert again.to_json() == text



# --- label occupancy ---------------------------------------------------------


def on_wires(occ: Occupancy) -> dict:
    """The wire -> label view of an occupancy, read through ``label_on``."""
    return {w: occ.label_on(w) for w in occ.wires if occ.label_on(w) is not None}


def test_occupancy_swap_into_empty_wire():
    occ = Occupancy({"a": 0, "b": 1})
    slot = occ.slot
    occ.swap(slot(0), slot(5))
    assert on_wires(occ) == {1: "b", 5: "a"}
    assert occ.mapping() == {"a": 5, "b": 1}
    occ.swap(slot(7), slot(1))  # both directions: the label moves onto the empty wire
    assert on_wires(occ) == {5: "a", 7: "b"}
    occ.swap(slot(8), slot(9))  # two empty wires: nothing moves
    assert occ.mapping() == {"a": 5, "b": 7}
    assert occ.label_on(0) is None and occ.label_on("never seen") is None


def test_occupancy_swap_twice_restores():
    start = {"a": Site(0, 0, 0), "b": Site(0, 1, 0), "c": Site(1, 1, 0)}
    for lattice in (None, grid(2, 2, 1)):
        occ = Occupancy(start, lattice)
        occ.swap(occ.slot(Site(0, 0, 0)), occ.slot(Site(0, 1, 0)))
        assert occ.mapping() == {"a": Site(0, 1, 0), "b": Site(0, 0, 0), "c": Site(1, 1, 0)}
        occ.swap(occ.slot(Site(0, 0, 0)), occ.slot(Site(0, 1, 0)))
        assert occ.mapping() == start
        assert on_wires(occ) == {site: label for label, site in start.items()}


def test_occupancy_slots_a_lattice_by_index_and_other_wires_after_it():
    lattice = grid(1, 2, 2)
    occ = Occupancy({"a": Site(0, 1, 1), "b": Site(5, 5, 5), "c": "w"}, lattice)
    assert [occ.slot(s) for s in lattice.all_sites] == [0, 1, 2, 3]
    assert occ.wire_of == {"a": 3, "b": 4, "c": 5}
    assert occ.slot(Site(0, 0, 7)) == 6  # a new wire takes the next slot
    # a SWAP may reach a lattice site by its index alone
    occ.swap(3, 0)
    assert occ.mapping() == {"a": Site(0, 0, 0), "b": Site(5, 5, 5), "c": "w"}


def test_occupancy_mapping_is_a_copy():
    occ = Occupancy({"a": 0})
    occ.mapping()["a"] = 3
    assert occ.mapping() == {"a": 0}


def test_occupancy_rejects_shared_wire():
    for lattice in (None, grid(2, 2, 1)):
        with pytest.raises(ValueError, match=r"^mapping is not injective: two labels start on 0$"):
            Occupancy({"a": 0, "b": 1, "c": 0}, lattice)
        # the wire of the first label, in mapping order, whose wire is taken
        text = "mapping is not injective: two labels start on Site(x=0, y=0, z=0)"
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            Occupancy({"a": Site(0, 0, 0), "b": Site(1, 0, 0), "c": Site(1, 0, 0), "d": Site(0, 0, 0)}, lattice)


def test_occupancy_place():
    occ = Occupancy({"a": 0})
    occ.place("z", occ.slot(4))
    assert on_wires(occ) == {0: "a", 4: "z"}
    with pytest.raises(ValueError, match="^cannot place 'y' on 0: already in use$"):
        occ.place("y", occ.slot(0))  # wire taken
    with pytest.raises(ValueError, match="^cannot place 'a' on 6: already in use$"):
        occ.place("a", occ.slot(6))  # label already on a wire
