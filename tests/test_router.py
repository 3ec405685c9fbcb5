import hashlib
import json
import re
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from celltiler import router
from celltiler.circuit import Gate, GateKind, Schedule, gate
from celltiler.lattice import Site, grid
from celltiler.router import (
    CSV_HEADER,
    compare,
    compare_csv,
    greedy_route,
    logical_multiplier_circuit,
    routing_mapping,
)
from celltiler.scheduler import full_multiplier_schedule, validate_schedule
from celltiler.sim import classical_run
from celltiler.tiler import RegisterSpec, build_multiplier_layout, initial_mapping
from labels import occupied, swap_labels

K = GateKind


def test_adjacent_circuit_needs_no_swaps():
    lat = grid(2, 2, 2)
    mapping = {"a": Site(0, 0, 0), "b": Site(1, 0, 0)}
    circ = Schedule([[gate("cnot", "a", "b")]])
    routed, final = greedy_route(circ, lat, mapping)
    assert routed.count(K.SWAP) == 0
    assert final == mapping


@pytest.mark.parametrize("d", [2, 3, 5])
def test_single_cnot_distance_d(d):
    lat = grid(1, 1, 8)
    mapping = {"a": Site(0, 0, 0), "b": Site(0, 0, d)}
    circ = Schedule([[gate("cnot", "a", "b")]])
    routed, _ = greedy_route(circ, lat, mapping)
    assert routed.count(K.SWAP) == d - 1


def test_router_deterministic():
    circ = logical_multiplier_circuit(2)
    layout = build_multiplier_layout(2)
    lat = layout.lattice
    m0 = routing_mapping(layout)
    one, _ = greedy_route(circ, lat, m0)
    two, _ = greedy_route(circ, lat, m0)
    assert one.to_json() == two.to_json()


def test_logical_circuit_multiplies():
    for n in (2, 3):
        spec = RegisterSpec.for_width(n)
        circ = logical_multiplier_circuit(n)
        for a in range(2 ** n):
            for b in range(2 ** n):
                bits = {spec.a[i]: (a >> i) & 1 for i in range(n)}
                bits |= {spec.b[i]: (b >> i) & 1 for i in range(n)}
                out = classical_run(circ, None, bits)
                p = sum(out[spec.p[k]] << k for k in range(2 * n))
                assert p == a * b


def test_routed_circuit_still_multiplies():
    n = 2
    spec = RegisterSpec.for_width(n)
    layout = build_multiplier_layout(n)
    m0 = routing_mapping(layout)
    routed, _ = greedy_route(logical_multiplier_circuit(n), layout.lattice, m0)
    for a in range(4):
        for b in range(4):
            bits = {spec.a[i]: (a >> i) & 1 for i in range(n)}
            bits |= {spec.b[i]: (b >> i) & 1 for i in range(n)}
            out = classical_run(routed, m0, bits)
            p = sum(out[spec.p[k]] << k for k in range(2 * n))
            assert p == a * b


def test_routed_circuit_sampled_n3():
    n = 3
    spec = RegisterSpec.for_width(n)
    layout = build_multiplier_layout(n)
    m0 = routing_mapping(layout)
    routed, _ = greedy_route(logical_multiplier_circuit(n), layout.lattice, m0)
    for a, b in [(0, 0), (1, 7), (5, 3), (7, 7), (6, 5)]:
        bits = {spec.a[i]: (a >> i) & 1 for i in range(n)}
        bits |= {spec.b[i]: (b >> i) & 1 for i in range(n)}
        out = classical_run(routed, m0, bits)
        p = sum(out[spec.p[k]] << k for k in range(2 * n))
        assert p == a * b


def test_routed_passes_chain_validation():
    n = 2
    layout = build_multiplier_layout(n)
    m0 = routing_mapping(layout)
    routed, _ = greedy_route(logical_multiplier_circuit(n), layout.lattice, m0)
    report = validate_schedule(layout, m0, routed, toffoli_rule="chain")
    assert report.ok, report.violations[:5]


def test_compare_table_shape_and_dominance():
    rows = compare(range(2, 6))
    assert len(rows) == 4
    for r in rows:
        assert r["tiled_swapC"] < r["routed_swapC"]
        assert r["tiled_swapD"] < r["routed_swapD"]


def test_compare_rejects_n1():
    with pytest.raises(ValueError):
        compare([1])


def test_compare_csv_format():
    rows = compare(range(2, 4))
    text = compare_csv(rows)
    lines = text.strip().splitlines()
    assert lines[0] == "n,tiled_swapC,tiled_swapD,routed_swapC,routed_swapD"
    assert lines[1].startswith("2,39,21,")


# pinned outputs: the routed baseline's CSV and schedules are byte-stable
GOLDEN_COMPARE_ROWS = """\
2,39,21,48,29
3,95,50,121,77
4,171,87,229,152
5,267,132,386,241
6,383,185,520,343
7,519,246,895,552
8,675,315,1123,686
"""

GOLDEN_ROUTED_SHA256 = {
    2: "1a01f14ddf88ec6e393b89e3938eeefb58783e00829c4d6b335ac52f627b5b17",
    3: "d568b23b5dc8e79e33ed8a64f61c3e39c876fb28ea55f9264132b1a1198af764",
    4: "8f795846d75b5c3cda5dcfaf3ee11ed97be357be6464d90d31d900ad24b89209",
    5: "f0af4207170ac9e0a2d5f3cd0765ffe2f07f16a51d802c069883d8d253f23608",
    6: "b03db94b2d1cfaa95af65bf2b68335a9fcf7f31426b4338a3907523270a4be1f",
    7: "cd636dc892c1e82b8a676f8e6853846c71394afa2fc00f3ac4c27dd6914c1b3e",
    8: "5bb8b4b917ff77c77c39a42d5bff9f62f8af04322e8a8a2b4aec0cf13addb848",
    9: "53835ea4877f85bc8d08fd251b54452aa5bff1bb853d67ce43c65dc01e7d22fa",
    10: "d82d265e1f6bc0a5b3b797cf3e21681aa4d5312b3f93460105428b9a0e5aa9d1",
}

# sha256 of the final mapping as sorted JSON {label: [x, y, z]}
GOLDEN_FINAL_MAPPING_SHA256 = {
    2: "38d0a423f71b420dd9a2309222260d961d789059cf0d523cf6b8de34e220d496",
    3: "f9faa908be7eeca411a9a80d5e64bd93eab3335c7114c2194049de33496c46c1",
    4: "8417b9e3c22da8408ce375fe7ff4090ecc2a5c3f5c3d4309b592dad4919c1b07",
    5: "09f719bf869dc3610387150e2761deaac3ec81d5a040d71c62abe0f3ffcb3cdc",
    6: "ecd83e9739c173b35a6041efdaa2d9dbd059d8033c9e54dfabfb15c309fde01c",
    7: "62f4d8b77144548a67ef3727db8a08baca61da4680f8bd75e7979cd8e5fe4fae",
    8: "acf9d10beee20a6779e96e3c5d94eab7a1f42d3c8a5c73c4a505ee3c77898d99",
    9: "ca6cf99eba2b0539eac027b6f7f52d614cca483e9201d960e0c292436accae17",
    10: "840687f68a0d3487cba9f84b0329edcc8655d1d749477ee50fefa9b22c352192",
}


def test_compare_csv_golden():
    assert compare_csv(compare(range(2, 9))) == CSV_HEADER + "\n" + GOLDEN_COMPARE_ROWS


@pytest.mark.parametrize("n", sorted(GOLDEN_ROUTED_SHA256))
def test_routed_schedule_golden(n):
    layout = build_multiplier_layout(n)
    routed, final = greedy_route(logical_multiplier_circuit(n), layout.lattice, routing_mapping(layout))
    assert hashlib.sha256(routed.to_json().encode()).hexdigest() == GOLDEN_ROUTED_SHA256[n]
    text = json.dumps({label: list(site) for label, site in final.items()}, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_FINAL_MAPPING_SHA256[n]


def _sorted_neighbours_bfs(lattice, src, goals, forbidden):
    """The router's BFS as first written, each expansion sorting the in-bounds
    sites one step from ``cur`` along an axis, found here without the
    lattice's own neighbour table."""
    steps = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))
    parent = {src: None}
    queue = deque([src])
    while queue:
        cur = queue.popleft()
        cands = (Site(*(c + d for c, d in zip(cur, step))) for step in steps)
        for nb in sorted(c for c in cands if all(0 <= v < d for v, d in zip(c, lattice.dims))):
            if nb in parent or nb in forbidden:
                continue
            parent[nb] = cur
            if nb in goals:
                path = [nb]
                while parent[path[-1]] is not None:
                    path.append(parent[path[-1]])
                return path[::-1]
            queue.append(nb)
    raise ValueError(f"no route from {tuple(src)} to any goal")


@st.composite
def bfs_cases(draw):
    lattice = grid(*draw(st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))))
    sites = list(lattice.all_sites)
    src = draw(st.sampled_from(sites))
    others = [s for s in sites if s != src]
    goals = draw(st.sets(st.sampled_from(others))) if others else set()
    forbidden = draw(st.sets(st.sampled_from(sites)))
    return lattice, src, goals, forbidden


@given(bfs_cases())
def test_bfs_path_matches_the_sorted_neighbours_bfs(case):
    # the router's BFS runs on indices: number the sites in ascending order
    lattice, src, goals, forbidden = case
    order = sorted(lattice.all_sites)
    index = {s: i for i, s in enumerate(order)}

    def outcome(route):
        try:
            return route()
        except ValueError as exc:
            return f"ValueError: {exc}"

    def on_indices():
        path = router._bfs_path(lattice, index[src], {index[s] for s in goals}, [index[s] for s in forbidden])
        return [order[i] for i in path]

    assert outcome(on_indices) == outcome(lambda: _sorted_neighbours_bfs(*case))


def test_non_injective_start_mapping_rejected():
    lat = grid(2, 2, 1)
    mapping = {"a": Site(0, 0, 0), "b": Site(1, 0, 0), "c": Site(0, 0, 0)}
    text = "mapping is not injective: two labels start on Site(x=0, y=0, z=0)"
    with pytest.raises(ValueError, match="^" + re.escape(text) + "$"):
        greedy_route(Schedule([[gate("cnot", "a", "b")]]), lat, mapping)


def test_route_rejects_a_start_site_outside_the_lattice():
    with pytest.raises(ValueError, match=r"^site \(0, 0, 2\) outside lattice \(1, 1, 2\)$"):
        greedy_route(Schedule(), grid(1, 1, 2), {"a": Site(0, 0, 2)})


def test_route_rejects_more_labels_than_sites():
    # with every site inside the lattice, two of the labels must share one
    mapping = {"a": Site(0, 0, 0), "b": Site(0, 0, 1), "c": Site(0, 0, 1)}
    text = "mapping is not injective: two labels start on Site(x=0, y=0, z=1)"
    with pytest.raises(ValueError, match="^" + re.escape(text) + "$"):
        greedy_route(Schedule(), grid(1, 1, 2), mapping)


def test_route_rejects_a_label_without_a_site():
    mapping = {"a": Site(0, 0, 0), "b": Site(1, 0, 0)}
    with pytest.raises(ValueError, match="^label 'c' has no initial site$"):
        greedy_route(Schedule([[gate("cnot", "a", "c")]]), grid(2, 2, 1), mapping)


def test_route_reports_a_walled_off_target():
    # t ends a line and the other control holds its one neighbour
    mapping = {"t": Site(0, 0, 0), "c2": Site(0, 0, 1), "c1": Site(0, 0, 2)}
    with pytest.raises(ValueError, match=r"^no route from \(0, 0, 2\) to any goal$"):
        greedy_route(Schedule([[gate("toffoli", "c1", "c2", "t")]]), grid(1, 1, 3), mapping)


def test_route_checks_the_assembled_triple(monkeypatch):
    # a walk that moves nothing leaves the far control where it was
    monkeypatch.setattr(router, "_bfs_path", lambda lattice, src, goals, forbidden: [src])
    mapping = {"c1": Site(0, 0, 0), "c2": Site(0, 0, 2), "t": Site(0, 0, 3)}
    with pytest.raises(ValueError, match="^could not bring the controls of toffoli next to its target$"):
        greedy_route(Schedule([[gate("toffoli", "c1", "c2", "t")]]), grid(1, 1, 4), mapping)


class _ReferenceRouter:
    """The router as it was written before its gather loop: a class with one
    path for two-operand gates and one for three-operand gates. Its labels
    sit on site indices in plain ``index -> label`` and ``label -> index``
    dicts."""

    def __init__(self, lattice, mapping0):
        self.lattice = lattice
        for site in mapping0.values():
            lattice.check(site)
        taken = set()
        for site in mapping0.values():
            if site in taken:
                raise ValueError(f"mapping is not injective: two labels start on {site!r}")
            taken.add(site)
        self.label_at, self.pos = occupied({label: lattice.index_of[site] for label, site in mapping0.items()})
        self.adjacency = lattice.adjacency
        self.sites = lattice.all_sites
        self.out = Schedule()

    def _walk(self, label, goals, locked):
        path = router._bfs_path(self.lattice, self.pos[label], goals, locked)
        for a, b in zip(path, path[1:]):
            self.out.append(Gate(K.SWAP, (self.sites[a], self.sites[b])))
            swap_labels(self.label_at, self.pos, a, b)

    def _route_pair(self, a, b):
        pos = self.pos
        goals = self.adjacency[pos[b]]
        if pos[a] not in goals:
            self._walk(a, goals, {pos[b]})

    def _route_triple(self, c1, c2, t):
        pos, sites = self.pos, self.sites
        for _ in range(2):
            goals = self.adjacency[pos[t]]
            pending = [c for c in (c1, c2) if pos[c] not in goals]
            if not pending:
                return
            pending.sort(key=lambda c: (sites[pos[c]].manhattan(sites[pos[t]]), (c1, c2).index(c)))
            mover = pending[0]
            other = c2 if mover == c1 else c1
            self._walk(mover, goals, {pos[t], pos[other]})
        if any(pos[c] not in self.adjacency[pos[t]] for c in (c1, c2)):
            raise ValueError("could not assemble a Toffoli triple")

    def run(self, circuit):
        pos, sites = self.pos, self.sites
        for g in circuit.gates():
            ops = g.operands
            for q in ops:
                if q not in pos:
                    raise ValueError(f"label {q!r} has no initial site")
            if len(ops) == 2:
                self._route_pair(*ops)
            elif len(ops) == 3:
                self._route_triple(*ops)
            self.out.append(Gate(g.kind, tuple(sites[pos[q]] for q in ops), g.condition, g.tags))


def _reference_route(circuit, lattice, mapping0):
    if len(mapping0) > lattice.size:
        raise ValueError("more logical qubits than lattice sites")
    ref = _ReferenceRouter(lattice, mapping0)
    ref.run(circuit)
    return ref.out, {label: ref.sites[w] for label, w in ref.pos.items()}


@st.composite
def routing_cases(draw):
    """A random circuit of 1-, 2- and 3-operand gates on a 2D or 3D lattice,
    its labels seated on distinct sites; one label in ten has no seat."""
    dims = draw(st.sampled_from([(3, 3, 1), (4, 4, 1), (2, 3, 2), (3, 3, 2), (2, 2, 3)]))
    lattice = grid(*dims)
    sites = list(lattice.all_sites)
    seats = draw(st.permutations(sites))[:draw(st.integers(3, len(sites)))]
    labels = [f"q{i}" for i in range(len(seats))]
    mapping = dict(zip(labels, seats))
    pool = labels + ["stray"] * (len(labels) // 9)
    moments = []
    for kind in draw(st.lists(st.sampled_from(["h", "cnot", "cz", "swap", "toffoli", "ccz"]), max_size=30)):
        ops = draw(st.lists(st.sampled_from(pool), min_size=K(kind).arity, max_size=K(kind).arity, unique=True))
        moments.append([gate(kind, *ops)])
    return Schedule(moments), lattice, mapping


@settings(max_examples=300, deadline=None)
@given(routing_cases())
def test_gather_loop_routes_as_the_pair_and_triple_router(case):
    def outcome(route):
        try:
            routed, final = route(*case)
        except ValueError as exc:
            return f"ValueError: {exc}"
        return routed.to_json(), final

    assert outcome(greedy_route) == outcome(_reference_route)


def tiled_toffoli_labels(n: int) -> list[tuple]:
    """The label triple of every Toffoli of the tiled schedule, in order."""
    label_at, wire_of = occupied(initial_mapping(build_multiplier_layout(n), RegisterSpec.for_width(n)))
    triples = []
    for g in full_multiplier_schedule(n)[0].gates():
        if g.kind is K.SWAP:
            swap_labels(label_at, wire_of, *g.operands)
        else:
            triples.append(tuple(label_at[s] for s in g.operands))
    return triples


@pytest.mark.parametrize("n", range(1, 11))
def test_router_and_tiles_route_the_same_circuit(n):
    tiled = tiled_toffoli_labels(n)
    logical = [g.operands for g in logical_multiplier_circuit(n).gates()]
    data = set(RegisterSpec.for_width(n).all_data())
    block = 8 * n - 4
    assert len(tiled) == len(logical) == n + (n - 1) * block
    # the Toffoli step fires the cubes top down
    assert tiled[:n] == logical[:n][::-1]
    for start in range(n, len(logical), block):
        # one ctrl-add: data labels agree, and each tiled ancilla stands for
        # one carry of the block and each carry for one ancilla
        renaming: dict = {}
        for got, want in zip(tiled[start:start + block], logical[start:start + block]):
            for label, carry in zip(got, want):
                if carry in data:
                    assert label == carry
                else:
                    assert label not in data and renaming.setdefault(label, carry) == carry
        assert len(set(renaming.values())) == len(renaming)
