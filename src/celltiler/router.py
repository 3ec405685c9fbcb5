"""Greedy SWAP-insertion baseline router and the tiled-vs-routed comparison."""

from __future__ import annotations

from typing import Container, Hashable, Iterable

from celltiler.cells import Layout
from celltiler.circuit import Gate, GateKind, Occupancy, Schedule, swap_metrics
from celltiler.lattice import Lattice, Site
from celltiler.scheduler import full_multiplier_schedule
from celltiler.tiler import RegisterSpec, build_multiplier_layout, initial_mapping

K = GateKind


class RoutingError(Exception):
    """The router ran out of sites or could not find a path."""


def _bfs_path(lattice: Lattice, src: int, goals: Container[int], forbidden: Iterable[int]) -> list[int]:
    """Deterministic BFS path of site indices from src to the nearest goal
    (neighbours in ascending order), detouring around forbidden sites. ``src``
    must not be a goal: both callers walk only a label that is not yet next to
    its target."""
    adjacency = lattice.adjacency
    parent: list[int | None] = [None] * len(adjacency)  # None until reached
    for f in forbidden:
        parent[f] = f  # counted as reached
    parent[src] = src
    queue = [src]
    for cur in queue:  # the loop reads the sites appended while it runs
        for nb in adjacency[cur]:
            if parent[nb] is not None:
                continue
            parent[nb] = cur
            if nb in goals:
                path = [nb]
                while cur != src:
                    path.append(cur)
                    cur = parent[cur]
                path.append(src)
                return path[::-1]
            queue.append(nb)
    raise RoutingError(f"no route from {tuple(lattice.site(src))} to any goal")


class _Router:
    """Routes a circuit gate by gate on the site indices of one lattice.

    - ``occ`` is an :class:`Occupancy` whose wires are site indices (see
      :class:`Lattice`); ``sites`` turns an index back into its ``Site``.
    - ``adjacency`` is the lattice's neighbour table, read by ``_route_pair``,
      ``_route_triple`` and ``_bfs_path``.
    - ``swaps`` holds the one SWAP gate, on ``Site``s, built per directed edge
      ``(a, b)`` of indices; ``_swap`` appends it to ``out`` and moves the labels.
    - ``run`` fires each gate on the ``Site``s of its operands into ``out``.
    """

    def __init__(self, lattice: Lattice, mapping0: dict[Hashable, Site]):
        self.lattice = lattice
        for site in mapping0.values():
            lattice.check(site)
        Occupancy(mapping0)  # refuses a shared start, naming its Site, not its index
        index = lattice.index
        self.occ = Occupancy({label: index(site) for label, site in mapping0.items()})
        self.adjacency = lattice.adjacency
        self.sites = tuple(lattice.sites())
        self.out = Schedule()
        self.swaps: dict[tuple[int, int], Gate] = {}

    def _swap(self, a: int, b: int) -> None:
        g = self.swaps.get((a, b))
        if g is None:
            g = self.swaps[a, b] = Gate(K.SWAP, (self.sites[a], self.sites[b]))
        self.out.append(g)
        self.occ.swap(a, b)

    def _walk(self, label: Hashable, goals: Container[int], locked: set[int]) -> None:
        path = _bfs_path(self.lattice, self.occ.wire_of[label], goals, locked)
        for a, b in zip(path, path[1:]):
            self._swap(a, b)

    def _route_pair(self, a: Hashable, b: Hashable) -> None:
        pos = self.occ.wire_of
        goals = self.adjacency[pos[b]]
        if pos[a] not in goals:
            self._walk(a, goals, {pos[b]})

    def _route_triple(self, c1: Hashable, c2: Hashable, t: Hashable) -> None:
        # bring both controls next to the target, cheaper mover first
        pos, sites = self.occ.wire_of, self.sites
        for _ in range(2):
            goals = self.adjacency[pos[t]]
            pending = [c for c in (c1, c2) if pos[c] not in goals]
            if not pending:
                return
            pending.sort(key=lambda c: (sites[pos[c]].manhattan(sites[pos[t]]), (c1, c2).index(c)))
            mover = pending[0]
            other = c2 if mover == c1 else c1
            # a locked goal is never reached: the walk skips locked sites
            self._walk(mover, goals, {pos[t], pos[other]})
        if any(pos[c] not in self.adjacency[pos[t]] for c in (c1, c2)):
            raise RoutingError("could not assemble a Toffoli triple")

    def run(self, circuit: Schedule) -> None:
        pos, sites = self.occ.wire_of, self.sites
        for g in circuit.gates():
            ops = g.operands
            for q in ops:
                if q not in pos:
                    raise RoutingError(f"label {q!r} has no initial site")
            if len(ops) == 2:
                self._route_pair(*ops)
            elif len(ops) == 3:
                self._route_triple(*ops)
            self.out.append(Gate(g.kind, tuple(sites[pos[q]] for q in ops), g.condition, g.tags))


def greedy_route(
    circuit: Schedule,
    lattice: Lattice,
    mapping0: dict[Hashable, Site],
) -> tuple[Schedule, dict[Hashable, Site]]:
    """Route a logical circuit onto the lattice, gate by gate, no lookahead.

    Operands are pulled together along detour-aware shortest paths; the gate
    fires on sites and the mapping drifts with the inserted SWAPs. Output
    moments are packed earliest-fit and the result is deterministic.
    """
    if len(mapping0) > lattice.size:
        raise RoutingError("more logical qubits than lattice sites")
    router = _Router(lattice, mapping0)
    router.run(circuit)
    return router.out, {label: router.sites[w] for label, w in router.occ.wire_of.items()}


def logical_multiplier_circuit(n: int) -> Schedule:
    """The multiplier's Toffoli-level gate list on logical labels (no SWAPs).

    Shares the tiled pipeline's gate structure: one Toffoli per partial
    product, then per addition a carry-compute wave, controlled carry-out,
    and the uncompute/sum wave.
    """
    spec = RegisterSpec.for_width(n)
    carries = [f"C{i}" for i in range(n + 1)]
    sched = Schedule()
    toffolis: dict[tuple[str, str, str], Gate] = {}  # one gate per triple

    def tof(a, b, t):
        g = toffolis.get((a, b, t))
        if g is None:
            g = toffolis[a, b, t] = Gate(K.TOFFOLI, (a, b, t))
        sched.extend_moment([g])

    def carry(i, j):  # the carry block of bit i in addition j, both waves
        tof(spec.a[i], spec.p[j + i], carries[i + 1])
        if i >= 1:
            tof(carries[i], spec.p[j + i], carries[i + 1])
            tof(carries[i], spec.a[i], carries[i + 1])

    for i in range(n):
        tof(spec.b[0], spec.a[i], spec.p[i])
    for j in range(1, n):
        for i in range(n):
            carry(i, j)
        tof(spec.b[j], carries[n], spec.p[j + n])
        for i in range(n - 1, -1, -1):
            carry(i, j)
            tof(spec.b[j], spec.a[i], spec.p[j + i])
            if i >= 1:
                tof(spec.b[j], carries[i], spec.p[j + i])
    return sched


def routing_mapping(layout: Layout) -> dict[Hashable, Site]:
    """Initial placement handed to the baseline: the tiled multiplier layout's
    register seats plus deterministic seats for the carry ancillae."""
    n = len(layout.placements)
    spec = RegisterSpec.for_width(n)
    data = set(spec.all_data())
    mapping = {label: site for label, site in initial_mapping(layout, spec).items()
               if label in data}
    free = sorted(set(layout.used_sites()) - set(mapping.values()))
    for i in range(n + 1):
        mapping[f"C{i}"] = free[i]
    return mapping


def compare(n_range) -> list[dict]:
    """Tiled vs greedy-routed SWAP metrics, one row per operand width."""
    if any(n < 2 for n in n_range):
        raise ValueError("comparison needs n >= 2")
    # every layout first, so a width the tower cannot hold fails before any compiles
    layouts = {n: build_multiplier_layout(n) for n in n_range}
    rows = []
    for n, layout in layouts.items():
        tiled, _ = full_multiplier_schedule(n, layout=layout)
        t_c, t_d = swap_metrics(tiled)
        routed, _ = greedy_route(
            logical_multiplier_circuit(n), layout.lattice, routing_mapping(layout)
        )
        r_c, r_d = swap_metrics(routed)
        rows.append(
            {
                "n": n,
                "tiled_swapC": t_c,
                "tiled_swapD": t_d,
                "routed_swapC": r_c,
                "routed_swapD": r_d,
                "ratio_swapC": r_c / t_c if t_c else float("inf"),
                "ratio_swapD": r_d / t_d if t_d else float("inf"),
            }
        )
    return rows


CSV_HEADER = "n,tiled_swapC,tiled_swapD,routed_swapC,routed_swapD"


def compare_csv(rows: list[dict]) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r['n']},{r['tiled_swapC']},{r['tiled_swapD']},{r['routed_swapC']},{r['routed_swapD']}"
        )
    return "\n".join(lines) + "\n"
