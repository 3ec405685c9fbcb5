"""Greedy SWAP-insertion baseline router and the tiled-vs-routed comparison."""

from __future__ import annotations

from typing import Container, Hashable, Iterable

from celltiler.cells import Layout
from celltiler.circuit import Gate, GateKind, Occupancy, Schedule, swap_metrics
from celltiler.lattice import Lattice, Site
from celltiler.scheduler import full_multiplier_schedule
from celltiler.tiler import RegisterSpec, build_multiplier_layout, initial_mapping

K = GateKind


def _bfs_path(lattice: Lattice, src: int, goals: Container[int], forbidden: Iterable[int]) -> list[int]:
    """Deterministic BFS path of site indices from src to the nearest goal
    (neighbours in ascending order), detouring around forbidden sites. Its one
    caller, :func:`greedy_route`, walks only a label that is not yet next to
    its target, so ``src`` is never a goal."""
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
    raise ValueError(f"no route from {tuple(lattice.all_sites[src])} to any goal")


def greedy_route(
    circuit: Schedule,
    lattice: Lattice,
    mapping0: dict[Hashable, Site],
) -> tuple[Schedule, dict[Hashable, Site]]:
    """Route a logical circuit onto the lattice, gate by gate, no lookahead.

    Labels sit on the slots of an :class:`~celltiler.circuit.Occupancy` on
    the lattice, which are the site indices (see :class:`Lattice`). Before a gate
    ``*controls, t`` fires, at most ``len(controls)`` gather rounds run. Each
    round stops the gathering if every control is next to ``t``; otherwise it
    walks the control nearest ``t`` by manhattan distance (the earlier control
    on a tie) along :func:`_bfs_path` to a site next to ``t``. The walk locks
    the sites of every other operand of the gate, so it never moves them and
    never ends on them. The gate then fires on the ``Site``s of its operands,
    and the mapping drifts with the inserted SWAPs (one shared SWAP gate per
    directed edge). Output moments are packed earliest-fit and the result is
    deterministic.
    """
    for site in mapping0.values():
        lattice.check(site)
    occ = Occupancy(mapping0, lattice)  # every start is a site, so its slot is its index
    pos, adjacency, sites = occ.wire_of, lattice.adjacency, lattice.all_sites
    out = Schedule()
    swaps: dict[tuple[int, int], Gate] = {}
    for g in circuit.gates():
        ops = g.operands
        for q in ops:
            if q not in pos:
                raise ValueError(f"label {q!r} has no initial site")
        *controls, t = ops
        for _ in controls:
            goals = adjacency[pos[t]]
            pending = [c for c in controls if pos[c] not in goals]
            if not pending:
                break
            mover = min(pending, key=lambda c: (sites[pos[c]].manhattan(sites[pos[t]]), controls.index(c)))
            path = _bfs_path(lattice, pos[mover], goals, {pos[q] for q in ops if q != mover})
            for a, b in zip(path, path[1:]):
                swap = swaps.get((a, b))
                if swap is None:
                    swap = swaps[a, b] = Gate(K.SWAP, (sites[a], sites[b]))
                out.append(swap)
                occ.swap(a, b)
        if any(pos[c] not in adjacency[pos[t]] for c in controls):
            raise ValueError(f"could not bring the controls of {g.kind.value} next to its target")
        out.append(Gate(g.kind, tuple(sites[pos[q]] for q in ops), g.condition, g.tags))
    return out, occ.mapping()


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
