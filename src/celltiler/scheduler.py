"""Ordered SWAP+Toffoli schedules for the tiled multiplier, plus replay validation.

The multiplier runs in three step kinds. The Toffoli step walks the shared
control up the ladder firing one cube per rung while the partial products
shift onto the window seats. Each controlled-addition step ripples a carry
wave down the tower (carries live on the ladder rungs and spare corners),
writes the carry-out at the bottom, and climbs back up summing into the
window under the control. The reset step shifts the whole window one rung
up in five parallel rounds and retires the finished product bit.

One board emits every step of the multiplier, each moment with one call: a
moment of SWAPs (plus idle-ancilla spacer exchanges) or one Toffoli. The step
functions (:func:`toffoli_step`, :func:`ctrl_add_step`, :func:`reset_step`)
are the board's emitters, run in turn by :func:`full_multiplier_schedule`. A
SWAP whose two sites lie in the same storage queue is tagged ``storage``; no
other SWAP is. Every step is emitted against a fixed per-block SWAP budget:
the spacers keep the emitted shape uniform across n, and the ``swap_metrics``
of each step's own moments must meet its :data:`STEP_SWAPS` entry exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Hashable, Iterator

from celltiler.cells import Layout
from celltiler.circuit import STORAGE, Gate, GateKind, Occupancy, Report, Schedule, _counted
from celltiler.lattice import Site
from celltiler.tiler import (
    E, L, N, S, YELLOW, MAGENTA,
    RegisterSpec, build_multiplier_layout, col, col_other, fourth, initial_mapping, seat,
)

K = GateKind
_STORAGE, _UNTAGGED = frozenset((STORAGE,)), frozenset()  # the two SWAP tag sets


RESET_SWAP_DEPTH = 5

# The designed SWAP cost model: step kind -> n -> (counted SWAPs, SWAP depth).
# Counted SWAPs exclude storage traffic. The depth-optimised Toffoli step
# keeps two of the five tail SWAP moments; its padding rides along earlier.
STEP_SWAPS: dict[str, Callable[[int], tuple[int, int]]] = {
    "toffoli": lambda n: (5 * (n - 1) + 12, 2 * (n - 1) + 5),
    "toffoli-opt": lambda n: (STEP_SWAPS["toffoli"](n)[0], 2 * (n - 1) + 2),
    "ctrl-add": lambda n: (6 * (n - 1) + 16, 4 * (n - 1) + 10),
    "reset": lambda n: (4 * (n - 1) + 9, RESET_SWAP_DEPTH),
}


def _step_plan(n: int, optimize_toffoli_depth: bool) -> Iterator[tuple[str, str, Callable]]:
    """``(row name, STEP_SWAPS kind, emitter)`` of every step of the n-bit
    multiplier, in emission order: the Toffoli step, then ctrl-add j for each
    j, with a reset after every ctrl-add but the last. The emitters are the
    public step functions, bound to their arguments; each writes its step's
    moments on a :class:`_Board`. They are looked up as module globals on
    every run, so a wrapper put in their place sees every step."""
    yield (
        "toffoli step",
        "toffoli-opt" if optimize_toffoli_depth else "toffoli",
        partial(toffoli_step, optimize_depth=optimize_toffoli_depth),
    )
    for j in range(1, n):
        yield f"ctrl-add {j}", "ctrl-add", partial(ctrl_add_step, j=j)
        if j <= n - 2:
            yield f"reset {j}", "reset", partial(reset_step, j=j)


def step_budgets(n: int, optimize_toffoli_depth: bool = False) -> list[tuple[str, int, int]]:
    """``(name, swapC, swapD)`` of every step of the n-bit multiplier, in the
    order :func:`full_multiplier_schedule` emits them. Each emitter asserts
    that its step meets its :data:`STEP_SWAPS` entry exactly."""
    plan = _step_plan(n, optimize_toffoli_depth)
    return [(name, *STEP_SWAPS[kind](n)) for name, kind, _emit in plan]


class _Board:
    """Occupancy-tracked emitter of a whole multiplier, one call per moment.

    Every step appends to one ``sched`` while one ``occ`` follows the labels.
    ``moment(*pairs, spacers=k)`` emits the given SWAPs in call order, then
    ``k`` idle-ancilla spacer SWAPs plus any spacer debt the step still owes;
    a moment that ends up empty is dropped. ``fire(c1, c2, t)`` emits a
    moment holding one Toffoli. Every SWAP must be nearest-neighbour and every
    site inside the used region; a site used twice in one moment is refused by
    the IR (``Schedule.extend_moment``, ``Gate``). A SWAP is tagged
    ``storage`` exactly when both its sites lie in the same queue.

    Each distinct move is built and checked once: ``swaps`` holds one gate
    per directed edge, with the ``occ`` slots of its two sites, and
    ``toffolis`` one gate per ``(c1, c2, target)``; the nearest-neighbour and
    used-region tests run when that gate is made. This is sound because the
    labelled sites, the used region, never change: the board only SWAPs two
    labelled sites, which leaves both labelled. A later occurrence of a SWAP
    costs only ``occ.swap`` on its two slots, and of a Toffoli nothing. The
    spacer candidates are kept as slot pairs, read against ``occ.label_at``.

    ``finish(kind)`` checks the ``swap_metrics`` of the step's own moments
    against its :data:`STEP_SWAPS` entry and starts the next step with no
    live ancilla. Every label outside the register spec is an
    ancilla; one in ``live_anc`` holds a carry and is not idle.
    """

    def __init__(self, layout: Layout, mapping: dict[Hashable, Site]):
        self.layout = layout
        self.queue_of = layout.queue_of
        self.spec = RegisterSpec.for_width(len(layout.placements))
        self.data = frozenset(self.spec.all_data())
        self.occ = Occupancy(mapping)
        self.live_anc: set[Hashable] = set()
        self.sched = Schedule()
        self.step_start = 0  # the first moment of the running step
        # one gate per directed edge, with its sites' slots
        self.swaps: dict[tuple[Site, Site], tuple[Gate, int, int]] = {}
        self.toffolis: dict[tuple[Site, Site, Site], Gate] = {}  # one gate per triple
        self.spacer_debt = 0
        # candidates, tower top first, as (slot, slot, site, site); SWAPs
        # keep every used site labelled, so pairs off the used region or
        # inside one queue never qualify
        label_on, slot = self.occ.label_on, self.occ.slot
        self.spacer_pairs = [
            (slot(a), slot(b), a, b) for a, b in self._spacer_pairs(layout.lattice.dz)
            if label_on(a) is not None and label_on(b) is not None and not self._same_queue(a, b)
        ]

    def site_label(self, site: Site) -> Hashable:
        label = self.occ.label_on(site)
        if label is None:
            raise ValueError(f"site {tuple(site)} is outside the used region")
        return label

    def _same_queue(self, a: Site, b: Site) -> bool:
        qa = self.queue_of.get(a)
        return qa is not None and qa == self.queue_of.get(b)

    # -- moments -------------------------------------------------------------

    def _new_swap(self, a: Site, b: Site) -> tuple[Gate, int, int]:
        """The edge's gate and slots on its first use, after the checks that
        hold for good."""
        if a.manhattan(b) != 1:
            raise ValueError(f"SWAP {tuple(a)}<->{tuple(b)} is not nearest-neighbour")
        self.site_label(a)
        self.site_label(b)
        tags = _STORAGE if self._same_queue(a, b) else _UNTAGGED  # fixed by the layout
        slot = self.occ.slot
        entry = self.swaps[a, b] = (Gate(K.SWAP, (a, b), tags=tags), slot(a), slot(b))
        return entry

    def moment(self, *pairs: tuple[Site, Site], spacers: int = 0) -> None:
        swaps, swap = self.swaps, self.occ.swap
        gates = []
        used = []  # the slots of the moment's SWAPs
        for pair in pairs:
            g, a, b = swaps.get(pair) or self._new_swap(*pair)
            gates.append(g)
            used += a, b
            swap(a, b)
        want = spacers + self.spacer_debt
        if want:
            placed = 0
            label_at, idle = self.occ.label_at, self._idle
            for a, b, site_a, site_b in self.spacer_pairs:
                if placed == want:
                    break
                if a in used or b in used or not (idle(label_at[a]) and idle(label_at[b])):
                    continue
                gates.append((swaps.get((site_a, site_b)) or self._new_swap(site_a, site_b))[0])
                swap(a, b)
                used += a, b
                placed += 1
            self.spacer_debt = want - placed  # owed by later moments of the step
        if gates:
            self.sched.extend_moment(gates)

    def fire(self, c1: Site, c2: Site, target: Site) -> None:
        g = self.toffolis.get((c1, c2, target))
        if g is None:  # the triple's first use: the checks that hold for good
            for s in (c1, c2, target):
                self.site_label(s)
            g = self.toffolis[c1, c2, target] = Gate(K.TOFFOLI, (c1, c2, target))
        self.sched.extend_moment([g])

    # -- spacer swaps --------------------------------------------------------

    def _idle(self, label: Hashable | None) -> bool:
        """Whether ``label`` (``None`` for an empty site) is an idle ancilla."""
        return label is not None and label not in self.data and label not in self.live_anc

    @staticmethod
    def _spacer_pairs(h: int) -> list[tuple[Site, Site]]:
        pairs = []
        for z in range(h - 1, -1, -1):
            pairs += [(S(z), L(z)), (N(z), L(z)), (L(z), YELLOW(z)), (N(z), MAGENTA(z))]
            if z + 1 < h:
                pairs += [(L(z), L(z + 1)), (S(z), S(z + 1)), (N(z), N(z + 1)), (E(z), E(z + 1))]
        return pairs

    # -- storage bubbling ----------------------------------------------------

    def bubble_to(self, label: Hashable, target: Site) -> None:
        """Walk a label along its queue chain, one storage SWAP per moment."""
        if label not in self.occ.wire_of:
            raise ValueError(f"label {label!r} not on the board")
        src = self.occ.wires[self.occ.wire_of[label]]
        if src == target:
            return
        qname = self.queue_of.get(src)
        if qname is None or self.queue_of.get(target) != qname:
            raise ValueError(f"bubble of {label!r} must stay inside one queue")
        chain = self.layout.queues[qname]
        i, j = chain.index(src), chain.index(target)
        step = 1 if j > i else -1
        for k in range(i, j, step):
            self.moment((chain[k], chain[k + step]))

    def bubble_hole_to(self, qname: str, target: Site) -> None:
        """Bring some idle ancilla of the queue to the target slot."""
        chain = self.layout.queues[qname]
        label_on, idle = self.occ.label_on, self._idle
        if idle(label_on(target)):
            return
        holes = [s for s in chain if idle(label_on(s))]
        if not holes:
            raise ValueError(f"queue {qname} has no free slot")
        ti = chain.index(target)
        holes.sort(key=lambda s: abs(chain.index(s) - ti))
        self.bubble_to(label_on(holes[0]), target)

    def finish(self, kind: str) -> None:
        """Close the running step once its own moments meet the ``kind``
        entry of :data:`STEP_SWAPS`."""
        if self.spacer_debt:
            raise ValueError(f"unplaced spacer swaps: {self.spacer_debt}")
        count, depth_ = _counted(self.sched.moments[self.step_start:])
        budget, depth_budget = STEP_SWAPS[kind](self.spec.n)
        if (count, depth_) != (budget, depth_budget):
            raise ValueError(
                f"emitted {count} counted SWAPs in {depth_} moments, "
                f"budget {budget} in {depth_budget}"
            )
        self.step_start = len(self.sched.moments)
        self.live_anc = set()


def _spread(k: int, moments: int) -> list[int]:
    """``k`` spacers over ``moments`` moments, as even as can be, earlier ones first."""
    return [k // moments + (i < k % moments) for i in range(moments)]


def toffoli_step(board: _Board, *, optimize_depth: bool = False) -> None:
    """First multiplier phase: one Toffoli per cube under the shared control.

    The control climbs one rung per cube; each fired partial product shifts
    onto its window seat. The tail retires the lowest product bit, parks the
    spent control in yellow, and pulls the next control onto the ladder top
    slot implicitly (the following step fetches it from yellow).
    """
    n = board.spec.n
    if optimize_depth and n < 3:
        raise ValueError(
            f"the depth-optimised Toffoli step needs n >= 3 (its padding SWAPs "
            f"do not fit on a shorter tower), got n={n}"
        )
    hops = [(fourth(n - 1), col(n + 1)), (L(n - 1), L(n)), (L(n), YELLOW(n))]
    # the plain tail, moment by moment: each control hop with one spacer,
    # then two spacer-only moments of three
    tail = [((hop,), 1) for hop in hops] + [((), 3), ((), 3)]

    # under the depth optimisation the tail keeps only its serial control
    # hops, so the tail padding spreads over the per-cube moments instead
    moved = sum(spacers for _pairs, spacers in tail) if optimize_depth else 0
    extra = _spread(moved, STEP_SWAPS["toffoli-opt"](n)[1])

    for p in range(n - 1):
        board.fire(L(p), E(p), fourth(p))
        board.moment((L(p), L(p + 1)), spacers=2 + extra[2 * p])
        board.moment((fourth(p), col(p + 2)), spacers=1 + extra[2 * p + 1])
    board.fire(L(n - 1), E(n - 1), fourth(n - 1))

    if optimize_depth:
        # the tail shrinks to the two serial control hops; padding rides along
        board.moment(hops[0], hops[1], spacers=extra[-2])
        board.moment(hops[2], spacers=extra[-1])
    else:
        for pairs, spacers in tail:
            board.moment(*pairs, spacers=spacers)


def ctrl_add_step(board: _Board, j: int) -> None:
    """The j-th controlled addition: add A into the window under control B_j.

    Carry compute wave runs down the tower (one carry hop per cube), the
    carry-out is written at the bottom after a slot dance that feeds the next
    zero ancilla in as the newest product bit, and the sum wave climbs back
    up with the control, retiring it into yellow at the top.
    """
    spec = board.spec
    n = spec.n
    if not 1 <= j <= n - 1:
        raise ValueError(f"controlled-add index must be in 1..{n - 1}, got {j}")

    # storage staging: next control to the ladder-side slot, incoming zero to
    # the magenta head (free slots are staged after the control leaves yellow)
    board.bubble_to(spec.b[j], YELLOW(1))
    board.bubble_to(spec.p[j + n], MAGENTA(0))

    def k_block(p: int, i: int) -> None:
        board.fire(E(p), seat(i, n), L(p))
        if i >= 1:
            board.fire(fourth(p), seat(i, n), L(p))
            board.fire(fourth(p), E(p), L(p))

    def sums(p: int, i: int) -> None:
        board.fire(L(p), E(p), seat(i, n))
        if i >= 1:
            board.fire(L(p), fourth(p), seat(i, n))

    # carry wave down the tower
    for p in range(n - 1, -1, -1):
        k_block(p, n - 1 - p)
        board.live_anc.add(board.site_label(L(p)))
        if p >= 1:
            board.moment((L(p), fourth(p - 1)), spacers=1)

    # bottom dance: entry, carry-out, restore
    board.moment(
        (YELLOW(1), L(1)),               # control onto the ladder
        (E(0), S(0)),                    # A aside
        (MAGENTA(0), N(0)),              # feed the incoming zero
        spacers=1,
    )
    board.moment(
        (L(1), S(1)),                    # control in, lowest window bit out
        (N(0), E(0)),                    # incoming zero onto the data corner
        spacers=1,
    )
    board.fire(S(1), L(0), E(0))         # carry-out write
    board.moment((E(0), N(0)), spacers=1)  # carry receiver parks on the seat slot
    board.moment((S(0), E(0)))           # A back home
    board.moment((S(1), S(0)))           # control aside
    board.moment((L(1), S(1)))           # lowest window bit back

    k_block(0, n - 1)
    board.live_anc.discard(board.site_label(L(0)))
    board.moment((S(0), L(0)))           # control takes the freed rung
    sums(0, n - 1)

    # sum wave back up
    for p in range(1, n):
        i = n - 1 - p
        board.moment((fourth(p - 1), L(p)), spacers=1)  # parked carry back to its rung
        k_block(p, i)
        board.live_anc.discard(board.site_label(L(p)))
        board.moment((L(p - 1), L(p)))   # control climbs
        sums(p, i)
        board.moment(spacers=1)

    # retire the control and pop the finished product bit
    board.bubble_hole_to("yellow", YELLOW(n))
    board.bubble_hole_to("grey_out", col_other(n + 1))
    board.moment((L(n - 1), L(n)), (seat(0, n), col_other(n + 1)))
    board.moment((L(n), YELLOW(n)))
    board.moment(spacers=1)


def reset_step(board: _Board, j: int) -> None:
    """Shift the window one rung up in five rounds of parallel SWAPs.

    Bits on even rungs ride the ladder first; their landing exchange boards
    the odd-rung bits, which land in the last two rounds. The depth is five
    regardless of n.
    """
    n = board.spec.n
    if not 1 <= j <= n - 1:
        raise ValueError(f"reset index must be in 1..{n - 1}, got {j}")

    evens = [z for z in range(n) if z % 2 == 0]
    odds = [z for z in range(n) if z % 2 == 1]
    rounds = [
        [(col(z), L(z)) for z in evens],
        [(L(z), L(z + 1)) for z in evens],
        [(L(z + 1), col(z + 1)) for z in evens],
        [(L(z), L(z + 1)) for z in odds],
        [(L(z + 1), col(z + 1)) for z in odds],
    ]
    spacers = _spread(STEP_SWAPS["reset"](n)[0] - sum(map(len, rounds)), len(rounds))
    for pairs, k in zip(rounds, spacers):
        board.moment(*pairs, spacers=k)


def full_multiplier_schedule(
    n: int,
    optimize_toffoli_depth: bool = False,
    *,
    layout: Layout | None = None,
) -> tuple[Schedule, dict[Hashable, Site]]:
    """Compose Toffoli step, n-1 controlled adds and the interleaved resets.

    Returns the complete schedule and the final logical-to-site mapping.
    Every step runs on one board and is checked against its budget as it
    finishes. A caller that holds the n-bit layout passes it as ``layout``,
    so it is not built again.
    """
    if layout is None:
        layout = build_multiplier_layout(n)
    board = _Board(layout, initial_mapping(layout, RegisterSpec.for_width(n)))
    for _name, kind, emit in _step_plan(n, optimize_toffoli_depth):
        emit(board)
        board.finish(kind)
    return board.sched, board.occ.mapping()


@dataclass
class ValidationReport(Report):
    """A :class:`Report` that also carries the replay's final label -> site mapping."""

    final_mapping: dict[Hashable, Site] = field(default_factory=dict)


def validate_schedule(
    layout: Layout,
    mapping0: dict[Hashable, Site],
    schedule: Schedule,
    toffoli_rule: str = "tile",
) -> ValidationReport:
    """Replay the schedule checking connectivity and disjoint supports.

    Two-qubit gates must join nearest-neighbour sites. Toffoli gates must sit
    on the ``data_corners`` of one of the layout's placements (``tile`` rule)
    or form a connected chain (``chain`` rule, used for the routed baseline).
    These tests run once per gate object, however often it occurs, and find
    its sites' integer slots in an :class:`~celltiler.circuit.Occupancy` on
    the layout's lattice; each occurrence is tested only for overlap within
    its moment, by stamping its slots with the moment, and replayed if it is
    a SWAP. The slots stay inside the replay: the report carries every
    violation, in schedule order and naming sites, and the final
    logical-to-site mapping.
    """
    if toffoli_rule not in ("tile", "chain"):
        raise ValueError(f"unknown toffoli rule {toffoli_rule!r}")
    corner_sets = [p.data_corners for p in layout.placements]
    occ = Occupancy(mapping0, layout.lattice)
    slot, swap, wires, swap_kind = occ.slot, occ.swap, occ.wires, K.SWAP
    size = layout.lattice.size  # every site past the lattice has a slot past this
    stamp = [-1] * size  # per slot, the last moment of two or more gates that used it

    def facts_of(g: Gate) -> tuple:
        """What every test but the moment's overlap test finds for ``g``,
        wherever it occurs: its sites' slots (None for a gate with a
        non-site operand), the texts that come before the overlap test, the
        adjacency or cell text (or None) and whether it is a SWAP."""
        kind, sites = g.kind, g.operands
        for q in sites:
            if not isinstance(q, Site):
                return None, (f"non-site operand in {kind.value}",), None, False
        slots = tuple(map(slot, sites))
        outside = ()
        if max(slots) >= size:
            outside = tuple(f"{tuple(s)} outside lattice" for s, i in zip(sites, slots) if i >= size)
            stamp.extend([-1] * (len(wires) - len(stamp)))
        shape = None
        if len(sites) == 2:
            if sites[0].manhattan(sites[1]) != 1:
                shape = f"{kind.value} between non-adjacent {tuple(sites[0])},{tuple(sites[1])}"
        elif len(sites) == 3:
            if toffoli_rule == "tile":
                sset = frozenset(sites)
                if not any(sset <= cs for cs in corner_sets):
                    shape = f"toffoli {sorted(map(tuple, sites))} not on a cell"
            else:
                dists = sorted(sites[a].manhattan(sites[b]) for a in range(3) for b in range(a + 1, 3))
                if dists[:2] != [1, 1]:
                    shape = f"toffoli {sorted(map(tuple, sites))} not chain-adjacent"
        return slots, outside, shape, kind is swap_kind

    # one entry per gate object, keyed by id(g) as the schedule keeps every
    # gate alive for the call
    facts: dict[int, tuple] = {}
    report = ValidationReport()
    violations = report.violations
    for mi, moment in enumerate(schedule.moments):
        shared = len(moment) > 1  # a gate alone in its moment overlaps nothing
        for g in moment:
            fact = facts.get(id(g))
            if fact is None:
                fact = facts[id(g)] = facts_of(g)
            slots, notes, shape, is_swap = fact
            if notes:
                violations.extend(f"moment {mi}: {text}" for text in notes)
            if slots is None:
                continue
            if shared:
                for s in slots:
                    if stamp[s] == mi:
                        overlap = sorted(tuple(wires[s]) for s in slots if stamp[s] == mi)
                        violations.append(f"moment {mi}: overlapping support at {overlap}")
                        break
                for s in slots:
                    stamp[s] = mi
            if shape is not None:
                violations.append(f"moment {mi}: {shape}")
            if is_swap:
                swap(*slots)
    report.final_mapping = occ.mapping()
    return report


def timeline_rows(schedule: Schedule) -> list[dict]:
    """Machine-readable red-bar data: one row per moment containing SWAPs."""
    rows = []
    for mi, moment in enumerate(schedule.moments):
        row = {"moment": mi, "swaps": [], "storage": []}
        for g in moment:
            if g.kind is K.SWAP:
                row["storage" if STORAGE in g.tags else "swaps"].append([list(q) for q in g.operands])
        if row["swaps"] or row["storage"]:
            rows.append(row)
    return rows


def render_timeline(schedule: Schedule) -> str:
    """ASCII rendering of the SWAP timeline, one row per SWAP moment."""
    lines = []
    for row in timeline_rows(schedule):
        cells = " ".join(
            f"({a[0]},{a[1]},{a[2]})-({b[0]},{b[1]},{b[2]})" for a, b in row["swaps"]
        )
        extra = f"  [storage x{len(row['storage'])}]" if row["storage"] else ""
        lines.append(f"m{row['moment']:04d} | {cells}{extra}")
    return "\n".join(lines)
