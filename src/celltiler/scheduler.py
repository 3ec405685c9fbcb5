"""Ordered SWAP+Toffoli schedules for the tiled multiplier, plus replay validation.

The multiplier runs in three step kinds. The Toffoli step walks the shared
control up the ladder firing one cube per rung while the partial products
shift onto the window seats. Each controlled-addition step ripples a carry
wave down the tower (carries live on the ladder rungs and spare corners),
writes the carry-out at the bottom, and climbs back up summing into the
window under the control. The reset step shifts the whole window one rung
up in five parallel rounds and retires the finished product bit.

Every step is emitted against a fixed per-block SWAP budget; idle-ancilla
spacer exchanges keep the emitted shape uniform across n, and the emitters
assert the exact per-step totals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable

from celltiler.cells import Layout
from celltiler.circuit import Gate, GateKind, Occupancy, Schedule
from celltiler.lattice import Site
from celltiler.tiler import (
    E, L, N, S, YELLOW, MAGENTA,
    RegisterSpec, build_multiplier_layout, col, col_other, data_corners,
    fourth, initial_mapping, seat,
)

K = GateKind


# Designed per-step SWAP cost model (counted SWAPs exclude storage traffic).
def toffoli_step_swaps(n: int) -> int:
    return 5 * (n - 1) + 12


def toffoli_step_swap_depth(n: int) -> int:
    return 2 * (n - 1) + 5


def ctrl_add_swaps(n: int) -> int:
    return 6 * (n - 1) + 16


def ctrl_add_swap_depth(n: int) -> int:
    return 4 * (n - 1) + 10


def reset_swaps(n: int) -> int:
    return 4 * (n - 1) + 9


RESET_SWAP_DEPTH = 5


def step_budgets(n: int, optimize_toffoli_depth: bool = False) -> list[tuple[str, int, int]]:
    """``(name, swapC, swapD)`` of every step of the n-bit multiplier, in the
    order :func:`full_multiplier_schedule` emits them. Each emitter asserts
    that its step meets its row exactly."""
    # the depth-optimised Toffoli step has two tail SWAP moments instead of five
    toffoli_depth = 2 * (n - 1) + 2 if optimize_toffoli_depth else toffoli_step_swap_depth(n)
    rows = [("toffoli step", toffoli_step_swaps(n), toffoli_depth)]
    for j in range(1, n):
        rows.append((f"ctrl-add {j}", ctrl_add_swaps(n), ctrl_add_swap_depth(n)))
        if j <= n - 2:
            rows.append((f"reset {j}", reset_swaps(n), RESET_SWAP_DEPTH))
    return rows


def total_swaps(n: int) -> int:
    return 10 * n * n + 6 * n - 13


def total_swap_depth(n: int) -> int:
    # component sum of the per-step depths
    return 4 * n * n + 9 * n - 13


class ScheduleError(Exception):
    """The emitter or validator found an inconsistent schedule."""


class _Board:
    """Occupancy-tracked emitter: every SWAP is adjacency- and budget-checked."""

    def __init__(self, layout: Layout, mapping: dict[Hashable, Site]):
        self.layout = layout
        self.occ = Occupancy(mapping)
        self.live_anc: set[Hashable] = set()
        self.queue_of: dict[Site, str] = {
            s: name for name, chain in layout.queues.items() for s in chain
        }
        self.sched = Schedule()
        self._moment: list[Gate] | None = None
        self._touched: set[Site] = set()
        self._moment_counts = False
        self.counted = 0
        self.swap_moments = 0
        self.spacer_debt = 0
        self.spacer_pairs = self._spacer_pairs(layout.lattice.dz)  # candidates, tower top first

    # -- moment plumbing ---------------------------------------------------

    def begin(self) -> None:
        assert self._moment is None, "moment already open"
        self._moment = []
        self._touched = set()
        self._moment_counts = False

    def end(self) -> None:
        assert self._moment is not None
        if self._moment:
            self.sched.extend_moment(self._moment)
            if self._moment_counts:
                self.swap_moments += 1
        self._moment = None

    def _claim(self, *sites: Site) -> None:
        for s in sites:
            if s in self._touched:
                raise ScheduleError(f"site {tuple(s)} used twice in one moment")
            self._touched.add(s)

    def site_label(self, site: Site) -> Hashable:
        if site not in self.occ.label_at:
            raise ScheduleError(f"site {tuple(site)} is outside the used region")
        return self.occ.label_at[site]

    def position(self, label: Hashable) -> Site:
        if label not in self.occ.wire_of:
            raise ScheduleError(f"label {label!r} not on the board")
        return self.occ.wire_of[label]

    # -- gates ---------------------------------------------------------------

    def swap(self, a: Site, b: Site, storage: bool = False) -> None:
        if a.manhattan(b) != 1:
            raise ScheduleError(f"SWAP {tuple(a)}<->{tuple(b)} is not nearest-neighbour")
        for s in (a, b):
            self.site_label(s)
        qa, qb = self.queue_of.get(a), self.queue_of.get(b)
        if qa is not None and qa == qb:
            storage = True
        self._claim(a, b)
        tags = frozenset(("storage",)) if storage else frozenset()
        self._moment.append(Gate(K.SWAP, (a, b), tags=tags))
        self.occ.swap(a, b)
        if not storage:
            self.counted += 1
            self._moment_counts = True

    def toffoli(self, c1: Site, c2: Site, target: Site) -> None:
        for s in (c1, c2, target):
            self.site_label(s)
        self._claim(c1, c2, target)
        self._moment.append(Gate(K.TOFFOLI, (c1, c2, target)))

    # -- spacer swaps --------------------------------------------------------

    def _dead_anc(self, site: Site) -> bool:
        label = self.occ.label_at.get(site)
        return (
            isinstance(label, str)
            and label.startswith("anc")
            and label not in self.live_anc
        )

    @staticmethod
    def _spacer_pairs(h: int) -> list[tuple[Site, Site]]:
        pairs = []
        for z in range(h - 1, -1, -1):
            pairs += [(S(z), L(z)), (N(z), L(z)), (L(z), YELLOW(z)), (N(z), MAGENTA(z))]
            if z + 1 < h:
                pairs += [(L(z), L(z + 1)), (S(z), S(z + 1)), (N(z), N(z + 1)), (E(z), E(z + 1))]
        return pairs

    def spacers(self, want: int) -> None:
        """Emit idle-ancilla exchanges into the open moment, carrying any
        shortfall as debt for later moments of the same step."""
        want += self.spacer_debt
        placed = 0
        for a, b in self.spacer_pairs:
            if placed == want:
                break
            if a in self._touched or b in self._touched:
                continue
            if a not in self.occ.label_at or b not in self.occ.label_at:
                continue
            qa, qb = self.queue_of.get(a), self.queue_of.get(b)
            if qa is not None and qa == qb:
                continue
            if not (self._dead_anc(a) and self._dead_anc(b)):
                continue
            self.swap(a, b)
            placed += 1
        self.spacer_debt = want - placed

    # -- storage bubbling ----------------------------------------------------

    def bubble_to(self, label: Hashable, target: Site) -> None:
        """Walk a label along its queue chain with storage SWAPs."""
        src = self.position(label)
        if src == target:
            return
        qname = self.queue_of.get(src)
        if qname is None or self.queue_of.get(target) != qname:
            raise ScheduleError(f"bubble of {label!r} must stay inside one queue")
        chain = self.layout.queues[qname]
        i, j = chain.index(src), chain.index(target)
        step = 1 if j > i else -1
        for k in range(i, j, step):
            self.begin()
            self.swap(chain[k], chain[k + step], storage=True)
            self.end()

    def bubble_hole_to(self, qname: str, target: Site) -> None:
        """Bring some idle ancilla of the queue to the target slot."""
        chain = self.layout.queues[qname]
        if self._dead_anc(target):
            return
        holes = [s for s in chain if self._dead_anc(s)]
        if not holes:
            raise ScheduleError(f"queue {qname} has no free slot")
        ti = chain.index(target)
        holes.sort(key=lambda s: abs(chain.index(s) - ti))
        self.bubble_to(self.occ.label_at[holes[0]], target)

    def finish(self, swap_budget: int, depth_budget: int) -> Schedule:
        if self.spacer_debt:
            raise ScheduleError(f"unplaced spacer swaps: {self.spacer_debt}")
        if self.counted != swap_budget:
            raise ScheduleError(f"emitted {self.counted} counted SWAPs, budget {swap_budget}")
        if self.swap_moments != depth_budget:
            raise ScheduleError(f"emitted {self.swap_moments} SWAP moments, budget {depth_budget}")
        return self.sched


def _shift_target(p: int) -> Site:
    f = fourth(p)
    return Site(f.x, f.y, p + 2)


def toffoli_step(
    layout: Layout,
    mapping: dict[Hashable, Site],
    spec: RegisterSpec | None = None,
    optimize_depth: bool = False,
) -> tuple[Schedule, dict[Hashable, Site]]:
    """First multiplier phase: one Toffoli per cube under the shared control.

    The control climbs one rung per cube; each fired partial product shifts
    onto its window seat. The tail retires the lowest product bit, parks the
    spent control in yellow, and pulls the next control onto the ladder top
    slot implicitly (the following step fetches it from yellow).
    """
    n = len(layout.placements)
    if optimize_depth and n < 3:
        raise ValueError(
            f"the depth-optimised Toffoli step needs n >= 3 (its padding SWAPs "
            f"do not fit on a shorter tower), got n={n}"
        )
    board = _Board(layout, mapping)

    # under the depth optimisation the tail keeps only its serial control
    # hops, so the tail padding spreads over the per-cube moments instead
    slots = 2 * (n - 1) + 2
    extra = [0] * slots
    if optimize_depth:
        for i in range(9):
            extra[i % slots] += 1

    for p in range(n - 1):
        board.begin()
        board.toffoli(L(p), E(p), fourth(p))
        board.end()
        board.begin()
        board.swap(L(p), L(p + 1))
        board.spacers(2 + extra[2 * p])
        board.end()
        board.begin()
        board.swap(fourth(p), _shift_target(p))
        board.spacers(1 + extra[2 * p + 1])
        board.end()

    board.begin()
    board.toffoli(L(n - 1), E(n - 1), fourth(n - 1))
    board.end()

    aux_head = Site(col_other(n).x, col_other(n).y, n + 1)
    tail: list[list[tuple[Site, Site]]] = [
        [(fourth(n - 1), aux_head)],
        [(L(n - 1), L(n))],
        [(L(n), YELLOW(n))],
        [],
        [],
    ]
    if optimize_depth:
        # the tail shrinks to the two serial control hops; padding rides along
        board.begin()
        board.swap(*tail[0][0])
        board.swap(*tail[1][0])
        board.spacers(extra[-2])
        board.end()
        board.begin()
        board.swap(*tail[2][0])
        board.spacers(extra[-1])
        board.end()
    else:
        for moves, extra in zip(tail, [1, 1, 1, 3, 3]):
            board.begin()
            for a, b in moves:
                board.swap(a, b)
            board.spacers(extra)
            board.end()

    _, budget, depth_budget = step_budgets(n, optimize_depth)[0]
    return board.finish(budget, depth_budget), board.occ.mapping()


def ctrl_add_step(
    layout: Layout,
    mapping: dict[Hashable, Site],
    j: int,
    spec: RegisterSpec | None = None,
) -> tuple[Schedule, dict[Hashable, Site]]:
    """The j-th controlled addition: add A into the window under control B_j.

    Carry compute wave runs down the tower (one carry hop per cube), the
    carry-out is written at the bottom after a slot dance that feeds the next
    zero ancilla in as the newest product bit, and the sum wave climbs back
    up with the control, retiring it into yellow at the top.
    """
    n = len(layout.placements)
    spec = spec or RegisterSpec.for_width(n)
    if not 1 <= j <= n - 1:
        raise ValueError(f"controlled-add index must be in 1..{n - 1}, got {j}")
    board = _Board(layout, mapping)

    # storage staging: next control to the ladder-side slot, incoming zero to
    # the magenta head (free slots are staged after the control leaves yellow)
    board.bubble_to(spec.b[j], YELLOW(1))
    board.bubble_to(spec.p[j + n], MAGENTA(0))

    def k_block(p: int, i: int) -> None:
        board.begin()
        board.toffoli(E(p), seat(i, n), L(p))
        board.end()
        if i >= 1:
            board.begin()
            board.toffoli(fourth(p), seat(i, n), L(p))
            board.end()
            board.begin()
            board.toffoli(fourth(p), E(p), L(p))
            board.end()

    # carry wave down the tower
    for p in range(n - 1, -1, -1):
        i = n - 1 - p
        k_block(p, i)
        board.live_anc.add(board.site_label(L(p)))
        if p >= 1:
            board.begin()
            board.swap(L(p), fourth(p - 1))
            board.spacers(1)
            board.end()

    # bottom dance: entry, carry-out, restore
    board.begin()
    board.swap(YELLOW(1), L(1))          # control onto the ladder
    board.swap(E(0), S(0))               # A aside
    board.swap(MAGENTA(0), N(0))         # feed the incoming zero
    board.spacers(1)
    board.end()
    board.begin()
    board.swap(L(1), S(1))               # control in, lowest window bit out
    board.swap(N(0), E(0))               # incoming zero onto the data corner
    board.spacers(1)
    board.end()
    board.begin()
    board.toffoli(S(1), L(0), E(0))      # carry-out write
    board.end()
    board.begin()
    board.swap(E(0), N(0))               # carry receiver parks on the seat slot
    board.spacers(1)
    board.end()
    board.begin()
    board.swap(S(0), E(0))               # A back home
    board.end()
    board.begin()
    board.swap(S(1), S(0))               # control aside
    board.end()
    board.begin()
    board.swap(L(1), S(1))               # lowest window bit back
    board.end()

    def k_unblock(p: int, i: int) -> None:
        board.begin()
        board.toffoli(E(p), seat(i, n), L(p))
        board.end()
        if i >= 1:
            board.begin()
            board.toffoli(fourth(p), seat(i, n), L(p))
            board.end()
            board.begin()
            board.toffoli(fourth(p), E(p), L(p))
            board.end()
        board.live_anc.discard(board.site_label(L(p)))

    def sums(p: int, i: int) -> None:
        board.begin()
        board.toffoli(L(p), E(p), seat(i, n))
        board.end()
        if i >= 1:
            board.begin()
            board.toffoli(L(p), fourth(p), seat(i, n))
            board.end()

    k_unblock(0, n - 1)
    board.begin()
    board.swap(S(0), L(0))               # control takes the freed rung
    board.end()
    sums(0, n - 1)

    # sum wave back up
    for p in range(1, n):
        i = n - 1 - p
        board.begin()
        board.swap(fourth(p - 1), L(p))  # parked carry back to its rung
        board.spacers(1)
        board.end()
        k_unblock(p, i)
        board.begin()
        board.swap(L(p - 1), L(p))       # control climbs
        board.end()
        sums(p, i)
        board.begin()
        board.spacers(1)
        board.end()

    # retire the control and pop the finished product bit
    board.bubble_hole_to("yellow", YELLOW(n))
    head = col(n)
    board.bubble_hole_to("grey_out", Site(head.x, head.y, n + 1))
    s0 = seat(0, n)
    board.begin()
    board.swap(L(n - 1), L(n))
    board.swap(s0, Site(s0.x, s0.y, n + 1), storage=True)
    board.end()
    board.begin()
    board.swap(L(n), YELLOW(n))
    board.end()
    board.begin()
    board.spacers(1)
    board.end()

    return board.finish(ctrl_add_swaps(n), ctrl_add_swap_depth(n)), board.occ.mapping()


def reset_step(
    layout: Layout,
    mapping: dict[Hashable, Site],
    j: int,
    spec: RegisterSpec | None = None,
) -> tuple[Schedule, dict[Hashable, Site]]:
    """Shift the window one rung up in five rounds of parallel SWAPs.

    Bits on even rungs ride the ladder first; their landing exchange boards
    the odd-rung bits, which land in the last two rounds. The depth is five
    regardless of n.
    """
    n = len(layout.placements)
    if not 1 <= j <= n - 1:
        raise ValueError(f"reset index must be in 1..{n - 1}, got {j}")
    board = _Board(layout, mapping)

    evens = [z for z in range(n) if z % 2 == 0]
    odds = [z for z in range(n) if z % 2 == 1]
    total = reset_swaps(n)
    real = 3 * len(evens) + 2 * len(odds)
    pad = total - real
    share = [pad // 5 + (1 if r < pad % 5 else 0) for r in range(5)]

    board.begin()
    for z in evens:
        board.swap(col(z), L(z))
    board.spacers(share[0])
    board.end()
    board.begin()
    for z in evens:
        board.swap(L(z), L(z + 1))
    board.spacers(share[1])
    board.end()
    board.begin()
    for z in evens:
        board.swap(L(z + 1), col(z + 1))
    board.spacers(share[2])
    board.end()
    board.begin()
    for z in odds:
        board.swap(L(z), L(z + 1))
    board.spacers(share[3])
    board.end()
    board.begin()
    for z in odds:
        board.swap(L(z + 1), col(z + 1))
    board.spacers(share[4])
    board.end()

    return board.finish(total, RESET_SWAP_DEPTH), board.occ.mapping()


def full_multiplier_schedule(
    n: int,
    optimize_toffoli_depth: bool = False,
) -> tuple[Schedule, dict[Hashable, Site]]:
    """Compose Toffoli step, n-1 controlled adds and the interleaved resets.

    Returns the complete schedule and the final logical-to-site mapping.
    """
    layout = build_multiplier_layout(n)
    spec = RegisterSpec.for_width(n)
    mapping = initial_mapping(layout, spec)
    total = Schedule()

    def absorb(sched: Schedule) -> None:
        for m in sched.moments:
            total.extend_moment(m)

    step, mapping = toffoli_step(layout, mapping, spec, optimize_depth=optimize_toffoli_depth)
    absorb(step)
    for j in range(1, n):
        step, mapping = ctrl_add_step(layout, mapping, j, spec)
        absorb(step)
        if j <= n - 2:
            step, mapping = reset_step(layout, mapping, j, spec)
            absorb(step)
    return total, mapping


@dataclass
class ValidationReport:
    violations: list[str] = field(default_factory=list)
    final_mapping: dict[Hashable, Site] = field(default_factory=dict)
    moments: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_schedule(
    layout: Layout,
    mapping0: dict[Hashable, Site],
    schedule: Schedule,
    toffoli_rule: str = "tile",
) -> ValidationReport:
    """Replay the schedule checking connectivity and disjoint supports.

    Two-qubit gates must join nearest-neighbour sites. Toffoli gates must sit
    on a cube's data corners (``tile`` rule) or form a connected chain
    (``chain`` rule, used for the routed baseline). The report carries every
    violation and the final logical-to-site mapping.
    """
    if toffoli_rule not in ("tile", "chain"):
        raise ValueError(f"unknown toffoli rule {toffoli_rule!r}")
    corner_sets = [data_corners(p) for p in range(len(layout.placements))]
    occ = Occupancy(mapping0)
    report = ValidationReport()
    report.moments = len(schedule.moments)

    for mi, moment in enumerate(schedule.moments):
        touched: set[Site] = set()
        for g in moment:
            sites = [q for q in g.operands if isinstance(q, Site)]
            if len(sites) != len(g.operands):
                report.violations.append(f"moment {mi}: non-site operand in {g.kind.value}")
                continue
            for s in sites:
                if s not in layout.lattice:
                    report.violations.append(f"moment {mi}: {tuple(s)} outside lattice")
            overlap = touched.intersection(sites)
            if overlap:
                report.violations.append(f"moment {mi}: overlapping support at {sorted(map(tuple, overlap))}")
            touched.update(sites)
            if len(sites) == 2:
                if sites[0].manhattan(sites[1]) != 1:
                    report.violations.append(
                        f"moment {mi}: {g.kind.value} between non-adjacent {tuple(sites[0])},{tuple(sites[1])}"
                    )
            elif len(sites) == 3:
                sset = frozenset(sites)
                if toffoli_rule == "tile":
                    if not any(sset <= cs for cs in corner_sets):
                        report.violations.append(
                            f"moment {mi}: toffoli {sorted(map(tuple, sites))} not on a cell"
                        )
                else:
                    dists = sorted(
                        sites[a].manhattan(sites[b])
                        for a in range(3) for b in range(a + 1, 3)
                    )
                    if dists[:2] != [1, 1]:
                        report.violations.append(
                            f"moment {mi}: toffoli {sorted(map(tuple, sites))} not chain-adjacent"
                        )
            if g.kind is K.SWAP:
                occ.swap(*g.operands)
    report.final_mapping = occ.mapping()
    return report


def timeline_rows(schedule: Schedule) -> list[dict]:
    """Machine-readable red-bar data: one row per moment containing SWAPs."""
    rows = []
    for mi, moment in enumerate(schedule.moments):
        swaps = [g for g in moment if g.kind is K.SWAP]
        if not swaps:
            continue
        rows.append(
            {
                "moment": mi,
                "swaps": [
                    [list(g.operands[0]), list(g.operands[1])]
                    for g in swaps if not g.is_storage()
                ],
                "storage": [
                    [list(g.operands[0]), list(g.operands[1])]
                    for g in swaps if g.is_storage()
                ],
            }
        )
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
