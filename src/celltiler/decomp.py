"""Clifford+T decompositions: CCZ, logical ANDs, controlled-S, two Toffoli forms.

All circuits are exact (ancillae restored to |0> on every computational basis
input); the ANDs include the final S that cancels the relative phase, so the
composed measurement-based Toffoli closes without extra corrections. T/Tdag
signs follow the phase-polynomial solution checked by the statevector oracle
in the test-suite.

In :func:`and_4anc` and :func:`and_3anc` the wire t is the output, not an
ancilla: it starts at |0> and ends at a.b.
"""

from __future__ import annotations

from operator import itemgetter

from celltiler.circuit import Gate, GateKind, Schedule, gate

K = GateKind
ANCILLA_PREFIX = "_anc"  # names lower_schedule's ancilla wires and no input wire, as in lsx


def _mirrored(compute: list[list[Gate]], middle: list[list[Gate]]) -> list[list[Gate]]:
    """``compute``, ``middle``, then ``compute`` reversed (Selinger, arXiv:1210.0974):
    each compute gate (CNOT, CZ, H) is its own inverse, so the reversal uncomputes."""
    return [*compute, *middle, *compute[::-1]]


def ccz_tdepth1() -> Schedule:
    """T-depth-1 CCZ on wires a, b, c with four parity ancillae z1..z4.

    Parities a^b, a^c, b^c and a^b^c are fanned out by CNOTs, all seven
    T-kind gates fire in one moment, and the parities are uncomputed.
    """
    a, b, c, z1, z2, z3, z4 = "a", "b", "c", "z1", "z2", "z3", "z4"
    compute = [
        [gate(K.CNOT, a, z1), gate(K.CNOT, c, z2), gate(K.CNOT, b, z3)],
        [gate(K.CNOT, b, z1), gate(K.CNOT, a, z2), gate(K.CNOT, c, z3)],
        [gate(K.CNOT, a, z4)],
        [gate(K.CNOT, b, z4)],
        [gate(K.CNOT, c, z4)],
    ]
    t_moment = [
        gate(K.T, a), gate(K.T, b), gate(K.T, c),
        gate(K.TDAG, z1), gate(K.TDAG, z2), gate(K.TDAG, z3),
        gate(K.T, z4),
    ]
    return Schedule(_mirrored(compute, [t_moment]))


def and_4anc() -> Schedule:
    """Logical AND of a, b into the fresh wire t, T-count 4 and T-depth 1.

    Same skeleton as :func:`ccz_tdepth1` with the a^b ancilla and the three
    data T gates dropped and the target wire dressed with H...H,S. The final
    S cancels the (-i)^(ab) relative phase, so the AND is exact.
    """
    return Schedule(_and_4anc_moments("t"))


def _and_4anc_moments(t: str) -> list[list[Gate]]:
    """The moments of :func:`and_4anc` with its output on wire ``t``."""
    a, b, z2, z3, z4 = "a", "b", "z2", "z3", "z4"
    compute = [
        [gate(K.CNOT, a, z2), gate(K.CNOT, b, z3)],
        [gate(K.CNOT, t, z2), gate(K.CNOT, a, z4)],
        [gate(K.CNOT, t, z3), gate(K.CNOT, b, z4)],
        [gate(K.CNOT, t, z4)],
    ]
    t_moment = [gate(K.T, t), gate(K.TDAG, z2), gate(K.TDAG, z3), gate(K.T, z4)]
    return [[gate(K.H, t)], *_mirrored(compute, [t_moment]), [gate(K.H, t)], [gate(K.S, t)]]


def and_3anc() -> Schedule:
    """Logical AND with three parity ancillae: the a^b^t parity is chained
    off the b^t ancilla, saving two CNOTs over :func:`and_4anc`.

    Under the shared-control depth policy the whole circuit packs into seven
    layers; H and S ride along with neighbouring CNOTs.
    """
    a, b, t, z2, z3, z4 = "a", "b", "t", "z2", "z3", "z4"
    return Schedule([
        [gate(K.H, t), gate(K.CNOT, a, z2)],
        [gate(K.CNOT, b, z3), gate(K.CNOT, a, z4)],
        [gate(K.CNOT, t, z2)],
        [gate(K.CNOT, t, z3)],
        [gate(K.CNOT, z3, z4)],
        [gate(K.T, t), gate(K.TDAG, z2), gate(K.TDAG, z3), gate(K.T, z4)],
        [gate(K.CNOT, z3, z4), gate(K.CNOT, t, z2)],
        [gate(K.CNOT, a, z2), gate(K.CNOT, t, z3)],
        [gate(K.CNOT, a, z4), gate(K.CNOT, b, z3)],
        [gate(K.H, t)],
        [gate(K.S, t)],
    ])


def controlled_s(variant: str = "a") -> Schedule:
    """Controlled-S on q1, q2 with one parity ancilla, T-depth 1.

    Variant "a" is the depth-five form; variant "b" is the equivalent deeper
    circuit with the ancilla interactions rewritten through H-conjugated CZs.
    """
    q1, q2, x = "q1", "q2", "x"
    if variant == "a":
        compute = [[gate(K.CNOT, q1, x)], [gate(K.CNOT, q2, x)]]
    elif variant == "b":
        compute = [[gate(K.H, x)], [gate(K.CZ, q1, x)], [gate(K.CZ, q2, x)], [gate(K.H, x)]]
    else:
        raise ValueError(f"unknown controlled_s variant {variant!r}")
    return Schedule(_mirrored(compute, [[gate(K.T, q1), gate(K.T, q2), gate(K.TDAG, x)]]))


def toffoli_tdepth2() -> Schedule:
    """Exact Toffoli on a, b -> t from an AND core plus a fused controlled-S.

    The parity ancilla w is reused for the a^b parity after a single CNOT, so
    the controlled-S contributes no extra compute CNOTs; the total is 14
    CNOTs and two T moments.
    """
    a, b, t, x, y, w = "a", "b", "t", "x", "y", "w"
    return Schedule([
        [gate(K.H, t), gate(K.CNOT, a, x), gate(K.CNOT, b, y)],
        [gate(K.CNOT, t, x), gate(K.CNOT, a, w)],
        [gate(K.CNOT, t, y), gate(K.CNOT, b, w)],
        [gate(K.CNOT, t, w)],
        [gate(K.T, t), gate(K.TDAG, x), gate(K.TDAG, y), gate(K.T, w)],
        [gate(K.CNOT, t, w)],
        [gate(K.CNOT, t, x), gate(K.T, a), gate(K.T, b), gate(K.TDAG, w)],
        [gate(K.CNOT, t, y), gate(K.CNOT, a, x), gate(K.CNOT, b, w)],
        [gate(K.H, t), gate(K.CNOT, b, y), gate(K.CNOT, a, w)],
    ])


def toffoli_mb() -> Schedule:
    """Toffoli via a logical AND and measurement-based uncomputation.

    The AND is :func:`and_4anc` with its output wire renamed w. Its result is
    fanned into the true target, w is measured in the X basis, and the
    corrective CZ between the controls is applied (conditioned on the record)
    through the parity ancilla z4 sitting between them.
    """
    a, b, t, w, z4 = "a", "b", "t", "w", "z4"
    return Schedule([
        *_and_4anc_moments(w),
        [gate(K.CNOT, w, t)],
        [gate(K.MEASURE_X, w)],
        [gate(K.CNOT, a, z4)],
        [gate(K.CC_CZ, z4, b, condition=0)],
        [gate(K.CNOT, a, z4)],
    ])


def toffoli_cube_circuit() -> Schedule:
    """The cube cell's native gate sequence: CCZ conjugated by H on the target."""
    return Schedule([[gate(K.H, "c")], *ccz_tdepth1().moments, [gate(K.H, "c")]])


# --- lowering passes --------------------------------------------------------

def _shared_template(moments: list[list[Gate]]) -> tuple[list[tuple], list[list[int]]]:
    """A template's distinct gates as rows ``(kind, operands, condition,
    tags)``, and each moment as indices into them. ``operands`` reads a
    gate's operand tuple off the names of the roles a, b, t, x, y, w. Each
    row comes from a :class:`Gate` that passed its arity and distinct-operand
    checks, so a row's roles are distinct."""
    roles = {r: i for i, r in enumerate("abtxyw")}
    distinct = list(dict.fromkeys(g for m in moments for g in m))
    index = {g: i for i, g in enumerate(distinct)}
    rows = []
    for g in distinct:
        i, *rest = (roles[q] for q in g.operands)
        # an itemgetter of one index returns the name, not a 1-tuple: slice it
        rows.append((g.kind, itemgetter(i, *rest) if rest else itemgetter(slice(i, i + 1)), g.condition, g.tags))
    return rows, [[index[g] for g in m] for m in moments]


# the lowering templates, built once; a CCZ's is the Toffoli's without H(t), its only H
_TOFFOLI = toffoli_tdepth2().moments
_TOFFOLI_TEMPLATE = _shared_template(_TOFFOLI)
_CCZ_TEMPLATE = _shared_template([[h for h in m if h.kind is not K.H] for m in _TOFFOLI])


def lower_schedule(schedule: Schedule) -> Schedule:
    """Expand Toffoli/CCZ gates to Clifford+T and SWAPs to three CNOTs.

    Toffoli operands keep their labels; each expansion draws fresh ancilla
    wires from a shared pool so supports in one moment never collide. A CCZ
    is the Toffoli conjugated by H on its target, so its template is the
    Toffoli template without the two ``H(t)`` gates. Each SWAP gate object
    is expanded once, and a gate repeated within or across expansions (a
    template's compute and uncompute CNOTs, a SWAP's first and third CNOT,
    the CNOTs of a recurring SWAP) is one shared immutable :class:`Gate`.

    An input wire named like an ancilla (a ``str`` starting with
    :data:`ANCILLA_PREFIX`) is refused once, so a lowered schedule is never
    lowered again (no command does that). Each expansion's six names (a, b,
    t, three fresh ancillae) are then distinct, as a template row's roles are
    (:func:`_shared_template`), and every gate is built as a bare record.
    A wire shared by two gates of a moment is refused by ``extend_moment``.
    """
    for q in schedule.wires():
        if isinstance(q, str) and q.startswith(ANCILLA_PREFIX):
            raise ValueError(f"wire {q!r} takes the reserved ancilla prefix {ANCILLA_PREFIX!r}")
    TOFFOLI, CCZ, SWAP, CNOT = K.TOFFOLI, K.CCZ, K.SWAP, K.CNOT  # kinds compared by identity
    triples: dict[int, list[list[Gate]]] = {}  # id of a SWAP gate -> its CNOT moments
    out = Schedule()
    pool = 0
    for moment in schedule.moments:
        pending: list[list[list[Gate]]] = []
        simple: list[Gate] = []
        for g in moment:
            kind = g.kind
            if kind is TOFFOLI or kind is CCZ:
                rows, moments = _TOFFOLI_TEMPLATE if kind is TOFFOLI else _CCZ_TEMPLATE
                names = (*g.operands, f"{ANCILLA_PREFIX}{pool}", f"{ANCILLA_PREFIX}{pool + 1}",
                         f"{ANCILLA_PREFIX}{pool + 2}")
                pool += 3
                built = [tuple.__new__(Gate, (k, ops(names), cond, tags)) for k, ops, cond, tags in rows]
                pending.append([[built[i] for i in m] for m in moments])
            elif kind is SWAP:
                if id(g) not in triples:
                    a, b = g.operands
                    ab = Gate(CNOT, (a, b), tags=g.tags)
                    triples[id(g)] = [[ab], [Gate(CNOT, (b, a), tags=g.tags)], [ab]]
                pending.append(triples[id(g)])
            else:
                simple.append(g)
        if simple:
            out.extend_moment(simple)
        # one expansion (every Toffoli moment) as it is, several side by side
        layers = pending[0] if len(pending) == 1 else [
            [h for p in pending if i < len(p) for h in p[i]] for i in range(max(map(len, pending), default=0))]
        for m in layers:
            out.extend_moment(m)
    return out
