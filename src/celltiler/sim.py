"""Verification oracles: classical reversible replay and sparse statevector simulation.

Both oracles apply gates by family. X, CNOT and Toffoli are one flip rule:
flip the last operand where every other operand is 1. T, Tdag, S, Sdag, CZ
and CCZ are one phase rule: multiply the amplitudes where every operand is 1
by the kind's phase in :data:`_PHASES`. H and SWAP have their own lines.

The classical oracle is bit-sliced: bit k of each value is lane k, so one
replay runs ``lanes`` inputs, and ``lanes=1`` is the scalar oracle. Its flip
rule ANDs two controls, reading a slot that holds every lane in place of
each control a CNOT or X lacks, so X flips every lane. It keys its result by
label, and labels follow SWAPs. Inside, it reads and writes its values by
the integer slots of a :class:`~celltiler.circuit.Occupancy`, found once per
gate object; no slot shows in its result or its messages.

The statevector oracle holds one sparse state for the whole run, a map from
basis bitmask to amplitude as in a path sum (Amy, arXiv:1805.06908), so its
cap :data:`MAX_TERMS` counts terms, not wires. The flip rule XORs the target
bit, SWAP exchanges two bits, and H splits each term in two, pruning
amplitudes of magnitude at most 1e-14 so cancellation residues do not pile
up. Measurements are deferred: each one owns a record bit after the wire
bits, and a Z measurement SWAPs its wire's content onto that bit, which
leaves the wire in |0>. An X-basis measurement is H on the wire first, so
outcome 0 is |+>. ``CC_CZ`` is a CCZ whose third control is its record's
bit. The state splits into outcome branches once, at the end.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from typing import Hashable, Mapping

from celltiler.circuit import Gate, GateKind, Occupancy, Report, Schedule

MAX_TERMS = 1 << 14
EQUIV_TOL = 1e-10  # the largest amplitude deviation assert_equiv accepts
_NORM_TOL = 1e-9
_FLIPS = (GateKind.X, GateKind.CNOT, GateKind.TOFFOLI)  # tuples, as circuit.T_KINDS is
_SWAP = GateKind.SWAP  # read per gate object: an Enum attribute read costs about 0.1 us
_MEASURES = (GateKind.MEASURE_X, GateKind.MEASURE_Z)


def classical_run(
    schedule: Schedule,
    mapping0: Mapping[Hashable, Hashable] | None,
    inputs: Mapping[Hashable, int],
    *,
    lanes: int = 1,
) -> dict[Hashable, int]:
    """Replay a classical schedule exactly; returns final bits per logical label.

    Bit k of every value, in ``inputs`` and in the result, is lane k; the
    lanes run independently, and ``lanes=1`` is the scalar oracle (bits 0/1).

    ``mapping0`` maps logical labels to the operand keys the schedule uses
    (lattice sites for tiled schedules); with ``mapping0=None`` each label
    starts on the wire of the same name, and a wire that no label starts on
    carries its own name as its label; an input label that ``mapping0``
    does not map raises :class:`ValueError`. Labels move on SWAPs through
    :class:`~celltiler.circuit.Occupancy`, taking their values along, so the
    result is keyed by label and read off wherever each label ended up, not
    by wire. This agrees with :func:`statevector_run` once each label is
    mapped to its final wire. The values live in a list indexed by the
    ``Occupancy`` slots, which never leave this function.
    """
    if lanes < 1:
        raise ValueError(f"need at least one lane, got {lanes}")
    every_lane = (1 << lanes) - 1
    occ = Occupancy({label: label for label in inputs} if mapping0 is None else mapping0)
    label_at, wire_of, slot, swap = occ.label_at, occ.wire_of, occ.slot, occ.swap
    value = [0] * len(label_at)  # per slot
    # a slot of no wire, label or gate that holds every lane: a flip reads it
    # in place of each control it lacks, so every flip ANDs two controls
    every = slot(object())
    value.append(every_lane)
    for label, bits in inputs.items():
        if label not in wire_of:
            raise ValueError(f"input {label!r} is not a label of mapping0")
        if not 0 <= bits <= every_lane:
            raise ValueError(f"input {label!r}={bits} does not fit in {lanes} lane(s)")
        value[wire_of[label]] = int(bits)

    # each gate object's slots are found and its kind tested once, keyed by
    # id(g): the schedule keeps every gate alive for the call
    plans: dict[int, tuple] = {}
    for moment in schedule.moments:
        for g in moment:
            plan = plans.get(id(g))
            if plan is None:
                slots = [slot(q) for q in g.operands]
                if len(label_at) > len(value):  # a wire first seen here: new slots, placed in order
                    for q, s in zip(g.operands, slots):
                        if s >= len(value):
                            value.append(0)
                            occ.place(q, s)
                if g.kind is _SWAP:
                    plan = (*slots, None)
                elif g.kind in _FLIPS:
                    plan = (*[every] * (3 - len(slots)), *slots)
                else:
                    raise ValueError(f"classical oracle cannot run {g.kind.value}")
                plans[id(g)] = plan
            x, y, t = plan  # a SWAP's two slots and None, or a flip's two controls and target
            if t is None:
                value[x], value[y] = value[y], value[x]
                swap(x, y)
            else:
                value[t] ^= value[x] & value[y]

    return {label: value[s] for label, s in wire_of.items()}


@dataclass
class Branch:
    """One measurement branch: probability, record bits, and the wire state."""

    probability: float
    records: tuple[int, ...]
    state: dict[int, complex]


_SQRT_HALF = 1 / math.sqrt(2)
_PHASES = {
    GateKind.T: cmath.exp(1j * math.pi / 4),
    GateKind.TDAG: cmath.exp(-1j * math.pi / 4),
    GateKind.S: 1j,
    GateKind.SDAG: -1j,
    GateKind.CZ: -1,
    GateKind.CCZ: -1,
}


def _apply_gate(psi: dict[int, complex], g: Gate, bit: dict[Hashable, int]) -> dict[int, complex]:
    kind = g.kind
    masks = [1 << bit[q] for q in g.operands]
    if kind in _FLIPS:
        *controls, t = masks
        on = sum(controls)
        return {k ^ t if k & on == on else k: a for k, a in psi.items()}
    if kind in _PHASES:
        on, phase = sum(masks), _PHASES[kind]
        return {k: a * phase if k & on == on else a for k, a in psi.items()}
    if kind is GateKind.H:
        (t,) = masks
        out: dict[int, complex] = {}
        for k, a in psi.items():
            a *= _SQRT_HALF
            out[k & ~t] = out.get(k & ~t, 0) + a
            out[k | t] = out.get(k | t, 0) + (-a if k & t else a)
        return {k: a for k, a in out.items() if abs(a) > 1e-14}
    if kind is GateKind.SWAP:
        both = sum(masks)
        return {k ^ both if k & both in masks else k: a for k, a in psi.items()}
    raise ValueError(f"statevector oracle cannot run {kind.value}")


def statevector_run(
    schedule: Schedule,
    initial: Mapping[Hashable, int] | None = None,
    wires: list[Hashable] | None = None,
) -> list[Branch]:
    """Sparse simulation of one state; it splits into outcome branches at the end.

    The state maps basis bitmasks to amplitudes: bit i is ``wires[i]``, then
    one record bit per measurement; ``wires`` must name every schedule wire,
    each once, or :class:`ValueError` is raised. ``initial`` sets basis bits
    by wire; every other wire starts in |0>. H prunes amplitudes of magnitude
    at most 1e-14, and more than :data:`MAX_TERMS` terms raise
    :class:`ValueError`.
    A SWAP exchanges the contents of its two wires, so a value is read at the
    wire it ended on (see :func:`classical_run` for the label-keyed view of
    the same run). A Z measurement SWAPs its wire with a fresh record bit,
    which leaves the wire recycled to |0> so ancilla-restoration checks stay
    uniform; ``CC_CZ`` is a CCZ whose third control is its record's bit.
    Returns one normalised branch per record outcome of probability at least
    1e-12, records in lexicographic order, each with its probability, record
    bits and the state over the wires alone.
    """
    if wires is None:
        wires = schedule.wires()
    records = [object() for g in schedule.gates() if g.kind in _MEASURES]
    bit = {w: i for i, w in enumerate([*wires, *records])}
    if len(bit) != len(wires) + len(records):
        raise ValueError(f"wires name a wire twice: {wires}")
    if missing := [w for w in schedule.wires() if w not in bit]:
        raise ValueError(f"wires miss schedule wires: {missing}")
    if any(b not in (0, 1) for b in (initial or {}).values()):
        raise ValueError(f"initial bits must be 0 or 1, got {dict(initial or {})}")
    if unknown := [w for w in initial or {} if w not in bit]:
        raise ValueError(f"initial names wires not in the schedule: {unknown}")
    psi = {sum(b << bit[w] for w, b in (initial or {}).items()): 1 + 0j}

    measured = 0
    for moment in schedule.moments:
        for g in moment:
            if g.kind in _MEASURES:
                if g.kind is GateKind.MEASURE_X:
                    psi = _apply_gate(psi, Gate(GateKind.H, g.operands), bit)
                g = Gate(GateKind.SWAP, (g.operands[0], records[measured]))
                measured += 1
            elif g.kind is GateKind.CC_CZ:
                if g.condition >= measured:
                    raise ValueError("classically controlled CZ references a future record")
                g = Gate(GateKind.CCZ, (*g.operands, records[g.condition]))
            psi = _apply_gate(psi, g, bit)
            if len(psi) > MAX_TERMS:
                raise ValueError(f"{len(psi)} terms exceed the {MAX_TERMS}-term cap")
        norm = sum(abs(a) ** 2 for a in psi.values())
        if abs(norm - 1.0) > _NORM_TOL:
            raise AssertionError(f"norm drifted to {norm}")

    split: dict[tuple[int, ...], dict[int, complex]] = {}
    low = (1 << len(wires)) - 1
    for k, a in psi.items():
        split.setdefault(tuple(k >> bit[r] & 1 for r in records), {})[k & low] = a
    branches = []
    for outcome, sub in sorted(split.items()):
        prob = sum(abs(a) ** 2 for a in sub.values())
        if prob >= 1e-12:
            branches.append(Branch(prob, outcome, {k: a / math.sqrt(prob) for k, a in sub.items()}))
    total = sum(br.probability for br in branches)
    if abs(total - 1.0) > _NORM_TOL:
        raise AssertionError(f"branch probabilities sum to {total}")
    return branches


# name -> (data wires, map of the data input bits to (output bits, phase))
_REFERENCES = {
    "toffoli": (3, lambda a, b, t: ((a, b, t ^ (a & b)), 1.0)),
    "ccz": (3, lambda a, b, c: ((a, b, c), (-1.0) ** (a & b & c))),
    "cs": (2, lambda a, b: ((a, b), 1j ** (a & b))),
    "and": (3, lambda a, b, _t: ((a, b, a & b), 1.0)),
}


def assert_equiv(
    schedule: Schedule,
    reference: str,
    data_wires: tuple[Hashable, ...],
) -> Report:
    """Check the schedule acts as the named gate on the data wires, in one run.

    ``reference`` is a key of :data:`_REFERENCES`, which gives the number of
    distinct ``data_wires`` it acts on and its action on their basis states;
    anything else raises ValueError.
    Two prepended moments, H on each reference wire and then a CNOT from it
    onto its data wire, entangle every swept data wire with a private
    reference wire, so one run carries every data basis input with all
    ancillae |0>. The ``and`` output wire is not swept: it starts in |0>.
    Each measurement branch must equal (reference on data) x |0...0>, with the
    reference wires holding the inputs, up to one global phase of its own.
    So an AND missing its phase correction fails, and so does a circuit whose
    records depend on the data, since they decohere the superposition. A
    deviation above :data:`EQUIV_TOL` fails the report with its worst value.
    """
    if reference not in _REFERENCES:
        raise ValueError(f"unknown reference {reference!r} (expected one of {tuple(_REFERENCES)})")
    arity, expect = _REFERENCES[reference]
    if not len(data_wires) == len(set(data_wires)) == arity:
        raise ValueError(f"{reference} needs {arity} distinct data wires, got {data_wires!r}")
    swept = data_wires[:-1] if reference == "and" else data_wires
    refs = [object() for _ in swept]
    wires = schedule.wires()
    wires += [w for w in data_wires if w not in wires] + refs
    bit = {w: i for i, w in enumerate(wires)}

    expected: dict[int, complex] = {}
    for bits in itertools.product((0, 1), repeat=len(swept)):
        out_bits, ref_phase = expect(*bits, *(0,) * (len(data_wires) - len(swept)))
        key = sum(b << bit[w] for w, b in [*zip(data_wires, out_bits), *zip(refs, bits)])
        expected[key] = ref_phase / math.sqrt(2 ** len(swept))

    entangled = Schedule([
        [Gate(GateKind.H, (r,)) for r in refs],
        [Gate(GateKind.CNOT, (r, w)) for r, w in zip(refs, swept)],
        *schedule.moments,
    ])
    worst = 0.0
    for br in statevector_run(entangled, wires=wires):
        got = br.state
        phase = cmath.exp(1j * cmath.phase(sum(e.conjugate() * got.get(k, 0) for k, e in expected.items())))
        worst = max(worst, *(abs(got.get(k, 0) - phase * expected.get(k, 0)) for k in got.keys() | expected))
    return Report([] if worst <= EQUIV_TOL else [f"worst deviation {worst:.3e}"])
