"""Verification oracles: classical reversible replay and dense statevector simulation.

Both oracles apply gates by family. X, CNOT and Toffoli are one flip rule:
flip the last operand where every other operand is 1. T, Tdag, S, Sdag, CZ
and CCZ are one phase rule: multiply the amplitudes where every operand is 1
by the kind's phase in :data:`_PHASES`. H and SWAP have their own lines.

The classical oracle is bit-sliced: bit k of each value is lane k, so one
replay runs ``lanes`` inputs, and ``lanes=1`` is the scalar oracle. Its flip
rule ANDs the controls into a mask of every lane, so X flips every lane.

The statevector oracle holds one state for the whole run. Measurements are
deferred: each one owns a record axis after the wire axes, and a Z
measurement SWAPs its wire's content onto that axis, which leaves the wire in
|0>. An X-basis measurement is H on the wire first, so outcome 0 is |+>.
``CC_CZ`` is a CCZ whose third control is its record's axis. The state splits
into outcome branches once, at the end, and :data:`MAX_WIRES` caps the axes:
wires plus records.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from typing import Hashable, Mapping

import numpy as np

from celltiler.circuit import Gate, GateKind, Occupancy, Schedule

MAX_WIRES = 14
_NORM_TOL = 1e-9
_FLIPS = frozenset((GateKind.X, GateKind.CNOT, GateKind.TOFFOLI))
_MEASURES = frozenset((GateKind.MEASURE_X, GateKind.MEASURE_Z))


class UnsupportedGateError(Exception):
    """The classical oracle met a non-classical gate."""


class CapacityError(Exception):
    """The statevector oracle was asked for more wires and records than it supports."""


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
    carries its own name as its label. Labels move on SWAPs through
    :class:`~celltiler.circuit.Occupancy`, taking their values along, so the
    result is keyed by label and read off wherever each label ended up, not
    by wire. This agrees with :func:`statevector_run` once each label is
    mapped to its final wire.
    """
    if lanes < 1:
        raise ValueError(f"need at least one lane, got {lanes}")
    every_lane = (1 << lanes) - 1
    occ = Occupancy(mapping0 if mapping0 else {label: label for label in inputs})
    value: dict[Hashable, int] = {wire: 0 for wire in occ.label_at}
    for label, bits in inputs.items():
        if not 0 <= bits <= every_lane:
            raise ValueError(f"input {label!r}={bits} does not fit in {lanes} lane(s)")
        value[occ.wire_of[label]] = int(bits)

    for g in schedule.gates():
        for q in g.operands:
            if q not in value:
                value[q] = 0
                occ.place(q, q)
        if g.kind is GateKind.SWAP:
            a, b = g.operands
            value[a], value[b] = value[b], value[a]
            occ.swap(a, b)
        elif g.kind in _FLIPS:
            *controls, t = g.operands
            flip = every_lane
            for c in controls:
                flip &= value[c]
            value[t] ^= flip
        else:
            raise UnsupportedGateError(f"classical oracle cannot run {g.kind.value}")

    return {label: value[wire] for wire, label in occ.label_at.items()}


@dataclass
class Branch:
    """One measurement branch: probability, record bits, and the state."""

    probability: float
    records: tuple[int, ...]
    state: np.ndarray


_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_PHASES = {
    GateKind.T: cmath.exp(1j * math.pi / 4),
    GateKind.TDAG: cmath.exp(-1j * math.pi / 4),
    GateKind.S: 1j,
    GateKind.SDAG: -1j,
    GateKind.CZ: -1,
    GateKind.CCZ: -1,
}


def _slice_at(n: int, axes) -> tuple:
    """Index of the slice where every axis in ``axes`` holds 1."""
    idx: list = [slice(None)] * n
    for axis in axes:
        idx[axis] = 1
    return tuple(idx)


def _hadamard(psi: np.ndarray, t: int) -> np.ndarray:
    return np.moveaxis(np.tensordot(_H, psi, axes=([1], [t])), 0, t)


def _apply_gate(psi: np.ndarray, g: Gate, ax: dict[Hashable, int]) -> np.ndarray:
    kind = g.kind
    axes = [ax[q] for q in g.operands]
    if kind in _FLIPS:
        *controls, t = axes
        sl = _slice_at(psi.ndim, controls)
        out = psi.copy()
        # slicing drops the control axes, so the target axis moves down by
        # one for each control below it
        out[sl] = np.flip(psi[sl], axis=t - sum(c < t for c in controls))
        return out
    if kind in _PHASES:
        out = psi.copy()
        out[_slice_at(psi.ndim, axes)] *= _PHASES[kind]
        return out
    if kind is GateKind.H:
        return _hadamard(psi, axes[0])
    if kind is GateKind.SWAP:
        return np.swapaxes(psi, *axes)
    raise ValueError(f"statevector oracle cannot run {kind.value}")


def statevector_run(
    schedule: Schedule,
    initial: Mapping[Hashable, int] | None = None,
    wires: list[Hashable] | None = None,
) -> list[Branch]:
    """Dense simulation of one state; it splits into outcome branches at the end.

    ``initial`` sets basis bits by wire; every other wire starts in |0>.
    The state's axes are the wires, in the order of ``wires``, then one
    record axis per measurement; ``MAX_WIRES`` caps wires plus records. A SWAP
    exchanges the contents of its two wires, so a value is read at the wire it
    ended on (see :func:`classical_run` for the label-keyed view of the same
    run). A Z measurement SWAPs its wire with a fresh record axis, which
    leaves the wire recycled to |0> so ancilla-restoration checks stay uniform;
    ``CC_CZ`` is a CCZ whose third control is its record's axis. Returns one
    normalised branch per record outcome of probability at least 1e-12, records
    in lexicographic order, each with its probability and record bits.
    """
    if wires is None:
        wires = schedule.wires()
    records = [object() for g in schedule.gates() if g.kind in _MEASURES]
    if len(wires) + len(records) > MAX_WIRES:
        raise CapacityError(f"{len(wires)} wires and {len(records)} records exceed the {MAX_WIRES}-axis cap")
    ax = {w: i for i, w in enumerate([*wires, *records])}
    psi = np.zeros((2,) * len(ax), dtype=complex)
    idx = [0] * len(ax)
    for w, bit in (initial or {}).items():
        idx[ax[w]] = int(bit)
    psi[tuple(idx)] = 1.0

    measured = 0
    for moment in schedule.moments:
        for g in moment:
            if g.kind in _MEASURES:
                if g.kind is GateKind.MEASURE_X:
                    psi = _hadamard(psi, ax[g.operands[0]])
                g = Gate(GateKind.SWAP, (g.operands[0], records[measured]))
                measured += 1
            elif g.kind is GateKind.CC_CZ:
                if g.condition is None:
                    raise ValueError("classically controlled CZ without a record index")
                if g.condition >= measured:
                    raise ValueError("classically controlled CZ references a future record")
                g = Gate(GateKind.CCZ, (*g.operands, records[g.condition]))
            psi = _apply_gate(psi, g, ax)
        norm = float(np.sum(np.abs(psi) ** 2))
        if abs(norm - 1.0) > _NORM_TOL:
            raise AssertionError(f"norm drifted to {norm}")

    branches = []
    for bits in itertools.product((0, 1), repeat=len(records)):
        sub = psi[(..., *bits)]
        prob = float(np.sum(np.abs(sub) ** 2))
        if prob >= 1e-12:
            branches.append(Branch(prob, bits, sub / math.sqrt(prob)))
    total = sum(br.probability for br in branches)
    if abs(total - 1.0) > _NORM_TOL:
        raise AssertionError(f"branch probabilities sum to {total}")
    return branches


@dataclass
class EquivReport:
    ok: bool
    max_deviation: float
    detail: str = ""


_REFERENCES = ("toffoli", "ccz", "cs", "and")


def _expected(reference: str, bits: tuple[int, ...]) -> tuple[tuple[int, ...], complex]:
    if reference == "toffoli":
        a, b, t = bits
        return (a, b, t ^ (a & b)), 1.0
    if reference == "ccz":
        a, b, c = bits
        return bits, (-1.0) ** (a & b & c)
    if reference == "cs":
        a, b = bits
        return bits, 1j ** (a & b)
    if reference == "and":
        a, b, _ = bits
        return (a, b, a & b), 1.0
    raise ValueError(f"unknown reference {reference!r} (expected one of {_REFERENCES})")


def assert_equiv(
    schedule: Schedule,
    reference: str,
    data_wires: tuple[Hashable, ...],
    tol: float = 1e-10,
) -> EquivReport:
    """Check the schedule acts as the named gate on the data wires, in one run.

    Two prepended moments, H on each reference wire and then a CNOT from it
    onto its data wire, entangle every swept data wire with a private
    reference wire, so one run carries every data basis input with all
    ancillae |0>. The ``and`` output wire is not swept: it starts in |0>.
    Each measurement branch must equal (reference on data) x |0...0>, with the
    reference wires holding the inputs, up to one global phase of its own.
    So an AND missing its phase correction fails, and so does a circuit whose
    records depend on the data, since they decohere the superposition.
    """
    swept = data_wires[:-1] if reference == "and" else data_wires
    refs = [object() for _ in swept]
    wires = schedule.wires()
    wires += [w for w in data_wires if w not in wires] + refs
    ax = {w: i for i, w in enumerate(wires)}

    expected = np.zeros((2,) * len(wires), dtype=complex)
    for bits in itertools.product((0, 1), repeat=len(swept)):
        out_bits, ref_phase = _expected(reference, bits + (0,) * (len(data_wires) - len(swept)))
        idx = [0] * len(wires)
        for w, bit in [*zip(data_wires, out_bits), *zip(refs, bits)]:
            idx[ax[w]] = bit
        expected[tuple(idx)] = ref_phase / math.sqrt(2 ** len(swept))

    entangled = Schedule([
        [Gate(GateKind.H, (r,)) for r in refs],
        [Gate(GateKind.CNOT, (r, w)) for r, w in zip(refs, swept)],
        *schedule.moments,
    ])
    worst = 0.0
    for br in statevector_run(entangled, wires=wires):
        phase = np.exp(1j * np.angle(np.vdot(expected, br.state)))
        worst = max(worst, float(np.max(np.abs(br.state - phase * expected))))
    ok = worst <= tol
    return EquivReport(ok, worst, "" if ok else f"worst deviation {worst:.3e}")
