"""Verification oracles: classical reversible replay and dense statevector simulation."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Hashable, Mapping

import numpy as np

from celltiler.circuit import Gate, GateKind, Occupancy, Schedule

MAX_WIRES = 14
_NORM_TOL = 1e-9


class UnsupportedGateError(Exception):
    """The classical oracle met a non-classical gate."""


class CapacityError(Exception):
    """The statevector oracle was asked for more wires than it supports."""


def classical_run(
    schedule: Schedule,
    mapping0: Mapping[Hashable, Hashable] | None,
    inputs: Mapping[Hashable, int],
) -> dict[Hashable, int]:
    """Replay a classical schedule exactly; returns final bits per logical label.

    ``mapping0`` maps logical labels to the operand keys the schedule uses
    (lattice sites for tiled schedules); with ``mapping0=None`` each label
    starts on the wire of the same name, and a wire that no label starts on
    carries its own name as its label. Labels move on SWAPs through
    :class:`~celltiler.circuit.Occupancy`, taking their values along, so the
    result is keyed by label and read off wherever each label ended up, not
    by wire. This agrees with :func:`statevector_run` once each label is
    mapped to its final wire.
    """
    occ = Occupancy(mapping0 if mapping0 else {label: label for label in inputs})
    value: dict[Hashable, int] = {wire: 0 for wire in occ.label_at}
    for label, bit in inputs.items():
        value[occ.wire_of[label]] = int(bit)

    for g in schedule.gates():
        for q in g.operands:
            if q not in value:
                value[q] = 0
                occ.place(q, q)
        if g.kind is GateKind.X:
            (t,) = g.operands
            value[t] ^= 1
        elif g.kind is GateKind.CNOT:
            c, t = g.operands
            value[t] ^= value[c]
        elif g.kind is GateKind.TOFFOLI:
            c1, c2, t = g.operands
            value[t] ^= value[c1] & value[c2]
        elif g.kind is GateKind.SWAP:
            a, b = g.operands
            value[a], value[b] = value[b], value[a]
            occ.swap(a, b)
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
}


def _slice_at(n: int, assignments: dict[int, int]) -> tuple:
    idx: list = [slice(None)] * n
    for axis, v in assignments.items():
        idx[axis] = v
    return tuple(idx)


def _eff_axis(axis: int, dropped: list[int]) -> int:
    return axis - sum(1 for d in dropped if d < axis)


def _apply_gate(psi: np.ndarray, g: Gate, ax: dict[Hashable, int]) -> np.ndarray:
    n = psi.ndim
    kind = g.kind
    if kind is GateKind.H:
        t = ax[g.operands[0]]
        return np.moveaxis(np.tensordot(_H, psi, axes=([1], [t])), 0, t)
    if kind in _PHASES:
        t = ax[g.operands[0]]
        psi = psi.copy()
        psi[_slice_at(n, {t: 1})] *= _PHASES[kind]
        return psi
    if kind is GateKind.X:
        t = ax[g.operands[0]]
        return np.flip(psi, axis=t)
    if kind is GateKind.SWAP:
        a, b = (ax[q] for q in g.operands)
        return np.swapaxes(psi, a, b)
    if kind is GateKind.CNOT:
        c, t = (ax[q] for q in g.operands)
        psi = psi.copy()
        sl = _slice_at(n, {c: 1})
        psi[sl] = np.flip(psi[sl], axis=_eff_axis(t, [c]))
        return psi
    if kind in (GateKind.CZ, GateKind.CC_CZ):
        a, b = (ax[q] for q in g.operands)
        psi = psi.copy()
        psi[_slice_at(n, {a: 1, b: 1})] *= -1
        return psi
    if kind is GateKind.TOFFOLI:
        c1, c2, t = (ax[q] for q in g.operands)
        psi = psi.copy()
        sl = _slice_at(n, {c1: 1, c2: 1})
        psi[sl] = np.flip(psi[sl], axis=_eff_axis(t, [c1, c2]))
        return psi
    if kind is GateKind.CCZ:
        a, b, c = (ax[q] for q in g.operands)
        psi = psi.copy()
        psi[_slice_at(n, {a: 1, b: 1, c: 1})] *= -1
        return psi
    raise ValueError(f"statevector oracle cannot run {kind.value}")


def _measure(psi: np.ndarray, axis: int, x_basis: bool) -> list[tuple[float, int, np.ndarray]]:
    """Project one wire, recycle it to |0>, and return (prob, outcome, state)."""
    n = psi.ndim
    outcomes = []
    if x_basis:
        flipped = np.flip(psi, axis=axis)
        for outcome, sign in ((0, 1), (1, -1)):
            proj = (psi + sign * flipped) / 2
            prob = float(np.sum(np.abs(proj) ** 2))
            if prob < 1e-12:
                continue
            post = np.zeros_like(psi)
            post[_slice_at(n, {axis: 0})] = proj[_slice_at(n, {axis: 0})] * math.sqrt(2)
            outcomes.append((prob, outcome, post / math.sqrt(prob)))
    else:
        for outcome in (0, 1):
            sub = psi[_slice_at(n, {axis: outcome})]
            prob = float(np.sum(np.abs(sub) ** 2))
            if prob < 1e-12:
                continue
            post = np.zeros_like(psi)
            post[_slice_at(n, {axis: 0})] = sub
            outcomes.append((prob, outcome, post / math.sqrt(prob)))
    return outcomes


def statevector_run(
    schedule: Schedule,
    initial: Mapping[Hashable, int] | None = None,
    wires: list[Hashable] | None = None,
) -> list[Branch]:
    """Dense simulation; measurements fork into normalised outcome branches.

    ``initial`` sets basis bits by wire; every other wire starts in |0>.
    The state's axes are the wires, in the order of ``wires``; a SWAP exchanges
    the contents of its two wires, so a value is read at the wire it ended on
    (see :func:`classical_run` for the label-keyed view of the same run).
    Measured wires are recycled to |0> so ancilla-restoration checks stay
    uniform. Returns every branch with its probability and record bits.
    """
    if wires is None:
        wires = schedule.wires()
    if len(wires) > MAX_WIRES:
        raise CapacityError(f"{len(wires)} wires exceed the {MAX_WIRES}-wire cap")
    ax = {w: i for i, w in enumerate(wires)}
    n = len(wires)
    psi = np.zeros((2,) * n, dtype=complex)
    idx = [0] * n
    for w, bit in (initial or {}).items():
        idx[ax[w]] = int(bit)
    psi[tuple(idx)] = 1.0

    branches = [Branch(1.0, (), psi)]
    for moment in schedule.moments:
        for g in moment:
            if g.kind in (GateKind.MEASURE_X, GateKind.MEASURE_Z):
                axis_ = ax[g.operands[0]]
                new: list[Branch] = []
                for br in branches:
                    for prob, outcome, post in _measure(br.state, axis_, g.kind is GateKind.MEASURE_X):
                        new.append(Branch(br.probability * prob, br.records + (outcome,), post))
                branches = new
            elif g.kind is GateKind.CC_CZ:
                if g.condition is None:
                    raise ValueError("classically controlled CZ without a record index")
                for br in branches:
                    if g.condition >= len(br.records):
                        raise ValueError("classically controlled CZ references a future record")
                    if br.records[g.condition] == 1:
                        br.state = _apply_gate(br.state, g, ax)
            else:
                for br in branches:
                    br.state = _apply_gate(br.state, g, ax)
        for br in branches:
            norm = float(np.sum(np.abs(br.state) ** 2))
            if abs(norm - 1.0) > _NORM_TOL:
                raise AssertionError(f"norm drifted to {norm}")
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
    """Check the schedule acts as the named gate on the data wires.

    Every data basis state is pushed through with all ancillae |0>; the output
    must factor as (reference on data) x |0...0> up to one global phase; this
    holds for ``and`` too, whose output wire starts in |0>, so an AND missing
    its phase correction fails. Measurement branches are grouped by record and
    each group must pass independently, with its own global phase.
    """
    wires = schedule.wires()
    for w in data_wires:
        if w not in wires:
            wires.append(w)
    ax = {w: i for i, w in enumerate(wires)}
    n = len(wires)

    group_phase: dict[tuple[int, ...], complex] = {}
    worst = 0.0
    sweep = len(data_wires) - 1 if reference == "and" else len(data_wires)
    for v in range(2 ** sweep):
        bits = tuple((v >> (sweep - 1 - i)) & 1 for i in range(sweep))
        if reference == "and":
            bits = bits + (0,)  # the AND output wire starts in |0>
        out_bits, ref_phase = _expected(reference, bits)
        branches = statevector_run(schedule, dict(zip(data_wires, bits)), wires=wires)
        for br in branches:
            idx = [0] * n
            for w, bit in zip(data_wires, out_bits):
                idx[ax[w]] = bit
            amp = br.state[tuple(idx)]
            residual = math.sqrt(max(0.0, float(np.sum(np.abs(br.state) ** 2)) - abs(amp) ** 2))
            worst = max(worst, residual)
            if abs(amp) < 1e-6:
                return EquivReport(False, 1.0, f"input {bits}: expected basis state missing")
            phase = amp / ref_phase
            if br.records not in group_phase:
                group_phase[br.records] = phase
            worst = max(worst, abs(phase - group_phase[br.records]))
    ok = worst <= tol
    return EquivReport(ok, worst, "" if ok else f"worst deviation {worst:.3e}")
