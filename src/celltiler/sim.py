"""Verification oracles: classical reversible replay and dense statevector simulation.

Both oracles apply gates by family. X, CNOT and Toffoli are one flip rule:
flip the last operand where every other operand is 1. T, Tdag, S, Sdag, CZ,
CC_CZ and CCZ are one phase rule: multiply the amplitudes where every
operand is 1 by the kind's phase in :data:`_PHASES`. H and SWAP have their
own lines. An X-basis measurement is H on the wire followed by a Z-basis
measurement, so outcome 0 is |+>.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Hashable, Mapping

import numpy as np

from celltiler.circuit import Gate, GateKind, Occupancy, Schedule

MAX_WIRES = 14
_NORM_TOL = 1e-9
_FLIPS = frozenset((GateKind.X, GateKind.CNOT, GateKind.TOFFOLI))


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
        if g.kind is GateKind.SWAP:
            a, b = g.operands
            value[a], value[b] = value[b], value[a]
            occ.swap(a, b)
        elif g.kind in _FLIPS:
            *controls, t = g.operands
            value[t] ^= all(value[c] for c in controls)
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
    GateKind.CC_CZ: -1,
    GateKind.CCZ: -1,
}


def _slice_at(n: int, axes, bit: int = 1) -> tuple:
    """Index of the slice where every axis in ``axes`` holds ``bit``."""
    idx: list = [slice(None)] * n
    for axis in axes:
        idx[axis] = bit
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


def _measure(psi: np.ndarray, axis: int, x_basis: bool) -> list[tuple[float, int, np.ndarray]]:
    """Project one wire, recycle it to |0>, and return (prob, outcome, state)."""
    if x_basis:
        psi = _hadamard(psi, axis)
    outcomes = []
    for outcome in (0, 1):
        sub = psi[_slice_at(psi.ndim, (axis,), outcome)]
        prob = float(np.sum(np.abs(sub) ** 2))
        if prob < 1e-12:
            continue
        post = np.zeros_like(psi)
        post[_slice_at(psi.ndim, (axis,), 0)] = sub
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
