"""Reference semantics the benchmark checks the program's outputs against.

Everything here reads the ``Schedule`` JSON wire format (a list of moments,
each a list of ``{"kind", "operands", "condition", "tags"}`` gates, with
lattice sites written as ``[x, y, z]``) and uses no celltiler code.
"""

from __future__ import annotations

import cmath
import math
from collections import Counter, defaultdict


def tiled_swap_count(n: int) -> int:
    """Counted SWAPs of the tiled n-bit multiplier (the paper's closed form)."""
    return 10 * n * n + 6 * n - 13


def tiled_swap_depth(n: int) -> int:
    """SWAP moments of the tiled n-bit multiplier (the paper's closed form)."""
    return 4 * n * n + 9 * n - 13


def _wire(operand):
    return tuple(operand) if isinstance(operand, list) else operand


def gates(moments):
    """Yield (kind, operand wires, gate dict) in schedule order."""
    for moment in moments:
        for g in moment:
            yield g["kind"], tuple(_wire(q) for q in g["operands"]), g


def swap_totals(moments) -> tuple[int, int]:
    """(count, depth) of SWAPs not tagged ``storage``."""
    count = depth = 0
    for moment in moments:
        here = sum(1 for g in moment if g["kind"] == "swap" and "storage" not in g["tags"])
        count += here
        depth += bool(here)
    return count, depth


def t_totals(moments) -> tuple[int, int]:
    """(T-count, T-depth): T/Tdag gates and the moments that hold any."""
    count = depth = 0
    for moment in moments:
        here = sum(1 for g in moment if g["kind"] in ("t", "tdag"))
        count += here
        depth += bool(here)
    return count, depth


def run_reversible(moments, mapping0: dict, inputs: dict) -> tuple[dict, dict]:
    """Replay X/CNOT/Toffoli/SWAP on bits; labels follow their values through SWAPs.

    ``mapping0`` gives the wire each label starts on and ``inputs`` the
    starting bit of some labels (every other wire starts at 0). Returns the
    final bit of every label and the wire it ends on.
    """
    value: dict = {}
    label_at: dict = {}
    for label, wire in mapping0.items():
        label_at[wire] = label
        value[wire] = inputs.get(label, 0)
    for kind, ops, _ in gates(moments):
        if kind == "x":
            value[ops[0]] = value.get(ops[0], 0) ^ 1
        elif kind == "cnot":
            value[ops[1]] = value.get(ops[1], 0) ^ value.get(ops[0], 0)
        elif kind == "toffoli":
            value[ops[2]] = value.get(ops[2], 0) ^ (value.get(ops[0], 0) & value.get(ops[1], 0))
        elif kind == "swap":
            a, b = ops
            value[a], value[b] = value.get(b, 0), value.get(a, 0)
            label_at[a], label_at[b] = label_at.get(b), label_at.get(a)
        else:
            raise ValueError(f"reversible interpreter cannot run {kind}")
    bits = {label: value.get(wire, 0) for wire, label in label_at.items() if label is not None}
    where = {label: wire for wire, label in label_at.items() if label is not None}
    return bits, where


_PHASE = {"t": cmath.exp(1j * math.pi / 4), "tdag": cmath.exp(-1j * math.pi / 4), "s": 1j, "sdag": -1j}
_PRUNE = 1e-12


def run_sparse(moments, inputs: dict) -> list[tuple[float, tuple, dict]]:
    """Replay a Clifford+T schedule from a basis state, keeping only nonzero amplitudes.

    SWAP exchanges the values of two wires; nothing follows labels. A
    measurement forks the run into its outcomes and resets the wire to 0; a
    ``cc_cz`` acts when the record it names is 1. Returns every branch as
    (probability, records, {basis state: amplitude}), where a basis state is
    the frozenset of wires holding 1.
    """
    start = frozenset(w for w, bit in inputs.items() if bit)
    branches = [(1.0, (), {start: 1.0 + 0j})]
    for kind, ops, g in gates(moments):
        forked = []
        for prob, records, state in branches:
            if kind in ("mx", "mz"):
                for outcome, post in _measure(state, ops[0], kind == "mx"):
                    p = sum(abs(a) ** 2 for a in post.values())
                    if p > _PRUNE:
                        norm = math.sqrt(p)
                        forked.append((prob * p, records + (outcome,),
                                       {k: a / norm for k, a in post.items()}))
                continue
            if kind == "cc_cz" and records[g["condition"]] == 0:
                forked.append((prob, records, state))
                continue
            forked.append((prob, records, _apply(kind, ops, state)))
        branches = forked
    return branches


def _apply(kind: str, ops: tuple, state: dict) -> dict:
    out: dict = defaultdict(complex)
    for basis, amp in state.items():
        if kind == "h":
            (w,) = ops
            sign = -1 if w in basis else 1
            out[basis - {w}] += amp / math.sqrt(2)
            out[basis | {w}] += sign * amp / math.sqrt(2)
        elif kind in _PHASE:
            out[basis] += amp * (_PHASE[kind] if ops[0] in basis else 1)
        elif kind in ("cz", "cc_cz", "ccz"):
            out[basis] += -amp if all(w in basis for w in ops) else amp
        elif kind == "x":
            out[basis ^ {ops[0]}] += amp
        elif kind == "cnot":
            out[basis ^ {ops[1]} if ops[0] in basis else basis] += amp
        elif kind == "toffoli":
            out[basis ^ {ops[2]} if ops[0] in basis and ops[1] in basis else basis] += amp
        elif kind == "swap":
            a, b = ops
            if (a in basis) != (b in basis):
                basis = basis ^ {a, b}
            out[basis] += amp
        else:
            raise ValueError(f"sparse interpreter cannot run {kind}")
    return {k: a for k, a in out.items() if abs(a) > _PRUNE}


def _measure(state: dict, wire, x_basis: bool):
    """(outcome, unnormalised post-measurement state with the wire reset to 0)."""
    for outcome in (0, 1):
        post: dict = defaultdict(complex)
        for basis, amp in state.items():
            bit = wire in basis
            if x_basis:
                sign = -1 if (outcome and bit) else 1
                post[basis - {wire}] += sign * amp / math.sqrt(2)
            elif bit == outcome:
                post[basis - {wire}] += amp
        yield outcome, post


def sole_basis(state: dict, tol: float = 1e-9):
    """The one basis state of a state that has a single term of modulus 1, else None."""
    big = [(k, a) for k, a in state.items() if abs(a) > tol]
    if len(big) != 1 or abs(abs(big[0][1]) - 1) > tol:
        return None
    return big[0]


# decomposition target -> (data wires, map from data input bits to (output bits, phase))
DECOMP_SEMANTICS = {
    "ccz_tdepth1": (("a", "b", "c"), lambda a, b, c: ((a, b, c), (-1) ** (a & b & c))),
    "toffoli_tdepth2": (("a", "b", "t"), lambda a, b, t: ((a, b, t ^ (a & b)), 1)),
    "toffoli_mb": (("a", "b", "t"), lambda a, b, t: ((a, b, t ^ (a & b)), 1)),
    "controlled_s": (("q1", "q2"), lambda q1, q2: ((q1, q2), 1j ** (q1 & q2))),
    "and_4anc": (("a", "b", "t"), lambda a, b, t: ((a, b, a & b), 1)),
    "and_3anc": (("a", "b", "t"), lambda a, b, t: ((a, b, a & b), 1)),
}


def check_decomposition(target: str, moments, tol: float = 1e-9) -> str | None:
    """Check a decomposition on every data basis input with ancillae at 0.

    The output must be the target gate's basis state with every ancilla back
    at 0, and one global phase per measurement record. An AND starts its
    output wire at 0. Returns a description of the first mismatch, or None.
    """
    data, semantics = DECOMP_SEMANTICS[target]
    fixed_zero = {"t"} if target.startswith("and_") else set()
    phases: dict = {}
    for v in range(2 ** len(data)):
        bits = tuple((v >> (len(data) - 1 - i)) & 1 for i in range(len(data)))
        if any(bits[data.index(w)] for w in fixed_zero):
            continue
        expect_bits, expect_phase = semantics(*bits)
        expect = frozenset(w for w, bit in zip(data, expect_bits) if bit)
        for _prob, records, state in run_sparse(moments, dict(zip(data, bits))):
            term = sole_basis(state, tol)
            if term is None or term[0] != expect:
                return f"input {bits}: output is not the basis state {sorted(expect)}"
            phase = term[1] / expect_phase
            if abs(phase - phases.setdefault(records, phase)) > tol:
                return f"input {bits}: relative phase differs by {abs(phase - phases[records]):.2e}"
    return None


def multiplier_outcome(bits: dict, n: int, a: int, b: int) -> str | None:
    """Check P = a*b, A and B unchanged and every other label at 0."""
    def read(prefix: str, width: int) -> int:
        return sum(bits[f"{prefix}{i}"] << i for i in range(width))

    if read("P", 2 * n) != a * b:
        return f"P = {read('P', 2 * n)}, expected {a}*{b} = {a * b}"
    if read("A", n) != a or read("B", n) != b:
        return f"A/B changed to {read('A', n)}/{read('B', n)} from {a}/{b}"
    register = {f"A{i}" for i in range(n)} | {f"B{i}" for i in range(n)} | {f"P{i}" for i in range(2 * n)}
    stray = sorted(label for label, bit in bits.items() if bit and label not in register)
    if stray:
        return f"labels left at 1: {stray[:5]}"
    return None


def ls_structure(program: dict) -> tuple[dict, list[str]]:
    """Counts of an LS program JSON and its violations of the 3d bounds.

    Bounds per step: a data patch joins at most two merge/split instances and
    at most two transversal CNOTs, an ``ls_anc`` patch mediates one instance.
    Every merge/split instance sits in one step with its ancilla
    initialisation, two merge/splits and the ancilla's X measurement.
    """
    violations = []
    patterns: dict = {}
    transversal = 0
    for si, step in enumerate(program["steps"]):
        merges: dict = defaultdict(set)
        tv: dict = defaultdict(set)
        for ins in step:
            if ins["kind"].startswith("merge_split"):
                for p in ins["patches"]:
                    merges[p].add(ins["instance"])
            elif ins["kind"] == "transversal_cnot":
                transversal += 1
                for p in ins["patches"]:
                    tv[p].add(ins["instance"])
        for p, inst in merges.items():
            limit = 1 if p.startswith("ls_anc") else 2
            if len(inst) > limit:
                violations.append(f"step {si}: patch {p} in {len(inst)} merge/split instances")
        for p, inst in tv.items():
            if len(inst) > 2:
                violations.append(f"step {si}: patch {p} in {len(inst)} transversal CNOTs")
        kinds: dict = defaultdict(Counter)
        for ins in step:
            kinds[ins["instance"]][ins["kind"]] += 1
        for inst in {i for ps in merges.values() for i in ps}:
            if inst in patterns:
                violations.append(f"instance {inst} spans steps {patterns[inst]} and {si}")
            patterns[inst] = si
            k = kinds[inst]
            merge_count = sum(c for kind, c in k.items() if kind.startswith("merge_split"))
            if (k["init_plus"], merge_count, k["measure_x"]) != (1, 2, 1):
                violations.append(f"step {si}: instance {inst} is not init, two merge/splits, measure")
    counts = {"steps": len(program["steps"]), "patterns": len(patterns), "transversal": transversal}
    return counts, violations
