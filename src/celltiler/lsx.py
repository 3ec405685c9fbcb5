"""Lattice-surgery extraction: schedules become merge/split instruction streams."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterator, NamedTuple

from celltiler.circuit import GateKind, Report, Schedule, json_value
from celltiler.lattice import Site

K = GateKind


# instruction kinds
INIT_PLUS = "init_plus"
MERGE_ZZ = "merge_split_zz"
MERGE_XX = "merge_split_xx"
MEASURE_X = "measure_x"
TRANSVERSAL = "transversal_cnot"
ROTATE = "patch_rotate"
OP = "op"  # opaque single-patch operation (T, H, S, X, ...)

MERGE_SPLIT_LIMIT = 2  # merge/split uses per patch and step
TRANSVERSAL_LIMIT = 2  # transversal CNOTs per patch and step; only stacked sites make them

RIDING_OPS = ("h", "s", "sdag", "x", "mx", "mz")  # no step time; see extract_ls
ANCILLA_PREFIX = "ls_anc"  # names the mediating ancilla patches and no wire


class LSInstruction(NamedTuple):
    """One LS instruction: an immutable tuple record, built in under half the
    time of a frozen dataclass (a program holds tens of thousands)."""

    kind: str
    patches: tuple[str, ...]
    instance: int  # groups the instructions of one logical CNOT / CZ
    label: str = ""  # op name for OP instructions
    condition: int | None = None


@dataclass
class LSProgram:
    steps: list[list[LSInstruction]] = field(default_factory=list)
    # transversal CNOT instances: one per stacked CNOT of the input schedule,
    # not one per stick, so cnot_count() equals the schedule's CNOT count
    transversal_count: int = 0
    pattern_count: int = 0

    def cnot_count(self) -> int:
        return self.transversal_count + self.pattern_count

    def to_json(self) -> str:
        """The program as JSON text, byte for byte what ``json.dumps(payload,
        indent=2, sort_keys=True)`` writes for the payload ``{"steps": [[{
        "kind", "patches", "instance", "label", "condition"}, ...], ...],
        "transversal_count", "pattern_count"}``."""
        return "".join(self.json_chunks())

    def json_chunks(self) -> Iterator[str]:
        """The text of ``to_json`` in pieces: the head, one chunk per step and
        the tail.

        An instruction is written as its separator, the text up to
        ``"instance"``, the instance, the ``kind`` and ``label`` lines and the
        ``patches`` lines, one piece per name. The text up to ``"instance"`` of
        a ``None`` condition is a constant. Cached per call: the ``kind`` and
        ``label`` lines of ``str`` text, keyed by ``(kind, label)``; each
        ``str`` patch name's text, keyed by the name. A ``bool`` or ``float``
        is never a key, as ``1``, ``True`` and ``1.0`` are equal but written
        differently. The instance is written once per run of records that
        share one instance object."""

        def head_of(condition) -> str:
            return f'{{\n        "condition": {json_value(condition, 4)},\n        "instance": '

        middles: dict[tuple, str] = {}
        names: dict[str, str] = {}
        null_head = head_of(None)
        last, text = None, "null"  # the latest record's instance and its text
        yield f'{{\n  "pattern_count": {json_value(self.pattern_count, 1)},\n  "steps": '
        lead = "[\n    "
        for step in self.steps:
            parts = [lead]
            lead = ",\n    "
            sep = "[\n      "
            for kind, patches, instance, label, condition in step:
                head = null_head if condition is None else head_of(condition)
                middle = middles.get((kind, label))
                if middle is None:
                    middle = f',\n        "kind": {json_value(kind, 4)},\n        "label": {json_value(label, 4)},'
                    if type(kind) is str and type(label) is str:
                        middles[kind, label] = middle
                if instance is not last:
                    last = instance
                    text = str(instance) if type(instance) is int else json_value(instance, 4)
                parts += (sep, head, text, middle)
                opener = '\n        "patches": [\n          '
                for p in patches:
                    item = names.get(p) if type(p) is str else json_value(p, 5)
                    if item is None:  # a str name not seen before
                        item = names[p] = json_value(p, 5)
                    parts += (opener, item)
                    opener = ",\n          "
                parts.append("\n        ]\n      }" if patches else '\n        "patches": []\n      }')
                sep = ",\n      "
            parts.append("\n    ]" if step else "[]")
            yield "".join(parts)
        yield ("\n  ]" if self.steps else "[]") + (
            f',\n  "transversal_count": {json_value(self.transversal_count, 1)}\n}}')


def extract_ls(schedule: Schedule, site_map: dict[Hashable, Site] | None = None) -> LSProgram:
    """Translate a Clifford+T schedule into lattice-surgery steps.

    Every CNOT, CZ and CC_CZ becomes the init/merge-split/measure pattern on
    a mediating ancilla patch, ``ls_anc<k>`` for the k-th pattern of its
    step, so there are as many ancilla patches as the most patterns in one
    step. The first merge is ZZ with the first operand; the second is XX
    with a CNOT's target, ZZ otherwise, and both carry the gate's condition.
    A CNOT whose operands sit on stacked sites (same x and y, z one apart; a
    label's site from ``site_map``) is one transversal CNOT record instead,
    so a planar lattice has none.

    Each instance takes the first step where both its patches have capacity:
    ``MERGE_SPLIT_LIMIT`` pattern uses, or apart from those
    ``TRANSVERSAL_LIMIT`` transversal ones, per patch and step. Per limit a
    patch keeps one step mask per level k < limit, of the steps where it has
    more than k uses; a use sets its step in the lowest level lacking it, and
    the step is the count of trailing ones of the two last levels' union. That
    step can come before an earlier, non-commuting instance on a shared patch,
    so steps are not yet a depth. A T or Tdag takes the step after its patch's
    latest and sets every step up to it in both last levels. Riding ops
    (``RIDING_OPS``) take no step time: each joins the latest step that uses
    its patch so far (step 0 if none). A step's list is its execution order,
    so a riding op acts after the instructions listed before it and before
    those after it.

    A patch's first two-patch use sets its boundary: z for a control or a CZ
    operand, x for a CNOT target. A later use that needs the other boundary
    records a ``patch_rotate`` on the patch first; an H flips a set boundary.

    One table holds each wire's patch name and site (``None`` for a label
    without one), made when the wire is first seen, so labels that compare
    equal (one wire to a ``Schedule``) share a patch. A CNOT is a stick when
    both its operands have sites and these are stacked. Two unequal wires
    with one patch name, or a wire named like an ancilla patch, raise
    ``ValueError`` at the second wire's first sight, in operand order.
    """
    program = LSProgram()
    steps = program.steps
    last_step: dict[str, int] = {}  # per patch: the latest step that uses it
    # indexed by transversal?, then level k, then patch: the steps with more than k uses
    levels = tuple([{} for _ in range(limit)] for limit in (MERGE_SPLIT_LIMIT, TRANSVERSAL_LIMIT))
    anc_used: dict[int, int] = {}  # per step: the patterns placed in it
    anc_names: list[str] = []  # per ancilla patch: its name, made once
    orientation: dict[str, str] = {}  # per patch: the boundary it presents
    instance = 0
    named: dict[Hashable, tuple[str, Site | None]] = {}  # per wire: its patch name and site
    wire_of: dict[str, Hashable] = {}  # per patch name: its wire

    def enter(q: Hashable) -> tuple[str, Site | None]:
        """The entry of ``q``, a wire not seen before, now in ``named``."""
        p = f"q{q.x}_{q.y}_{q.z}" if isinstance(q, Site) else str(q)
        if p.startswith(ANCILLA_PREFIX):
            raise ValueError(f"wire {q!r} takes the reserved patch name {p!r}")
        if p in wire_of:
            raise ValueError(f"wires {wire_of[p]!r} and {q!r} share the patch name {p!r}")
        wire_of[p] = q
        named[q] = entry = p, q if isinstance(q, Site) else (site_map or {}).get(q)
        return entry

    def place(a: str, b: str, transversal: bool) -> int:
        """The first step free in both patches' last levels; each patch's use
        there sets the step's bit in its lowest level that lacks it."""
        stack = levels[transversal]
        busy = stack[-1].get(a, 0) | stack[-1].get(b, 0)
        s = (busy ^ (busy + 1)).bit_length() - 1
        while len(steps) <= s:
            steps.append([])
        bit = 1 << s
        for p in a, b:
            for level in stack:
                mask = level.get(p, 0)
                if not mask & bit:
                    level[p] = mask | bit
                    break
            if s > last_step.get(p, -1):
                last_step[p] = s
        return s

    new, record = tuple.__new__, LSInstruction  # skips LSInstruction's keyword __new__
    # an Enum class-attribute read (GateKind.X) costs about 0.2 us on Python 3.11: read locals
    cnot, cz, cc_cz, swap, toffoli, ccz = K.CNOT, K.CZ, K.CC_CZ, K.SWAP, K.TOFFOLI, K.CCZ
    for moment in schedule.moments:
        for kind, operands, condition, _ in moment:  # a Gate is a tuple record
            if kind is cnot or kind is cz or kind is cc_cz:
                qa, qb = operands
                a, sa = named.get(qa) or enter(qa)
                b, sb = named.get(qb) or enter(qb)
                instance += 1
                if kind is cnot and sa and sb and sa.x == sb.x and sa.y == sb.y and abs(sa.z - sb.z) == 1:
                    steps[place(a, b, True)].append(new(record, (TRANSVERSAL, (a, b), instance, "", None)))
                    program.transversal_count += 1
                    continue
                s = place(a, b, False)
                k = anc_used.get(s, 0)  # ancilla k for the k-th pattern of step s
                anc_used[s] = k + 1
                if k == len(anc_names):
                    anc_names.append(f"{ANCILLA_PREFIX}{k}")
                anc = anc_names[k]
                second, boundary = (MERGE_XX, "x") if kind is cnot else (MERGE_ZZ, "z")
                append = steps[s].append
                append(new(record, (INIT_PLUS, (anc,), instance, "", None)))
                if orientation.get(a, "z") != "z":
                    append(new(record, (ROTATE, (a,), instance, "", None)))
                orientation[a] = "z"
                append(new(record, (MERGE_ZZ, (a, anc), instance, "", condition)))
                if orientation.get(b, boundary) != boundary:
                    append(new(record, (ROTATE, (b,), instance, "", None)))
                orientation[b] = boundary
                append(new(record, (second, (anc, b), instance, "", condition)))
                append(new(record, (MEASURE_X, (anc,), instance, "", None)))
                program.pattern_count += 1
            elif kind is toffoli or kind is ccz:
                raise ValueError("lower Toffoli/CCZ to Clifford+T before LS extraction")
            elif kind is swap:
                raise ValueError("expand SWAPs to CNOTs before LS extraction")
            else:
                q = operands[0]
                p = (named.get(q) or enter(q))[0]
                name = kind._value_
                if name in RIDING_OPS:
                    s = last_step.get(p, 0)
                    if name == "h" and p in orientation:
                        orientation[p] = "x" if orientation[p] == "z" else "z"
                else:
                    s = last_step[p] = last_step.get(p, -1) + 1  # no mask bit lies above s
                    levels[0][-1][p] = levels[1][-1][p] = (2 << s) - 1
                while len(steps) <= s:
                    steps.append([])
                steps[s].append(new(record, (OP, (p,), 0, name, None)))
    return program


def validate_ls(program: LSProgram) -> Report:
    """Check the per-step bounds: per patch ``MERGE_SPLIT_LIMIT`` merge/splits
    and ``TRANSVERSAL_LIMIT`` transversal CNOTs; one job per ancilla; no
    instruction naming one patch twice."""
    report = Report()
    counted = (MERGE_ZZ, MERGE_XX, TRANSVERSAL)
    # the limit of each per-step table (patch -> the instances it joins)
    limits = ((MERGE_SPLIT_LIMIT, "patch {} joins {} merge/split operations"),
              (TRANSVERSAL_LIMIT, "patch {} joins {} transversal CNOTs"),
              (1, "ancilla patch {} mediates {} CNOTs"))
    for si, step in enumerate(program.steps):
        tables = ls_count, tv_count, anc_jobs = {}, {}, {}
        for kind, patches, instance, _, _ in step:
            if len(patches) == 2 and patches[0] == patches[1]:  # no kind takes more
                report.violations.append(f"step {si}: {kind} names patch {patches[0]} twice")
            if kind not in counted:
                continue
            for p in patches:
                table = tv_count if kind == TRANSVERSAL else (
                    anc_jobs if p.startswith(ANCILLA_PREFIX) else ls_count)
                seen = table.get(p)
                if seen is None:
                    table[p] = {instance}
                else:
                    seen.add(instance)
        for table, (limit, text) in zip(tables, limits):
            for p, instances in table.items():
                if len(instances) > limit:
                    report.violations.append(f"step {si}: " + text.format(p, len(instances)))
    return report
