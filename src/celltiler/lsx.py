"""Lattice-surgery extraction: schedules become merge/split instruction streams.

Stacking comes from the sites alone, so a planar lattice makes no transversal CNOT."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Hashable, Iterator, NamedTuple

from celltiler.circuit import GateKind, Schedule, json_list, json_value
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

        An instruction is written as five fragments, its separator, the text
        up to ``"instance"``, the instance, the ``kind`` and ``label`` lines
        and the ``patches`` lines. The three cached fragments are keyed per
        call by ``(type(condition), condition)``, ``(kind, label)`` and
        ``patches``: ``1`` and ``True`` are equal keys but are written
        differently. Only ``int`` or ``None`` conditions and ``str`` text are
        cached (``0.0`` and ``-0.0`` are equal too)."""
        heads: dict[tuple, str] = {}
        middles: dict[tuple, str] = {}
        tails: dict[tuple, str] = {}
        yield f'{{\n  "pattern_count": {json_value(self.pattern_count, 1)},\n  "steps": '
        lead = "[\n    "
        for step in self.steps:
            parts = [lead]
            lead = ",\n    "
            sep = "[\n      "
            for kind, patches, instance, label, condition in step:
                head = heads.get((type(condition), condition))
                if head is None:
                    head = f'{{\n        "condition": {json_value(condition, 4)},\n        "instance": '
                    if condition is None or type(condition) is int:
                        heads[type(condition), condition] = head
                middle = middles.get((kind, label))
                if middle is None:
                    middle = f',\n        "kind": {json_value(kind, 4)},\n        "label": {json_value(label, 4)},'
                    if type(kind) is str and type(label) is str:
                        middles[kind, label] = middle
                tail = tails.get(patches)
                if tail is None:
                    tail = f'\n        "patches": {json_list([json_value(p, 5) for p in patches], 4)}\n      }}'
                    if all(type(p) is str for p in patches):
                        tails[patches] = tail
                text = str(instance) if type(instance) is int else json_value(instance, 4)
                parts += (sep, head, text, middle, tail)
                sep = ",\n      "
            parts.append("\n    ]" if step else "[]")
            yield "".join(parts)
        yield ("\n  ]" if self.steps else "[]") + (
            f',\n  "transversal_count": {json_value(self.transversal_count, 1)}\n}}')


class _Extractor:
    """Places each gate's LS instructions at the earliest step its patches allow.

    Per-patch state, keyed by patch name, and the method that advances it:

    - ``last_step``, the latest step that uses the patch: ``_place_two``, ``single``;
    - ``use`` / ``full``, indexed by transversal?, then patch: the uses per
      step, and a bitmask of the steps a new CNOT instance may not use: the
      steps at the limit (``_place_two``) and, after a T or Tdag at step
      ``s``, steps ``0..s`` in both masks (``single``);
    - ``orientation``, the boundary (``"z"`` or ``"x"``) the patch presents:
      ``ls_cnot``, and ``single`` for ``h``.

    ``_alloc_anc`` counts the patterns placed in each step, ``anc_used``, and
    fills the name cache ``anc_names``, one entry per ancilla patch. Records
    are built by ``tuple.__new__``, not by ``LSInstruction``'s generated
    keyword ``__new__``."""

    def __init__(self):
        self.program = LSProgram()
        self.last_step: dict[str, int] = {}
        self.use = (defaultdict(dict), defaultdict(dict))
        self.full: tuple[dict[str, int], dict[str, int]] = ({}, {})
        self.anc_used: dict[int, int] = {}  # per step: the patterns placed in it
        self.anc_names: list[str] = []  # per ancilla patch: its name
        self.orientation: dict[str, str] = {}
        self.instance = 0

    def _ensure(self, s: int) -> None:
        while len(self.program.steps) <= s:
            self.program.steps.append([])

    def _place_two(self, patches: tuple[str, str], transversal: bool) -> int:
        """The first step where neither patch's ``full`` mask is set: the
        trailing ones of ``full_a | full_b``. The chosen step's use counts
        then grow by one, and a patch reaching its per-step limit of
        merge/split (or transversal) uses sets that step's bit."""
        a, b = patches
        full = self.full[transversal]
        full_a = full.get(a, 0)
        full_b = full.get(b, 0)
        busy = full_a | full_b
        s = (busy ^ (busy + 1)).bit_length() - 1
        steps = self.program.steps
        while len(steps) <= s:
            steps.append([])
        limit = TRANSVERSAL_LIMIT if transversal else MERGE_SPLIT_LIMIT
        uses = self.use[transversal]
        last = self.last_step
        use = uses[a]
        use[s] = count = use.get(s, 0) + 1
        if count >= limit:
            full[a] = full_a | 1 << s
        if s > last.get(a, -1):
            last[a] = s
        use = uses[b]
        use[s] = count = use.get(s, 0) + 1
        if count >= limit:
            full[b] = full_b | 1 << s
        if s > last.get(b, -1):
            last[b] = s
        return s

    def _alloc_anc(self, step: int) -> str:
        """Ancilla ``k`` for the ``k``-th pattern placed in ``step``, counting
        from 0: a pattern holds its ancilla for that one step."""
        used = self.anc_used
        k = used.get(step, 0)
        used[step] = k + 1
        names = self.anc_names
        if k == len(names):  # a new patch: its name is made once, not per CNOT
            names.append(f"{ANCILLA_PREFIX}{k}")
        return names[k]

    def ls_cnot(self, ctrl: str, tgt: str, kinds=(MERGE_ZZ, MERGE_XX), condition=None) -> None:
        i = self.instance = self.instance + 1
        s = self._place_two((ctrl, tgt), False)
        anc = self._alloc_anc(s)
        new, record = tuple.__new__, LSInstruction
        program = self.program
        append = program.steps[s].append
        orientation = self.orientation
        on_anc = (anc,)
        append(new(record, (INIT_PLUS, on_anc, i, "", None)))
        if orientation.get(ctrl, "z") != "z":
            append(new(record, (ROTATE, (ctrl,), i, "", None)))
        orientation[ctrl] = "z"
        append(new(record, (kinds[0], (ctrl, anc), i, "", condition)))
        boundary = "x" if kinds[1] is MERGE_XX else "z"
        if orientation.get(tgt, boundary) != boundary:
            append(new(record, (ROTATE, (tgt,), i, "", None)))
        orientation[tgt] = boundary
        append(new(record, (kinds[1], (anc, tgt), i, "", condition)))
        append(new(record, (MEASURE_X, on_anc, i, "", None)))
        program.pattern_count += 1

    def transversal(self, ctrl: str, tgt: str) -> None:
        i = self.instance = self.instance + 1
        s = self._place_two((ctrl, tgt), True)
        self.program.steps[s].append(tuple.__new__(LSInstruction, (TRANSVERSAL, (ctrl, tgt), i, "", None)))
        self.program.transversal_count += 1

    def single(self, patch: str, name: str) -> None:
        last = self.last_step
        if name in RIDING_OPS:
            s = last.get(patch, 0)
            if name == "h" and patch in self.orientation:
                cur = self.orientation[patch]
                self.orientation[patch] = "x" if cur == "z" else "z"
        else:
            s = last[patch] = last.get(patch, -1) + 1  # no full bit lies above s
            self.full[0][patch] = self.full[1][patch] = (2 << s) - 1
        self._ensure(s)
        self.program.steps[s].append(tuple.__new__(LSInstruction, (OP, (patch,), 0, name, None)))


def extract_ls(schedule: Schedule, site_map: dict[Hashable, Site] | None = None) -> LSProgram:
    """Translate a Clifford+T schedule into lattice-surgery steps.

    Every CNOT becomes the init/merge-split/measure pattern on a mediating
    ancilla patch, ``ls_anc<k>`` for the k-th pattern of its step, so the
    ancilla patches are as many as the most patterns in one step. A CNOT whose
    operands sit on stacked sites (same x and y, z one apart; a label's site
    from ``site_map``) is a transversal CNOT instead, so a planar lattice has
    none. T gates occupy a step of their own; other single-patch gates ride
    along. Patch rotations are inserted when a reused patch must present its
    other boundary type. Steps keep each patch's order, not that of
    non-commuting gates on different patches, so they are not yet a depth.

    Riding ops (``RIDING_OPS``) take no step time: each joins the latest step
    that uses its patch so far (step 0 if none). A step's instruction list is
    its execution order, so a riding op acts after the instructions listed
    before it and before those listed after it. Stacking is resolved once per
    distinct operand tuple and names once per wire, so labels that compare
    equal (one wire to a ``Schedule``) share a patch. Two unequal wires with
    one patch name, or a wire named like an ancilla patch, raise ``ValueError``.
    """
    ex = _Extractor()
    patch_of: dict[Hashable, str] = {}
    wire_of: dict[str, Hashable] = {}

    def patch(q: Hashable) -> str:
        name = patch_of.get(q)
        if name is None:
            name = patch_of[q] = f"q{q.x}_{q.y}_{q.z}" if isinstance(q, Site) else str(q)
            if name.startswith(ANCILLA_PREFIX):
                raise ValueError(f"wire {q!r} takes the reserved patch name {name!r}")
            if name in wire_of:
                raise ValueError(f"wires {wire_of[name]!r} and {q!r} share the patch name {name!r}")
            wire_of[name] = q
        return name

    def resolve(operands: tuple) -> tuple[tuple[str, ...], bool]:
        """The patch names, and whether a CNOT on ``operands`` is a stick."""
        sites = [q if isinstance(q, Site) else (site_map or {}).get(q) for q in operands]
        stacked = len(sites) == 2 and None not in sites and (
            sites[0].x == sites[1].x and sites[0].y == sites[1].y and abs(sites[0].z - sites[1].z) == 1
        )
        hit = resolved[operands] = tuple(map(patch, operands)), stacked
        return hit

    resolved: dict[tuple, tuple[tuple[str, ...], bool]] = {}
    ls_cnot, transversal, single = ex.ls_cnot, ex.transversal, ex.single
    # an Enum class-attribute read (GateKind.X) costs about 0.2 us on Python 3.11: read locals
    cnot, cz, cc_cz, swap, toffoli, ccz = K.CNOT, K.CZ, K.CC_CZ, K.SWAP, K.TOFFOLI, K.CCZ
    zz = (MERGE_ZZ, MERGE_ZZ)
    for moment in schedule.moments:
        for g in moment:
            kind = g.kind
            if kind is cnot:
                (a, b), stacked = resolved.get(g.operands) or resolve(g.operands)
                if stacked:
                    transversal(a, b)
                else:
                    ls_cnot(a, b)
            elif kind is cz or kind is cc_cz:
                (a, b), _ = resolved.get(g.operands) or resolve(g.operands)
                ls_cnot(a, b, zz, g.condition)
            elif kind is toffoli or kind is ccz:
                raise ValueError("lower Toffoli/CCZ to Clifford+T before LS extraction")
            elif kind is swap:
                raise ValueError("expand SWAPs to CNOTs before LS extraction")
            else:
                single((resolved.get(g.operands) or resolve(g.operands))[0][0], kind._value_)
    return ex.program


@dataclass
class LSReport:
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_ls(program: LSProgram) -> LSReport:
    """Check the per-step bounds: per patch ``MERGE_SPLIT_LIMIT`` merge/splits
    and ``TRANSVERSAL_LIMIT`` transversal CNOTs; one job per ancilla; no
    instruction naming one patch twice."""
    report = LSReport()
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
