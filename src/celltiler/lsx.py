"""Lattice-surgery extraction: schedules become merge/split instruction streams."""

from __future__ import annotations

import sys
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Hashable, Iterator, NamedTuple

from celltiler.cells import Layout
from celltiler.circuit import GateKind, Schedule, json_list, json_value
from celltiler.lattice import Site

K = GateKind


class ModeError(Exception):
    """The requested extraction mode does not fit the layout."""


# instruction kinds
INIT_PLUS = "init_plus"
MERGE_ZZ = "merge_split_zz"
MERGE_XX = "merge_split_xx"
MEASURE_X = "measure_x"
TRANSVERSAL = "transversal_cnot"
ROTATE = "patch_rotate"
OP = "op"  # opaque single-patch operation (T, H, S, X, ...)

MERGE_SPLIT_LIMIT = 2  # merge/split uses per patch and step
TRANSVERSAL_LIMIT = 2  # transversal CNOTs per patch and step, 3d only

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
    def __init__(self):
        self.program = LSProgram()
        self.hard_avail: dict[str, int] = {}  # first step a new instance may use
        self.last_step: dict[str, int] = {}
        # indexed by transversal?, then patch: uses per step, and a bitmask of full steps
        self.use = (defaultdict(dict), defaultdict(dict))
        self.full: tuple[dict[str, int], dict[str, int]] = ({}, {})
        self.anc_free: list[int] = []  # per ancilla patch: minus its first free step
        self.orientation: dict[str, str] = {}
        self.instance = 0

    def _ensure(self, s: int) -> None:
        while len(self.program.steps) <= s:
            self.program.steps.append([])

    def _place_two(self, patches: tuple[str, str], transversal: bool) -> int:
        """The first step at or after both patches' ``hard_avail`` where each
        is under its per-step limit of merge/split (or transversal) uses.

        Bit ``t`` of a patch's ``full`` mask is set once the patch reaches the
        limit at step ``t``, so from ``s`` the first step where neither patch
        is full is ``s`` plus the trailing ones of ``(full_a | full_b) >> s``."""
        a, b = patches
        full = self.full[transversal]
        s = max(self.hard_avail.get(a, 0), self.hard_avail.get(b, 0))
        busy = (full.get(a, 0) | full.get(b, 0)) >> s
        s += (busy ^ (busy + 1)).bit_length() - 1
        self._ensure(s)
        limit = TRANSVERSAL_LIMIT if transversal else MERGE_SPLIT_LIMIT
        uses = self.use[transversal]
        for p in patches:
            use = uses[p]
            use[s] = count = use.get(s, 0) + 1
            if count >= limit:
                full[p] = full.get(p, 0) | 1 << s
            self.last_step[p] = max(self.last_step.get(p, 0), s)
        return s

    def _alloc_anc(self, step: int) -> str:
        """The lowest-numbered ancilla patch free at ``step``, then busy through it.

        ``anc_free[i]`` is minus ancilla ``i``'s first free step, and the list
        stays ascending: the index taken is the lowest one free at ``step``,
        so lower entries are at most ``-step - 1`` and higher ones at least
        ``-step``. So ``bisect_left(anc_free, -step)`` is that lowest index."""
        free = self.anc_free
        i = bisect_left(free, -step)
        if i < len(free):
            free[i] = -step - 1
        else:
            free.append(-step - 1)
        return sys.intern(f"{ANCILLA_PREFIX}{i}")  # one string per patch, not per CNOT

    def ls_cnot(self, ctrl: str, tgt: str, kinds=(MERGE_ZZ, MERGE_XX), condition=None) -> None:
        i = self.instance = self.instance + 1
        s = self._place_two((ctrl, tgt), transversal=False)
        anc = self._alloc_anc(s)
        step = self.program.steps[s]
        orientation = self.orientation
        step.append(LSInstruction(INIT_PLUS, (anc,), i))
        if orientation.get(ctrl, "z") != "z":
            step.append(LSInstruction(ROTATE, (ctrl,), i))
        orientation[ctrl] = "z"
        step.append(LSInstruction(kinds[0], (ctrl, anc), i, "", condition))
        boundary = "x" if kinds[1] is MERGE_XX else "z"
        if orientation.get(tgt, boundary) != boundary:
            step.append(LSInstruction(ROTATE, (tgt,), i))
        orientation[tgt] = boundary
        step.append(LSInstruction(kinds[1], (anc, tgt), i, "", condition))
        step.append(LSInstruction(MEASURE_X, (anc,), i))
        self.program.pattern_count += 1

    def transversal(self, ctrl: str, tgt: str) -> None:
        self.instance += 1
        s = self._place_two((ctrl, tgt), transversal=True)
        self.program.steps[s].append(LSInstruction(TRANSVERSAL, (ctrl, tgt), self.instance))
        self.program.transversal_count += 1

    def single(self, patch: str, name: str) -> None:
        if name in RIDING_OPS:
            s = self.last_step.get(patch, 0)
            self._ensure(s)
            if name == "h" and patch in self.orientation:
                cur = self.orientation[patch]
                self.orientation[patch] = "x" if cur == "z" else "z"
        else:
            s = self.last_step.get(patch, -1) + 1  # hard_avail never exceeds this
            self._ensure(s)
            self.last_step[patch] = s
            self.hard_avail[patch] = s + 1
        self.program.steps[s].append(LSInstruction(OP, (patch,), 0, label=name))


def check_mode(layout: Layout | None, mode: str) -> None:
    """Raise :class:`ModeError` unless ``mode`` is 2d or 3d and fits ``layout``."""
    if mode not in ("2d", "3d"):
        raise ModeError(f"unknown mode {mode!r}")
    if mode == "2d" and layout is not None and layout.lattice.dimensionality != 2:
        raise ModeError("2d extraction requires a planar layout")


def extract_ls(
    schedule: Schedule,
    layout: Layout | None,
    mode: str,
    site_map: dict[Hashable, Site] | None = None,
) -> LSProgram:
    """Translate a Clifford+T schedule into lattice-surgery steps.

    Every CNOT becomes the init/merge-split/measure pattern on a mediating
    ancilla patch; in 3d mode CNOTs whose endpoints sit on vertically stacked
    sites become transversal CNOTs instead. T gates occupy a step of their
    own; other single-patch gates ride along. Patch rotations are inserted
    when a reused patch must present its other boundary type.

    Riding ops (``RIDING_OPS``) take no step time: each joins the latest step
    that uses its patch so far (step 0 if none). A step's instruction list is
    its execution order, so a riding op acts after the instructions listed
    before it and before those listed after it. Stacking is resolved once per
    distinct operand tuple and names once per wire, so labels that compare
    equal (one wire to a ``Schedule``) share a patch. Two unequal wires with
    one patch name, or a wire named like an ancilla patch, raise ``ValueError``.
    """
    check_mode(layout, mode)
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
        """The patch names, and whether a CNOT on ``operands`` is a 3d stick."""
        sites = [q if isinstance(q, Site) else (site_map or {}).get(q) for q in operands]
        stacked = mode == "3d" and len(sites) == 2 and None not in sites and (
            sites[0].x == sites[1].x and sites[0].y == sites[1].y and abs(sites[0].z - sites[1].z) == 1
        )
        return tuple(map(patch, operands)), stacked

    resolved: dict[tuple, tuple[tuple[str, ...], bool]] = {}
    for g in schedule.gates():
        if g.kind in (K.TOFFOLI, K.CCZ):
            raise ValueError("lower Toffoli/CCZ to Clifford+T before LS extraction")
        if g.kind is K.SWAP:
            raise ValueError("expand SWAPs to CNOTs before LS extraction")
        hit = resolved.get(g.operands)
        if hit is None:
            hit = resolved[g.operands] = resolve(g.operands)
        names, stacked = hit
        if g.kind is K.CNOT:
            if stacked:
                ex.transversal(*names)
            else:
                ex.ls_cnot(*names)
        elif g.kind in (K.CZ, K.CC_CZ):
            ex.ls_cnot(*names, kinds=(MERGE_ZZ, MERGE_ZZ), condition=g.condition)
        else:
            ex.single(names[0], g.kind.value)
    return ex.program


@dataclass
class LSReport:
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_ls(program: LSProgram, mode: str) -> LSReport:
    """Check the per-step bounds: per patch ``MERGE_SPLIT_LIMIT`` merge/splits
    and, in 3d, ``TRANSVERSAL_LIMIT`` transversal CNOTs; one job per ancilla;
    no instruction naming one patch twice."""
    check_mode(None, mode)
    report = LSReport()
    for si, step in enumerate(program.steps):
        ls_count: dict[str, set[int]] = {}
        tv_count: dict[str, set[int]] = {}
        anc_jobs: dict[str, set[int]] = {}
        for kind, patches, instance, _, _ in step:
            if len(patches) == 2 and patches[0] == patches[1]:  # no kind takes more
                report.violations.append(f"step {si}: {kind} names patch {patches[0]} twice")
            if kind in (MERGE_ZZ, MERGE_XX):
                for p in patches:
                    if p.startswith(ANCILLA_PREFIX):
                        anc_jobs.setdefault(p, set()).add(instance)
                    else:
                        ls_count.setdefault(p, set()).add(instance)
            elif kind == TRANSVERSAL:
                if mode == "2d":
                    report.violations.append(f"step {si}: transversal CNOT in 2d mode")
                for p in patches:
                    tv_count.setdefault(p, set()).add(instance)
        for p, instances in ls_count.items():
            if len(instances) > MERGE_SPLIT_LIMIT:
                report.violations.append(
                    f"step {si}: patch {p} joins {len(instances)} merge/split operations"
                )
        for p, instances in tv_count.items():
            if len(instances) > TRANSVERSAL_LIMIT:
                report.violations.append(
                    f"step {si}: patch {p} joins {len(instances)} transversal CNOTs"
                )
        for p, instances in anc_jobs.items():
            if len(instances) > 1:
                report.violations.append(
                    f"step {si}: ancilla patch {p} mediates {len(instances)} CNOTs"
                )
    return report
