"""Gate-level IR with moments, label occupancy and depth/count metrics."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Hashable, Iterable, Iterator, Mapping, NamedTuple

from celltiler.lattice import Lattice, Site

_encode_str = json.encoder.encode_basestring_ascii


def json_value(v, level: int) -> str:
    """``v`` as ``json.dumps(v, indent=2, sort_keys=True)`` writes it at
    nesting depth ``level`` of an enclosing document. Lists, tuples (as lists,
    a ``Site`` too) and ``str``-keyed dicts are written here, since the stdlib's
    indenting encoder leaves its closures behind as reference cycles."""
    if type(v) is str:
        return _encode_str(v)
    if type(v) is int:
        return int.__repr__(v)
    if v is None:
        return "null"
    if isinstance(v, (list, tuple)):
        return json_list([json_value(x, level + 1) for x in v], level)
    if type(v) is dict and all(type(k) is str for k in v):
        # laid out as a list of "key": value items, in braces
        items = [f"{_encode_str(k)}: {json_value(v[k], level + 1)}" for k in sorted(v)]
        return "{" + json_list(items, level)[1:-1] + "}"
    return json.dumps(v, indent=2, sort_keys=True).replace("\n", "\n" + "  " * level)


def json_list(items: list[str], level: int) -> str:
    """An indented JSON list at nesting depth ``level`` of already-written items,
    laid out as ``json.dumps(..., indent=2)`` lays it out; ``[]`` when empty."""
    if not items:
        return "[]"
    pad = "\n" + "  " * (level + 1)
    return "[" + pad + ("," + pad).join(items) + "\n" + "  " * level + "]"


class GateKind(Enum):
    """A gate family: its value is the JSON name, ``arity`` its operand count
    and ``records`` whether it writes or reads the measurement-record stream,
    both read without hashing the member."""

    H = "h", 1
    T = "t", 1
    TDAG = "tdag", 1
    S = "s", 1
    SDAG = "sdag", 1
    X = "x", 1
    CNOT = "cnot", 2
    CZ = "cz", 2
    SWAP = "swap", 2
    TOFFOLI = "toffoli", 3
    CCZ = "ccz", 3
    MEASURE_X = "mx", 1
    MEASURE_Z = "mz", 1
    CC_CZ = "cc_cz", 2  # CZ conditioned on an earlier measurement record

    def __new__(cls, value: str, arity: int):
        member = object.__new__(cls)
        member._value_ = value
        member.arity = arity
        member.records = value in ("mx", "mz", "cc_cz")
        return member


# tuples: a membership test compares members and never hashes an Enum
SINGLE_QUBIT_CLIFFORD = (GateKind.H, GateKind.S, GateKind.SDAG)
T_KINDS = (GateKind.T, GateKind.TDAG)
_CC_CZ = GateKind.CC_CZ  # read per Gate: an Enum attribute read costs about 0.2 us
STORAGE = "storage"  # the tag of a SWAP within one storage queue; it is not counted


@dataclass
class Report:
    """A check's result: one line per violation found, ``ok`` when none was."""

    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


class _GateFields(NamedTuple):
    kind: GateKind
    operands: tuple[Hashable, ...]
    condition: int | None = None
    tags: frozenset[str] = frozenset()


class Gate(_GateFields):
    """One gate. ``operands`` are hashable wire labels (strings or Sites).

    Toffoli/CCZ operands are ordered ``(control, control, target)``; for CCZ the
    split is conventional only. ``condition`` holds the measurement-record index
    a ``CC_CZ`` is conditioned on, an ``int`` >= 0 (a ``bool`` is refused); no
    other kind takes one. ``tags`` mark bookkeeping such as :data:`STORAGE`.

    An immutable tuple record, as :class:`celltiler.lsx.LSInstruction` is: it
    is built in about 0.6 of the time of a frozen dataclass (1.0 against 1.6
    us on a 2-CPU Xeon, Python 3.11), and the lowering and routing passes
    build one per gate they write. It compares and hashes as its four-field
    tuple; ``__new__`` checks the arity, the operands and the condition.
    """

    __slots__ = ()

    def __new__(cls, kind: GateKind, operands: tuple[Hashable, ...],
                condition: int | None = None, tags: frozenset[str] = frozenset()) -> "Gate":
        if len(operands) != kind.arity:
            raise ValueError(f"{kind.value} expects {kind.arity} operands, got {len(operands)}")
        if len(set(operands)) != len(operands):
            raise ValueError(f"duplicate operand in {kind.value} gate: {operands}")
        if kind is _CC_CZ:
            if type(condition) is not int or condition < 0:
                raise ValueError(f"cc_cz gate needs a record index, an int >= 0: {condition!r}")
        elif condition is not None:
            raise ValueError(f"{kind.value} gate takes no condition (only cc_cz does): {condition!r}")
        return tuple.__new__(cls, (kind, operands, condition, tags))


def gate(kind: GateKind | str, *operands, condition: int | None = None, tags: Iterable[str] = ()) -> Gate:
    if isinstance(kind, str):
        kind = GateKind(kind)
    return Gate(kind, tuple(operands), condition, frozenset(tags))


_RECORDS = object()  # the key of the record stream in Schedule._last


def _mark(last: dict[Hashable, int], moment: list[Gate], idx: int) -> None:
    """Mark moment ``idx`` in ``last`` as the last to touch its wires (and records)."""
    for g in moment:
        for q in g.operands:
            last[q] = idx
        if g.kind.records:
            last[_RECORDS] = idx


class Schedule:
    """Ordered moments of gates; supports within a moment are pairwise disjoint.

    ``moments`` is read-only to callers. ``_last``, the index of the last
    moment touching each wire, is the earliest-fit table of ``append``: the
    first ``append`` builds it from ``moments`` and every later ``append``
    and ``extend_moment`` keeps it current, so a schedule that is only
    extended never has one. It also holds the last moment of a measurement
    or ``CC_CZ`` under one shared key, which ``append`` reads as one more
    operand of such a gate: records keep their append order, and a
    ``CC_CZ`` lands after every earlier measurement.
    """

    def __init__(self, moments: Iterable[Iterable[Gate]] = ()):
        self.moments: list[list[Gate]] = []
        self._last: dict[Hashable, int] | None = None
        for m in moments:
            self.extend_moment(m)

    def append(self, g: Gate) -> "Schedule":
        """Add a gate to the first moment after the last one touching its
        operands (earliest fit); ``extend_moment`` opens a fresh moment. That
        moment holds none of the operands, so no overlap test is needed."""
        last = self._last
        if last is None:
            last = self._last = {}
            for i, m in enumerate(self.moments):
                _mark(last, m, i)
        ops = g.operands
        if g.kind.records:
            ops = (*ops, _RECORDS)
        target = 0
        for q in ops:
            after = last.get(q, -1) + 1
            if after > target:
                target = after
        if target == len(self.moments):
            self.moments.append([g])
        else:
            self.moments[target].append(g)
        for q in ops:
            last[q] = target
        return self

    def extend_moment(self, gates: Iterable[Gate]) -> None:
        """Append one new moment holding all the given gates, which must not
        share a wire. ``Gate`` refuses a repeated operand, so only a moment
        of two or more gates is tested."""
        idx = len(self.moments)
        moment = list(gates)
        if len(moment) > 1:
            seen: dict[Hashable, None] = {}
            for g in moment:
                for q in g.operands:
                    if q in seen:  # refused before any change
                        raise ValueError(f"overlapping support in moment {idx}: {g}")
                    seen[q] = None
        if self._last is not None:
            _mark(self._last, moment, idx)
        self.moments.append(moment)

    def gates(self) -> Iterator[Gate]:
        for m in self.moments:
            yield from m

    def wires(self) -> list:
        seen: dict = {}
        for g in self.gates():
            for q in g.operands:
                seen.setdefault(q, None)
        return list(seen)

    def count(self, kind: GateKind) -> int:
        return sum(1 for g in self.gates() if g.kind is kind)

    def __len__(self) -> int:
        return len(self.moments)

    # --- JSON wire format -------------------------------------------------

    @staticmethod
    def _decode_operand(v) -> Hashable:
        # to_json writes a Site as [x, y, z] and any other tuple as a list too
        if type(v) is list:
            if len(v) == 3 and all(type(c) is int for c in v):
                return Site(*v)
            return tuple(Schedule._decode_operand(c) for c in v)
        return v

    def to_json(self) -> str:
        """The schedule as JSON text that ``from_json`` reads back.

        The text is byte for byte what ``json.dumps(payload, indent=2,
        sort_keys=True)`` writes for the payload ``{"moments": [[{"condition",
        "kind", "operands", "tags"}, ...], ...]}``, a ``Site`` operand being
        the list ``[x, y, z]`` and ``tags`` sorted.
        """
        return "".join(self.json_chunks())

    def json_chunks(self) -> Iterator[str]:
        """The text of ``to_json`` in pieces: the head, one chunk per moment
        and the tail. Each gate's record is written once per call, keyed by
        ``id``: equal gates can differ in text (an operand ``1`` or
        ``True``), and the schedule keeps every gate alive while it is not
        changed, which it must not be until the last chunk is read.

        A record joins fragments cached per call: the text up to the first
        operand, keyed by ``(kind, condition)``, which ``Gate`` holds to
        ``None`` or an ``int``; each operand, keyed by ``(type(q), q)``; the
        rest, keyed by the tag set. Only ``str`` or ``Site`` operands are
        cached (``0.0`` and ``-0.0`` are equal too); tags are ``str``.
        """
        records: dict[int, str] = {}
        heads: dict[tuple, str] = {}
        texts: dict[tuple, str] = {}
        tails: dict[frozenset, str] = {}

        def record(g: Gate) -> str:
            kind, operands, condition, tags = g
            key = (kind._value_, condition)  # a str hashes faster than the member
            head = heads.get(key)
            if head is None:
                head = heads[key] = (f'{{\n        "condition": {json_value(condition, 4)},'
                                     f'\n        "kind": {_encode_str(kind.value)},\n        "operands": [\n          ')
            items = []
            for q in operands:  # never empty: every kind has an operand
                text = texts.get((type(q), q))
                if text is None:
                    text = json_value(q, 5)
                    if type(q) is str or type(q) is Site:
                        texts[type(q), q] = text
                items.append(text)
            tail = tails.get(tags)
            if tail is None:
                listed = json_list([json_value(t, 5) for t in sorted(tags)], 4)
                tail = tails[tags] = f'\n        ],\n        "tags": {listed}\n      }}'
            records[id(g)] = text = head + ",\n          ".join(items) + tail
            return text

        cached = records.get
        yield '{\n  "moments": '
        lead = "[\n    "
        for m in self.moments:
            yield lead + ("[\n      " + ",\n      ".join([cached(id(g)) or record(g) for g in m]) + "\n    ]"
                          if m else "[]")
            lead = ",\n    "
        yield "\n  ]\n}" if self.moments else "[]\n}"

    @classmethod
    def from_json(cls, text: str) -> "Schedule":
        """The schedule ``to_json`` wrote; a malformed payload raises ``ValueError``."""
        payload = json.loads(text)
        sched = cls()
        try:  # a missing key or a value of the wrong type raises KeyError or TypeError
            for m in payload["moments"]:
                sched.extend_moment(Gate(GateKind(item["kind"]), tuple(map(cls._decode_operand, item["operands"])),
                                         item.get("condition"), frozenset(item.get("tags", ()))) for item in m)
        except (KeyError, TypeError) as e:
            raise ValueError(f"malformed schedule JSON: {e!r}") from e
        return sched


_EMPTY = object()  # what an empty slot of Occupancy.label_at holds


class Occupancy:
    """Which label sits on which wire, the one place where SWAPs move labels.

    Wires sit on integer slots, which are internal: a caller turns a wire
    into its slot once, with ``slot``, and then moves and reads labels by
    slot, so a replay indexes lists instead of hashing its wires. A wire
    gets a slot the first time it is seen; given a ``lattice``, each of its
    sites has its ``Lattice.index`` as its slot from the start, and every
    other wire gets a slot past them. ``label_at`` lists the label on each
    slot (an empty slot holds a private marker), ``wire_of`` maps label ->
    slot and ``wires`` slot -> wire. Read them; change them only through
    ``slot``, ``swap`` and ``place``. ``mapping``, ``label_on`` and every
    message speak of wires, never of slots.
    """

    __slots__ = ("label_at", "wire_of", "wires", "_slots")

    def __init__(self, mapping: Mapping[Hashable, Hashable], lattice: Lattice | None = None):
        self.wires: list[Hashable] = list(lattice.all_sites) if lattice is not None else []
        self._slots: dict[Hashable, int] = dict(lattice.index_of) if lattice is not None else {}
        self.label_at: list[Hashable] = [_EMPTY] * len(self.wires)
        self.wire_of: dict[Hashable, int] = {label: self.slot(wire) for label, wire in mapping.items()}
        label_at = self.label_at
        for label, s in self.wire_of.items():
            label_at[s] = label
        # label_at kept the last label of a shared wire, so the first differs
        shared = next((s for label, s in self.wire_of.items() if label_at[s] is not label), None)
        if shared is not None:
            raise ValueError(f"mapping is not injective: two labels start on {self.wires[shared]!r}")

    def slot(self, wire: Hashable) -> int:
        """The slot of ``wire``, given a new, empty one on first sight."""
        s = self._slots.get(wire)
        if s is None:
            s = self._slots[wire] = len(self.wires)
            self.wires.append(wire)
            self.label_at.append(_EMPTY)
        return s

    def swap(self, a: int, b: int) -> None:
        """Exchange the labels on slots ``a`` and ``b``; either may be empty."""
        label_at = self.label_at
        la = label_at[a]
        lb = label_at[b]
        label_at[a] = lb
        label_at[b] = la
        if lb is not _EMPTY:
            self.wire_of[lb] = a
        if la is not _EMPTY:
            self.wire_of[la] = b

    def place(self, label: Hashable, slot: int) -> None:
        """Put a label that is on no wire onto an empty slot."""
        if self.label_at[slot] is not _EMPTY or label in self.wire_of:
            raise ValueError(f"cannot place {label!r} on {self.wires[slot]!r}: already in use")
        self.label_at[slot] = label
        self.wire_of[label] = slot

    def label_on(self, wire: Hashable) -> Hashable | None:
        """The label on ``wire``, or ``None`` if it is empty or never seen."""
        s = self._slots.get(wire)
        label = _EMPTY if s is None else self.label_at[s]
        return None if label is _EMPTY else label

    def mapping(self) -> dict[Hashable, Hashable]:
        """The label -> wire mapping, as a new dict."""
        wires = self.wires
        return {label: wires[s] for label, s in self.wire_of.items()}


@dataclass(frozen=True)
class DepthPolicy:
    """How gate layers are costed.

    ``swap_weight`` may be 1 (native SWAP), 3 (CNOT expansion) or 2 (CNOT pair
    against a known-|0> target). ``parallel`` makes H/S/Sdag depth free and
    lets CNOTs sharing only their control wire overlap in time.
    """

    swap_weight: int = 1
    parallel: bool = False

    def weight(self, g: Gate) -> int:
        if g.kind is GateKind.SWAP:
            return self.swap_weight
        if self.parallel and g.kind in SINGLE_QUBIT_CLIFFORD:
            return 0
        return 1


POLICIES: dict[str, DepthPolicy] = {
    "parallel": DepthPolicy(swap_weight=1, parallel=True),
    "strict": DepthPolicy(swap_weight=1),
    "swap3": DepthPolicy(swap_weight=3),
    "swap2": DepthPolicy(swap_weight=2),
}


def depth(schedule: Schedule, policy: DepthPolicy = POLICIES["strict"]) -> int:
    """Weighted critical-path length of the schedule under the given policy.

    Gates are re-packed as early as the per-wire order from the moment sequence
    allows. Measurements and ``CC_CZ`` gates also keep their order on the
    record stream, as ``Schedule.append`` keeps it. Under a ``parallel``
    policy a wire acting as CNOT control is read-only: controls of different
    CNOTs may overlap in time.
    """
    floor: dict = {}  # earliest start for a control-only use
    high: dict = {}  # earliest start for a serializing use
    total = 0
    for m in schedule.moments:
        for g in m:
            w = policy.weight(g)
            fanout = policy.parallel and g.kind is GateKind.CNOT
            ops = (*g.operands, _RECORDS) if g.kind.records else g.operands
            start = 0
            for i, q in enumerate(ops):
                if fanout and i == 0:
                    start = max(start, floor.get(q, 0))
                else:
                    start = max(start, high.get(q, 0))
            finish = start + w
            for i, q in enumerate(ops):
                if fanout and i == 0:
                    high[q] = max(high.get(q, 0), finish)
                else:
                    floor[q] = finish
                    high[q] = max(high.get(q, 0), finish)
            total = max(total, finish)
    return total


def _counted(moments: Iterable[list[Gate]]) -> tuple[int, int]:
    """(counted SWAPs, moments holding any of them): the one rule for which
    SWAPs count, every SWAP not tagged :data:`STORAGE`."""
    swap = GateKind.SWAP
    count = depth = 0
    for m in moments:
        here = 0
        for g in m:
            if g.kind is swap and STORAGE not in g.tags:
                here += 1
        count += here
        depth += here > 0
    return count, depth


def t_metrics(schedule: Schedule) -> tuple[int, int]:
    """(t_count, t_depth): T/Tdag gate count, whatever their tags, and
    moments holding any of them."""
    t, tdag = T_KINDS
    t_count = t_depth = 0
    for m in schedule.moments:
        here = 0
        for g in m:
            if g.kind is t or g.kind is tdag:
                here += 1
        t_count += here
        t_depth += here > 0
    return t_count, t_depth


def swap_metrics(schedule: Schedule) -> tuple[int, int]:
    """(swap_count, swap_depth) over SWAPs not tagged :data:`STORAGE`."""
    return _counted(schedule.moments)
