"""Wrappers around the public functions of each celltiler layer.

Two kinds of wrapper exist. A capture wrapper keeps the tiled and routed
schedules a request computes, so that the reference checks can replay them.
A span wrapper records ``(key, start, end, parent)`` for the traced run. The
wrappers replace every reference that a celltiler module holds to the
function for one request, and are removed again before the next one, so an
untraced request runs the program's own functions except for the two
captured ones.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter


def _ir(sched) -> dict:
    return {"gates": sum(len(m) for m in sched.moments), "moments": len(sched.moments)}


def _emitted(result) -> dict:
    sched, _final = result
    size = _ir(sched)
    return {"scheduler.gates": size["gates"], "scheduler.moments": size["moments"]}


def _lowered(sched) -> dict:
    size = _ir(sched)
    wires = {q for m in sched.moments for g in m for q in g.operands}
    t_moments = sum(1 for m in sched.moments if any(g.kind.value in ("t", "tdag") for g in m))
    return {
        "decomp.lowered_moments": size["moments"],
        "decomp.lowered_gates": size["gates"],
        "decomp.lowered_wires": len(wires),
        "decomp.t_depth": t_moments,
    }


def _extracted(program) -> dict:
    return {
        "lsx.steps": len(program.steps),
        "lsx.patterns": program.pattern_count,
        "lsx.transversal": program.transversal_count,
    }


def _routed(result) -> dict:
    sched, _final = result
    count = depth = 0
    for m in sched.moments:
        here = sum(1 for g in m if g.kind.value == "swap" and "storage" not in g.tags)
        count += here
        depth += bool(here)
    return {"router.routed_swap_count": count, "router.routed_swap_depth": depth}


# (module, attribute, span key, call-count metric, counter of the result);
# an attribute "Class.method" wraps a method, and "DECOMPS" the decomposition
# builders the CLI verifies (inside lower_schedule they count as lowering).
TRACED = (
    ("celltiler.cli", "main", "cli.self", None, None),
    ("celltiler.tiler", "build_multiplier_layout", "tiler.build", None, None),
    ("celltiler.tiler", "initial_mapping", "tiler.build", None, None),
    ("celltiler.scheduler", "full_multiplier_schedule", "scheduler.emit", None, _emitted),
    ("celltiler.scheduler", "toffoli_step", "scheduler.emit", "scheduler.emit_calls", None),
    ("celltiler.scheduler", "ctrl_add_step", "scheduler.emit", "scheduler.emit_calls", None),
    ("celltiler.scheduler", "reset_step", "scheduler.emit", "scheduler.emit_calls", None),
    ("celltiler.scheduler", "validate_schedule", "scheduler.validate", None, None),
    ("celltiler.circuit", "Schedule.append", "circuit.append", "circuit.append_calls", None),
    ("celltiler.circuit", "Schedule.to_json", "circuit.schedule_json", None,
     lambda text: {"circuit.schedule_json_bytes": len(text)}),
    ("celltiler.circuit", "Schedule.count", "circuit.metrics", None, None),
    ("celltiler.circuit", "swap_metrics", "circuit.metrics", None, None),
    ("celltiler.circuit", "t_metrics", "circuit.metrics", None, None),
    ("celltiler.sim", "classical_run", "sim.classical", "sim.classical_calls", None),
    ("celltiler.sim", "assert_equiv", "sim.statevector", None, None),
    ("celltiler.sim", "statevector_run", "sim.statevector", "sim.statevector_calls", None),
    ("celltiler.decomp", "lower_schedule", "decomp.lower", None, _lowered),
    ("celltiler.cli", "DECOMPS", "decomp.build", None, None),
    ("celltiler.lsx", "extract_ls", "lsx.extract", None, _extracted),
    ("celltiler.lsx", "validate_ls", "lsx.validate", None, None),
    ("celltiler.lsx", "LSProgram.to_json", "lsx.json", None,
     lambda text: {"lsx.json_bytes": len(text)}),
    ("celltiler.router", "compare", "router.route", None, None),
    ("celltiler.router", "greedy_route", "router.route", None, _routed),
    ("celltiler.router", "logical_multiplier_circuit", "router.route", None, None),
    ("celltiler.router", "routing_mapping", "router.route", None, None),
)

LAYER_TIMES = sorted({key + "_ms" for _m, _a, key, _c, _f in TRACED})
LAYER_COUNTS = (
    "scheduler.emit_calls", "scheduler.gates", "scheduler.moments",
    "sim.classical_calls", "sim.statevector_calls",
    "decomp.lowered_moments", "decomp.lowered_gates", "decomp.lowered_wires", "decomp.t_depth",
    "lsx.steps", "lsx.patterns", "lsx.transversal", "lsx.json_bytes",
    "circuit.schedule_json_bytes", "circuit.append_calls",
    "router.routed_swap_count", "router.routed_swap_depth",
)


class _Patches:
    """Replacements of celltiler functions, undone in reverse order."""

    def __init__(self):
        self._undo: list = []

    def wrap(self, module: str, attr: str, make) -> None:
        owner = sys.modules[module]
        if attr == "DECOMPS":
            table = owner.DECOMPS
            for target, entry in list(table.items()):
                self._undo.append(lambda t=target, e=entry: table.__setitem__(t, e))
                table[target] = (make(entry[0]), *entry[1:])
            return
        if "." in attr:
            cls_name, name = attr.split(".")
            cls = getattr(owner, cls_name)
            self._set(cls, name, make(vars(cls)[name]))
            return
        original = getattr(owner, attr)
        wrapper = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "celltiler" and not mod_name.startswith("celltiler."):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, name, wrapper)

    def _set(self, owner, name: str, value) -> None:
        old = vars(owner)[name]
        self._undo.append(lambda: setattr(owner, name, old))
        setattr(owner, name, value)

    def undo(self) -> None:
        while self._undo:
            self._undo.pop()()


class Hooks:
    """The wrappers of one request: captures always, spans when ``traced``."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.captured: list[tuple] = []  # (kind, n, schedule, mapping0, final mapping)
        self.spans: list[list] = []  # [key, start, end, parent index]
        self.calls: Counter = Counter()
        self._kept: list[tuple] = []  # (counter, result)
        self._stack: list[int] = []
        self._patches = _Patches()

    def __enter__(self) -> "Hooks":
        captures = {
            ("celltiler.scheduler", "full_multiplier_schedule"): self._capture_tiled,
            ("celltiler.router", "greedy_route"): self._capture_routed,
        }
        if not self.traced:
            for (module, attr), make in captures.items():
                self._patches.wrap(module, attr, make)
            return self
        for module, attr, key, calls, counter in TRACED:
            capture = captures.get((module, attr))

            def make(fn, key=key, calls=calls, counter=counter, capture=capture):
                return self._span(capture(fn) if capture else fn, key, calls, counter)

            self._patches.wrap(module, attr, make)
        return self

    def __exit__(self, *exc) -> None:
        self._patches.undo()

    def _capture_tiled(self, fn):
        def full_multiplier_schedule(n, *args, **kwargs):
            result = fn(n, *args, **kwargs)
            self.captured.append(("tiled", n, result[0], None, result[1]))
            return result
        return full_multiplier_schedule

    def _capture_routed(self, fn):
        def greedy_route(circuit, lattice, mapping0):
            result = fn(circuit, lattice, mapping0)
            self.captured.append(("routed", None, result[0], dict(mapping0), result[1]))
            return result
        return greedy_route

    def _span(self, fn, key: str, calls: str | None, counter):
        spans, stack, kept, counts = self.spans, self._stack, self._kept, self.calls

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([key, 0.0, 0.0, stack[-1] if stack else None])
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
            if calls:
                counts[calls] += 1
            if counter:
                kept.append((counter, result))
            return result

        return wrapper

    def layers(self) -> dict[str, float]:
        """Self time per span key in ms, plus the call and size counts."""
        covered = [0.0] * len(self.spans)
        for _key, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out = dict.fromkeys(LAYER_TIMES, 0.0) | dict.fromkeys(LAYER_COUNTS, 0)
        for (key, start, end, _parent), inner in zip(self.spans, covered):
            out[key + "_ms"] += (end - start - inner) * 1e3
        for name, n in self.calls.items():
            out[name] += n
        for counter, result in self._kept:
            for name, n in counter(result).items():
                out[name] += n
        return out
