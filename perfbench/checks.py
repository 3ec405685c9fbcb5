"""Checks of every request's output against the benchmark's own references.

A request fails when its exit code, its printed lines, the artifact it
wrote or a schedule it computed disagrees with what ``reference`` derives.
Verdicts on identical bytes are computed once per run and reused.
"""

from __future__ import annotations

import json
import random
import re
from collections import defaultdict
from pathlib import Path

import reference as ref
from mixes import DECOMP_TARGETS, Workload

STEP_LINE = re.compile(r"(toffoli step|ctrl-add \d+|reset \d+): swapC=(\d+) swapD=(\d+)")
TOTAL_LINE = re.compile(r"total: swapC=(\d+) swapD=(\d+) tC=(\d+) tD=(\d+) moments=(\d+)")
LS_LINE = re.compile(r"CNOTs in: (\d+), LS patterns: (\d+), transversal: (\d+), steps: (\d+)")
CSV_HEADER = "n,tiled_swapC,tiled_swapD,routed_swapC,routed_swapD"


class CheckError(Exception):
    """An output disagrees with the reference."""


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


class Checker:
    def __init__(self, workload: Workload, blob_dir: Path, seed: int):
        self.requests = {req.label(): req for req in workload.round}
        self.blob_dir = blob_dir
        self.seed = seed
        self.fingerprints: dict[str, set] = defaultdict(set)
        self.tiled_swaps: dict[int, tuple[int, int]] = {}  # width -> measured (count, depth)
        self.lowered: dict[int, dict] = {}  # width -> counts of the lowered schedule
        self._verdicts: dict = {}
        self._wrong_decomps: dict[str, str | None] = {}

    # -- helpers -----------------------------------------------------------

    def _json(self, sha: str):
        return json.loads((self.blob_dir / sha).read_text())

    def _mapping(self, sha: str) -> dict:
        return {label: tuple(site) for label, site in self._json(sha)}

    def _inputs(self, n: int, count: int) -> list[tuple[int, int]]:
        rng = random.Random(f"{self.seed}:{n}")
        top = 2 ** n - 1
        return [(top, top)] + [(rng.randint(0, top), rng.randint(0, top)) for _ in range(count - 1)]

    def _once(self, key, fn):
        """Run a check once per key; a failure is re-raised for every request that hits it."""
        if key not in self._verdicts:
            try:
                self._verdicts[key] = (fn(), None)
            except CheckError as exc:
                self._verdicts[key] = (None, str(exc))
        value, error = self._verdicts[key]
        if error is not None:
            raise CheckError(error)
        return value

    # -- schedules computed by a request -----------------------------------

    def _capture(self, cap: dict) -> tuple[int, int]:
        key = (cap["schedule"], cap["mapping0"], cap["final"])
        swaps = self._once(key, lambda: self._replay(cap))
        self.fingerprints[f"{cap['kind']}/{cap['n']}"].add(cap["schedule"])
        if cap["kind"] == "tiled":
            self.tiled_swaps[cap["n"]] = swaps
        return swaps

    def _replay(self, cap: dict) -> tuple[int, int]:
        n = cap["n"]
        moments = self._json(cap["schedule"])["moments"]
        mapping0, final = self._mapping(cap["mapping0"]), self._mapping(cap["final"])
        swaps = ref.swap_totals(moments)
        if cap["kind"] == "tiled":
            closed = (ref.tiled_swap_count(n), ref.tiled_swap_depth(n))
            _expect(swaps == closed, f"tiled n={n}: SWAP count/depth {swaps}, closed forms {closed}")
        for a, b in self._inputs(n, 4):
            inputs = {f"A{i}": (a >> i) & 1 for i in range(n)} | {f"B{i}": (b >> i) & 1 for i in range(n)}
            bits, where = ref.run_reversible(moments, mapping0, inputs)
            wrong = ref.multiplier_outcome(bits, n, a, b)
            _expect(wrong is None, f"{cap['kind']} n={n}: {wrong}")
            _expect(where == final, f"{cap['kind']} n={n}: returned final mapping differs from the replay")
        return swaps

    def _lowered(self, sha: str, cap: dict) -> dict:
        """Counts of a lowered schedule, checked against the tiled one it lowers."""
        n = cap["n"]
        moments = self._json(sha)["moments"]
        tiled = self._json(cap["schedule"])["moments"]
        mapping0 = self._mapping(cap["mapping0"])
        phases = []
        for a, b in self._inputs(n, 3):
            inputs = {f"A{i}": (a >> i) & 1 for i in range(n)} | {f"B{i}": (b >> i) & 1 for i in range(n)}
            bits, where = ref.run_reversible(tiled, mapping0, inputs)
            branches = ref.run_sparse(moments, {mapping0[label]: bit for label, bit in inputs.items()})
            _expect(len(branches) == 1, f"lowered n={n}: {len(branches)} measurement branches")
            term = ref.sole_basis(branches[0][2])
            expect = frozenset(where[label] for label, bit in bits.items() if bit)
            _expect(term is not None and term[0] == expect,
                    f"lowered n={n}: output for {a}*{b} differs from the tiled schedule's")
            phases.append(term[1])
        # a permutation lowered exactly carries one global phase for every input
        _expect(max(abs(p - phases[0]) for p in phases) < 1e-6, f"lowered n={n}: phase depends on the input")
        t_count, t_depth = ref.t_totals(moments)
        cnots = sum(1 for kind, _, _ in ref.gates(moments) if kind == "cnot")
        return {"tC": t_count, "tD": t_depth, "moments": len(moments), "cnots": cnots}

    # -- per request kind --------------------------------------------------

    def check(self, record: dict) -> None:
        """Raise CheckError if the record's outputs disagree with the reference."""
        req = self.requests[record["request"]]
        if record["rc"] is None:
            raise CheckError("exception escaped: " + record["stderr"].strip().splitlines()[-1])
        _expect(record["rc"] == req.expect_rc, f"exit code {record['rc']}, expected {req.expect_rc}")
        if req.artifact:
            _expect(record.get("artifact") is not None, "no artifact written")
            self.fingerprints[req.key()].add(record["artifact"])
        tiled = [c for c in record["captures"] if c["kind"] == "tiled"]
        for cap in record["captures"]:
            self._capture(cap)
        getattr(self, "_" + req.kind)(req, record, tiled)

    def _invalid(self, req, record, tiled) -> None:
        _expect(record["stdout"] == "", f"printed {record['stdout']!r}")
        _expect(record["stderr"].strip() != "", "no error message")
        _expect("Traceback" not in record["stderr"], "printed a traceback")

    def _verify(self, req, record, tiled) -> None:
        cases = 4 ** req.width
        _expect(record["stdout"] == f"{cases}/{cases} products correct\n", f"printed {record['stdout']!r}")
        _expect(len(tiled) == 1, f"{len(tiled)} tiled schedules computed")

    def _decomp(self, req, record, tiled) -> None:
        target = req.args[1]
        line = f"equivalent to {DECOMP_TARGETS[target]}, tol 1e-10\n"
        _expect(record["stdout"] == line, f"printed {record['stdout']!r}")
        wrong = self._wrong_decomps.get(target)
        _expect(wrong is None, f"{target}: {wrong}")

    def _schedule(self, req, record, tiled) -> None:
        n = req.width
        lines = record["stdout"].splitlines()
        names = ["toffoli step"]
        for j in range(1, n):
            names.append(f"ctrl-add {j}")
            if j <= n - 2:
                names.append(f"reset {j}")
        steps = [STEP_LINE.fullmatch(line) for line in lines[:len(names)]]
        _expect(all(steps) and [m[1] for m in steps] == names, "per-step lines missing or out of order")
        total = TOTAL_LINE.fullmatch(lines[len(names)]) if len(lines) > len(names) else None
        _expect(total is not None and lines[-1].startswith("schedule written to "), "total line missing")
        swap_c, swap_d, t_c, t_d, moments = map(int, total.groups())
        _expect((sum(int(m[2]) for m in steps), sum(int(m[3]) for m in steps)) == (swap_c, swap_d),
                "per-step SWAP lines do not add up to the total")
        closed = (ref.tiled_swap_count(n), ref.tiled_swap_depth(n))
        _expect((swap_c, swap_d) == closed, f"total swapC/swapD {(swap_c, swap_d)}, closed forms {closed}")
        _expect(len(tiled) == 1, f"{len(tiled)} tiled schedules computed")
        counts = self._once(("lowered", record["artifact"], tiled[0]["schedule"]),
                            lambda: self._lowered(record["artifact"], tiled[0]))
        printed = {"tC": t_c, "tD": t_d, "moments": moments}
        _expect(printed == {k: counts[k] for k in printed}, f"printed {printed}, artifact has {counts}")
        self.lowered[n] = counts

    def _ls(self, req, record, tiled) -> None:
        lines = record["stdout"].splitlines()
        m = LS_LINE.fullmatch(lines[0]) if lines else None
        _expect(m is not None and lines[1:2] == ["parallel bound 4: satisfied"]
                and lines[-1].startswith("program written to "), f"printed {record['stdout']!r}")
        cnots, patterns, transversal, steps = map(int, m.groups())
        counts, violations = self._once(("ls", record["artifact"]), lambda: self._ls_program(record["artifact"]))
        _expect(not violations, f"LS program breaks the 3d bounds: {violations[:3]}")
        printed = {"steps": steps, "patterns": patterns, "transversal": transversal}
        _expect(printed == {k: counts[k] for k in printed}, f"printed {printed}, artifact has {counts}")
        _expect(cnots == patterns + transversal, f"{cnots} CNOTs in, {patterns + transversal} CNOTs out")
        lowered = self.lowered.get(req.width, {}).get("cnots")
        _expect(lowered in (None, cnots), f"{cnots} CNOTs in, the lowered schedule has {lowered}")

    def _ls_program(self, sha: str):
        program = self._json(sha)
        counts, violations = ref.ls_structure(program)
        declared = {"patterns": program["pattern_count"], "transversal": program["transversal_count"]}
        _expect(declared == {k: counts[k] for k in declared}, f"declares {declared}, holds {counts}")
        return counts, violations

    def _compare(self, req, record, tiled) -> None:
        n = req.width
        routed = [c for c in record["captures"] if c["kind"] == "routed"]
        _expect(len(tiled) == 1 and len(routed) == 1, "expected one tiled and one routed schedule")
        t_c, t_d = self._capture(tiled[0])
        r_c, r_d = self._capture(routed[0])
        csv = (self.blob_dir / record["artifact"]).read_text()
        _expect(csv == f"{CSV_HEADER}\n{n},{t_c},{t_d},{r_c},{r_d}\n", f"CSV {csv!r}")
        lines = record["stdout"].splitlines()
        ratio = f"n={n}: routed/tiled swapC ratio {r_c / t_c:.2f}, swapD ratio {r_d / t_d:.2f}"
        _expect(len(lines) == 2 and lines[0].startswith("comparison written to ") and lines[1] == ratio,
                f"printed {record['stdout']!r}")

    def decompositions(self, blobs: dict[str, str]) -> None:
        """Check each decomposition circuit (target -> blob) against the gate it claims."""
        for target, sha in blobs.items():
            self._wrong_decomps[target] = ref.check_decomposition(target, self._json(sha)["moments"])
