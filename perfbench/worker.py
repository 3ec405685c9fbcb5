"""Workload process of the benchmark: replays request rounds in-process
through ``celltiler.cli.main``.

run.py starts it, times its set-up from process start to the ``ready`` line,
and checks everything it leaves in the work directory. With ``--setup-only``
it exits after the warm-up.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

from mixes import DECOMP_TARGETS, WORKLOADS, rounds
from spans import Hooks


CALIBRATE_EVERY_S = 0.2


def _kernel() -> int:
    """Fixed pure-Python work of the program's kinds (dict and set traffic on
    tuples, indented JSON text); no celltiler code."""
    counts: dict = {}
    for i in range(1000):
        key = (i % 97, i % 31, f"k{i % 50}")
        counts[key] = counts.get(key, 0) + 1
    gates = [{"kind": "cnot", "operands": [[i % 2, i % 3, i % 11], f"_anc{i}"], "tags": []} for i in range(150)]
    text = json.dumps({"moments": [gates]}, indent=2, sort_keys=True)
    return len(text) + len(sorted({a * b for a, b, _ in counts}))


def calibrate() -> float:
    """Seconds the kernel takes at this moment: the median of three runs."""
    times = []
    for _ in range(3):
        start = perf_counter()
        _kernel()
        times.append(perf_counter() - start)
    return sorted(times)[1]


def execute(argv: list[str]) -> tuple[int | None, float, str, str]:
    """Run one CLI command; returns (exit code, seconds, stdout, stderr)."""
    cli = sys.modules["celltiler.cli"]
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:  # an escaped exception fails the request; keep its traceback
            end = perf_counter()
            rc = None
            err.write(traceback.format_exc())
        else:
            end = perf_counter()
    return rc, end - start, out.getvalue(), err.getvalue()


class Blobs:
    """Content-addressed files under the work directory, named by sha256."""

    def __init__(self, root: Path):
        self.root = root
        root.mkdir(parents=True, exist_ok=True)

    def add_text(self, text: str) -> str:
        data = text.encode()
        sha = hashlib.sha256(data).hexdigest()
        path = self.root / sha
        if not path.exists():
            path.write_bytes(data)
        return sha

    def add_file(self, path: Path) -> str:
        sha = hashlib.sha256(path.read_bytes()).hexdigest()
        if (self.root / sha).exists():
            path.unlink()
        else:
            os.replace(path, self.root / sha)
        return sha


def _mapping_text(mapping: dict) -> str:
    return json.dumps(sorted([str(label), list(site)] for label, site in mapping.items()))


class Runner:
    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.blobs = Blobs(workdir / "blobs")
        self._initial: dict[int, str] = {}

    def initial_mapping(self, n: int) -> str:
        """Blob of the tiled initial mapping of width n (the schedule's input)."""
        if n not in self._initial:
            from celltiler.tiler import RegisterSpec, build_multiplier_layout, initial_mapping

            mapping = initial_mapping(build_multiplier_layout(n), RegisterSpec.for_width(n))
            self._initial[n] = self.blobs.add_text(_mapping_text(mapping))
        return self._initial[n]

    def request(self, req, traced: bool, round_no: int) -> dict:
        argv = req.argv(str(self.workdir))
        start = perf_counter()
        with Hooks(traced) as hooks:
            rc, seconds, out, err = execute(argv)
        record = {
            "request": req.label(), "key": req.key(), "round": round_no, "traced": traced,
            "rc": rc, "latency_s": seconds, "start": start, "end": perf_counter(),
            "stdout": out, "stderr": err, "captures": [],
        }
        if req.artifact:
            path = Path(argv[-1])
            record["artifact"] = self.blobs.add_file(path) if path.exists() else None
        for kind, n, sched, mapping0, final in hooks.captured:
            n = n if n is not None else req.width
            record["captures"].append({
                "kind": kind,
                "n": n,
                "schedule": self.blobs.add_text(sched.to_json()),
                "mapping0": self.initial_mapping(n) if mapping0 is None
                else self.blobs.add_text(_mapping_text(mapping0)),
                "final": self.blobs.add_text(_mapping_text(final)),
            })
        if traced:
            record["layers"] = hooks.layers()
        return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    import celltiler.cli

    src = (Path.cwd() / "src").resolve()
    if src not in Path(celltiler.cli.__file__).resolve().parents:
        print(f"celltiler imported from {celltiler.cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    runner = Runner(Path(args.workdir))
    for req in workload.warmup:
        rc, _, _, err = execute(req.argv(str(runner.workdir)))
        if rc != req.expect_rc:
            print(f"warm-up {req.label()!r} exited {rc}: {err}", file=sys.stderr)
            return 1
    print("ready", flush=True)
    if args.setup_only:
        return 0

    records = []
    calibrations = [(perf_counter(), calibrate())]  # (time, kernel seconds)
    start = calibrations[0][0]
    for round_no, order in enumerate(rounds(workload, args.seed)):
        # whole rounds only; stop when another would end past --seconds by
        # more than half a round
        elapsed = perf_counter() - start
        if round_no and elapsed + 0.5 * elapsed / round_no >= args.seconds:
            break
        for i, req in enumerate(order):
            # the traced run times each request untraced and traced, in
            # alternating order, so the pair gives the tracing overhead
            modes = (False, True) if i % 2 == 0 else (True, False)
            for traced in modes if args.trace else (False,):
                if perf_counter() - calibrations[-1][0] >= CALIBRATE_EVERY_S:
                    calibrations.append((perf_counter(), calibrate()))
                records.append(runner.request(req, traced, round_no))
    calibrations.append((perf_counter(), calibrate()))
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # each request's kernel time: the mean of the calibrations just before and just after it
    times = [t for t, _ in calibrations]
    for r in records:
        before = calibrations[bisect.bisect_right(times, r.pop("start")) - 1][1]
        after = calibrations[bisect.bisect_left(times, r.pop("end"))][1]
        r["kernel_s"] = (before + after) / 2

    decomps = {}
    if any(req.kind == "decomp" for req in workload.round):
        from celltiler import decomp

        decomps = {t: runner.blobs.add_text(getattr(decomp, t)().to_json()) for t in DECOMP_TARGETS}
    result = {"records": records, "peak_rss_kb": peak_rss_kb, "decomps": decomps}
    (runner.workdir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
