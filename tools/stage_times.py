"""Time the stages of CLI commands inside ``celltiler.cli.main``, for two
checkouts side by side.

Run from anywhere, naming the ``src`` directory of each checkout:

    python tools/stage_times.py PARENT_SRC CHANGE_SRC [--procs 6] [--runs 5] \
        [--command "ls 10 3d --out"] [--command "schedule 10 --lower-clifford-t --out"]

Without ``--command`` it times ``ls 10 3d --out``, ``schedule 10
--lower-clifford-t --out``, ``compare 8 8`` and ``verify 4``.

Every command runs in fresh processes with ``PYTHONHASHSEED=0``, one command
per process. ``--procs`` times, one process per side is started and the two
take turns: each does one untimed run, then ``--runs`` timed runs, the parent
and the change alternating which goes first, so the two runs of a pair are
timed within one command's time of each other and a shift in host speed
between processes moves both. Every run follows ``gc.collect()`` and
captures stdout. A command ending in ``--out`` is given a file in a
temporary directory.

The stages are timed by wrapping what ``cli.main`` calls: layout
(``build_multiplier_layout``, called by the CLI, by ``router.compare`` or,
for ``schedule n``, inside emit by ``full_multiplier_schedule``), emit
(``full_multiplier_schedule``, called by the CLI or by ``router.compare``),
logical (``router.logical_multiplier_circuit``, the circuit that
``router.compare`` routes), route (``router.greedy_route``, called by
``router.compare``), replay (``validate_schedule``), pack (``cli._packed``,
which builds the bit planes of ``verify n``'s inputs and expected
products), oracle (``classical_run``), build (each decomposition builder of
``cli.DECOMPS``, which ``verify <decomposition>`` calls), equiv
(``assert_equiv``, which ``verify <decomposition>`` calls to check a
decomposition against its reference), lower (``decomp.lower_schedule``),
extract (``extract_ls``), validate (``validate_ls``), metrics
(``t_metrics`` and ``swap_metrics``, as the CLI and ``router.compare`` call
them) and write (the CLI's ``_write``, which makes the JSON text as it
writes it). Each function is wrapped once, and the wrapper takes the place
of every reference to it that a celltiler module holds, so a call through
any importer lands in its stage. ``whole_command`` is ``cli.main`` timed
whole. ``gc_ms`` and the collections per generation come from a
``gc.callbacks`` hook. ``ru_maxrss_mb`` is the process's peak resident set,
so it is per command.

Prints one JSON object: per command and side the median of every stage over
all timed runs (in ms, to the microsecond, as the pack stage takes a few),
the median ``ru_maxrss_mb`` over the processes, and the sha256 of the
written artifact, or of the last run's stdout for a command without
``--out`` (one value per side, or a list if processes differ);
per command, ``parent_over_change`` is the median over the timed pairs of
parent time over change time, for every stage the change spends time in, and
``parent_over_change_quartiles`` the lower and upper quartile of those
per-pair ratios (inclusive method; both are the ratio itself for one pair),
so a median can be read against the spread of the runs behind it.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import resource
import shlex
import subprocess
import sys
import tempfile
from statistics import median, quantiles
from time import perf_counter

STAGES = (
    "layout", "emit", "logical", "route", "replay", "pack", "oracle", "build", "equiv", "lower", "extract",
    "validate", "metrics", "write",
)
COMMANDS = ("ls 10 3d --out", "schedule 10 --lower-clifford-t --out", "compare 8 8", "verify 4")


def _child(argv: list[str]) -> None:
    """Run one command in this process once per ``run`` line on stdin,
    answering each with one JSON line of its stage times and gc work; at the
    end of stdin, one last line with the artifact's sha256 and the peak RSS."""
    import celltiler.cli as cli
    from celltiler import circuit, decomp, lsx, router, scheduler, sim, tiler

    spent = dict.fromkeys(STAGES, 0.0)

    def timed(stage, fn):
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[stage] += perf_counter() - start
        return wrapper

    for stage, module, attr in (
        ("layout", tiler, "build_multiplier_layout"),
        ("emit", scheduler, "full_multiplier_schedule"),
        ("logical", router, "logical_multiplier_circuit"),
        ("route", router, "greedy_route"),
        ("replay", scheduler, "validate_schedule"),
        ("pack", cli, "_packed"),
        ("oracle", sim, "classical_run"),
        ("equiv", sim, "assert_equiv"),
        ("lower", decomp, "lower_schedule"),
        ("extract", lsx, "extract_ls"),
        ("validate", lsx, "validate_ls"),
        ("metrics", circuit, "t_metrics"),
        ("metrics", circuit, "swap_metrics"),
        ("write", cli, "_write"),
    ):
        original = getattr(module, attr)
        wrapper = timed(stage, original)
        for name, mod in list(sys.modules.items()):
            if name == "celltiler" or name.startswith("celltiler."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
    for target, (build, *rest) in cli.DECOMPS.items():
        cli.DECOMPS[target] = (timed("build", build), *rest)

    collections = [0, 0, 0]
    gc_time = [0.0, 0.0]  # total, start of the running collection

    def on_gc(phase, info):
        if phase == "start":
            gc_time[1] = perf_counter()
        else:
            gc_time[0] += perf_counter() - gc_time[1]
            collections[info["generation"]] += 1

    answer = sys.stdout
    output = b""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        args = [*argv, out] if argv[-1] == "--out" else argv
        for _line in sys.stdin:
            gc.collect()
            for stage in spent:
                spent[stage] = 0.0
            collections[:] = [0, 0, 0]
            gc_time[0] = 0.0
            sys.stdout = io.StringIO()
            gc.callbacks.append(on_gc)
            start = perf_counter()
            try:
                rc = cli.main(args)
            finally:
                whole = perf_counter() - start
                gc.callbacks.remove(on_gc)
                output = sys.stdout.getvalue().encode()
                sys.stdout = answer
            if rc != 0:
                raise SystemExit(f"{' '.join(args)} exited {rc}")
            sample = {stage: s * 1e3 for stage, s in spent.items()} | {
                "whole_command": whole * 1e3, "gc_ms": gc_time[0] * 1e3,
                "gen0": collections[0], "gen1": collections[1], "gen2": collections[2],
            }
            print(json.dumps(sample), flush=True)
        if os.path.exists(out):
            with open(out, "rb") as f:
                output = f.read()
    sha = hashlib.sha256(output).hexdigest()
    maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"sha256": sha, "ru_maxrss_mb": maxrss_mb}), flush=True)


def _paired(sides: dict[str, str], command: str, runs: int, parent_first: bool) -> dict[str, dict]:
    """One process per side, taking turns: per side its timed samples, the
    artifact's sha256 and the peak RSS."""
    procs = {}
    for side, src in sides.items():
        env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.path.abspath(src))
        procs[side] = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--child", command],
            env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
    samples: dict[str, list] = {side: [] for side in sides}
    try:
        for i in range(runs + 1):  # the first run of each process is untimed
            order = list(sides) if (i % 2 == 0) == parent_first else list(sides)[::-1]
            for side in order:
                proc = procs[side]
                proc.stdin.write("run\n")
                proc.stdin.flush()
                line = proc.stdout.readline()
                if not line:
                    raise SystemExit(f"{command!r} failed in the {side} checkout")
                if i:
                    samples[side].append(json.loads(line))
        results = {}
        for side, proc in procs.items():
            proc.stdin.close()
            results[side] = json.loads(proc.stdout.readline()) | {"samples": samples[side]}
            if proc.wait() != 0:
                raise SystemExit(f"{command!r} failed in the {side} checkout")
        return results
    finally:
        for proc in procs.values():
            if proc.poll() is None:
                proc.kill()
                proc.wait()


def _summary(results: list[dict]) -> dict:
    samples = [s for r in results for s in r["samples"]]
    shas = sorted({r["sha256"] for r in results}, key=str)
    return {
        "ms": {k: round(median(s[k] for s in samples), 3) for k in (*STAGES, "whole_command")},
        "gc_ms": round(median(s["gc_ms"] for s in samples), 1),
        "collections_per_request": {g: median(s[g] for s in samples) for g in ("gen0", "gen1", "gen2")},
        "ru_maxrss_mb": round(median(r["ru_maxrss_mb"] for r in results), 2),
        "ru_maxrss_mb_runs": [round(r["ru_maxrss_mb"], 2) for r in results],
        "sha256": shas[0] if len(shas) == 1 else shas,
        "runs": len(samples),
    }


def _ratios(parent: list[dict], change: list[dict]) -> tuple[dict, dict]:
    """Per stage, the median over the timed pairs of parent time over change
    time, and the lower and upper quartile of those ratios."""
    pairs = [(p["samples"], c["samples"]) for p, c in zip(parent, change)]
    mid, spread = {}, {}
    for k in (*STAGES, "whole_command"):
        ratios = [a[k] / b[k] for ps, cs in pairs for a, b in zip(ps, cs) if b[k] > 0]
        if ratios:
            mid[k] = round(median(ratios), 2)
            lo, _, hi = quantiles(ratios, n=4, method="inclusive") if len(ratios) > 1 else ratios * 3
            spread[k] = [round(lo, 2), round(hi, 2)]
    return mid, spread


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", nargs="?")
    parser.add_argument("change_src", nargs="?")
    parser.add_argument("--procs", type=int, default=6, help="process pairs per command")
    parser.add_argument("--runs", type=int, default=5, help="timed runs per process")
    parser.add_argument("--command", action="append", help="a CLI command; repeat for several")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        _child(shlex.split(args.child))
        return 0
    if not (args.parent_src and args.change_src):
        parser.error("name the src directories of both checkouts")
    sides = {"parent": args.parent_src, "change": args.change_src}
    report = {}
    for command in args.command or COMMANDS:
        results: dict[str, list] = {side: [] for side in sides}
        for i in range(args.procs):
            for side, r in _paired(sides, command, args.runs, i % 2 == 0).items():
                results[side].append(r)
        mid, spread = _ratios(results["parent"], results["change"])
        report[command] = {side: _summary(r) for side, r in results.items()} | {
            "parent_over_change": mid, "parent_over_change_quartiles": spread}
    json.dump(report, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
