"""celltiler benchmark: seeded closed-loop CLI request mixes with checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload verify-small --seed 1 --seconds 10 --trace 0

One client replays whole rounds of the workload's request mix through
``celltiler.cli.main`` in a single worker process until ``--seconds`` have
passed. Every output is checked against the references in ``reference.py``.
With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` it reports per-layer self times and counts from spans recorded
around each layer's public functions. ``--diff FILE`` compares the artifact
fingerprints with those in an earlier run's saved output. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from checks import CheckError, Checker
from mixes import WORKLOADS
from spans import LAYER_COUNTS, LAYER_TIMES

HERE = Path(__file__).resolve().parent
SETUP_RUNS = 3  # set-up-only worker starts before and again after the measured worker
TIME_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _start(args: list[str], root: Path, deadline: float) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its ready line; returns it and its set-up seconds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # one thread per workload process
    env["PYTHONHASHSEED"] = "0"  # the same set and dict layouts in every run
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                            cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - perf_counter()))
    line = proc.stdout.readline() if ready else ""
    setup = perf_counter() - start
    if line.strip() != "ready":
        _stop(proc)
        raise BenchError(f"worker did not get ready (exit {proc.returncode})")
    return proc, setup


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def _finish(proc: subprocess.Popen, deadline: float) -> None:
    try:
        code = proc.wait(timeout=max(0.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError("worker ran past the time limit") from None
    finally:
        _stop(proc)
    if code != 0:
        raise BenchError(f"worker exited {code}")


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _end_to_end(records, failed, setups, peak_rss_kb, checker, workload) -> tuple[dict, dict]:
    # Request times in kernel units: wall time over the calibration kernel's
    # time around the request. The machine's speed cancels out of the ratio.
    cal = [r["latency_s"] / r["kernel_s"] for r in records]
    ms = [r["latency_s"] * 1e3 for r in records]
    completed = len(records) - failed
    widths = sorted({req.width for req in workload.round if req.kind != "invalid" and req.width})
    swaps = [checker.tiled_swaps.get(n, (0, 0)) for n in widths]
    metrics = {
        "latency_p50_cal": _metric(statistics.median(cal), "cal"),
        "latency_p90_cal": _metric(statistics.quantiles(cal, n=10)[8], "cal"),
        "throughput_per_kcal": _metric(1e3 * completed / sum(cal), "req/kcal"),
        "peak_rss_mb": _metric(peak_rss_kb / 1024, "MB"),
        "setup_s": _metric(statistics.median(setups), "s"),
        "success_rate": _metric(completed / len(records), "ratio"),
        "tiled_swap_count": _metric(sum(count for count, _ in swaps), "count"),
        "tiled_swap_depth": _metric(sum(depth for _, depth in swaps), "count"),
    }
    p90_ms = statistics.quantiles(ms, n=10)[8]
    by_request = defaultdict(list)
    for r in records:
        by_request[r["request"]].append(r["latency_s"] * 1e3)
    details = {
        "wall_clock": {
            "latency_p50_ms": statistics.median(ms),
            "latency_p90_ms": p90_ms,
            "throughput_rps": completed / (sum(ms) / 1e3),
            "kernel_ms": statistics.median(r["kernel_s"] * 1e3 for r in records),
        },
        "latency_ms_by_request": {req: statistics.median(v) for req, v in sorted(by_request.items())},
        "latency_samples": len(ms),
        "beyond_p90": sum(1 for v in ms if v > p90_ms),
        "error_rate": failed / len(records),
        "tiled_widths": widths,
    }
    if checker.lowered:
        details["t_depth"] = sum(counts["tD"] for counts in checker.lowered.values())
    return metrics, details


def _per_layer(records, workload) -> tuple[dict, dict]:
    per_round: dict[int, dict] = defaultdict(lambda: defaultdict(float))
    for r in records:
        if r["traced"]:
            for name, value in r["layers"].items():
                per_round[r["round"]][name] += value
    rounds = list(per_round.values())
    metrics = {}
    for name in LAYER_TIMES:
        metrics[name] = _metric(statistics.median(rnd[name] for rnd in rounds), "ms")
    for name in LAYER_COUNTS:
        unit = "bytes" if name.endswith("_bytes") else "count"
        metrics[name] = _metric(statistics.median(rnd[name] for rnd in rounds), unit)
    # records come in (untraced, traced) pairs of one request, in either order
    traced = sum(r["latency_s"] for r in records if r["traced"])
    untraced = sum(r["latency_s"] for r in records if not r["traced"])
    metrics["trace.overhead_ratio"] = _metric(traced / untraced, "ratio")
    shares = defaultdict(float)
    for name in LAYER_TIMES:
        shares[name.split(".")[0]] += metrics[name]["value"]
    total = sum(shares.values())
    shares = {layer: value / total for layer, value in shares.items()}
    dominant = max(shares, key=shares.get)
    details = {
        "layer_shares": shares,
        "dominant_layer": dominant,
        "expected_dominant": workload.dominant,
        "dominant_as_expected": dominant == workload.dominant,
    }
    return metrics, details


def _fingerprint_diff(previous_file: str, current: dict) -> dict:
    """Keys whose fingerprints differ from the last fingerprint line of a saved output."""
    previous = None
    for line in Path(previous_file).read_text().splitlines():
        try:
            item = json.loads(line)
        except ValueError:
            continue
        if isinstance(item, dict) and "fingerprints" in item:
            previous = item["fingerprints"]
    if previous is None:
        raise BenchError(f"{previous_file} holds no fingerprints")
    return {
        key: {"before": previous.get(key), "after": current.get(key)}
        for key in sorted(set(previous) | set(current))
        if previous.get(key) != current.get(key)
    }


def run(args, root: Path, work: Path) -> tuple[dict, dict]:
    deadline = perf_counter() + TIME_LIMIT_S
    workload = WORKLOADS[args.workload]
    common = ["--workload", workload.name, "--workdir", str(work)]
    setups = []

    def setup_only() -> None:
        for _ in range(SETUP_RUNS):
            proc, setup = _start(common + ["--setup-only"], root, deadline)
            _finish(proc, deadline)
            setups.append(setup)

    setup_only()
    proc, setup = _start(common + ["--seed", str(args.seed), "--seconds", str(args.seconds),
                                   "--trace", str(args.trace)], root, deadline)
    setups.append(setup)
    _finish(proc, deadline)
    setup_only()  # set-up samples on both sides of the run see the same machine load
    result = json.loads((work / "result.json").read_text())
    records = result["records"]
    if not records:
        raise BenchError("worker ran no requests")

    checker = Checker(workload, work / "blobs", args.seed)
    checker.decompositions(result["decomps"])
    failures = []
    # schedules first: the LS check compares against the lowered schedule's CNOTs
    for record in sorted(records, key=lambda r: not r["key"].startswith("schedule/")):
        try:
            checker.check(record)
        except CheckError as exc:
            failures.append({"request": record["request"], "round": record["round"],
                             "traced": record["traced"], "why": str(exc)})

    fingerprints = {key: sorted(shas) for key, shas in sorted(checker.fingerprints.items())}
    details = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
               "requests": len(records), "rounds": 1 + max(r["round"] for r in records),
               "failures": failures, "fingerprints": fingerprints,
               "nondeterministic": [k for k, v in fingerprints.items() if len(v) > 1]}
    if args.trace:
        metrics, extra = _per_layer(records, workload)
    else:
        metrics, extra = _end_to_end(records, len(failures), setups, result["peak_rss_kb"], checker, workload)
    details.update(extra)
    if args.diff:
        details["fingerprint_diff"] = _fingerprint_diff(args.diff, fingerprints)
    outcome = {"correct": not failures, "attempted": len(records), "failed": len(failures), "metrics": metrics}
    return details, outcome


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--diff", metavar="FILE", help="saved output of an earlier run to compare fingerprints with")
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "celltiler" / "cli.py").is_file():
        print("perfbench: run from the repository root; src/celltiler is missing", file=sys.stderr)
        return 2
    work = root / ".perfbench_work" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        details, outcome = run(args, root, work)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only once no other run uses it
    print(json.dumps(details))
    for name, m in outcome["metrics"].items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
