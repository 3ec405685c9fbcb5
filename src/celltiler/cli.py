"""Command-line front end: build, schedule, verify, compare, ls."""

from __future__ import annotations

import argparse
import gc
import sys
from typing import Iterable, TextIO

from celltiler import decomp
from celltiler.circuit import GateKind, json_value, swap_metrics, t_metrics
from celltiler.lsx import MERGE_SPLIT_LIMIT, TRANSVERSAL_LIMIT, extract_ls, validate_ls
from celltiler.router import compare, compare_csv
from celltiler.scheduler import full_multiplier_schedule, render_timeline, step_budgets, validate_schedule
from celltiler.sim import EQUIV_TOL, assert_equiv, classical_run
from celltiler.tiler import RegisterSpec, build_multiplier_layout, initial_mapping

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

WIDTH_HELP = "operand width, n <= 10 (the queues overflow the tower above 10)"

DECOMPS = {
    "ccz_tdepth1": (decomp.ccz_tdepth1, "ccz", ("a", "b", "c"), "CCZ"),
    "toffoli_tdepth2": (decomp.toffoli_tdepth2, "toffoli", ("a", "b", "t"), "Toffoli"),
    "toffoli_mb": (decomp.toffoli_mb, "toffoli", ("a", "b", "t"), "Toffoli"),
    "controlled_s": (decomp.controlled_s, "cs", ("q1", "q2"), "CS"),
    "and_4anc": (decomp.and_4anc, "and", ("a", "b", "t"), "AND"),
    "and_3anc": (decomp.and_3anc, "and", ("a", "b", "t"), "AND"),
}


def _write(f: TextIO, chunks: Iterable[str]) -> None:
    """Write the text chunks to the open file ``f`` as they come, then close
    it, so a multi-MB artifact is never held whole, as text or as encoded
    bytes. A command opens ``f`` after its compile work and before its first
    result line: an unwritable path prints no result, and a failed compile
    leaves an existing file as it was."""
    with f:
        f.writelines(chunks)


def _cmd_build(args) -> int:
    n = args.n
    layout = build_multiplier_layout(n)
    spec = RegisterSpec.for_width(n)
    mapping = initial_mapping(layout, spec)
    used = len(layout.used_sites())
    comp = len(layout.computational_sites())
    size = layout.lattice.size
    f = open(args.out, "w") if args.out else None
    print(f"{size} qubits, usage {used}/{size}, effectiveness {comp}/{size}")
    if f:
        _write(f, [json_value(layout.payload() | {"mapping": {str(k): s for k, s in mapping.items()}}, 0)])
        print(f"layout written to {args.out}")
    return EXIT_OK


def _cmd_schedule(args) -> int:
    n = args.n
    sched, _final = full_multiplier_schedule(n, optimize_toffoli_depth=args.optimize_toffoli_depth)
    out = decomp.lower_schedule(sched) if args.lower_clifford_t else sched
    c, d = swap_metrics(sched)
    tc, td = t_metrics(out)
    f = open(args.out, "w") if args.out else None
    # the emitters assert every step meets its row, so the rows are the step metrics
    for name, sc, sd in step_budgets(n, args.optimize_toffoli_depth):
        print(f"{name}: swapC={sc} swapD={sd}")
    print(f"total: swapC={c} swapD={d} tC={tc} tD={td} moments={len(out)}")
    if f:
        _write(f, out.json_chunks())
        print(f"schedule written to {args.out}")
    if args.timeline:
        print(render_timeline(sched))
    return EXIT_OK


# _DIGITS[k] maps a byte to the ASCII digit of its bit k ("0" is 48). The
# verified widths, n <= 4, keep every A, B and product value below 256, so
# each value is one byte; bytes() refuses a larger one with ValueError.
_DIGITS = [bytes(48 | v >> k & 1 for v in range(256)) for k in range(8)]


def _packed(values: list[int], k: int) -> int:
    """The int whose bit j is bit k of ``values[j]``."""
    # one digit per value, the last value's first
    return int(bytes(reversed(values)).translate(_DIGITS[k]), 2)


def _cmd_verify(args) -> int:
    target = args.target
    if target.isdecimal():
        n = int(target)
        if n > 4:
            print("exhaustive verification supports n <= 4", file=sys.stderr)
            return EXIT_USAGE
        layout = build_multiplier_layout(n)
        spec = RegisterSpec.for_width(n)
        mapping = initial_mapping(layout, spec)
        sched, final = full_multiplier_schedule(n, layout=layout)
        report = validate_schedule(layout, mapping, sched)
        if not report.ok:
            print(f"adjacency violations: {len(report.violations)}")
            return EXIT_FAIL
        # the oracle reads values by label, so it cannot see a label end on
        # another site than the emitter says
        if report.final_mapping != final:
            print("final mapping differs from the emitted one")
            return EXIT_FAIL
        # one replay for every input: lane a*2^n + b carries (a, b)
        cases = 4 ** n
        a = [lane >> n for lane in range(cases)]
        b = [lane & (2 ** n - 1) for lane in range(cases)]
        bits = {spec.a[i]: _packed(a, i) for i in range(n)} | {spec.b[i]: _packed(b, i) for i in range(n)}
        out = classical_run(sched, mapping, bits, lanes=cases)
        # A and B keep their inputs, P holds a*b and every other label is 0
        ab = [x * y for x, y in zip(a, b)]
        expected = bits | {spec.p[k]: _packed(ab, k) for k in range(2 * n)}
        bad = 0
        for label in out.keys() | expected.keys():
            bad |= out[label] ^ expected.get(label, 0)
        good = cases - bad.bit_count()
        print(f"{good}/{cases} products correct")
        return EXIT_OK if good == cases else EXIT_FAIL
    if target not in DECOMPS:
        print(f"unknown verification target {target!r}", file=sys.stderr)
        return EXIT_USAGE
    build, ref, data, name = DECOMPS[target]
    report = assert_equiv(build(), ref, data)
    if report.ok:
        print(f"equivalent to {name}, tol {EQUIV_TOL:g}")
        return EXIT_OK
    print(f"NOT equivalent to {name}: {report.violations[0]}")
    return EXIT_FAIL


def _cmd_compare(args) -> int:
    if not (2 <= args.nmin <= args.nmax):
        print("need 2 <= n-min <= n-max", file=sys.stderr)
        return EXIT_USAGE
    rows = compare(range(args.nmin, args.nmax + 1))
    text = compare_csv(rows)
    if args.csv:
        _write(open(args.csv, "w"), [text])
        print(f"comparison written to {args.csv}")
    else:
        print(text, end="")
    for r in rows:
        print(
            f"n={r['n']}: routed/tiled swapC ratio {r['ratio_swapC']:.2f}, "
            f"swapD ratio {r['ratio_swapD']:.2f}"
        )
    return EXIT_OK


def _cmd_ls(args) -> int:
    n = args.n
    layout = build_multiplier_layout(n)  # first, so a width error comes before the mode's
    if args.mode == "2d":
        print("mode-error: 2d extraction requires a planar layout", file=sys.stderr)
        return EXIT_FAIL
    sched, _ = full_multiplier_schedule(n, layout=layout)
    lowered = decomp.lower_schedule(sched)
    program = extract_ls(lowered)
    report = validate_ls(program)
    bound = MERGE_SPLIT_LIMIT + TRANSVERSAL_LIMIT
    cnots = lowered.count(GateKind.CNOT)
    f = open(args.out, "w") if args.out else None
    print(f"CNOTs in: {cnots}, LS patterns: {program.pattern_count}, "
          f"transversal: {program.transversal_count}, steps: {len(program.steps)}")
    if report.ok:
        print(f"parallel bound {bound}: satisfied")
    else:
        print(f"parallel bound {bound}: {len(report.violations)} violations")
    if f:
        _write(f, program.json_chunks())
        print(f"program written to {args.out}")
    return EXIT_OK if report.ok else EXIT_FAIL


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="celltiler",
        description="Standard-cell tiling and SWAP scheduling for Toffoli circuits",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("build", help="build a multiplier layout")
    p.add_argument("n", type=int, help=WIDTH_HELP)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_build)

    p = sub.add_parser("schedule", help="emit the multiplier schedule and metrics")
    p.add_argument("n", type=int, help=WIDTH_HELP)
    p.add_argument(
        "--optimize-toffoli-depth", action="store_true",
        help="shorten the Toffoli step's SWAP depth to 2(n-1)+2; needs n >= 3",
    )
    p.add_argument("--lower-clifford-t", action="store_true")
    p.add_argument("--timeline", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_schedule)

    p = sub.add_parser("verify", help="verify a multiplier width or decomposition")
    p.add_argument("target", help="operand width n <= 4 (checked exhaustively) or a decomposition")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("compare", help="tiled vs greedy-routed SWAP metrics")
    p.add_argument("nmin", type=int, help="smallest operand width, >= 2")
    p.add_argument("nmax", type=int, help=WIDTH_HELP)
    p.add_argument("--csv", default=None)
    p.set_defaults(fn=_cmd_compare)

    p = sub.add_parser("ls", help="extract a lattice-surgery program")
    p.add_argument("n", type=int, help=WIDTH_HELP)
    p.add_argument("mode", choices=["2d", "3d"], help="the multiplier layout is a 3-D tower, so 2d is refused with exit 1")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_ls)
    return parser


# built once at import; every call of main only parses
_PARSER = _parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    # No command makes reference cycles (tests/test_cli.py checks that a
    # gc.collect() after each finds nothing), so the cyclic collector would
    # only walk the live gates and LS records; pause it for the command.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
