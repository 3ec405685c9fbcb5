"""Print the sha256 of every artifact one checkout builds, as one JSON object.

Run from anywhere, naming the checkout's ``src`` directory:

    python tools/artifact_hashes.py SRC

For each width n = 1..10 and each legal ``optimize_toffoli_depth``
(``True`` needs n >= 3) it hashes the tiled schedule's JSON, the final
mapping (sorted JSON ``{label: [x, y, z]}``), the lowered schedule's JSON
and the LS program's JSON, and records whether ``validate_ls`` passes. For
n = 1..10 it runs ``build n --out layout.json`` through
``celltiler.cli.main`` in-process, in a temporary directory, and hashes the
written layout file and the stdout. For each decomposition the ``verify``
command knows, and for the cube Toffoli on its cell's sites, it hashes the
circuit's JSON and its LS program's JSON. Then comes the ``compare`` CSV
for widths 2..10. Last, each request of :data:`REFUSED` runs through
``celltiler.cli.main`` in-process, and its exit code and the sha256 of its
stdout and of its stderr are recorded.

Two checkouts build the same artifacts exactly when they print the same
object, so ``diff`` of two runs shows a refactor kept every artifact
byte-identical. A run takes about 3 s on a 2-CPU Xeon.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

# invalid requests: each is refused, with exit 1 or 2
REFUSED = [
    "verify 5", "ls 4 2d", "compare 1 1", "build 11", "schedule 2 --optimize-toffoli-depth",
    "verify nope", "compare 5 3", "schedule 0", "ls 11 2d", "compare 2 11",
]


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def artifact_hashes() -> dict:
    from celltiler import decomp
    from celltiler.cells import toffoli_cube
    from celltiler.cli import DECOMPS, main
    from celltiler.lsx import extract_ls, validate_ls
    from celltiler.router import compare, compare_csv
    from celltiler.scheduler import full_multiplier_schedule

    out = {}
    for n in range(1, 11):
        for depth in (False, True) if n >= 3 else (False,):
            sched, final = full_multiplier_schedule(n, optimize_toffoli_depth=depth)
            lowered = decomp.lower_schedule(sched)
            program = extract_ls(lowered)
            out[f"multiplier {n}" + (" optimize_toffoli_depth" if depth else "")] = {
                "schedule": sha(sched.to_json()),
                "final_mapping": sha(json.dumps({str(k): list(s) for k, s in final.items()}, sort_keys=True)),
                "lowered": sha(lowered.to_json()),
                "ls": sha(program.to_json()),
                "ls_ok": validate_ls(program).ok,
            }
    for n in range(1, 11):
        stdout = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp), contextlib.redirect_stdout(stdout):
            main(["build", str(n), "--out", "layout.json"])
            with open("layout.json") as f:
                out[f"layout {n}"] = {"file": sha(f.read()), "stdout": sha(stdout.getvalue())}
    circuits = {name: (build(), None) for name, (build, *_) in DECOMPS.items()}
    circuits["toffoli_cube"] = decomp.toffoli_cube_circuit(), {w: v for w, v, _ in toffoli_cube().vertices}
    for name, (circ, site_map) in circuits.items():
        out[f"decomposition {name}"] = {"circuit": sha(circ.to_json()), "ls": sha(extract_ls(circ, site_map).to_json())}
    out["compare 2 10"] = sha(compare_csv(compare(range(2, 11))))
    for request in REFUSED:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(request.split())
        out[f"refused {request}"] = {"exit": code, "stdout": sha(stdout.getvalue()), "stderr": sha(stderr.getvalue())}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", help="the checkout's src directory")
    args = parser.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    json.dump(artifact_hashes(), sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
