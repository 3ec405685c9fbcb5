"""Smoke run of ``tools/artifact_hashes.py`` on this checkout."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

from test_lsx import GOLDEN

from celltiler.cli import DECOMPS
from celltiler.router import compare, compare_csv
from celltiler.scheduler import full_multiplier_schedule
from celltiler.tiler import RegisterSpec, build_multiplier_layout, initial_mapping

ROOT = Path(__file__).resolve().parents[1]
# the refused requests, in the tool's order, with their exit codes
REFUSED_EXITS = {
    "verify 5": 2, "ls 4 2d": 1, "compare 1 1": 2, "build 11": 2, "schedule 2 --optimize-toffoli-depth": 2,
    "verify nope": 2, "compare 5 3": 2, "schedule 0": 2, "ls 11 2d": 2, "compare 2 11": 2,
}


def test_artifact_hashes_match_the_pins():
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "artifact_hashes.py"), str(ROOT / "src")],
        capture_output=True, text=True, check=True, timeout=120,
    )
    hashes = json.loads(result.stdout)
    widths = [f"multiplier {n}{depth}" for n in range(1, 11)
              for depth in (["", " optimize_toffoli_depth"] if n >= 3 else [""])]
    decompositions = [f"decomposition {name}" for name in [*DECOMPS, "toffoli_cube"]]
    layouts = [f"layout {n}" for n in range(1, 11)]
    refused = [f"refused {request}" for request in REFUSED_EXITS]
    assert list(hashes) == [*widths, *layouts, *decompositions, "compare 2 10", *refused]
    assert all(hashes[key]["ls_ok"] is True for key in widths)
    # the tiled, lowered and LS digests that tests/test_lsx.py pins
    for n, pinned in GOLDEN.items():
        row = hashes[f"multiplier {n}"]
        assert (row["schedule"], row["lowered"], row["ls"]) == pinned
    _, final = full_multiplier_schedule(4, optimize_toffoli_depth=True)
    text = json.dumps({str(label): list(site) for label, site in final.items()}, sort_keys=True)
    assert hashes["multiplier 4 optimize_toffoli_depth"]["final_mapping"] == hashlib.sha256(text.encode()).hexdigest()
    # the layout file is what json.dumps writes for the layout payload
    layout = build_multiplier_layout(3)
    mapping = initial_mapping(layout, RegisterSpec.for_width(3))
    payload = layout.payload() | {"mapping": {str(label): site for label, site in mapping.items()}}
    text = json.dumps(payload, indent=2, sort_keys=True)
    stdout = "36 qubits, usage 26/36, effectiveness 9/36\nlayout written to layout.json\n"
    assert hashes["layout 3"] == {"file": hashlib.sha256(text.encode()).hexdigest(),
                                  "stdout": hashlib.sha256(stdout.encode()).hexdigest()}
    csv = compare_csv(compare(range(2, 11)))
    assert hashes["compare 2 10"] == hashlib.sha256(csv.encode()).hexdigest()
    # a refusal prints nothing on stdout and its message on stderr
    empty = hashlib.sha256(b"").hexdigest()
    for request, code in REFUSED_EXITS.items():
        row = hashes[f"refused {request}"]
        assert (row["exit"], row["stdout"]) == (code, empty) and row["stderr"] != empty, request
