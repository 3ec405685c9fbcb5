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

ROOT = Path(__file__).resolve().parents[1]


def test_artifact_hashes_match_the_pins():
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "artifact_hashes.py"), str(ROOT / "src")],
        capture_output=True, text=True, check=True, timeout=120,
    )
    hashes = json.loads(result.stdout)
    widths = [f"multiplier {n}{depth}" for n in range(1, 11)
              for depth in (["", " optimize_toffoli_depth"] if n >= 3 else [""])]
    decompositions = [f"decomposition {name}" for name in [*DECOMPS, "toffoli_cube"]]
    assert list(hashes) == [*widths, *decompositions, "compare 2 10"]
    assert all(hashes[key]["ls_ok"] is True for key in widths)
    # the tiled, lowered and LS digests that tests/test_lsx.py pins
    for n, pinned in GOLDEN.items():
        row = hashes[f"multiplier {n}"]
        assert (row["schedule"], row["lowered"], row["ls"]) == pinned
    _, final = full_multiplier_schedule(4, optimize_toffoli_depth=True)
    text = json.dumps({str(label): list(site) for label, site in final.items()}, sort_keys=True)
    assert hashes["multiplier 4 optimize_toffoli_depth"]["final_mapping"] == hashlib.sha256(text.encode()).hexdigest()
    csv = compare_csv(compare(range(2, 11)))
    assert hashes["compare 2 10"] == hashlib.sha256(csv.encode()).hexdigest()
