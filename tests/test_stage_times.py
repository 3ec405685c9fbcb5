"""A smoke run of ``tools/stage_times.py``: one paired run of a small command."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
STAGES = {"emit", "logical", "route", "replay", "oracle", "lower", "extract", "validate", "metrics", "write"}


def test_stage_times_reports_every_stage_for_both_sides():
    src = str(ROOT / "src")
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "stage_times.py"), src, src,
         "--procs", "1", "--runs", "1", "--command", "verify 2"],
        capture_output=True, text=True, check=True, timeout=120,
    )
    row = json.loads(result.stdout)["verify 2"]
    for side in ("parent", "change"):
        assert set(row[side]["ms"]) == STAGES | {"whole_command"}
        assert row[side]["runs"] == 1
    assert row["parent"]["sha256"] == row["change"]["sha256"]
    # verify n emits the schedule and replays it through the oracle
    assert row["parent"]["ms"]["emit"] > 0 and row["parent"]["ms"]["oracle"] > 0
