"""Smoke runs of ``tools/stage_times.py``: one paired run of a small command each."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
STAGES = {
    "layout", "emit", "logical", "route", "replay", "pack", "oracle", "build", "equiv", "lower", "extract",
    "validate", "metrics", "write",
}


def paired_row(command: str) -> dict:
    """One paired run of ``command`` with this checkout on both sides."""
    src = str(ROOT / "src")
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "stage_times.py"), src, src,
         "--procs", "1", "--runs", "1", "--command", command],
        capture_output=True, text=True, check=True, timeout=120,
    )
    row = json.loads(result.stdout)[command]
    # every stage the change spends time in has a ratio and the quartiles
    # around it, which one pair gives as the ratio itself
    spent = {k for k, ms in row["change"]["ms"].items() if ms > 0}
    assert spent <= set(row["parent_over_change"]) == set(row["parent_over_change_quartiles"])
    for k, (lo, hi) in row["parent_over_change_quartiles"].items():
        assert lo == row["parent_over_change"][k] == hi, k
    return row


def test_ratio_quartiles_spread_over_the_pairs():
    # three process pairs of two timed runs: six ratios 1..6 on one stage
    spec = importlib.util.spec_from_file_location("stage_times", ROOT / "tools" / "stage_times.py")
    stage_times = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(stage_times)
    zero = dict.fromkeys((*STAGES, "whole_command"), 0.0)
    parent = [{"samples": [zero | {"emit": 2.0 * i + 1}, zero | {"emit": 2.0 * i + 2}]} for i in range(3)]
    change = [{"samples": [zero | {"emit": 1.0}] * 2} for _ in range(3)]
    mid, spread = stage_times._ratios(parent, change)
    assert mid == {"emit": 3.5}
    assert spread == {"emit": [2.25, 4.75]}


def test_stage_times_reports_every_stage_for_both_sides():
    row = paired_row("verify 2")
    for side in ("parent", "change"):
        assert set(row[side]["ms"]) == STAGES | {"whole_command"}
        assert row[side]["runs"] == 1
    assert row["parent"]["sha256"] == row["change"]["sha256"]
    # verify n builds the layout, emits the schedule, replays it through
    # validate_schedule, packs the lanes and runs them through the oracle
    for stage in ("layout", "emit", "replay", "pack", "oracle"):
        assert row["parent"]["ms"][stage] > 0, stage


def test_stage_times_times_the_equivalence_check():
    # verify <decomposition> builds the circuit and spends its time in assert_equiv
    row = paired_row("verify and_4anc")
    assert row["parent"]["sha256"] == row["change"]["sha256"]
    for stage in ("build", "equiv"):
        assert row["parent"]["ms"][stage] > 0 and row["change"]["ms"][stage] > 0, stage


def test_stage_times_times_the_comparison():
    # compare emits the tiled schedule, builds and routes the logical
    # circuit and counts both with swap_metrics
    row = paired_row("compare 2 2")
    assert row["parent"]["sha256"] == row["change"]["sha256"]
    for stage in ("emit", "logical", "route", "metrics"):
        assert row["parent"]["ms"][stage] > 0 and row["change"]["ms"][stage] > 0, stage


@pytest.mark.parametrize("command, stages", [
    # ls lowers the schedule, extracts and checks the LS program and writes it
    ("ls 2 3d --out", ("lower", "extract", "validate", "write")),
    # schedule --lower-clifford-t lowers, counts SWAPs and Ts and writes the schedule
    ("schedule 2 --lower-clifford-t --out", ("lower", "metrics", "write")),
])
def test_stage_times_times_the_written_artifacts(command, stages):
    row = paired_row(command)
    assert row["parent"]["sha256"] == row["change"]["sha256"]
    for stage in stages:
        assert row["parent"]["ms"][stage] > 0 and row["change"]["ms"][stage] > 0, stage
