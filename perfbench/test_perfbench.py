"""Tests of the benchmark itself: reference semantics and a smoke run per workload.

Run from the repository root: python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import reference as ref

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def g(kind, *operands, tags=(), condition=None):
    return {"kind": kind, "operands": list(operands), "condition": condition, "tags": list(tags)}


def test_label_follows_its_value_through_a_swap():
    moments = [[g("x", "wa")], [g("swap", "wa", "wb")]]
    bits, where = ref.run_reversible(moments, {"a": "wa", "b": "wb"}, {})
    assert bits == {"a": 1, "b": 0}
    assert where == {"a": "wb", "b": "wa"}


def test_sparse_swap_is_positional():
    moments = [[g("x", "wa")], [g("swap", "wa", "wb")]]
    ((prob, records, state),) = ref.run_sparse(moments, {})
    assert ref.sole_basis(state)[0] == frozenset({"wb"})


def test_one_bit_multiplier_needs_its_toffoli():
    mapping = {"A0": (0, 0, 0), "B0": (0, 1, 0), "P0": (1, 0, 0), "P1": (1, 1, 0)}
    good = [[g("toffoli", [0, 0, 0], [0, 1, 0], [1, 0, 0])]]
    bits, _ = ref.run_reversible(good, mapping, {"A0": 1, "B0": 1})
    assert ref.multiplier_outcome(bits, 1, 1, 1) is None
    bits, _ = ref.run_reversible([], mapping, {"A0": 1, "B0": 1})
    assert "expected 1*1" in ref.multiplier_outcome(bits, 1, 1, 1)


def test_decomposition_check_rejects_a_wrong_circuit():
    assert ref.check_decomposition("toffoli_tdepth2", [[g("toffoli", "a", "b", "t")]]) is None
    assert ref.check_decomposition("toffoli_tdepth2", [[g("cnot", "a", "t")]]) is not None
    # a CCZ that misses its phase is caught by the relative-phase check
    assert ref.check_decomposition("ccz_tdepth1", [[g("cz", "a", "b")]]) is not None
    assert ref.check_decomposition("ccz_tdepth1", [[g("h", "c")], [g("toffoli", "a", "b", "c")], [g("h", "c")]]) is None


def test_ls_structure_counts_and_bounds():
    def pattern(instance, ctrl, tgt, anc):
        return [
            {"kind": "init_plus", "patches": [anc], "instance": instance},
            {"kind": "merge_split_zz", "patches": [ctrl, anc], "instance": instance},
            {"kind": "merge_split_xx", "patches": [anc, tgt], "instance": instance},
            {"kind": "measure_x", "patches": [anc], "instance": instance},
        ]

    ok = {"steps": [pattern(1, "p", "q", "ls_anc0") + pattern(2, "p", "r", "ls_anc1")]}
    counts, violations = ref.ls_structure(ok)
    assert counts == {"steps": 1, "patterns": 2, "transversal": 0}
    assert violations == []
    crowded = {"steps": [ok["steps"][0] + pattern(3, "p", "s", "ls_anc2")]}
    assert any("patch p" in v for v in ref.ls_structure(crowded)[1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_run(workload):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}


def test_traced_smoke_run():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-small", "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode == 0, out.stderr
    details, result = json.loads(out.stdout.splitlines()[0]), json.loads(out.stdout.splitlines()[-1])
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert details["dominant_layer"] == "sim"
