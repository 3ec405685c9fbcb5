import json

import pytest

from celltiler.cli import main


def test_build_prints_counts(capsys):
    assert main(["build", "4"]) == 0
    out = capsys.readouterr().out
    assert "48 qubits, usage 33/48" in out


def test_build_n1(capsys):
    assert main(["build", "1"]) == 0
    assert "18 qubits" in capsys.readouterr().out


def test_build_rejects_zero(capsys):
    assert main(["build", "0"]) == 2


def test_build_writes_layout(tmp_path, capsys):
    out = tmp_path / "layout.json"
    assert main(["build", "2", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["lattice"] == [2, 3, 5]
    assert "mapping" in payload


def test_schedule_metrics(capsys, tmp_path):
    out = tmp_path / "sched.json"
    assert main(["schedule", "4", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "swapC=171" in text
    assert out.exists()


def test_schedule_n1_has_no_ctrl_add(capsys):
    assert main(["schedule", "1"]) == 0
    text = capsys.readouterr().out
    assert "ctrl-add" not in text


def test_schedule_optimized_depth(capsys):
    assert main(["schedule", "4", "--optimize-toffoli-depth"]) == 0
    assert "swapD=8" in capsys.readouterr().out.splitlines()[0]


def test_verify_multiplier(capsys):
    assert main(["verify", "3"]) == 0
    assert "64/64 products correct" in capsys.readouterr().out


def test_verify_decomposition(capsys):
    assert main(["verify", "ccz_tdepth1"]) == 0
    assert "equivalent to CCZ, tol 1e-10" in capsys.readouterr().out


def test_verify_unknown_target(capsys):
    assert main(["verify", "bogus"]) == 2


def test_compare_writes_csv(tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    assert main(["compare", "2", "3", "--csv", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,tiled_swapC,tiled_swapD,routed_swapC,routed_swapD"
    assert len(lines) == 3


def test_compare_rejects_bad_range(capsys):
    assert main(["compare", "1", "3"]) == 2


def test_ls_3d(capsys, tmp_path):
    out = tmp_path / "prog.json"
    assert main(["ls", "1", "3d", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "parallel bound 4: satisfied" in text
    assert out.exists()


def test_ls_2d_mode_error(capsys):
    assert main(["ls", "2", "2d"]) == 1
    assert "mode-error" in capsys.readouterr().err


def test_deterministic_outputs(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["schedule", "2", "--out", str(a)])
    main(["schedule", "2", "--out", str(b)])
    assert a.read_text() == b.read_text()


@pytest.mark.parametrize(
    "cmd, limit",
    [("build", "n <= 10"), ("schedule", "n <= 10"), ("ls", "n <= 10"),
     ("compare", "<= 10"), ("verify", "n <= 4")],
)
def test_help_states_width_limit(cmd, limit, capsys):
    assert main([cmd, "-h"]) == 0
    assert limit in " ".join(capsys.readouterr().out.split())
