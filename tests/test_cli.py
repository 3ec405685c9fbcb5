import argparse
import gc
import hashlib
import json

import pytest

from celltiler import cli, decomp, lsx, router, scheduler
from celltiler.circuit import GateKind, Report, Schedule, gate
from celltiler.cli import main
from celltiler.router import compare, compare_csv
from celltiler.sim import classical_run
from celltiler.tiler import RegisterSpec, build_multiplier_layout, initial_mapping


def test_build_prints_counts(capsys):
    assert main(["build", "4"]) == 0
    out = capsys.readouterr().out
    assert "48 qubits, usage 33/48" in out


def test_build_n1(capsys):
    assert main(["build", "1"]) == 0
    assert "18 qubits" in capsys.readouterr().out


def _assert_clean_usage_error(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err and "Traceback" not in captured.err


def test_build_rejects_zero(capsys):
    assert main(["build", "0"]) == 2
    _assert_clean_usage_error(capsys)


def test_build_writes_layout(tmp_path):
    out = tmp_path / "layout.json"
    assert main(["build", "2", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["lattice"] == [2, 3, 5]
    assert "mapping" in payload
    assert out.read_text() == json.dumps(payload, indent=2, sort_keys=True)


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


# `verify` stdout and exit code, computed before the check packed every
# input into one replay
VERIFY_OUTPUT = {
    "1": ("4/4 products correct\n", 0),
    "2": ("16/16 products correct\n", 0),
    "3": ("64/64 products correct\n", 0),
    "4": ("256/256 products correct\n", 0),
    "5": ("", 2),
    "and_3anc": ("equivalent to AND, tol 1e-10\n", 0),
    "and_4anc": ("equivalent to AND, tol 1e-10\n", 0),
    "ccz_tdepth1": ("equivalent to CCZ, tol 1e-10\n", 0),
    "controlled_s": ("equivalent to CS, tol 1e-10\n", 0),
    "toffoli_mb": ("equivalent to Toffoli, tol 1e-10\n", 0),
    "toffoli_tdepth2": ("equivalent to Toffoli, tol 1e-10\n", 0),
}


@pytest.mark.parametrize("target", sorted(VERIFY_OUTPUT))
def test_verify_output_pinned(target, capsys):
    stdout, code = VERIFY_OUTPUT[target]
    assert main(["verify", target]) == code
    assert capsys.readouterr().out == stdout


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_verify_replays_the_schedule_once(n, monkeypatch, capsys):
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs.get("lanes", 1))
        return classical_run(*args, **kwargs)

    monkeypatch.setattr(cli, "classical_run", counted)
    assert main(["verify", str(n)]) == 0
    assert calls == [4 ** n]
    assert capsys.readouterr().out == f"{4 ** n}/{4 ** n} products correct\n"


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_packed_planes_match_the_per_lane_reference(n):
    lanes = range(4 ** n)
    a = [lane >> n for lane in lanes]
    b = [lane & (2 ** n - 1) for lane in lanes]
    ab = [x * y for x, y in zip(a, b)]
    for values, width in ((a, n), (b, n), (ab, 2 * n)):
        for k in range(width):
            assert cli._packed(values, k) == sum((v >> k & 1) << j for j, v in enumerate(values))


def test_packed_refuses_a_value_past_one_byte():
    assert cli._packed([255, 0, 128], 7) == 0b101
    with pytest.raises(ValueError):
        cli._packed([1, 256], 0)


def test_verify_counts_each_failing_input(monkeypatch, capsys):
    n = 3
    spec = RegisterSpec.for_width(n)
    mapping = initial_mapping(build_multiplier_layout(n), spec)
    sched, final = scheduler.full_multiplier_schedule(n)
    # the 14th Toffoli, by its place: one gate object may fire at many places
    dropped = [(mi, gi) for mi, m in enumerate(sched.moments)
               for gi, g in enumerate(m) if g.kind is GateKind.TOFFOLI][13]
    broken = Schedule([[g for gi, g in enumerate(m) if (mi, gi) != dropped]
                       for mi, m in enumerate(sched.moments)])
    # the scalar oracle, one input at a time: A and B kept, P = a*b, every
    # other label back at 0
    good = products = 0
    for a in range(2 ** n):
        for b in range(2 ** n):
            bits = {spec.a[i]: a >> i & 1 for i in range(n)} | {spec.b[i]: b >> i & 1 for i in range(n)}
            out = classical_run(broken, mapping, bits)
            want = bits | {spec.p[k]: a * b >> k & 1 for k in range(2 * n)}
            good += all(value == want.get(label, 0) for label, value in out.items())
            products += all(out[label] == want[label] for label in want)
    # the products all survive; only a label outside A, B and P is left dirty
    assert good < products == 4 ** n

    monkeypatch.setattr(cli, "full_multiplier_schedule", lambda _n, **_kw: (broken, final))
    assert main(["verify", str(n)]) == 1
    assert capsys.readouterr().out == f"{good}/64 products correct\n"


@pytest.mark.parametrize("argv", [["verify", "4"], ["ls", "4", "3d"], ["compare", "4", "4"]])
def test_each_command_builds_one_layout_and_emits_once(monkeypatch, argv):
    calls = {"layout": 0, "emit": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in (cli, router, scheduler):
        monkeypatch.setattr(module, "build_multiplier_layout", counted("layout", build_multiplier_layout))
    emit = counted("emit", scheduler.full_multiplier_schedule)
    for module in (cli, router):
        monkeypatch.setattr(module, "full_multiplier_schedule", emit)
    assert main(argv) == 0
    assert calls == {"layout": 1, "emit": 1}


def test_verify_decomposition(capsys):
    assert main(["verify", "ccz_tdepth1"]) == 0
    assert "equivalent to CCZ, tol 1e-10" in capsys.readouterr().out


def test_verify_unknown_target(capsys):
    assert main(["verify", "bogus"]) == 2
    _assert_clean_usage_error(capsys)


def test_verify_superscript_digit_is_an_unknown_target(capsys):
    # "²".isdigit() holds but int("²") raises: the target is no width
    assert main(["verify", "²"]) == 2
    err = capsys.readouterr().err
    assert err == "unknown verification target '²'\n"
    assert "invalid literal" not in err


def test_verify_reads_a_fullwidth_width(capsys):
    assert main(["verify", "\uff14"]) == 0
    assert capsys.readouterr().out == "256/256 products correct\n"


def test_compare_writes_csv(tmp_path):
    out = tmp_path / "cmp.csv"
    assert main(["compare", "2", "3", "--csv", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,tiled_swapC,tiled_swapD,routed_swapC,routed_swapD"
    assert len(lines) == 3


def test_compare_rejects_bad_range(capsys):
    assert main(["compare", "1", "3"]) == 2
    _assert_clean_usage_error(capsys)


def test_compare_rejects_a_bad_width_before_compiling_any(monkeypatch, capsys):
    def refuse(*_args, **_kwargs):
        raise AssertionError("compare compiled a width before checking them all")

    for module in (scheduler, cli, router):
        if hasattr(module, "full_multiplier_schedule"):
            monkeypatch.setattr(module, "full_multiplier_schedule", refuse)
    assert main(["compare", "2", "11"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: multiplier schedules are not supported for n=11\n"


@pytest.mark.parametrize(
    "argv",
    [["build", "2", "--out"], ["schedule", "2", "--lower-clifford-t", "--out"], ["ls", "2", "3d", "--out"],
     ["compare", "2", "2", "--csv"]],
    ids=lambda argv: argv[0],
)
def test_output_in_missing_directory_is_a_clean_error(argv, tmp_path, capsys):
    # the file is opened before the first result line, so a run that cannot
    # write its artifact prints no result as if it had succeeded
    assert main([*argv, str(tmp_path / "missing" / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ["build", "0", "--out"],
    ["schedule", "2", "--optimize-toffoli-depth", "--lower-clifford-t", "--out"],
    ["ls", "11", "3d", "--out"],
], ids=lambda argv: argv[0])
def test_a_failed_compile_leaves_the_artifact_untouched(argv, tmp_path, capsys):
    out = tmp_path / "out.json"
    out.write_text("earlier")
    assert main([*argv, str(out)]) == 2
    assert capsys.readouterr().out == ""
    assert out.read_text() == "earlier"


def test_ls_3d(capsys, tmp_path):
    out = tmp_path / "prog.json"
    assert main(["ls", "1", "3d", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "parallel bound 4: satisfied" in text
    assert out.exists()


def test_out_files_equal_to_json(tmp_path):
    # the CLI streams the artifacts in chunks; the file is to_json() exactly
    sched, _ = scheduler.full_multiplier_schedule(3)
    lowered = decomp.lower_schedule(sched)
    program = lsx.extract_ls(lowered)
    out = tmp_path / "out.json"
    assert main(["schedule", "3", "--lower-clifford-t", "--out", str(out)]) == 0
    assert out.read_bytes() == lowered.to_json().encode()
    assert main(["ls", "3", "3d", "--out", str(out)]) == 0
    assert out.read_bytes() == program.to_json().encode()


def _artifact(which):
    if which == "empty schedule":
        return Schedule(), "moments"
    if which == "empty program":
        return lsx.LSProgram(), "steps"
    sched, _ = scheduler.full_multiplier_schedule(4)
    if which == "tiled":
        return sched, "moments"
    lowered = decomp.lower_schedule(sched)
    if which == "lowered":
        return lowered, "moments"
    return lsx.extract_ls(lowered), "steps"


@pytest.mark.parametrize("which", ["tiled", "lowered", "ls", "empty schedule", "empty program"])
def test_json_chunks_hold_one_row_each(which):
    # cli._write keeps a multi-MB artifact out of memory only while each
    # chunk between the head and the tail holds one moment or step
    artifact, key = _artifact(which)
    chunks = list(artifact.json_chunks())
    rows = json.loads(artifact.to_json())[key]
    assert len(chunks) == len(getattr(artifact, key)) + 2 == len(rows) + 2
    for chunk, row in zip(chunks[1:-1], rows):
        assert chunk[0] in "[," and json.loads(chunk[1:]) == row
    assert "".join(chunks) == artifact.to_json()


def test_ls_2d_mode_error(capsys):
    assert main(["ls", "2", "2d"]) == 1
    assert "mode-error" in capsys.readouterr().err


def test_ls_2d_fails_before_compiling(monkeypatch, capsys):
    def compiled(*_args, **_kwargs):
        raise AssertionError("ls 2d compiled before its mode check")

    monkeypatch.setattr(cli, "full_multiplier_schedule", compiled)
    monkeypatch.setattr(decomp, "lower_schedule", compiled)
    assert main(["ls", "4", "2d"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "mode-error: 2d extraction requires a planar layout\n"


@pytest.mark.parametrize("n, message", [
    ("0", "operand width must be >= 1, got 0"),
    ("11", "multiplier schedules are not supported for n=11"),
])
def test_ls_2d_refuses_the_width_first(n, message, capsys):
    # the layout is built before the mode is checked, so a bad width is a
    # usage error, not a mode-error
    assert main(["ls", n, "2d"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_ls_help_states_that_2d_is_refused(capsys):
    assert main(["ls", "-h"]) == 0
    assert "3-D tower, so 2d is refused with exit 1" in " ".join(capsys.readouterr().out.split())


# sha256 of `ls n 3d` stdout, computed before LS records became tuples and
# patch names were resolved once per operand tuple
LS_STDOUT_SHA256 = {
    1: "578a681bbb76af10b0734c2d83385032cd81f041587ad0ebc9cddaa695e9ea5d",
    2: "eb934e49f26d5cf1ef3f3b8e274aefefe2512aa45ab6b80630aff8a9d865e019",
    3: "bba7ac157ed6b84f20917487b6b040f9e11501cd0c19286eac620b28e1b325c7",
    4: "bc6bf9e32b04f723f24765255c17b4a3fb49c0c10a926fe00139045135969c94",
    5: "4b6654becebdac82505b47e0dbe450fd855d7a468614ad8d9773397f930e0bdb",
    6: "8e5c4c06d9060e5ac67d4a52e813bf88eeba6f8938541b651e8a02a2e42d76ea",
    7: "79fe759bf400cc48cb7b8877e1a31d881050351977514f227bd396800b26cd51",
    8: "7e68d9853a21a59d2857b32e1db3349cb4d55fc764bde34fa62d96035e164aa1",
    9: "46f8927f4edb4c3335aea411d9fd76ef58a38c9fbd68146e7bc7749f12a7ad2b",
    10: "ba9f1950a6ab0316a65acdf618b8173ee04d918f129977ed34741ed93e8b1203",
}


@pytest.mark.parametrize("n", sorted(LS_STDOUT_SHA256))
def test_ls_stdout_pinned(n, capsys):
    assert main(["ls", str(n), "3d"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == LS_STDOUT_SHA256[n]


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


# sha256 of `schedule n` stdout, computed before the command stopped
# re-emitting every step to print its per-step lines
SCHEDULE_STDOUT_SHA256 = {
    (1, False): "b4a0c81ce35214876af7a765f0966cef74ac2fa49243da2c8a9ee683aad36ccd",
    (2, False): "2214a3eac5b8fad4c02978951369a092d20f18e844ff689b82130194e1d18f94",
    (3, False): "d825733402c5c13d3de56e534ea061bcdf835ff243122e4a01663ad1ed309c6e",
    (4, False): "457769a398631aaee33cb638abe6fbe7855217e4dc2f85b45d048d2fb8b44023",
    (5, False): "59d83d401577bbc17b0dbc512a624933ea1ce169dd281a7da990517b794ac1fe",
    (6, False): "ddf97b1598c9e2b77097e5c91decaf9f24c3c29c13427bc8576ea28d23a96a6b",
    (7, False): "189520dc4f5e89995c7d5c461b4d7fe91e0cebcff428c5756224d9789bdddd61",
    (8, False): "22aa345e7adf7dba8637cfbe57734fa26cf06b876638b279aea9d89c8ad25142",
    (9, False): "b1d275fcf2cc80d5fcf4784a4daa083f8578b5a8372a869d69be2255e081c982",
    (10, False): "0490da0578c8ef9b2b13df952310974e237bfcd322fdf434e31a31a8ef78ec6c",
    (3, True): "6c8a64bfc903ea21fe353efcdc2da44a9e47cc3d5f9665446b08e120adb1cc42",
    (4, True): "40b5d31a1f0fd26518496afa1fc29a652138d4c5431ef822e2f9e48df24e775c",
    (5, True): "9d9ef901e194a9d39d726bacc0b388fc2a09ed71324eafe885296813a7281c3c",
    (6, True): "fa65cab25e32d81ea766c6bceea8edb944381338e335d5650c3c38b07ec323ed",
    (7, True): "b410fbb68aca38cc687049710c5b5e7b0c92e7d2592ca86dd5d004ca11907760",
    (8, True): "893c4d2e80fe269c7efbb7b1da64cf52383825d29e4a65a6c5e60d39e6df08f9",
    (9, True): "988952e99beebffde9dfca7670d950aca69f609c1b725ccb315b96aa1ada1de6",
    (10, True): "9342030afdfe5187935621db29f580e6e24ed35ffde37f4f5ef74e3af5ae4481",
}


@pytest.mark.parametrize("n, optimized", sorted(SCHEDULE_STDOUT_SHA256))
def test_schedule_stdout_pinned(n, optimized, capsys):
    flags = ["--optimize-toffoli-depth"] if optimized else []
    assert main(["schedule", str(n), *flags]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SCHEDULE_STDOUT_SHA256[n, optimized]


@pytest.mark.parametrize("n", [2, 3, 5])
def test_schedule_emits_each_step_once(n, monkeypatch):
    calls = []
    inside = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append((name, bool(inside)))
            inside.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                inside.pop()
        return wrapper

    # patch every reference, so a direct call from the CLI is counted too;
    # every step of one multiplier runs on one board and ends in its finish
    for name in ("full_multiplier_schedule", "toffoli_step", "ctrl_add_step", "reset_step"):
        for module in (scheduler, cli):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    monkeypatch.setattr(scheduler._Board, "finish", counted("finish", scheduler._Board.finish))
    assert main(["schedule", str(n)]) == 0
    steps = (["toffoli_step"] + ["ctrl_add_step", "reset_step"] * (n - 1))[: 2 * n - 2]
    expected = [("full_multiplier_schedule", False)]
    for step in steps:
        expected += [(step, True), ("finish", True)]
    assert calls == expected


@pytest.mark.parametrize("n", [1, 2])
def test_optimized_depth_needs_three_rungs(n, capsys):
    assert main(["schedule", str(n), "--optimize-toffoli-depth"]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: the depth-optimised Toffoli step needs n >= 3 (its padding "
        f"SWAPs do not fit on a shorter tower), got n={n}\n"
    )
    assert "Traceback" not in captured.out + captured.err


def test_optimized_depth_help_states_limit(capsys):
    assert main(["schedule", "-h"]) == 0
    assert "needs n >= 3" in " ".join(capsys.readouterr().out.split())


def test_main_parses_without_building_a_parser(monkeypatch, capsys):
    # the parser is built once, at import; main only parses
    def refuse(*_args, **_kwargs):
        raise AssertionError("main built an argument parser")

    monkeypatch.setattr(argparse, "ArgumentParser", refuse)
    assert main(["verify", "2"]) == 0
    assert main(["build", "1"]) == 0
    assert "18 qubits" in capsys.readouterr().out


# main pauses the cyclic collector for the command; that frees nothing later
# only while no command leaves reference cycles behind: every command, the
# refused ls 2d and the OSError path
CYCLE_FREE_ARGV = [
    ["ls", "3", "3d", "--out", "OUT"],
    ["schedule", "3", "--lower-clifford-t", "--timeline", "--out", "OUT"],
    ["verify", "3"],
    ["verify", "toffoli_mb"],
    ["compare", "3", "3", "--csv", "OUT"],
    ["build", "3", "--out", "OUT"],
    ["ls", "4", "2d"],
    ["ls", "3", "3d", "--out", "MISSING"],
]


def _paths(argv: list[str], tmp_path) -> list[str]:
    paths = {"OUT": str(tmp_path / "out"), "MISSING": str(tmp_path / "missing" / "x")}
    return [paths.get(a, a) for a in argv]


@pytest.mark.parametrize("argv", CYCLE_FREE_ARGV, ids="_".join)
def test_commands_leave_no_cyclic_garbage(argv, tmp_path):
    gc.collect()
    main(_paths(argv, tmp_path))
    assert gc.collect() == 0


def _set_collector(enabled: bool) -> None:
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("argv, code", [
    (["verify", "2"], 0),
    (["ls", "2", "2d"], 1),
    (["ls", "1", "3d", "--out", "MISSING"], 2),
], ids=["success", "exit-1", "caught-exception"])
def test_main_restores_the_collector_state(enabled, argv, code, tmp_path):
    before = gc.isenabled()
    try:
        _set_collector(enabled)
        assert main(_paths(argv, tmp_path)) == code
        assert gc.isenabled() is enabled
    finally:
        _set_collector(before)


def test_collector_is_paused_for_the_command_only(monkeypatch):
    seen = []

    def layout(_n):
        seen.append(gc.isenabled())
        raise RuntimeError("escaped")

    monkeypatch.setattr(cli, "build_multiplier_layout", layout)
    before = gc.isenabled()
    try:
        gc.enable()
        with pytest.raises(RuntimeError, match="escaped"):
            main(["build", "1"])
        assert seen == [False]
        assert gc.isenabled()
    finally:
        _set_collector(before)


def test_verify_rejects_zero_width(capsys):
    assert main(["verify", "0"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: operand width must be >= 1, got 0\n")


def test_compare_without_csv_prints_it(capsys):
    assert main(["compare", "2", "2"]) == 0
    row = compare([2])[0]
    assert capsys.readouterr().out == compare_csv([row]) + (
        f"n=2: routed/tiled swapC ratio {row['ratio_swapC']:.2f}, swapD ratio {row['ratio_swapD']:.2f}\n"
    )


def test_verify_prints_adjacency_violations(monkeypatch, capsys):
    monkeypatch.setattr(cli, "validate_schedule", lambda *args: scheduler.ValidationReport(["a", "b"]))
    assert main(["verify", "2"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("adjacency violations: 2\n", "")


def test_verify_refuses_a_final_mapping_the_replay_does_not_reach(monkeypatch, capsys):
    sched, final = scheduler.full_multiplier_schedule(2)
    a0, a1 = RegisterSpec.for_width(2).a
    claimed = final | {a0: final[a1], a1: final[a0]}
    monkeypatch.setattr(cli, "full_multiplier_schedule", lambda _n, **_kw: (sched, claimed))
    assert main(["verify", "2"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("final mapping differs from the emitted one\n", "")


def test_verify_prints_a_failed_decomposition(monkeypatch, capsys):
    # a bare CNOT onto the target is no Toffoli
    wrong = (lambda: Schedule([[gate("cnot", "a", "t")]]), "toffoli", ("a", "b", "t"), "Toffoli")
    monkeypatch.setitem(cli.DECOMPS, "toffoli_mb", wrong)
    assert main(["verify", "toffoli_mb"]) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith("NOT equivalent to Toffoli: worst deviation ")
    assert captured.err == ""


def test_ls_prints_bound_violations(monkeypatch, capsys):
    monkeypatch.setattr(cli, "validate_ls", lambda *args: Report(["step 0: x"]))
    assert main(["ls", "1", "3d"]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines()[-1] == "parallel bound 4: 1 violations"
    assert captured.err == ""
    # the printed 3d bound is both per-step limits
    assert lsx.MERGE_SPLIT_LIMIT + lsx.TRANSVERSAL_LIMIT == 4
