"""scripts/compare_reports.py on two small synthetic reports."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_reports.py"


def _side(value, stderr=0.0):
    return {"value": value, "stderr": stderr, "n_samples": 0 if stderr == 0.0
            else 1000, "exact": stderr == 0.0}


def _case(label, lhs, rhs, status="pass"):
    return {"label": label, "lhs": lhs, "rhs": rhs, "direction": "le",
            "tol": 0.0, "sigmas": 3.0, "status": status, "margin": 0.0,
            "ratio": lhs["value"] / rhs["value"]}


def _cell(check, body, cases):
    binding = cases[0]
    return {"id": check, "body": body, "n": 3, "lhs": binding["lhs"],
            "rhs": binding["rhs"], "ratio": binding["ratio"],
            "status": binding["status"], "detail": {"cases": cases}}


def _report():
    return {"results": [
        _cell("T-QUER-2", "cube", [_case("p=1", _side(1.0, 0.01), _side(2.0)),
                                   _case("p=2", _side(1.5, 0.02), _side(2.0))]),
        _cell("GHP", "cube", [_case("worst", _side(1.9), _side(4.0))]),
        {"id": "T-HYPER-2", "body": "cube", "n": 3, "lhs": _side(float("nan")),
         "rhs": _side(float("nan")), "ratio": float("nan"),
         "status": "skipped", "detail": {"reason": "body class outside zonoid"}},
    ]}


def _run(tmp_path, a, b):
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(a))
    pb.write_text(json.dumps(b))
    proc = subprocess.run([sys.executable, str(SCRIPT), str(pa), str(pb)],
                          capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stdout


def test_identical_reports(tmp_path):
    code, out = _run(tmp_path, _report(), _report())
    assert code == 0
    assert "changed cells: 0" in out
    assert "largest relative lhs/rhs value change: 0 (none)" in out
    assert "verdicts: unchanged" in out


def test_value_and_stderr_changes_keep_exit_zero(tmp_path):
    b = _report()
    quer = b["results"][0]["detail"]["cases"]
    quer[0]["lhs"] = _side(1.0 * (1 + 1e-9), 0.01)           # value moves
    quer[1]["lhs"] = _side(1.5, 0.02 * (1 + 1e-9))           # stderr widens
    b["results"][1]["detail"]["cases"][0]["lhs"] = _side(1.9, 1e-3)  # 0 -> > 0
    code, out = _run(tmp_path, _report(), b)
    assert code == 0
    assert "changed cells: 2" in out
    assert "largest relative lhs/rhs value change: 1e-09 (T-QUER-2 cube n=3 " \
           "[p=1] lhs)" in out
    assert "sub-cases with stderr widened by more than 1e-12 relative: 2" in out
    assert "T-QUER-2 cube n=3 [p=2] lhs: stderr" in out
    assert "GHP cube n=3 [worst] lhs: stderr 0.0 -> 0.001" in out
    assert "verdicts: unchanged" in out


def test_narrower_stderr_is_not_reported(tmp_path):
    b = _report()
    b["results"][0]["detail"]["cases"][0]["lhs"] = _side(1.0, 0.005)
    code, out = _run(tmp_path, _report(), b)
    assert code == 0
    assert "relative: 0" in out


def test_verdict_changes_exit_one(tmp_path):
    b = _report()
    b["results"][0]["detail"]["cases"][1]["status"] = "fail"
    b["results"][0]["status"] = "fail"
    code, out = _run(tmp_path, _report(), b)
    assert code == 1
    assert "cell status changes: 1" in out
    assert "T-QUER-2 cube n=3: pass -> fail" in out
    assert "sub-case status changes: 1" in out
    assert "T-QUER-2 cube n=3 [p=2]: pass -> fail" in out
    assert "verdicts: CHANGED" in out


def test_missing_cell_is_a_verdict_change(tmp_path):
    b = _report()
    del b["results"][1]
    code, out = _run(tmp_path, _report(), b)
    assert code == 1
    assert "GHP cube n=3: pass -> (absent)" in out


def test_dropped_sub_case_leaves_the_others_matched(tmp_path):
    b = _report()
    del b["results"][0]["detail"]["cases"][0]
    code, out = _run(tmp_path, _report(), b)
    assert code == 1
    assert "sub-case status changes: 1" in out
    assert "T-QUER-2 cube n=3 [p=1]: pass -> (absent)" in out
    assert "[p=2] lhs" not in out


def test_rise_prints_positive_signed_change(tmp_path):
    b = _report()
    b["results"][1]["detail"]["cases"][0]["lhs"] = _side(1.9 * (1 + 2e-9))
    b["results"][1]["lhs"] = b["results"][1]["detail"]["cases"][0]["lhs"]
    code, out = _run(tmp_path, _report(), b)
    assert code == 0
    assert "changed cells: 1" in out
    assert "GHP cube n=3: largest relative lhs/rhs value change 2e-09" in out
    line = next(ln for ln in out.splitlines() if ln.startswith("    [worst]"))
    assert line.startswith("    [worst] lhs: 1.9 -> 1.900000003")
    assert line.endswith(", signed relative change +2e-09")


def test_drop_prints_negative_signed_change(tmp_path):
    b = _report()
    b["results"][0]["detail"]["cases"][1]["rhs"] = _side(1.5)
    code, out = _run(tmp_path, _report(), b)
    assert code == 0
    assert "changed cells: 1" in out
    assert "T-QUER-2 cube n=3: largest relative lhs/rhs value change 0.25" in out
    assert "    [p=2] rhs: 2.0 -> 1.5, signed relative change -0.25" in out
    assert "[p=1]" not in out


def test_summary_counts_rises_and_drops(tmp_path):
    code, out = _run(tmp_path, _report(), _report())
    assert "lhs/rhs values: 0 rose, 0 dropped; largest rise none" in out
    b = _report()
    quer = b["results"][0]["detail"]["cases"]
    quer[0]["lhs"] = _side(1.0 * (1 + 1e-9), 0.01)
    quer[1]["rhs"] = _side(1.5)
    quer[1]["lhs"] = _side(1.4, 0.02)
    b["results"][1]["detail"]["cases"][0]["lhs"] = _side(1.9 * (1 + 2e-9))
    code, out = _run(tmp_path, _report(), b)
    assert code == 0
    assert ("lhs/rhs values: 2 rose, 2 dropped; largest rise +2e-09 "
            "(GHP cube n=3 [worst] lhs)") in out


def test_rescaled_sides_keep_their_ratio_and_relative_error_bar(tmp_path):
    code, out = _run(tmp_path, _report(), _report())
    assert "largest relative sub-case ratio change: 0 (none)" in out
    assert ("sub-cases with relative error bar stderr/|value| widened by "
            "more than 1e-12 relative: 0") in out
    b = _report()
    quer = b["results"][0]["detail"]["cases"]
    # both sides of p=1 doubled: values and the absolute stderr move, the
    # ratio and the relative error bar do not
    quer[0] = _case("p=1", _side(2.0, 0.02), _side(4.0))
    code, out = _run(tmp_path, _report(), b)
    assert code == 0
    assert ("largest relative lhs/rhs value change: 0.5 (T-QUER-2 cube n=3 "
            "[p=1] lhs)") in out
    assert "largest relative sub-case ratio change: 0 (none)" in out
    assert ("sub-cases with stderr widened by more than 1e-12 relative: 1"
            in out)
    assert ("sub-cases with relative error bar stderr/|value| widened by "
            "more than 1e-12 relative: 0") in out


def test_ratio_change_and_wider_relative_error_bar_are_listed(tmp_path):
    b = _report()
    quer = b["results"][0]["detail"]["cases"]
    quer[0] = _case("p=1", _side(1.0 * (1 + 1e-9), 0.01), _side(2.0))
    quer[1] = _case("p=2", _side(1.5, 0.03), _side(2.0))
    b["results"][1]["detail"]["cases"][0]["rhs"] = _side(4.0, 0.04)
    code, out = _run(tmp_path, _report(), b)
    assert code == 0
    assert ("largest relative sub-case ratio change: 1e-09 (T-QUER-2 cube "
            "n=3 [p=1])") in out
    lines = out.splitlines()
    at = lines.index("sub-cases with relative error bar stderr/|value| "
                     "widened by more than 1e-12 relative: 2")
    assert lines[at + 1:at + 3] == [
        "  GHP cube n=3 [worst] rhs: stderr/|value| 0 -> 0.01",
        "  T-QUER-2 cube n=3 [p=2] lhs: stderr/|value| 0.0133333 -> 0.02"]
    # p=1's value rose with its stderr fixed: its relative error bar narrowed
    assert "[p=1] lhs: stderr/|value|" not in out


def test_binding_case_switch_is_not_a_value_change(tmp_path):
    a = _report()
    a["results"][0]["detail"]["binding_case"] = "p=1"
    b = _report()
    quer = b["results"][0]
    quer["detail"]["cases"][1]["lhs"] = _side(1.5 * (1 - 1e-4), 0.02)
    # the cell row now repeats p=2, which differs from p=1 by a third
    quer["lhs"], quer["rhs"] = quer["detail"]["cases"][1]["lhs"], _side(2.0)
    quer["detail"]["binding_case"] = "p=2"
    code, out = _run(tmp_path, a, b)
    assert code == 0
    assert "binding-case switches: 1" in out
    assert "  T-QUER-2 cube n=3: p=1 -> p=2 (ratio gap 0.33)" in out
    assert "T-QUER-2 cube n=3: largest relative lhs/rhs value change 0.0001" \
           in out
    assert ("largest relative lhs/rhs value change: 0.0001 (T-QUER-2 cube "
            "n=3 [p=2] lhs)") in out
    code, out = _run(tmp_path, _report(), _report())
    assert "binding-case switches: 0" in out


def test_exact_flag_flips_are_listed_in_each_direction(tmp_path):
    code, out = _run(tmp_path, _report(), _report())
    assert "sub-case sides that became exact: 0" in out
    assert "sub-case sides that stopped being exact: 0" in out
    b = _report()
    quer = b["results"][0]["detail"]["cases"]
    quer[0]["lhs"] = _side(1.0)                   # the Monte Carlo side turns exact
    quer[1]["lhs"] = _side(1.5)
    b["results"][1]["detail"]["cases"][0]["rhs"] = _side(4.0, 0.01)
    code, out = _run(tmp_path, _report(), b)
    assert code == 0
    lines = out.splitlines()
    became = lines.index("sub-case sides that became exact: 2")
    assert lines[became + 1:became + 3] == ["  T-QUER-2 cube n=3 [p=1] lhs",
                                            "  T-QUER-2 cube n=3 [p=2] lhs"]
    stopped = lines.index("sub-case sides that stopped being exact: 1")
    assert lines[stopped + 1] == "  GHP cube n=3 [worst] rhs"


def _positioned(a_residual, b_residual):
    """A T-HYPER-6-like cell whose detail carries position records."""
    cell = _cell("T-HYPER-6", "cube", [_case("min-width", _side(1.0),
                                             _side(2.0))])
    cell["detail"]["positions"] = {
        "john": {"c5": 0.5, "position": {"residual": 1e-8}},
        "min-width": {"c5": 0.5, "position": {"residual": a_residual}}}
    other = json.loads(json.dumps(cell))
    other["detail"]["positions"]["min-width"]["position"]["residual"] = \
        b_residual
    return ({"results": [*_report()["results"], cell]},
            {"results": [*_report()["results"], other]})


def test_changed_position_residuals_are_listed_per_cell_and_kind(tmp_path):
    a, b = _positioned(0.03, 0.03)
    code, out = _run(tmp_path, a, b)
    assert "position-record residuals that changed: 0" in out
    a, b = _positioned(0.03, 4e-11)
    del b["results"][-1]["detail"]["positions"]["john"]
    code, out = _run(tmp_path, a, b)
    assert code == 0
    lines = out.splitlines()
    at = lines.index("position-record residuals that changed: 2")
    assert lines[at + 1:at + 3] == [
        "  T-HYPER-6 cube n=3 [john]: 1e-08 -> '(absent)'",
        "  T-HYPER-6 cube n=3 [min-width]: 0.03 -> 4e-11"]
    assert "verdicts: unchanged" in out


def test_largest_position_residual_per_kind_reads_in_one_line(tmp_path):
    code, out = _run(tmp_path, _report(), _report())
    assert ("largest position-record residual per kind (A -> B): none"
            in out.splitlines())
    a, b = _positioned(0.03, 4e-11)
    # a second positioned cell holds A's larger John residual
    for report, john in ((a, 2e-3), (b, 1e-12)):
        other = json.loads(json.dumps(report["results"][-1]))
        other["body"] = "cross"
        other["detail"]["positions"]["john"]["position"]["residual"] = john
        report["results"].append(other)
    del b["results"][-1]["detail"]["positions"]["min-width"]
    code, out = _run(tmp_path, a, b)
    assert code == 0
    assert ("largest position-record residual per kind (A -> B): "
            "john 0.002 -> 1e-08, min-width 0.03 -> 4e-11"
            in out.splitlines())
    del b["results"][-2]["detail"]["positions"]["min-width"]
    code, out = _run(tmp_path, a, b)
    assert ("largest position-record residual per kind (A -> B): "
            "john 0.002 -> 1e-08, min-width 0.03 -> (absent)"
            in out.splitlines())


def test_largest_position_objective_change_per_kind_reads_in_one_line(tmp_path):
    code, out = _run(tmp_path, _report(), _report())
    lines = out.splitlines()
    assert ("largest relative position-record objective change per kind: "
            "none" in lines)
    # the residuals moved; John's objective did not, min-width's by 2e-14
    a, b = _positioned(0.03, 4e-11)
    for report, width in ((a, 2.0), (b, 2.0 + 4e-14)):
        kinds = report["results"][-1]["detail"]["positions"]
        kinds["john"]["position"]["objective"] = 1.5
        kinds["min-width"]["position"]["objective"] = width
    code, out = _run(tmp_path, a, b)
    assert code == 0
    lines = out.splitlines()
    at = lines.index("largest position-record residual per kind (A -> B): "
                     "john 1e-08 -> 1e-08, min-width 0.03 -> 4e-11")
    assert lines[at + 1] == ("largest relative position-record objective "
                             "change per kind: john 0, min-width 2e-14")


def test_top_level_key_changes_are_listed_without_changing_the_exit(tmp_path):
    a = {**_report(), "note": "old", "config": {"n": 3},
         "summary": {"cells": 3}}
    code, out = _run(tmp_path, a, a)
    assert "top-level keys other than results that differ: 0" in out
    b = {**a, "note": "new", "summary": {"cells": 4}, "extra": 1}
    code, out = _run(tmp_path, a, b)
    assert code == 0
    lines = out.splitlines()
    at = lines.index("top-level keys other than results that differ: 3")
    assert lines[at + 1:at + 4] == ["  extra", "  note", "  summary"]
    assert "changed cells: 0" in out
    assert "verdicts: unchanged" in out


def test_first_line_gives_both_hashes_and_byte_identity(tmp_path):
    code, out = _run(tmp_path, _report(), _report())
    digest = hashlib.sha256((tmp_path / "a.json").read_bytes()).hexdigest()
    assert code == 0
    assert out.splitlines()[0] == (f"sha256: A {digest}, B {digest}, "
                                   "byte-identical")
    b = _report()
    b["results"][1]["status"] = "fail"
    code, out = _run(tmp_path, _report(), b)
    first = out.splitlines()[0]
    assert code == 1
    assert first == (f"sha256: A {digest}, B "
                     + hashlib.sha256((tmp_path / "b.json").read_bytes())
                     .hexdigest())
    assert "byte-identical" not in out


def test_closed_pipe_exits_quietly_with_the_verdict_code(tmp_path):
    # `compare_reports.py A B | head`: the reader is gone before the first
    # line; no traceback, and the exit code still reports the verdict
    b = _report()
    b["results"][1]["status"] = "fail"
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(_report()))
    pb.write_text(json.dumps(b))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, str(SCRIPT), str(pa), str(pb)],
                              stdout=write_end, stderr=subprocess.PIPE,
                              text=True, timeout=60)
    finally:
        os.close(write_end)
    assert proc.stderr == ""
    assert proc.returncode == 1
