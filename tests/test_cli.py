"""Command-line interface: subcommands, file outputs, exit codes."""

import json

import numpy as np
import pytest

from projgeo import bodies
from projgeo.checks import BodyContext, SuiteConfig
from projgeo.cli import main


def test_compute_exact_surface(capsys):
    assert main(["compute", "--body", "cube", "--dim", "3",
                 "--quantity", "surface"]) == 0
    assert capsys.readouterr().out.strip() == "24"


def test_compute_exact_quermassintegral(capsys):
    assert main(["compute", "--body", "cube", "--dim", "3",
                 "--quantity", "quermass(2)"]) == 0
    assert capsys.readouterr().out.strip() == "6.28318531"
    # the mean width is W_2(Q3) / omega_3 = 2 pi / (4 pi / 3), no error bar
    assert main(["compute", "--body", "cube", "--dim", "3",
                 "--quantity", "mean-width"]) == 0
    assert capsys.readouterr().out.strip() == "1.5"


def test_compute_exact_w3_at_n4(capsys):
    # W_3(Q4) = omega_3 V_1(Q4) / 4 = 8 pi / 3 from the edges' normal cones
    assert main(["compute", "--body", "cube", "--dim", "4",
                 "--quantity", "quermass(3)"]) == 0
    assert capsys.readouterr().out.strip() == "8.37758041"


def test_compute_normalized_mean_shadow(capsys):
    # pk(2) of Q3: mean shadow area S/4 = 6 over |Q3|^{2/3} = 4
    assert main(["compute", "--body", "cube", "--dim", "3",
                 "--quantity", "pk(2)"]) == 0
    assert capsys.readouterr().out.strip() == "1.5"
    assert main(["compute", "--body", "cube", "--dim", "3",
                 "--quantity", "pk(4)"]) == 2
    assert "pk index" in capsys.readouterr().err


def test_compute_sampled_quantity_reports_error_bar(capsys):
    # a vertex body's mean width is W_{n-1}, sampled at n >= 5
    assert main(["compute", "--body", "random-hull(12,1)", "--dim", "5",
                 "--quantity", "mean-width", "--samples", "2000"]) == 0
    out = capsys.readouterr().out.strip()
    assert "±" in out or "+-" in out


@pytest.mark.parametrize("args", [
    ["compute", "--body", "random-hull(10,1)", "--dim", "6",
     "--quantity", "mean-width", "--samples", "-4"],
    ["compute", "--body", "random-hull(10,1)", "--dim", "6",
     "--quantity", "mean-width", "--samples", "0"],
    ["compute", "--body", "cube", "--quantity", "volume", "--samples", "3"],
    ["verify", "--corpus", "CORPUS", "--ids", "CK-IDENT", "--samples", "0"],
    ["verify", "--corpus", "CORPUS", "--ids", "CK-IDENT", "--jobs", "0"],
    ["verify", "--corpus", "CORPUS", "--ids", "CK-IDENT", "--samples", "40000"],
    ["search", "--id", "GHP", "--family", "random-hull", "--budget", "1",
     "--samples", "40000"],
    ["search", "--id", "GHP", "--family", "random-hull", "--budget", "1",
     "--samples", "2"]])
def test_budgets_without_an_error_bar_are_usage_errors(tmp_path, capsys, args):
    corpus_file = tmp_path / "tiny.json"
    corpus_file.write_text(json.dumps(["cube"]))
    args = [str(corpus_file) if a == "CORPUS" else a for a in args]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")


def test_compute_prints_an_error_bar_on_every_estimate(capsys):
    # the least budget: two width pairs
    assert main(["compute", "--body", "random-hull(10,1)", "--dim", "6",
                 "--quantity", "mean-width", "--samples", "4"]) == 0
    assert " ± " in capsys.readouterr().out


def test_position_has_no_samples_flag(capsys):
    with pytest.raises(SystemExit) as err:
        main(["position", "--body", "cube", "--kind", "john",
              "--samples", "10"])
    assert err.value.code == 2
    assert "--samples" in capsys.readouterr().err


def test_verify_has_no_tol_flag(capsys):
    # exact sides resolve at tolerance 0; no user value loosens a bound
    with pytest.raises(SystemExit) as err:
        main(["verify", "--tol", "0.05"])
    assert err.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


def test_compute_rejects_unknown_quantity(capsys):
    assert main(["compute", "--body", "cube", "--dim", "3",
                 "--quantity", "nonsense"]) == 2
    assert "unknown quantity" in capsys.readouterr().err


def test_usage_error_exits_with_argparse_code():
    with pytest.raises(SystemExit) as err:
        main(["compute", "--body", "cube", "--dim", "3"])
    assert err.value.code == 2


def test_bodies_listing_and_corpus_file(tmp_path, capsys):
    corpus_file = tmp_path / "corpus.json"
    assert main(["bodies", "--dim", "3", "--out", str(corpus_file)]) == 0
    out = capsys.readouterr().out
    assert "cube" in out and "random-zonotope(6,5)" in out
    names = json.loads(corpus_file.read_text())
    assert len(names) == 14

    # the written corpus file must be consumable by verify --corpus
    report_file = tmp_path / "report.json"
    assert main(["verify", "--dim", "3", "--corpus", str(corpus_file),
                 "--ids", "T-HYPER-1", "--out", str(report_file)]) == 0
    report = json.loads(report_file.read_text())
    assert len(report["results"]) == 14


def test_position_prints_quotient(capsys):
    assert main(["position", "--body", "cube", "--dim", "3",
                 "--kind", "min-surface"]) == 0
    out = capsys.readouterr().out
    assert "surface-quotient: 6" in out
    assert "converged: True" in out


def test_position_writes_record(tmp_path, capsys):
    out_file = tmp_path / "pos.json"
    assert main(["position", "--body", "cube", "--dim", "3",
                 "--kind", "isotropic", "--out", str(out_file)]) == 0
    record = json.loads(out_file.read_text())
    assert record["kind"] == "isotropic"
    assert record["converged"] is True
    assert abs(record["extras"]["isotropic-constant"] - 12.0 ** -0.5) < 1e-9


def test_position_record_matches_the_positioned_context(tmp_path, capsys):
    # `position --out` and the positioned checks share one record; the CLI
    # adds the body, kind, converged flag and extras
    out_file = tmp_path / "pos.json"
    assert main(["position", "--body", "cube", "--dim", "3",
                 "--kind", "isotropic", "--out", str(out_file)]) == 0
    record = json.loads(out_file.read_text())
    child = BodyContext(bodies.cube(3), SuiteConfig()).positioned("isotropic")
    shared = child.position_record()
    assert sorted(shared) == ["iterations", "objective", "residual", "scale",
                              "shift", "transform"]
    assert set(record) == {*shared, "body", "kind", "converged", "extras"}
    assert np.allclose(record["transform"], shared["transform"])


def test_min_width_position_names_its_route(tmp_path, capsys):
    out_file = tmp_path / "pos.json"
    assert main(["position", "--body", "cube", "--dim", "3",
                 "--kind", "min-width", "--out", str(out_file)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:6] == ["kind: min-width", "route: edge measure",
                          "converged: True", "residual: 0", "iterations: 0"]
    record = json.loads(out_file.read_text())
    assert record["route"] == "edge measure"
    assert record["transform"] == np.eye(3).tolist()
    assert record["objective"] == 1.5
    shared = BodyContext(bodies.cube(3), SuiteConfig()).positioned(
        "min-width").position_record()
    assert set(record) == {*shared, "body", "kind", "converged", "extras"}
    assert shared["route"] == "edge measure"


def test_verify_exit_zero_and_byte_identical_reruns(tmp_path, capsys):
    corpus_file = tmp_path / "tiny.json"
    corpus_file.write_text(json.dumps(["cube", "random-zonotope(6,1)"]))
    args = ["verify", "--dim", "3", "--corpus", str(corpus_file),
            "--ids", "T-HYPER-1,MINPROJ,ALEK", "--seed", "7"]
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b), "--jobs", "2"]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert out_a.with_suffix(".csv").read_bytes() == \
        out_b.with_suffix(".csv").read_bytes()
    assert "fail" in capsys.readouterr().out  # the counts line names statuses


def test_verify_rejects_unknown_ids(tmp_path, capsys):
    corpus_file = tmp_path / "tiny.json"
    corpus_file.write_text(json.dumps(["cube"]))
    assert main(["verify", "--dim", "3", "--corpus", str(corpus_file),
                 "--ids", "NOT-A-CHECK"]) == 2
    assert "unknown check ids" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["verify", "--dim", "6"],
    ["search", "--id", "GHP", "--family", "random-hull", "--dim", "6",
     "--budget", "1"]])
def test_verify_and_search_refuse_n6(args, capsys):
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: the check catalog runs at n = 3, 4 or 5, " \
        "not n = 6\n"


def test_compute_keeps_n6(capsys):
    assert main(["compute", "--body", "cube", "--dim", "6",
                 "--quantity", "volume"]) == 0
    assert capsys.readouterr().out.strip() == "64"


def test_search_writes_trace(tmp_path, capsys):
    out_file = tmp_path / "trace.json"
    assert main(["search", "--id", "GHP", "--family", "perturbed-cube",
                 "--dim", "3", "--budget", "6", "--samples", "1000",
                 "--out", str(out_file)]) == 0
    data = json.loads(out_file.read_text())
    assert data["config"]["id"] == "GHP"
    ratios = [step["ratio"] for step in data["trace"]]
    assert ratios == sorted(ratios)
    assert "best" in capsys.readouterr().out


def test_plot_writes_svg(tmp_path, capsys):
    corpus_file = tmp_path / "tiny.json"
    corpus_file.write_text(json.dumps(["cube"]))
    report_files = []
    for n in (3, 4):
        report_file = tmp_path / f"rep-n{n}.json"
        assert main(["verify", "--dim", str(n), "--corpus", str(corpus_file),
                     "--ids", "T-HYPER-1,GHP", "--out", str(report_file)]) == 0
        report_files.append(str(report_file))
    svg_file = tmp_path / "plot.svg"
    assert main(["plot", "--report", *report_files,
                 "--out", str(svg_file)]) == 0
    text = svg_file.read_text()
    assert text.startswith("<svg") and "T-HYPER-1" in text
    assert ">n=3</text>" in text and ">n=4</text>" in text


def test_missing_file_is_a_clean_error(capsys):
    assert main(["plot", "--report", "/nonexistent/report.json", "--out",
                 "/tmp/x.svg"]) == 2
    assert "error:" in capsys.readouterr().err
