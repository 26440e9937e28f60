"""Checks of the benchmark itself (about 2 minutes on 2 cores).

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import spans, workloads  # noqa: E402


def _manifest() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_manifest_matches_the_catalog():
    from projgeo.checks import CHECK_IDS
    manifest = _manifest()
    assert [(w["name"], w["why"]) for w in manifest["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in manifest["end_to_end"]] == list(workloads.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in manifest["per_layer"]] == list(workloads.PER_LAYER)
    assert list(workloads.CHECK_IDS) == list(CHECK_IDS)


@pytest.fixture(scope="module")
def traced_runs():
    """One ``--trace 1`` driver run per workload, keyed by workload name."""
    out = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", name, "--seed", "0", "--seconds", "1",
             "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
        out[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    return out


def test_traced_runs_are_correct(traced_runs):
    for name, result in traced_runs.items():
        assert result["correct"], name
        assert result["failed"] == 0, name
        assert result["attempted"] >= 1, name


def test_every_layer_metric_is_reached(traced_runs):
    """A wrapper bound to a stale import would leave its metric at zero."""
    for name, _, _ in workloads.PER_LAYER:
        witness = workloads.WITNESS.get(name, name)
        assert any(run["metrics"][witness]["value"] != 0
                   for run in traced_runs.values()), name


def test_workload_split(traced_runs):
    """quer-n4 and search-hull-n4 each spend their time in their own layer."""
    def value(run, name):
        return traced_runs[run]["metrics"][name]["value"]

    minimizers = ("sampling.minimize_on_sphere",
                  "sampling.minimize_on_grassmannian")
    positions = [f"positions.{s}" for s in workloads.POSITION_SOLVERS]

    assert all(value("quer-n4", f"{m}.calls") == 0 for m in minimizers)
    quer_share = (value("quer-n4", "checks.BodyContext.shadow_quermass_mean.s")
                  + sum(value("quer-n4", f"{p}.s") for p in positions))
    assert quer_share > 0.5 * value("quer-n4", "suite.body_sum_s")

    search = "search-hull-n4"
    assert all(value(search, f"{m}.calls") == 0 for m in minimizers)
    assert all(value(search, f"{p}.calls") == 0 for p in positions)
    assert value(search, "checks.BodyContext.shadow_quermass_mean.calls") == 0
    build_share = sum(value(search, f"polytope.{layer}.s") for layer in
                      ("build", "ridges", "shadow_surfaces", "shadow_volumes"))
    assert build_share > 0.5 * value(search, "suite.search.score.s")


def test_tracing_leaves_report_bytes_unchanged(tmp_path):
    from projgeo.cli import main
    plain, traced = tmp_path / "plain.json", tmp_path / "traced.json"
    assert main(["verify", "--dim", "3", "--seed", "0",
                 "--out", str(plain)]) == 0
    tracer = spans.install(spans.Tracer("test"))
    try:
        assert main(["verify", "--dim", "3", "--seed", "0",
                     "--out", str(traced)]) == 0
    finally:
        tracer.undo()
    assert tracer.stats, "tracing recorded no spans"
    assert plain.read_bytes() == traced.read_bytes()
    assert (plain.with_suffix(".csv").read_bytes()
            == traced.with_suffix(".csv").read_bytes())


def test_driver_refuses_a_tree_without_the_library(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(
        (ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-n3",
         "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
