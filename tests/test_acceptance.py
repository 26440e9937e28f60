"""Acceptance gate: the twelve go/no-go criteria for this library.

Each test checks one criterion end to end and prints a single
``ACCEPTANCE k: PASS`` line on success, so a ``pytest -s`` run reads as a
checklist.  Tolerances are part of the contract and are asserted literally.
"""

import json
import math

import numpy as np
import pytest

from projgeo import bodies
from projgeo.bodyops import transform_body
from projgeo.checks import CHECK_MAP, BodyContext, SuiteConfig, run_check
from projgeo.cli import main
from projgeo.positions import (isotropic_position, john_position,
                               lowner_position, minimal_surface_position)
from projgeo.quermass import quermassintegral
from projgeo.sampling import RngSeed
from projgeo.suite import run_suite
from projgeo.zonotope import zonotope_to_polytope

CFG = SuiteConfig(samples=20_000, seed=0)


def _cell(check_id, spec, cfg=CFG):
    return run_check(CHECK_MAP[check_id], BodyContext(spec, cfg))


# (pass, skipped, budget skips) per dimension at seed 0.  A budget skip is
# an unverified claim on an admissible body, so a pass must not silently
# turn into one.
PINNED_VERDICTS = {3: (321, 57, 8), 4: (317, 61, 12), 5: (306, 72, 23)}


def test_acceptance_01_full_suite_clean():
    bad = []
    verdicts = {}
    for n in (3, 4, 5):
        report = run_suite(bodies.corpus(n), seed=0, jobs=4)
        counts = report["summary"]["counts"]
        for status in ("fail", "error", "inconclusive"):
            if counts[status]:
                bad.append((n, status, counts[status],
                            report["summary"]["failures"],
                            report["summary"]["errors"]))
        budget = sum(
            1 for cell in report["results"] if cell["status"] == "skipped"
            and not cell["detail"]["reason"].startswith("body class outside"))
        verdicts[n] = (counts["pass"], counts["skipped"], budget)
    assert not bad, bad
    assert verdicts == PINNED_VERDICTS
    print("ACCEPTANCE 1: PASS — full suite clean (pass/skipped only) "
          "on the 14-body corpus for n=3,4,5")


def test_acceptance_02_near_equality_on_ball_approximants():
    cell = _cell("BALL-EQ", bodies.ball_approx(3, 2000))
    assert cell.status == "pass"
    assert 0.93 <= cell.ratio <= 1.0
    print(f"ACCEPTANCE 2: PASS — sharp zonoid bound ratio {cell.ratio:.4f} "
          "∈ [0.93, 1.0] on ball-approx(2000), n=3")


def test_acceptance_03_cube_quermassintegrals_by_sampling():
    q3 = bodies.cube(3).build()
    targets = {1: 8.0, 2: 2.0 * math.pi}
    for p, truth in targets.items():
        est = quermassintegral(q3, p, samples=20_000, seed=RngSeed(0),
                               method="mc")
        assert abs(est.value - truth) <= 3.0 * est.stderr
        assert est.stderr / est.value < 0.02
    print("ACCEPTANCE 3: PASS — sampled cube quermassintegrals match "
          "8 and 2π within 3σ, stderr/mean < 2%")


def test_acceptance_04_surface_area_from_mean_shadows():
    q4 = bodies.cube(4).build()
    assert q4.surface_area() == pytest.approx(64.0, rel=1e-12)
    est = quermassintegral(q4, 1, samples=20_000, seed=RngSeed(0),
                           method="mc")
    s_mc = 4.0 * est.value
    s_err = 4.0 * est.stderr
    assert abs(s_mc - 64.0) <= 4.0 * s_err
    print(f"ACCEPTANCE 4: PASS — S(Q4) = 64 reproduced from mean shadow "
          f"volumes ({s_mc:.3f} ± {s_err:.3f})")


def test_acceptance_05_zonotope_volume_two_routes():
    combos = [(n, m, seed)
              for n in (3, 4, 5)
              for m in range(n + 1, 9)
              for seed in range(1, 6)]
    worst = 0.0
    for n, m, seed in combos[:50]:
        zono = bodies.random_zonotope(n, m, seed).build()
        direct = zono.volume()
        hull = zonotope_to_polytope(zono).volume()
        worst = max(worst, abs(direct - hull) / direct)
    assert worst <= 1e-9
    print(f"ACCEPTANCE 5: PASS — 50 zonotope volumes agree across routes "
          f"(worst relative gap {worst:.2e})")


def test_acceptance_06_projection_body_recomposition():
    specs = [bodies.random_hull(n, 2 * n + 4, seed)
             for n in (3, 4) for seed in range(1, 11)]
    assert len(specs) == 20
    for spec in specs:
        cell = _cell("ZON-VOL-ID", spec)
        assert cell.status == "pass", (spec.name, cell.detail)
    print("ACCEPTANCE 6: PASS — projection-body volume equals its "
          "facet-shadow recomposition (1e-8) on 20 random polytopes")


def _cond10_map(rng, n):
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (u * rng.uniform(1.0, 10.0, n)) @ v.T


def test_acceptance_07_minimal_surface_recovery():
    rng = np.random.default_rng(42)
    jobs = [(bodies.cube(3).build(), np.diag([4.0, 1.0, 1.0]))]
    for base_name in ("cube", "cross"):
        base = bodies.from_name(base_name, 3).build()
        jobs += [(base, _cond10_map(rng, 3)) for _ in range(5)]
    for base, t_mat in jobs:
        reference = minimal_surface_position(base)[1]
        result, quotient = minimal_surface_position(transform_body(base, t_mat))
        assert result.converged and result.iterations <= 500
        assert result.residual < 1e-6
        assert abs(quotient - reference) < 1e-3
    print("ACCEPTANCE 7: PASS — minimal-surface position recovered under "
          "diag(4,1,1) and 10 condition-≤10 images (1e-3, residual <1e-6)")


def test_acceptance_08_fixed_point_certificates():
    for name in ("cube", "cross"):
        result, _ = minimal_surface_position(bodies.from_name(name, 3).build())
        assert result.iterations == 0
        assert result.residual <= 1e-10
    _, constant = isotropic_position(bodies.cube(3).build())
    assert abs(constant - 12.0 ** -0.5) <= 1e-10
    print("ACCEPTANCE 8: PASS — cube/cross are min-surface fixed points "
          "(residual ≤1e-10); isotropic constant of the cube is 12^{-1/2}")


def test_acceptance_09_enclosing_and_inscribed_ellipsoids():
    q3 = bodies.cube(3).build()
    _, mvee = lowner_position(q3)
    assert np.allclose(mvee.radii(), math.sqrt(3.0), atol=1e-5)
    _, john = john_position(q3)
    assert np.allclose(john.radii(), 1.0, atol=1e-5)
    print("ACCEPTANCE 9: PASS — Löwner ellipsoid of Q3 has radius √3, "
          "John ellipsoid is the unit ball (1e-5)")


def test_acceptance_10_minimum_projection_exactness():
    cube_cell = _cell("MINPROJ", bodies.cube(3))
    assert cube_cell.status == "pass"
    assert abs(cube_cell.ratio - 1.0) <= 1e-6
    assert cube_cell.lhs.value == pytest.approx(4.0, abs=4e-6)
    cross_cell = _cell("MINPROJ", bodies.cross_polytope(3))
    assert cross_cell.status == "pass"
    assert abs(cross_cell.ratio - 1.0) <= 1e-6
    print("ACCEPTANCE 10: PASS — minimum shadow volume equals the "
          "projection-body inradius (1e-6); Q3 value is 4")


def test_acceptance_11_monotone_shadow_sequence_dimension_four():
    report = run_suite(bodies.corpus(4), ids=["ALEK"], seed=0, jobs=4)
    counts = report["summary"]["counts"]
    assert counts["fail"] == 0 and counts["error"] == 0
    assert counts["skipped"] == 0
    print("ACCEPTANCE 11: PASS — normalized shadow sequence is monotone and "
          "bracketed on all 14 corpus bodies at n=4 (zero violations)")


def test_acceptance_12_verify_is_deterministic(tmp_path, capsys):
    corpus_file = tmp_path / "corpus.json"
    assert main(["bodies", "--dim", "3", "--out", str(corpus_file)]) == 0
    flags = ["verify", "--dim", "3", "--corpus", str(corpus_file),
             "--ids", "T-HYPER-1,T-HYPER-4,MINPROJ,CK-IDENT,ALEK",
             "--seed", "0"]
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert main(flags + ["--out", str(out_a)]) == 0
    assert main(flags + ["--out", str(out_b)]) == 0
    capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()
    assert out_a.with_suffix(".csv").read_bytes() == \
        out_b.with_suffix(".csv").read_bytes()
    print("ACCEPTANCE 12: PASS — verify reruns with identical flags give "
          "byte-identical JSON and CSV")
