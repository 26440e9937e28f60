"""Check harness: quantities, sub-case semantics, catalog cells, suite runs."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from projgeo import bodies, bodyops, checks, polytope, positions, zonotope
from projgeo.bodyops import frame_shadow_panel, project_body, transform_body
from projgeo.checks import (CHECK_IDS, CHECK_MAP, CHECKS, BodyContext,
                            SubCase, SuiteConfig, run_check)
from projgeo.polytope import inradius
from projgeo.positions import minimal_surface_position
from projgeo.quermass import omega, quermassintegral
from projgeo.sampling import (Estimate, RngSeed, grassmann_frames,
                              mc_estimate, sphere_points)
from projgeo.suite import SEARCH_IDS, extremizer_search, run_suite
from projgeo.svgplot import render
from projgeo.zonotope import Zonotope, zonotope_to_polytope

CFG = SuiteConfig(samples=20_000, seed=0)


def _cell(check_id: str, spec) -> "CheckResult":
    return run_check(CHECK_MAP[check_id], BodyContext(spec, CFG))


# ---------------------------------------------------------------------------
# quantities


def test_estimate_of_is_exact():
    q = Estimate.of(3.5)
    assert q.value == 3.5 and q.stderr == 0.0 and q.exact


def test_estimate_exact_flag_is_derived():
    q = Estimate(2.0, 0.1, 400)
    assert (q.value, q.stderr, q.n_samples, q.exact) == (2.0, 0.1, 400, False)
    assert Estimate(2.0, 0.0, 0).exact
    # a sampled mean with zero spread is still a sample
    assert not Estimate(2.0, 0.0, 1).exact
    assert Estimate(2.0, 0.1, 400).scaled(0.0).exact is False
    assert Estimate(2.0, 0.1, 400).to_dict() == {
        "value": 2.0, "stderr": 0.1, "n_samples": 400, "exact": False}


def test_estimate_scaling_propagates_error():
    q = Estimate(4.0, 0.5, 100).scaled(-2.0)
    assert q.value == -8.0 and q.stderr == 1.0


def test_estimate_power_propagates_relative_error():
    q = Estimate(4.0, 0.4, 100).powered(0.5)
    assert q.value == pytest.approx(2.0)
    # d(v^a)/v = a v^{a-1}: stderr = |a| v^a (err/v)
    assert q.stderr == pytest.approx(0.5 * 2.0 * 0.4 / 4.0)


# ---------------------------------------------------------------------------
# sub-case resolution semantics


def _resolved(lhs, rhs, direction, tol=0.0, sigmas=3.0):
    sub = SubCase("t", lhs, rhs, direction, tol, sigmas)
    sub.resolve()
    return sub


def test_exact_le_comparison_is_two_valued():
    assert _resolved(Estimate.of(1.0), Estimate.of(2.0), "le").status == "pass"
    assert _resolved(Estimate.of(2.0), Estimate.of(1.0), "le").status == "fail"
    # roundoff-level violations do not fail exact comparisons
    assert _resolved(Estimate.of(1.0 + 1e-14), Estimate.of(1.0),
                     "le").status == "pass"


def test_tolerance_shifts_the_exact_threshold():
    assert _resolved(Estimate.of(1.04), Estimate.of(1.0), "le",
                     tol=0.05).status == "pass"
    assert _resolved(Estimate.of(1.06), Estimate.of(1.0), "le",
                     tol=0.05).status == "fail"
    assert _resolved(Estimate.of(0.96), Estimate.of(1.0), "ge",
                     tol=0.05).status == "pass"
    assert _resolved(Estimate.of(0.94), Estimate.of(1.0), "ge",
                     tol=0.05).status == "fail"


def test_noisy_comparison_is_three_valued():
    noisy = Estimate(1.0, 0.1, 100)
    assert _resolved(noisy, Estimate.of(2.0), "le").status == "pass"
    assert _resolved(noisy, Estimate.of(1.05), "le").status == "inconclusive"
    assert _resolved(noisy, Estimate.of(0.5), "le").status == "fail"


def test_equality_uses_combined_error():
    a = Estimate(1.0, 0.02, 100)
    b = Estimate(1.05, 0.02, 100)
    assert _resolved(a, b, "eq").status == "pass"  # 3 sigma of hypot
    assert _resolved(a, Estimate.of(1.2), "eq").status == "fail"
    assert _resolved(Estimate.of(1.0), Estimate.of(1.0005), "eq",
                     tol=1e-3).status == "pass"


def test_unknown_direction_raises():
    with pytest.raises(ValueError, match="unknown direction"):
        _resolved(Estimate.of(1.0), Estimate.of(1.0), "lt")


# ---------------------------------------------------------------------------
# frozen catalog cells on the cube


def test_min_shadow_bound_on_cube():
    cell = _cell("T-HYPER-1", bodies.cube(3))
    assert cell.status == "pass"
    # |Q3|^{1/3} * min shadow surface = 2 * 8 = 16; the bound is 48
    assert cell.lhs.value == pytest.approx(16.0, rel=1e-6)
    assert cell.rhs.value == pytest.approx(48.0, rel=1e-9)
    assert cell.ratio == pytest.approx(1.0 / 3.0, rel=1e-6)


def test_shadow_quotient_bound_on_cube():
    cell = _cell("GHP", bodies.cube(3))
    assert cell.status == "pass"
    # the worst direction is near a facet normal where the shadow is a face:
    # quotient_shadow / quotient_body -> (8/4) / 6 = 1/2 at xi = e_i, and
    # the factor 2(n-1)/n = 4/3 keeps the ratio near 0.5 / (4/3 * ...) etc.
    assert 0.4 < cell.ratio <= 0.5 + 1e-6


def test_mean_shadow_floor_on_cube():
    cell = _cell("T-HYPER-5", bodies.cube(3))
    assert cell.status == "pass"
    # mean shadow perimeter of Q3 is 3 pi; floor is sqrt(24 pi)
    assert cell.lhs.value == pytest.approx(3.0 * math.pi, rel=2e-3)
    assert cell.rhs.value == pytest.approx(8.683215054699211, rel=1e-9)


def test_min_projection_of_cube_is_exactly_four():
    cell = _cell("MINPROJ", bodies.cube(3))
    assert cell.status == "pass"
    assert cell.lhs.value == pytest.approx(4.0, abs=1e-6)
    assert cell.rhs.value == pytest.approx(4.0, abs=1e-12)


def test_surface_inradius_identity_is_tight_on_cube():
    cell = _cell("S-INRADIUS", bodies.cube(3))
    assert cell.status == "pass"
    # S = n|K|/r holds with equality for the cube
    assert cell.ratio == pytest.approx(1.0, rel=1e-12)


def test_zonoid_checks_skip_vertex_bodies():
    cell = _cell("T-HYPER-2", bodies.cube(3))
    assert cell.status == "skipped"
    assert "zonoid" in cell.detail["reason"]


def test_ball_equality_check_skips_everything_else():
    cell = _cell("BALL-EQ", bodies.cube(3))
    assert cell.status == "skipped"


def test_monotone_shadow_sequence_on_cube():
    cell = _cell("ALEK", bodies.cube(3))
    assert cell.status == "pass"
    labels = [c["label"] for c in cell.detail["cases"]]
    assert labels == ["Q_1 >= Q_2", "Q_2 >= vrad"]


def test_surface_constant_check_has_no_k1_sub_case():
    # at k = 1 both sides are 2 |K|^{(n-1)/n} by the definition of c0
    cell = _cell("T-HIGHER-7", bodies.cube(4))
    assert cell.status == "pass"
    labels = [c["label"] for c in cell.detail["cases"]]
    assert labels == [f"{kind}, k={k}" for kind in
                      ("min-surface", "isotropic", "john", "lowner")
                      for k in (2, 3)]


def test_fgm_has_no_p0_sub_case():
    # at p = 0 both sides are 1, so the cell's ratio was 1 on every body
    cell = _cell("FGM", bodies.cube(4))
    assert cell.status == "pass"
    labels = [c["label"] for c in cell.detail["cases"]]
    assert labels == [f"k={k}, p={p}" for k in (1, 2, 3)
                      for p in range(1, k + 1)]
    assert cell.ratio > 1.5


def test_mean_frame_surface_check_has_no_k1_sub_case():
    # at k = 1 the mean shadow surface and the rhs 1·ω_1·S^0 are both 2
    cell = _cell("T-HIGHER-6", bodies.cube(4))
    assert cell.status == "pass"
    labels = [c["label"] for c in cell.detail["cases"]]
    assert labels == ["k=2", "k=3"]


# ---------------------------------------------------------------------------
# mean shadow V_1 by Kubota's identity


def test_kubota_shadow_mean_is_exact_for_zonotopes():
    ctx = BodyContext(bodies.random_zonotope(4, 7, 1), CFG)
    mean, method = ctx.shadow_quermass_mean(2)
    expected = omega(3) / omega(4) * ctx.body.quermassintegral_exact(3)
    assert mean.exact and mean.stderr == 0.0
    assert mean.value == pytest.approx(expected, rel=1e-12)
    assert "exact" in method


def test_kubota_shadow_mean_on_cube():
    # E_xi V_1(P_xi Q4) = (omega_3/omega_4) V_1(Q4) = (16/(3 pi)) (4 pi/3) = 64/9
    mean, method = BodyContext(bodies.cube(4), CFG).shadow_quermass_mean(2)
    assert mean.exact and mean.stderr == 0.0
    assert mean.value == pytest.approx(64.0 / 9.0, rel=1e-12)
    assert method == "Kubota recursion, exact W_3(K)"


@pytest.mark.parametrize("n, exact", [(3, 1.5 * math.pi), (4, 32.0 / 3.0)])
def test_exact_p1_shadow_mean_on_cube(n, exact):
    # (omega_{n-1}/omega_n) V_{n-2}(cube) by ridge angles, against the
    # independent panel of exact shadow surfaces S/(n-1); the mean shadow
    # surface (3 pi at n = 3, 32 at n = 4) is the same W_2 read n-1 times
    ctx = BodyContext(bodies.cube(n), CFG)
    mean, method = ctx.shadow_quermass_mean(1)
    assert mean.exact and mean.stderr == 0.0
    assert mean.value == pytest.approx(exact, rel=1e-12)
    assert method == "Kubota recursion, exact W_2(K)"
    surface = ctx.mean_shadow_surface()
    assert surface.exact and surface.stderr == 0.0
    assert surface.value == pytest.approx((n - 1) * exact, rel=1e-12)
    panel = mc_estimate(ctx.shadow_surfs() / (n - 1))
    assert abs(panel.value - mean.value) <= 4.0 * panel.stderr


def test_zonotope_over_the_conversion_cap_runs_its_generator_checks():
    # 13 generators: no vertex polytope, so only the checks that need a
    # position solve on vertices may error
    report = run_suite([bodies.random_zonotope(3, 13, 1)])
    status = {r["id"]: r["status"] for r in report["results"]}
    errors = {"T-HYPER-4", "T-HYPER-6", "T-QUER-4", "T-HIGHER-7"}
    assert {i for i, s in status.items() if s == "error"} == errors
    assert {i for i, s in status.items() if s == "skipped"} == {"MINPROJ",
                                                                "BALL-EQ"}
    assert report["summary"]["counts"]["pass"] == 21


@pytest.mark.parametrize("n, m", [(3, 6), (4, 7), (5, 8)])
def test_zonotope_inradius_is_its_least_facet_half_width(n, m):
    # against the Chebyshev-center LP on the vertex polytope, off-center
    gens = bodies.random_zonotope(n, m, 2).build().generators
    ctx = BodyContext(bodies.from_generators(gens, np.linspace(-1.0, 2.0, n)),
                      CFG)
    poly = zonotope_to_polytope(ctx.body)
    f, n = poly.facet_normals.shape
    lp = linprog(np.r_[np.zeros(n), -1.0],  # the Chebyshev-center LP
                 A_ub=np.hstack([poly.facet_normals, np.ones((f, 1))]),
                 b_ub=poly.facet_offsets,
                 bounds=[(None, None)] * n + [(0.0, None)], method="highs")
    assert lp.success
    assert ctx.inradius() == pytest.approx(lp.x[-1], rel=1e-12)


def _count_symmetry_tests(monkeypatch) -> list:
    """Record the vertex array of every vertex-set symmetry test."""
    tested = []
    real_keys = polytope.symmetry_keys
    monkeypatch.setattr(polytope, "symmetry_keys",
                        lambda verts: tested.append(verts) or real_keys(verts))
    return tested


def test_symmetry_is_tested_once_and_inradius_shares_one_lp(monkeypatch):
    tests, lps = _count_symmetry_tests(monkeypatch), []
    real_lp = polytope._inball_walk
    monkeypatch.setattr(polytope, "_inball_walk",
                        lambda *a, **kw: lps.append(a) or real_lp(*a, **kw))
    # a non-symmetric root: one test, shared by every position list and
    # both ellipsoid solves; its positioned children are tested on their own
    ctx = BodyContext(bodies.random_hull(3, 10, 1), CFG)
    assert ctx.position_list(("john", "lowner")) == ["john"]
    assert ctx.position_list(("lowner",)) == [] and len(tests) == 1
    ctx.inradius()
    ctx.positioned("john")  # runs no walk: it starts at the vertex mean
    assert len(lps) == 1 and len(tests) == 1
    child = ctx.positioned("isotropic")
    assert not child.body.symmetric and len(tests) == 2
    assert child.inradius() > 0.0 and len(lps) == 2
    # a symmetric root: it and its children are tested, and no walk runs
    cube = BodyContext(bodies.cube(3), CFG)
    for kind in ("min-surface", "isotropic", "john", "lowner"):
        child = cube.positioned(kind)
        assert child.body.symmetric
        assert child.inradius() == pytest.approx(
            child.volume() ** (1.0 / 3.0) / 2.0, rel=1e-12)
    assert len(tests) == 2 + 1 + 4 and len(lps) == 2


@pytest.mark.parametrize("spec", [bodies.cube(3), bodies.random_hull(3, 10, 1),
                                  bodies.random_zonotope(3, 6, 1),
                                  bodies.random_hull(4, 12, 2)],
                         ids=lambda spec: f"{spec.name}-n{spec.dim}")
def test_each_polytope_runs_one_symmetry_test(monkeypatch, spec):
    tests = _count_symmetry_tests(monkeypatch)
    ctx = BodyContext(spec, CFG)
    for _ in range(2):
        kinds = ctx.position_list(("john", "lowner"))
        ctx.inradius()
        poly = bodyops.to_polytope(ctx.body)
        inradius(poly)
        for kind in ("john", "lowner"):
            positions.solve(kind, ctx.body)
        for kind in kinds:
            child = ctx.positioned(kind)
            child.inradius()
            child.position_list(("lowner",))
            positions.john_position(child.body)
    # one test per polytope: the root's vertex form and each child's
    assert len({id(verts) for verts in tests}) == len(tests)
    assert len(tests) == 1 + len(kinds)


def test_shadow_quermass_checks_pass_at_n4():
    corpus = [bodies.from_name(name, 4)
              for name in ("random-hull(12,1)", "random-zonotope(7,1)")]
    report = run_suite(corpus, ids=["T-QUER-2", "T-QUER-3", "T-QUER-4"])
    assert [r["status"] for r in report["results"]] == ["pass"] * 6
    aleksandrov = [r["detail"]["methods"]["p=2"] for r in report["results"]
                   if r["id"] == "T-QUER-3"]
    assert all("Q_1(K) >= Q_2(K)" in m for m in aleksandrov)


# ---------------------------------------------------------------------------
# every mean is Kubota's recursion on BodyContext.quermass


@pytest.mark.parametrize("n, m, k", [(4, 7, 2), (5, 8, 2), (5, 8, 3)])
def test_mean_frame_surface_is_exact_for_zonotopes(n, m, k):
    # k (omega_k/omega_n) W_{n-k+1}(Z), against the k-frame panel of exact
    # shadow surfaces
    ctx = BodyContext(bodies.random_zonotope(n, m, 1), CFG)
    mean = ctx.mean_frame_surface(k)
    assert mean.exact and mean.stderr == 0.0
    panel = mc_estimate(frame_shadow_panel(ctx.body, ctx.frame_panel(k))[1])
    assert abs(panel.value - mean.value) <= 4.0 * panel.stderr


@pytest.mark.parametrize("n, name", [(3, "ball-approx(500)"),
                                     (4, "random-hull(12,1)"),
                                     (4, "random-zonotope(7,1)")])
def test_positioned_contexts_draw_no_panels(n, name):
    ctx = BodyContext(bodies.from_name(name, n), CFG)
    for spec in CHECKS:
        assert run_check(spec, ctx).status in ("pass", "skipped")
    children = [child for key, child in ctx._cache.items()
                if isinstance(key, tuple) and key[0] == "positioned"]
    assert len(children) == len(ctx.position_list(checks._LOWER_POSITIONS))
    for child in children:
        panels = [key for key in child._cache if key == "sphere_panel"
                  or (isinstance(key, tuple) and key[0] == "frames")]
        assert panels == [], child.key


# each positioned check and the general check it runs on positioned bodies
_BASE_CHECKS = {"T-HYPER-4": ("T-HYPER-3", checks._UPPER_POSITIONS),
                "T-HYPER-6": ("T-HYPER-5", checks._LOWER_POSITIONS),
                "T-HIGHER-7": ("T-HIGHER-6", checks._UPPER_POSITIONS)}


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("name", ["cube", "simplex", "random-hull(12,2)",
                                  "random-zonotope(7,1)"])
def test_positioned_checks_are_their_base_checks_on_positioned_bodies(n, name):
    ctx = BodyContext(bodies.from_name(name, n), CFG)
    assert "min-width" in ctx.position_list(checks._LOWER_POSITIONS)
    for check_id, (base_id, kinds) in _BASE_CHECKS.items():
        cell = run_check(CHECK_MAP[check_id], ctx)
        kinds = ctx.position_list(kinds)
        assert list(cell.detail["positions"]) == kinds
        cases = iter(cell.detail["cases"])
        for kind in kinds:
            child = ctx.positioned(kind)
            base = run_check(CHECK_MAP[base_id], child).detail["cases"]
            for want in base:
                label = (f"{kind}, {want['label']}" if base_id == "T-HIGHER-6"
                         else kind)
                assert next(cases) == {**want, "label": label}
            # the constants by their definitions, from the base sides
            vol, surf = child.volume(), child.surface()
            c0 = surf / (n * vol ** ((n - 1.0) / n))
            lhs = base[0]["lhs"]["value"]
            expected = {
                "T-HYPER-4": {"c2": lhs / (vol ** ((n - 1.0) / n)
                                           * math.sqrt(n) * surf),
                              "surface_constant_c0": c0},
                "T-HYPER-6": {"c5": lhs * vol ** (1.0 / n) / surf,
                              "width_condition_constant":
                                  surf ** (1.0 / (n - 1)) / vol ** (1.0 / n)},
                "T-HIGHER-7": {"surface_constant_c0": c0}}[check_id]
            reported = cell.detail["positions"][kind]
            assert set(reported) == {*expected, "position"}
            for key, value in expected.items():
                assert reported[key] == pytest.approx(value, rel=1e-14)
        assert next(cases, None) is None


def test_positioned_contexts_draw_no_frames_at_n5():
    # V_2 means at n = 5 read the exact W_3 instead of a frame panel
    ctx = BodyContext(bodies.random_hull(5, 14, 1), CFG)
    for check_id in ("T-QUER-4", "T-HIGHER-7"):
        assert run_check(CHECK_MAP[check_id], ctx).status == "pass"
    children = [child for key, child in ctx._cache.items()
                if isinstance(key, tuple) and key[0] == "positioned"]
    assert children
    for child in children:
        frames = [key for key in child._cache
                  if isinstance(key, tuple) and key[0] == "frames"]
        assert frames == [], child.key


# ---------------------------------------------------------------------------
# one minimum per quantity: hyperplane shadows read the sphere memos


@pytest.mark.parametrize("n, solved", [(3, []), (4, [2, 2])])
def test_frame_minima_solve_the_grassmannian_only_below_n_minus_1(
        monkeypatch, n, solved):
    calls = []
    real = checks.minimize_on_grassmannian

    def counting(objective, dim, k, *args, **kwargs):
        calls.append(k)
        return real(objective, dim, k, *args, **kwargs)

    monkeypatch.setattr(checks, "minimize_on_grassmannian", counting)
    ctx = BodyContext(bodies.random_zonotope(n, 6, 1), CFG)
    for check_id in ("T-ZON-2", "T-HIGHER-2"):
        assert run_check(CHECK_MAP[check_id], ctx).status == "pass"
    assert calls == solved


def test_hyperplane_frame_minima_equal_the_sphere_checks_bit_for_bit():
    ctx = BodyContext(bodies.random_zonotope(4, 6, 1), CFG)

    def lhs(check_id, label):
        subs, detail = CHECK_MAP[check_id].fn(ctx)
        return next(s.lhs.value for s in subs if s.label == label), detail

    zon, zon_detail = lhs("T-ZON-2", "k=3")
    higher, higher_detail = lhs("T-HIGHER-2", "k=3")
    assert zon == lhs("L-ZON-1", "min shadow volume")[0]
    assert higher == lhs("T-HYPER-2", "doubled form")[0]
    assert zon_detail["methods"] == {
        "k=2": "Grassmann minimizer, d = 8",
        "k=3": "sphere minimum shared with L-ZON-1"}
    assert higher_detail["methods"]["k=2"] == "Grassmann minimizer, d = 8"
    assert higher_detail["methods"]["k=3"] == \
        "sphere minimum shared with T-HYPER-2"


def test_min_shadow_volume_snaps_to_the_projection_body_inradius():
    # h_{Pi K} is least at a facet normal of Pi K; brute force over all
    # C(32, 3) normals c_J of the 32-generator projection body
    ctx = BodyContext(bodies.random_hull(4, 12, 5), CFG)
    atoms = Zonotope(ctx.projection_body_merged().generators).cross_atoms()
    assert atoms.shape[0] == math.comb(32, 3)
    normals = atoms / np.linalg.norm(atoms, axis=1, keepdims=True)
    exact = ctx.body.shadow_volumes(normals).min()
    assert ctx.min_shadow_volume() == pytest.approx(exact, rel=1e-12)


def test_min_shadow_volume_of_cube_is_four():
    assert BodyContext(bodies.cube(3), CFG).min_shadow_volume() == 4.0


@pytest.mark.parametrize("spec", [bodies.random_zonotope(5, 8, 4),
                                  bodies.random_hull(3, 10, 1),
                                  bodies.ball_approx(4, 500)],
                         ids=lambda s: f"{s.name}-n{s.dim}")
def test_capped_descent_seeds_the_walk_to_the_full_descents_value(spec):
    # the facet walk sets the value: a descent capped at SNAP_SEED_ITERS,
    # without the polish, ends where the full minimizer plus walk does
    ctx = BodyContext(spec, CFG)
    x, value = checks.minimize_on_sphere(
        ctx.body.shadow_volumes, ctx.n, seed=ctx.rng("min-shadow-volume"),
        vectorized=True)
    lowest = np.argsort(ctx.shadow_vols(), kind="stable")[:8 * ctx.n]
    starts = np.vstack([x, ctx.sphere_panel()[lowest]])
    full = min(value, ctx._facet_snap(starts))
    assert ctx.min_shadow_volume() == full


@pytest.mark.parametrize("draw", ["panel", "ties", "constant"])
def test_lowest_matches_a_stable_argsort_with_ties(draw):
    ctx = BodyContext(bodies.random_hull(3, 10, 1), CFG)
    values = {"panel": ctx.shadow_vols(),
              "ties": np.random.default_rng(3).integers(0, 40, 20_000) * 1.0,
              "constant": np.ones(20_000)}[draw]
    for k in (1, 8 * 3, 8 * 5):
        assert np.array_equal(checks._lowest(values, k),
                              np.argsort(values, kind="stable")[:k])


@pytest.mark.parametrize("n", [3, 4])
def test_tied_positions_of_the_cube_bind_at_the_first(n):
    # every classical position of the cube is a cube, so each index ties
    # across the positions in exact arithmetic: roundoff must not pick
    ctx = BodyContext(bodies.cube(n), CFG)
    for check_id in ("T-HYPER-4", "T-HYPER-6", "T-QUER-4", "T-HIGHER-7"):
        cell = run_check(CHECK_MAP[check_id], ctx)
        binding = cell.detail["binding_case"]
        assert binding.split(",")[0] == "min-surface", (check_id, binding)
        index = binding.partition(", ")[2]
        tied = [c["ratio"] for c in cell.detail["cases"]
                if c["label"].partition(", ")[2] == index]
        assert len(tied) >= 4
        assert max(tied) - min(tied) <= 1e-14 * max(tied)


def test_unknown_check_cells_report_errors_not_raises():
    # an evaluator crash must surface as status "error" with a traceback
    spec = CHECK_MAP["T-HYPER-1"]
    broken = type(spec)(id=spec.id, claim=spec.claim,
                        body_classes=spec.body_classes,
                        fn=lambda ctx: (_ for _ in ()).throw(RuntimeError("boom")))
    cell = run_check(broken, BodyContext(bodies.cube(3), CFG))
    assert cell.status == "error"
    assert "boom" in cell.detail["error"]


def _counting(monkeypatch, owner, name):
    """Record the calls of ``owner.name`` (a method) in the returned list."""
    calls = []
    real = getattr(owner, name)

    def counting(self, *args, **kwargs):
        calls.append(args)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_minproj_budget_skip_solves_no_minimum(monkeypatch):
    # the generator count of Pi K decides the skip before the sphere
    # minimum and its facet walk are paid for
    calls = _counting(monkeypatch, BodyContext, "min_shadow_volume")
    cell = _cell("MINPROJ", bodies.random_hull(3, 10, 3))
    assert cell.status == "skipped"
    assert cell.detail["reason"].startswith("projection body has ")
    assert cell.detail["reason"].endswith("reserved for <= 12")
    assert calls == []


def test_zon_vol_reads_the_zonotope_volume_budget():
    # Pi K of ball-approx(64) at n=3 has 300,000 < C(m, 3) <= 400,000
    # n-subsets: over the budget of Zonotope.volume, which raises there, so
    # both checks must take their budget branch, not call it
    ctx = BodyContext(bodies.ball_approx(3, 64), CFG)
    subsets = math.comb(ctx.projection_body_merged().n_generators, 3)
    assert zonotope.SUBSET_BUDGET < subsets <= 400_000
    zon_vol = run_check(CHECK_MAP["ZON-VOL"], ctx)
    assert zon_vol.status == "pass"
    assert zon_vol.detail["note"].endswith(
        f"(budget {zonotope.SUBSET_BUDGET} subsets)")
    assert [s["label"] for s in zon_vol.detail["cases"]] == [
        "polar projection body volume, lower",
        "polar projection body volume, upper"]
    identity = run_check(CHECK_MAP["ZON-VOL-ID"], ctx)
    assert identity.status == "skipped"
    assert identity.detail["reason"].endswith("exact volume over budget")


@pytest.mark.parametrize("spec", [make(n) for n in (3, 4) for make in (
    bodies.cube, bodies.simplex, lambda n: bodies.random_hull(n, 2 * n + 4, 1),
    lambda n: bodies.random_zonotope(n, n + 2, 1))],
                         ids=lambda s: f"{s.name}-n{s.dim}")
def test_zon_vol_scales_the_projection_body_memo(monkeypatch, spec):
    calls = []
    real = checks.projection_body
    monkeypatch.setattr(checks, "projection_body",
                        lambda body: calls.append(1) or real(body))
    ctx = BodyContext(spec, CFG)
    subs, detail = CHECK_MAP["ZON-VOL"].fn(ctx)
    for check_id in ("MINPROJ", "ZON-VOL-ID"):
        run_check(CHECK_MAP[check_id], ctx)
    assert len(calls) == 1  # Pi K is built once per context
    # against Pi of the volume-one copy, hulled on its own
    n = ctx.n
    unit = transform_body(ctx.body, np.eye(n), scale=ctx.volume() ** (-1.0 / n))
    other = real(unit)
    assert detail["generators"] == other.n_generators
    pivol = next(s.rhs for s in subs
                 if s.label == "projection body volume, lower")
    assert pivol.exact
    assert pivol.value == pytest.approx(other.volume(), rel=1e-12, abs=0)


def test_ck_ident_computes_no_discarded_shadow_surface(monkeypatch):
    calls = _counting(monkeypatch, Zonotope, "frame_shadow_surfaces")
    cell = _cell("CK-IDENT", bodies.random_zonotope(4, 7, 1))
    assert cell.status == "pass"
    assert calls == []


# ---------------------------------------------------------------------------
# FGM and L-HIGHER-1 read vertex-body shadows from K itself


def _fgm_hyperplane_frames(ctx):
    n = ctx.n
    frames = grassmann_frames(n, n - 1, 50, ctx.rng("FGM", n - 1).generator())
    return frames, np.linalg.svd(frames)[2][:, -1]


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("make", [bodies.cube, bodies.simplex,
                                  lambda n: bodies.random_hull(n, 2 * n + 4, 1),
                                  lambda n: bodies.random_hull(n, 2 * n + 4, 2)],
                         ids=["cube", "simplex", "hull-1", "hull-2"])
def test_hyperplane_shadow_kernels_match_the_projected_hulls(make, n):
    ctx = BodyContext(make(n), CFG)
    frames, xi = _fgm_hyperplane_frames(ctx)
    hulls = [project_body(ctx.body, f) for f in frames]
    vols = np.array([h.volume() for h in hulls])
    w1 = np.array([h.surface_area() for h in hulls]) / (n - 1)
    assert np.allclose(ctx.body.shadow_volumes(xi), vols, rtol=1e-13, atol=0)
    assert np.allclose(ctx.body.shadow_surfaces(xi) / (n - 1), w1,
                       rtol=1e-13, atol=0)
    # L-HIGHER-1's k = n-1 rhs against the per-frame hulls of
    # frame_shadow_panel
    frames = grassmann_frames(n, n - 1, 50,
                              ctx.rng("L-HIGHER-1", n - 1).generator())
    hull_vols, hull_surfs = frame_shadow_panel(ctx.body, frames)
    worst = (hull_surfs / hull_vols).max()
    subs, _ = CHECK_MAP["L-HIGHER-1"].fn(ctx)
    rhs = next(s.rhs.value for s in subs if s.label == f"k={n - 1}")
    assert rhs == pytest.approx(n / (2.0 * (n - 1)) * worst, rel=1e-13)


@pytest.mark.parametrize("spec", [make(n) for n in (3, 4, 5) for make in (
    bodies.cube, lambda n: bodies.random_hull(n, 2 * n + 4, 1))],
                         ids=lambda s: f"{s.name}-n{s.dim}")
def test_fgm_builds_no_shadow_hull_for_vertex_bodies(monkeypatch, spec):
    calls = []
    real = checks.project_body

    def counting(body, frame):
        calls.append(frame.shape)
        return real(body, frame)

    monkeypatch.setattr(checks, "project_body", counting)
    ctx = BodyContext(spec, CFG)
    subs, _ = CHECK_MAP["FGM"].fn(ctx)
    # no hull at n = 3; beyond, only 1 <= j <= k-2 (k >= 3) reads a hull,
    # one per frame
    n = ctx.n
    assert calls == [(k, n) for k in range(3, n) for _ in range(50)]
    # the k = n-1 quotients against the hull route: W_1 = S/k at p = 1
    monkeypatch.undo()
    k = n - 1
    frames, _ = _fgm_hyperplane_frames(ctx)
    hulls = [project_body(ctx.body, f) for f in frames]
    best = max(h.surface_area() / k / h.volume() for h in hulls)
    rhs = next(s.rhs.value for s in subs if s.label == f"k={k}, p=1")
    assert rhs == pytest.approx(best / math.comb(2, 1), rel=1e-13)


@pytest.mark.parametrize("n, k, p", [(4, 3, 2), (5, 4, 2), (5, 4, 3)])
def test_fgm_monte_carlo_sides_match_the_shadow_hull_route(n, k, p):
    # the indices 1 <= j <= k-2, once Monte Carlo, are now exact W_p of
    # the hulled shadows
    ctx = BodyContext(bodies.random_hull(n, 2 * n + 4, 1), CFG)
    subs, _ = CHECK_MAP["FGM"].fn(ctx)
    rhs = next(s.rhs for s in subs if s.label == f"k={k}, p={p}")
    frames = grassmann_frames(n, k, 50, ctx.rng("FGM", k).generator())
    shadows = [project_body(ctx.body, f) for f in frames]
    best = max(quermassintegral(s, p).value / s.volume() for s in shadows)
    assert rhs.exact
    assert rhs.value == pytest.approx(best / math.comb(n - k + p, n - k),
                                      rel=1e-12)


@pytest.mark.parametrize("n, p, exact", [(4, 2, 2 * math.pi),
                                         (5, 2, 4 * math.pi),
                                         (5, 3, 8 * math.pi / 3)])
def test_vertex_shadow_quermass_minima_of_the_cube(n, p, exact):
    # every hyperplane shadow of [-1,1]^n contains a face of the cube
    # [-1,1]^{n-1}, whose V_j = C(n-1,j) 2^j omega_{n-1-j}/C(n-1,j) is the
    # minimum (W_p of the shadow, read as V_{n-1-p})
    value, method = BodyContext(bodies.cube(n), CFG).min_shadow_quermass(p)
    assert exact <= value <= exact * (1 + 2e-3)
    assert method == ("screened sphere minimum of the exact shadow-hull "
                      f"V_{n - 1 - p}")


@pytest.mark.parametrize("n", [2, 6])
def test_body_context_refuses_dimensions_outside_3_to_5(n):
    with pytest.raises(ValueError, match=f"n = 3, 4 or 5, not n = {n}"):
        BodyContext(bodies.cube(n), CFG)


# ---------------------------------------------------------------------------
# minimal-surface quotient invariants


@given(seed=st.integers(min_value=1, max_value=40))
@settings(max_examples=12, deadline=None)
def test_surface_quotient_floor_random_hulls(seed):
    # the ball minimizes S/V^{(n-1)/n}: quotient >= n omega_n^{1/n}
    body = bodies.random_hull(3, 10, seed).build()
    floor = 3.0 * omega(3) ** (1.0 / 3.0)
    assert minimal_surface_position(body)[1] >= floor - 1e-9


@given(seed=st.integers(min_value=1, max_value=40))
@settings(max_examples=10, deadline=None)
def test_surface_quotient_reverse_bound_zonotopes(seed):
    # at the minimal-surface position of a symmetric body the quotient is at
    # most the cube value 2n
    body = bodies.random_zonotope(3, 6, seed).build()
    assert minimal_surface_position(body)[1] <= 6.0 + 1e-6


def test_surface_quotient_is_linearly_invariant():
    q3 = bodies.cube(3).build()
    rng = np.random.default_rng(5)
    t = rng.standard_normal((3, 3))
    image = transform_body(q3, t)
    assert minimal_surface_position(image)[1] == pytest.approx(
        minimal_surface_position(q3)[1], rel=1e-9)


def test_a_root_solves_its_minimal_surface_position_once(monkeypatch):
    # partial() reads the certified solve that the min-surface child is
    # built from
    calls = []
    real = positions.minimal_surface_position
    monkeypatch.setattr(positions, "minimal_surface_position",
                        lambda body: calls.append(body) or real(body))
    ctx = BodyContext(bodies.random_hull(3, 10, 1), CFG)
    for spec in CHECKS:
        assert run_check(spec, ctx).status in ("pass", "skipped")
    assert len(calls) == 1 and calls[0] is ctx.body
    assert ctx.positioned("min-surface").partial() == ctx.partial() \
        == ctx.position_solve("min-surface")[1]["surface-quotient"]


def test_t_hyper_1_builds_no_positioned_child():
    ctx = BodyContext(bodies.random_hull(3, 10, 1), CFG)
    cell = run_check(CHECK_MAP["T-HYPER-1"], ctx)
    assert cell.status == "pass"
    assert cell.detail["min_surface_quotient"] == ctx.partial()
    assert [key for key in ctx._cache
            if isinstance(key, tuple) and key[0] == "positioned"] == []


def test_partial_is_certified_like_a_positioned_check(monkeypatch):
    real = positions.minimal_surface_position

    def loose(body):
        result, quotient = real(body)
        return dataclasses.replace(result, residual=1e-8), quotient

    monkeypatch.setattr(positions, "minimal_surface_position", loose)
    ctx = BodyContext(bodies.cube(3), CFG)
    with pytest.raises(checks.PositionCertificateError, match="min-surface"):
        ctx.partial()
    assert run_check(CHECK_MAP["T-HYPER-1"], ctx).status == "error"


# ---------------------------------------------------------------------------
# suite runner


def _tiny_corpus():
    return [bodies.cube(3), bodies.random_zonotope(3, 6, 1)]


@pytest.fixture(scope="module")
def tiny_report():
    return run_suite(_tiny_corpus(), seed=0)


def test_suite_report_shape_and_ratio_sanity(tiny_report):
    report = tiny_report
    assert report["summary"]["ok"]
    counts = report["summary"]["counts"]
    assert counts["fail"] == 0 and counts["error"] == 0
    assert "min-shadow-floor" in report["summary"]
    for cell in report["results"]:
        if cell["status"] in ("skipped", "error"):
            continue
        for case in cell["detail"]["cases"]:
            if case.get("status") != "pass" or case["direction"] != "le":
                continue
            if cell["id"] == "BALL-EQ":
                continue  # its ratio is calibrated to approach 1 from below
            rel_sd = math.hypot(case["lhs"]["stderr"], case["rhs"]["stderr"])
            rel_sd /= max(abs(case["rhs"]["value"]), 1e-300)
            tol = case["tol"]
            assert 0.0 < case["ratio"] <= 1.0 + tol + 3.0 * rel_sd + 1e-12


def test_only_named_allowances_carry_a_tolerance(tiny_report):
    # exact sides resolve at tol 0 and sampled ones by their 3-sigma rule;
    # a nonzero tol is an eq tolerance or one of the two named allowances
    named = {"ZON-VOL": checks.ZON_VOL_POLAR_TOL, "BALL-EQ": checks.BALL_EQ_TOL}
    allowed = []
    for cell in tiny_report["results"]:
        for case in cell["detail"].get("cases", []):
            if case["tol"] == 0.0 or case["direction"] == "eq":
                continue
            assert case["tol"] == named.get(cell["id"]), (cell["id"], case)
            if cell["id"] == "ZON-VOL":
                assert case["label"].startswith("polar"), case["label"]
            allowed.append(cell["id"])
    assert "tol" not in tiny_report["config"]
    assert allowed.count("ZON-VOL") == 2 * len(_tiny_corpus())
    # BALL-EQ's allowance bounds both sides of its near-equality
    ball = run_suite([bodies.ball_approx(3, 100)], ids=["BALL-EQ"], seed=0)
    cases = ball["results"][0]["detail"]["cases"]
    assert [(case["direction"], case["tol"], case["status"]) for case in cases] \
        == [("le", checks.BALL_EQ_TOL, "pass"), ("ge", checks.BALL_EQ_TOL, "pass")]


def test_suite_rejects_unknown_ids():
    with pytest.raises(ValueError, match="unknown check id"):
        run_suite(_tiny_corpus(), ids=["NOT-A-CHECK"])


def test_suite_rejects_more_samples_than_a_sphere_panel_holds():
    # the panels would cap the budget while the report echoed it
    cap = checks.SPHERE_PANEL_MAX
    with pytest.raises(ValueError, match=f"at most {cap}"):
        run_suite(_tiny_corpus(), ids=["CK-IDENT"], samples=cap + 1)
    report = run_suite([bodies.cube(3)], ids=["CK-IDENT"], samples=cap)
    assert report["config"]["samples"] == cap


def test_suite_reports_are_deterministic(tmp_path):
    ids = ["T-HYPER-1", "MINPROJ", "ZON-VOL-ID", "ALEK"]
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    run_suite(_tiny_corpus(), ids=ids, seed=3, out=out_a)
    run_suite(_tiny_corpus(), ids=ids, seed=3, out=out_b, jobs=2)
    assert out_a.read_bytes() == out_b.read_bytes()
    assert out_a.with_suffix(".csv").read_bytes() == \
        out_b.with_suffix(".csv").read_bytes()


def test_suite_csv_has_one_row_per_cell(tmp_path):
    ids = ["T-HYPER-1", "T-HYPER-2"]
    out = tmp_path / "r.json"
    run_suite(_tiny_corpus(), ids=ids, seed=0, out=out)
    lines = out.with_suffix(".csv").read_text().strip().split("\n")
    assert lines[0] == "id,body,n,lhs,lhs_err,rhs,rhs_err,ratio,status"
    assert len(lines) == 1 + len(ids) * len(_tiny_corpus())


def test_summary_tracks_smallest_shadow_floor_ratio():
    report = run_suite(_tiny_corpus(), ids=["T-LOWER-MIN"], seed=0)
    floor = report["summary"]["min-shadow-floor"]
    assert floor["body"] in ("cube", "random-zonotope(6,1)")
    assert floor["smallest_ratio"] >= 1.0  # it is a lower bound: lhs/rhs >= 1


# ---------------------------------------------------------------------------
# extremizer search


def test_search_trace_is_elitist():
    trace = extremizer_search("GHP", "perturbed-cube", 3, budget=12, seed=0,
                              samples=2_000)
    ratios = [step.ratio for step in trace]
    assert ratios == sorted(ratios)
    assert trace[0].step == 0
    # the cube attains 1/2 and perturbations cannot beat the bound
    assert 0.5 - 1e-9 <= ratios[-1] <= 1.0


def test_search_rejects_unknown_id_and_family():
    with pytest.raises(ValueError):
        extremizer_search("NOT-A-CHECK", "random-hull", 3, budget=2)
    with pytest.raises(ValueError):
        extremizer_search("GHP", "random-forest", 3, budget=2)


def test_search_rejects_hull_family_for_zonoid_checks():
    with pytest.raises(ValueError, match="zonoid"):
        extremizer_search("T-HYPER-2", "random-hull", 3, budget=2)


def test_search_ids_are_catalog_checks():
    assert set(SEARCH_IDS) <= set(CHECK_IDS)


def test_ghp_panel_cache_leaves_search_traces_unchanged():
    panel = checks._shared_directions
    panel.cache_clear()
    cold = extremizer_search("GHP", "random-hull", 4, budget=5, seed=0)
    misses = panel.cache_info().misses
    warm = extremizer_search("GHP", "random-hull", 4, budget=5, seed=0)
    # every step of a search scores one body name: one draw per search
    assert misses == 1
    assert panel.cache_info().misses == misses
    assert [s.to_dict() for s in cold] == [s.to_dict() for s in warm]


def test_ghp_panel_is_read_only_and_keyed_by_body_and_seed():
    def draw(spec, seed):
        ctx = BodyContext(spec, SuiteConfig(samples=20_000, seed=seed))
        dirs = checks._shared_directions(3, 100, ctx.rng("GHP"))
        fresh = sphere_points(3, 100, ctx.rng("GHP").generator())
        assert np.array_equal(dirs, fresh)
        return dirs

    dirs = draw(bodies.cube(3), 0)
    with pytest.raises(ValueError, match="read-only"):
        dirs[0, 0] = 1.0
    assert draw(bodies.cube(3), 0) is dirs
    assert not np.array_equal(draw(bodies.cross_polytope(3), 0), dirs)
    assert not np.array_equal(draw(bodies.cube(3), 1), dirs)


def test_ghp_panel_cache_is_bounded():
    panel = checks._shared_directions
    assert panel.cache_info().maxsize == checks.SHARED_DIRECTIONS_CACHE > 0
    for seed in range(checks.SHARED_DIRECTIONS_CACHE + 5):
        panel(3, 4, RngSeed(seed))
    assert panel.cache_info().currsize == checks.SHARED_DIRECTIONS_CACHE


# ---------------------------------------------------------------------------
# report plots


def test_svg_render_is_deterministic_and_panelled():
    report = run_suite(_tiny_corpus(), ids=["T-HYPER-1", "ALEK"], seed=1)
    svg_a = render([report])
    svg_b = render([report])
    assert svg_a == svg_b
    assert svg_a.count("<svg") == 1
    assert "T-HYPER-1" in svg_a and "ALEK" in svg_a


def test_svg_render_requires_plottable_cells():
    report = run_suite([bodies.cube(3)], ids=["BALL-EQ"], seed=0)
    with pytest.raises(ValueError, match="no plottable cells"):
        render([report])
