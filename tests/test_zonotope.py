"""Zonotope computations: determinant formulas against hull conversions."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projgeo import bodies, checks
from projgeo.bodyops import project_body
from projgeo.checks import CHECK_MAP, BodyContext, SuiteConfig, run_check
from projgeo.sampling import RngSeed, sphere_points
from projgeo.zonotope import (Zonotope, omega, projection_body,
                              zonotope_to_polytope)


def _zcube(n=3):
    """The cube [-1,1]^n as a zonotope (axis segments)."""
    return Zonotope(np.eye(n))


def test_cube_zonotope_basics():
    z = _zcube()
    assert z.volume() == pytest.approx(8.0, rel=1e-12)
    assert z.surface_area() == pytest.approx(24.0, rel=1e-12)
    assert z.width_batch(np.eye(3))[0] == pytest.approx(2.0)


def test_symmetry_reads_the_center_and_builds_no_vertex_form():
    # 13 generators: over the conversion cap, so a vertex form would raise
    z = bodies.random_zonotope(3, 13, 1).build()
    assert z.symmetric and z._polytope is None
    ctx = BodyContext(bodies.random_zonotope(3, 13, 1), SuiteConfig())
    assert ctx.position_list(("john", "lowner")) == ["john", "lowner"]
    assert ctx.body._polytope is None
    moved = Zonotope(z.generators, np.full(3, 0.5))
    assert not moved.symmetric and moved._polytope is None


def test_zonotope_volume_matches_hull():
    gens = RngSeed(3).generator().standard_normal((6, 4))
    z = Zonotope(gens)
    hull = zonotope_to_polytope(z)
    assert z.volume() == pytest.approx(hull.volume(), rel=1e-9)
    assert z.surface_area() == pytest.approx(hull.surface_area(), rel=1e-9)


@given(seed=st.integers(0, 5000), m=st.integers(3, 7))
@settings(max_examples=15, deadline=None)
def test_zonotope_volume_matches_hull_random(seed, m):
    gens = RngSeed(seed).derive("volcheck").generator().standard_normal((m, 3))
    z = Zonotope(gens)
    assert z.volume() == pytest.approx(zonotope_to_polytope(z).volume(),
                                       rel=1e-9)


def test_exact_quermassintegrals_of_cube():
    z = _zcube()
    # codimension p: V_3 = 8, V_2 = S/3 = 8, V_1 = 2*omega_2 = 2pi
    assert z.quermassintegral_exact(0) == pytest.approx(8.0, rel=1e-12)
    assert z.quermassintegral_exact(1) == pytest.approx(8.0, rel=1e-12)
    assert z.quermassintegral_exact(2) == pytest.approx(2.0 * math.pi,
                                                        rel=1e-12)


def test_shadows_match_polytope_twin():
    gens = RngSeed(9).generator().standard_normal((6, 3))
    z = Zonotope(gens)
    poly = zonotope_to_polytope(z)
    dirs = sphere_points(3, 32, RngSeed(10).generator())
    assert np.allclose(z.shadow_volumes(dirs), poly.shadow_volumes(dirs),
                       rtol=1e-9)
    assert np.allclose(z.shadow_surfaces(dirs), poly.shadow_surfaces(dirs),
                       rtol=1e-8)


def test_projection_body_of_cube():
    pi_q3 = projection_body(_zcube())
    # h_{Pi K}(xi) = |P_{xi^perp} K| = 4 at coordinate directions, so the
    # centered Pi K is 8 wide there
    assert np.allclose(pi_q3.width_batch(np.eye(3)), 8.0, rtol=1e-12)
    assert pi_q3.volume() == pytest.approx(512.0, rel=1e-10)


def test_merge_parallel_preserves_support():
    gens = np.vstack([np.eye(3), 2.0 * np.eye(3), [[1.0, 1.0, 0.0]]])
    z = Zonotope(gens)
    merged = z.merge_parallel()
    assert merged.n_generators == 4
    dirs = sphere_points(3, 40, RngSeed(12).generator())
    assert np.allclose(z.width_batch(dirs), merged.width_batch(dirs),
                       rtol=1e-12)


def test_frame_shadow_volumes_match_projection():
    gens = RngSeed(21).generator().standard_normal((7, 4))
    z = Zonotope(gens)
    from projgeo.sampling import grassmann_frames

    frames = grassmann_frames(4, 2, 16, RngSeed(22).generator())
    vols = z.frame_shadow_volumes(frames)
    for frame, vol in zip(frames, vols):
        shadow = Zonotope(gens @ frame.T)
        assert vol == pytest.approx(shadow.volume(), rel=1e-10)


def _shadow_surfaces_uncached(z, dirs):
    """The rank-one Gram update with the subset Grams rebuilt per call."""
    m, n = z.generators.shape
    idx = np.array(list(itertools.combinations(range(m), n - 2)), dtype=int)
    sub = z.generators[idx]
    gram = np.einsum("cik,cjk->cij", sub, sub)
    det_a, inv_a = np.linalg.det(gram), np.linalg.inv(gram)
    b = np.einsum("cik,bk->bci", sub, dirs)
    quad = np.einsum("bci,cij,bcj->bc", b, inv_a, b)
    vols = np.sqrt(np.maximum(det_a[None, :] * (1.0 - quad), 0.0))
    return 2.0 ** (n - 1) * vols.sum(axis=1)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_cached_shadow_surfaces_are_bit_identical(n):
    z = Zonotope(RngSeed(n).generator().standard_normal((7, n)))
    gen = RngSeed(10 + n).generator()
    for count in (37, 5):
        dirs = sphere_points(n, count, gen)
        got = z.shadow_surfaces(dirs)
        assert np.array_equal(got, _shadow_surfaces_uncached(z, dirs))
        assert np.array_equal(got, Zonotope(z.generators).shadow_surfaces(dirs))


# ---------------------------------------------------------------------------
# shadow quermassintegrals from the subset-Gram kernel


def _shadow_quermass(z, xi, j):
    """V_j(P_{xi-perp} Z) from the kernel and its constant."""
    n = z.dim
    const = 2.0 ** j * omega(n - 1 - j) / math.comb(n - 1, j)
    return const * z.shadow_subset_volumes(xi[None], j)[0]


def _perp_basis(xi):
    """An orthonormal basis of xi-perp as rows."""
    q, _ = np.linalg.qr(np.column_stack([xi, np.eye(xi.size)]))
    return q[:, 1:xi.size].T


@pytest.mark.parametrize("n", [4, 5])
def test_shadow_subset_kernel_matches_the_projected_zonotope(n):
    z = Zonotope(RngSeed(30 + n).generator().standard_normal((7, n)))
    for xi in sphere_points(n, 4, RngSeed(40 + n).generator()):
        shadow = project_body(z, _perp_basis(xi))
        for j in range(1, n - 1):
            assert _shadow_quermass(z, xi, j) == pytest.approx(
                shadow.quermassintegral_exact(n - 1 - j), rel=1e-12)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_shadow_v1_of_a_segment(n):
    # P_{xi-perp}[-g, g] is a segment of length 2 sqrt(|g|^2 - <g,xi>^2),
    # and V_1 of a segment in R^{n-1} is its length times omega_{n-2}/(n-1)
    g = RngSeed(50 + n).generator().standard_normal(n)
    xi = sphere_points(n, 1, RngSeed(60 + n).generator())[0]
    expected = (2.0 * omega(n - 2) / (n - 1)
                * math.sqrt(g @ g - (g @ xi) ** 2))
    assert _shadow_quermass(Zonotope(g[None]), xi, 1) == pytest.approx(
        expected, rel=1e-12)


def test_zonoid_shadow_quermass_minima_are_exact(monkeypatch):
    calls = []
    real = checks._screened_sphere_min

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(checks, "_screened_sphere_min", counting)
    ctx = BodyContext(bodies.random_zonotope(4, 7, 1), SuiteConfig())
    cell = run_check(CHECK_MAP["T-QUER-1"], ctx)
    assert cell.status == "pass"
    assert calls == []
    assert cell.detail["methods"] == {
        "p=1": "exact shadow surfaces",
        "p=2": "sphere minimum of the exact subset-Gram V_1"}
