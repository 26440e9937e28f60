"""Exact polytope computations against closed-form values.

The cube Q3 = [-1,1]^3, the cross-polytope B1_3 = conv(+-e_i), and the
regular simplex give hand-computable volumes, surface areas, supports,
shadows, and ridge data.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projgeo import bodies
from projgeo.bodyops import project_body, transform_body
from projgeo.polytope import (DegenerateInputError, circumradius, convex_hull,
                              from_halfspaces, inradius, polar)
from projgeo.sampling import RngSeed, sphere_points


def _cube(n=3):
    return bodies.cube(n).build()


def _cross(n=3):
    return bodies.cross_polytope(n).build()


def test_cube_volume_and_surface():
    q3 = _cube()
    assert q3.volume() == pytest.approx(8.0, rel=1e-12)
    assert q3.surface_area() == pytest.approx(24.0, rel=1e-12)
    assert q3.n_vertices == 8
    assert q3.n_facets == 6


def test_cross_volume_and_surface():
    b13 = _cross()
    # |B1_n| = 2^n / n!; each of the 8 facets is a triangle with vertices
    # like e1, e2, e3 (side sqrt(2)), so its area is sqrt(3)/2
    assert b13.volume() == pytest.approx(8.0 / 6.0, rel=1e-12)
    assert b13.surface_area() == pytest.approx(4.0 * math.sqrt(3.0),
                                               rel=1e-12)


def test_cube_support_and_gauge():
    q3 = _cube()
    assert q3.support(np.array([1.0, 1.0, 1.0])) == pytest.approx(3.0)
    diag = np.ones(3) / math.sqrt(3.0)
    # the diagonal leaves the cube through a vertex at distance sqrt(3)
    assert q3.gauge(diag) == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-12)


def test_support_batch_matches_scalar():
    body = bodies.random_hull(3, 12, 5).build()
    dirs = sphere_points(3, 50, RngSeed(11).generator())
    batch = body.support_batch(dirs)
    singles = [body.support(d) for d in dirs]
    assert np.allclose(batch, singles, rtol=1e-12)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_width_is_nonnegative_and_even(seed):
    body = bodies.random_hull(3, 10, seed % 97).build()
    theta = sphere_points(3, 1, RngSeed(seed).generator())[0]
    w = body.support(theta) + body.support(-theta)
    assert w >= 0.0
    assert body.width_batch(theta[None])[0] == pytest.approx(w, rel=1e-12)


def test_polar_cube_is_cross():
    q3, b13 = _cube(), _cross()
    assert polar(q3).volume() == pytest.approx(b13.volume(), rel=1e-10)
    assert polar(b13).volume() == pytest.approx(q3.volume(), rel=1e-10)


def test_inradius_and_circumradius():
    r_cube, center = inradius(_cube())
    assert r_cube == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(center, 0.0, atol=1e-9)
    r_cross, _ = inradius(_cross())
    assert r_cross == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-9)
    assert circumradius(_cube()) == pytest.approx(math.sqrt(3.0), rel=1e-12)
    assert circumradius(bodies.simplex(4).build()) == pytest.approx(
        1.0, rel=1e-9)


def test_cube_shadow_volumes():
    q3 = _cube()
    dirs = np.vstack([np.eye(3), np.ones((1, 3)) / math.sqrt(3.0)])
    vols = q3.shadow_volumes(dirs)
    # coordinate shadows are squares of area 4; the diagonal shadow is a
    # regular hexagon of area 4*sqrt(3) (Cauchy: sum of |<u_i, xi>| a_i / 2)
    assert np.allclose(vols[:3], 4.0, rtol=1e-10)
    assert vols[3] == pytest.approx(4.0 * math.sqrt(3.0), rel=1e-10)


def test_cube_shadow_surfaces_are_perimeters():
    q3 = _cube()
    surfs = q3.shadow_surfaces(np.eye(3))
    assert np.allclose(surfs, 8.0, rtol=1e-10)


def test_projection_to_subspace():
    q3 = _cube()
    frame = np.eye(3)[:2]
    sq = project_body(q3, frame)
    assert sq.dim == 2
    assert sq.volume() == pytest.approx(4.0, rel=1e-12)


def test_surface_measure_of_cube():
    meas = _cube().surface_measure()
    assert meas.normals.shape == (6, 3)
    assert np.allclose(np.sort(meas.weights), 4.0)
    # the even measure sums to zero vector-wise: sum a_i u_i = 0
    assert np.allclose(meas.weights @ meas.normals, 0.0, atol=1e-12)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_surface_measure_centroid_vanishes(seed):
    body = bodies.random_hull(3, 12, seed % 89).build()
    meas = body.surface_measure()
    assert np.allclose(meas.weights @ meas.normals, 0.0, atol=1e-9)
    assert meas.weights.sum() == pytest.approx(body.surface_area(),
                                               rel=1e-10)


def test_ridge_mean_width_of_cube():
    # V_1(Q3) = 2 * omega_2 = 2 pi, computed exactly from ridge angles
    assert _cube().mean_width_exact_2codim() == pytest.approx(
        2.0 * math.pi, rel=1e-12)


def test_transform_scales_volume_by_determinant():
    q3 = _cube()
    mat = np.array([[2.0, 1.0, 0.0], [0.0, 1.0, 0.5], [0.0, 0.0, 3.0]])
    image = transform_body(q3, mat)
    assert image.volume() == pytest.approx(8.0 * abs(np.linalg.det(mat)),
                                           rel=1e-10)


def test_from_halfspaces_round_trip():
    q3 = _cube()
    rebuilt = from_halfspaces(q3.facet_normals, q3.facet_offsets)
    assert rebuilt.volume() == pytest.approx(8.0, rel=1e-10)
    assert rebuilt.n_vertices == 8


def test_degenerate_input_reports_affine_dimension():
    flat = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                     [1.0, 1.0, 0.0]])
    with pytest.raises(DegenerateInputError, match="affine"):
        convex_hull(flat)


def test_polar_requires_interior_origin():
    shifted = transform_body(_cube(), np.eye(3))
    pts = shifted.vertices + 5.0
    with pytest.raises(ValueError):
        polar(convex_hull(pts))
