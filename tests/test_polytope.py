"""Exact polytope computations against closed-form values.

The cube Q3 = [-1,1]^3, the cross-polytope B1_3 = conv(+-e_i), and the
regular simplex give hand-computable volumes, surface areas, supports,
shadows, and ridge data.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.spatial import ConvexHull

from projgeo import bodies, polytope, positions
from projgeo.bodyops import project_body, to_polytope, transform_body
from projgeo.polytope import (_MERGE_ANGLE_TOL, _MERGE_OFFSET_TOL,
                              DegenerateInputError, Polytope, _gram_volumes,
                              _silhouette, circumradius, inradius, row_blocks)
from projgeo.quermass import omega, quermassintegral
from projgeo.sampling import RngSeed, sphere_points
from projgeo.zonotope import projection_body, zonotope_to_polytope


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


@given(seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_width_is_nonnegative_and_even(seed):
    body = bodies.random_hull(3, 10, seed % 97).build()
    theta = sphere_points(3, 1, RngSeed(seed).generator())[0]
    prods = body.vertices @ theta
    w = prods.max() - prods.min()
    assert w >= 0.0
    assert body.width_batch(theta[None])[0] == pytest.approx(w, rel=1e-12)
    assert body.width_batch(-theta[None])[0] == pytest.approx(w, rel=1e-12)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_width_batch_matches_row_major_products(n):
    # the (V, rows) layout reads the same products as (rows, V): bit for bit
    # on the small corpus bodies, and to roundoff on the 500-point ball
    dirs = sphere_points(n, 3000, RngSeed(5).generator())
    for spec in bodies.corpus(n):
        body = spec.build()
        if not isinstance(body, polytope.Polytope):
            continue
        prods = dirs @ body.vertices.T
        reference = prods.max(axis=1) - prods.min(axis=1)
        widths = body.width_batch(dirs)
        if body.n_vertices <= 32:
            assert np.array_equal(widths, reference), spec.name
        else:
            assert np.allclose(widths, reference, rtol=1e-15, atol=0.0)


def test_inradius_and_circumradius():
    # the LP route, and the offset rule these symmetric bodies take
    for radius, center in (_chebyshev_ball(_cube()), inradius(_cube())):
        assert radius == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(center, 0.0, atol=1e-9)
    for radius, _ in (_chebyshev_ball(_cross()), inradius(_cross())):
        assert radius == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-9)
    assert circumradius(_cube()) == pytest.approx(math.sqrt(3.0), rel=1e-12)
    assert circumradius(bodies.simplex(4).build()) == pytest.approx(
        1.0, rel=1e-9)


def _chebyshev_ball(poly):
    """Reference: the largest inscribed ball (radius, center) by scipy's LP."""
    f, n = poly.facet_normals.shape
    res = linprog(np.r_[np.zeros(n), -1.0],
                  A_ub=np.hstack([poly.facet_normals, np.ones((f, 1))]),
                  b_ub=poly.facet_offsets,
                  bounds=[(None, None)] * n + [(0.0, None)], method="highs")
    assert res.success
    return float(res.x[-1]), res.x[:n]


def _symmetric_bodies(n):
    """cube, cross and a projection body, each also at every position."""
    pi_k = zonotope_to_polytope(projection_body(bodies.random_hull(n, n + 2, 1)
                                                .build()))
    for name, poly in (("cube", _cube(n)), ("cross", _cross(n)),
                       ("projection-body", pi_k)):
        yield name, poly
        for kind in ("min-surface", "isotropic", "john", "lowner",
                     "min-width"):
            result, _ = positions.solve(kind, poly)
            yield f"{name}@{kind}", result.apply(poly)


@pytest.mark.parametrize("n", [3, 4])
def test_symmetric_inradius_is_the_chebyshev_lp_without_one(monkeypatch, n):
    def no_lp(*args, **kwargs):
        raise AssertionError("the Chebyshev-center walk ran")

    for name, poly in _symmetric_bodies(n):
        assert poly.symmetric, name
        want = _chebyshev_ball(poly)[0]
        monkeypatch.setattr(polytope, "_inball_walk", no_lp)
        radius, center = inradius(poly)
        monkeypatch.undo()
        assert radius == pytest.approx(want, rel=1e-12, abs=0.0), name
        assert np.array_equal(center, np.zeros(n))


def test_a_second_inradius_call_solves_no_lp(monkeypatch):
    calls = []
    real = polytope._inball_walk

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(polytope, "_inball_walk", counted)
    poly = bodies.random_hull(4, 10, 1).build()
    first = inradius(poly)
    assert inradius(poly) is first and len(calls) == 1
    assert first[0] == pytest.approx(_chebyshev_ball(poly)[0], rel=1e-12)
    assert not poly.symmetric and inradius(poly) is first and len(calls) == 1


def _walk_certificate(poly):
    """The walk's ball on ``poly`` with its certificate checked; returns its
    radius and the HiGHS reference radius where HiGHS's own ball is
    feasible to 1e-12 (else None)."""
    f, n = poly.facet_normals.shape
    a = np.hstack([poly.facet_normals, np.ones((f, 1))])
    b = poly.facet_offsets
    x, rows, lam = polytope._inball_walk(poly.facet_normals, b,
                                         poly.interior_point)
    scale = max(1.0, float(np.abs(b).max()))
    assert (a @ x - b).max() <= 1e-12 * scale
    assert np.abs(a[rows] @ x - b[rows]).max() <= 1e-12 * scale
    # λ ≥ 0 on the tight facets, Σλ_i u_i = 0 and Σλ_i = 1
    assert (lam >= 0.0).all() and len(set(rows.tolist())) == rows.size
    assert np.abs(lam @ a[rows] - np.eye(n + 1)[n]).max() <= 1e-12
    radius, center = _chebyshev_ball(poly)
    highs_feasible = (a @ np.r_[center, radius] - b).max() <= 1e-12 * scale
    return float(x[-1]), radius if highs_feasible else None


@pytest.mark.parametrize("n", [3, 4, 5])
def test_inradius_walk_is_certified_on_the_corpus_and_its_positions(n):
    for spec in bodies.corpus(n):
        body = spec.build()
        tagged = [("", body)] + [
            (kind, positions.solve(kind, body)[0].apply(body))
            for kind in ("min-surface", "isotropic", "john")]
        for kind, image in tagged:
            poly = to_polytope(image)
            radius, highs = _walk_certificate(poly)
            if highs is not None:
                assert radius == pytest.approx(highs, rel=1e-12, abs=0.0), (
                    spec.name, kind)
            if kind == "john":
                # the John ellipsoid of the image is the unit ball
                for r in (radius, inradius(poly)[0]):
                    assert abs(r - 1.0) <= 1e-9 and r <= 1.0 + 1e-12, (
                        spec.name, r)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_inradius_walk_is_certified_on_stretched_hulls(n):
    stretch = np.diag([1e4] + [1.0] * (n - 1))
    for seed in range(1, 4):
        hull = bodies.random_hull(n, 3 * n, seed).build()
        poly = transform_body(hull, stretch)
        radius, highs = _walk_certificate(poly)
        assert highs is not None
        assert radius == pytest.approx(highs, rel=1e-12, abs=0.0)
        assert inradius(poly)[0] == radius


def _degenerate_bodies(n):
    """Bodies with more than n+1 facets tight at the largest ball, or no
    unique center, each with its inradius (the jittered cubes pass the
    symmetry test, so only the walk itself runs on them)."""
    cube = np.array(list(itertools.product([-1.0, 1.0], repeat=n)))
    yield "shifted cube", Polytope(cube + np.eye(n)[0] * 0.3), 1.0
    yield "box [0,2]x[0,1]^(n-1)", Polytope(
        (cube + 1.0) * np.r_[1.0, np.full(n - 1, 0.5)]), 0.5
    yield "regular simplex", bodies.simplex(n).build(), 1.0 / n
    for seed in (0, 1):
        rng = np.random.default_rng(seed)
        yield f"jittered cube {seed}", Polytope(
            cube + 1e-13 * rng.standard_normal(cube.shape)), 1.0


@pytest.mark.parametrize("n", [3, 4, 5])
def test_inradius_walk_ends_certified_on_degenerate_optima(n):
    for name, poly, want in _degenerate_bodies(n):
        radius, _ = _walk_certificate(poly)
        assert radius == pytest.approx(want, rel=1e-12, abs=0.0), name
        assert inradius(poly)[0] == pytest.approx(want, rel=1e-12, abs=0.0)


def test_an_inradius_walk_past_its_step_cap_raises(monkeypatch):
    monkeypatch.setattr(polytope, "INRADIUS_MAX_ITER", 3)
    with pytest.raises(RuntimeError, match="passed 3 steps"):
        inradius(bodies.random_hull(4, 12, 1).build())


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


def _centroid_and_covariance_reference(p):
    """The simplex moment formulas with every cone determinant retaken."""
    n = p.dim
    z = p.interior_point
    tri = p.vertices[p._tri_simplices]
    vols = np.abs(np.linalg.det(tri - z[None, None, :])) / math.factorial(n)
    w = np.concatenate([np.broadcast_to(z, (len(tri), 1, n)), tri], axis=1)
    total = vols.sum()
    centroid = (vols[:, None] * w.mean(axis=1)).sum(axis=0) / total
    ssum = w.sum(axis=1)
    second = np.einsum("s,snm->nm", vols / ((n + 1) * (n + 2)),
                       np.einsum("sin,sim->snm", w, w)
                       + np.einsum("sn,sm->snm", ssum, ssum))
    return centroid, second / total - np.outer(centroid, centroid)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_centroid_and_covariance_read_the_build_cone_volumes(n):
    # the build's determinant pass already took det(v_i - z); reading it
    # keeps every bit of the centroid and the covariance
    for spec in bodies.corpus(n):
        body = to_polytope(spec.build())
        centroid, cov = polytope.centroid_and_covariance(body)
        want_centroid, want_cov = _centroid_and_covariance_reference(body)
        assert np.array_equal(centroid, want_centroid), spec.name
        assert np.array_equal(cov, want_cov), spec.name


def _origin_symmetric_loop(body, tol=1e-9):
    """Reference: round each vertex and look its negation up in a set."""
    verts = body.vertices
    scale = max(float(np.abs(verts).max()), 1.0)
    digits = int(-np.log10(tol * scale)) if tol * scale < 1.0 else 0
    keys = {tuple(np.round(v, digits)) for v in verts}
    return all(tuple(np.round(-v, digits)) in keys for v in verts)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_origin_symmetric_matches_loop_reference(n):
    seen = set()
    for spec in bodies.corpus(n):
        body = to_polytope(spec.build())
        # a shift breaks the symmetry; a -1e-12 one rounds away, and the
        # zero coordinates it moves round to -0.0
        for shift in (0.0, -1e-12, 0.25):
            moved = Polytope(body.vertices + shift * np.arange(1, n + 1))
            want = _origin_symmetric_loop(moved)
            assert moved.symmetric == want, (spec.name, shift)
            seen.add(want)
    assert seen == {True, False}


def test_degenerate_input_reports_affine_dimension():
    flat = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                     [1.0, 1.0, 0.0]])
    with pytest.raises(DegenerateInputError, match="affine"):
        Polytope(flat)


# ---------------------------------------------------------------------------
# facet and ridge build against a per-simplex loop reference


def _loop_build(points):
    """Facets and ridges of hull(points) by per-simplex Python loops.

    The straightforward form of the build: merge coplanar neighbors one pair
    at a time with a dict of parents, then collect the shared vertices of
    every neighbor pair of different facets by set intersection, and sum
    the volume over the cones from the vertex mean to every simplex.
    Returns (normals, offsets, areas, tri_facet, ridges, volume).
    """
    pts = np.asarray(points, dtype=float)
    n = pts.shape[1]
    hull = ConvexHull(pts)
    remap = np.full(len(pts), -1)
    remap[hull.vertices] = np.arange(len(hull.vertices))
    verts = pts[hull.vertices]
    simplices = remap[hull.simplices]
    u_s, b_s = hull.equations[:, :n], -hull.equations[:, n]
    scale = float(np.max(np.linalg.norm(verts, axis=1)))
    parent = {}

    def find(s):
        while parent.get(s, s) != s:
            s = parent[s]
        return s

    for s, nbrs in enumerate(hull.neighbors):
        for t in nbrs:
            if (t > s and u_s[s] @ u_s[t] > 1.0 - _MERGE_ANGLE_TOL
                    and abs(b_s[s] - b_s[t])
                    <= _MERGE_OFFSET_TOL * max(scale, 1.0)):
                rs, rt = find(s), find(int(t))
                if rs != rt:
                    parent[rs] = rt
    roots = {}
    gid = np.array([roots.setdefault(find(s), len(roots))
                    for s in range(len(simplices))])
    edges = verts[simplices][:, 1:] - verts[simplices][:, :1]
    normals = np.zeros((len(roots), n))
    np.add.at(normals, gid, u_s * _gram_volumes(edges)[:, None])
    for f in np.flatnonzero(np.linalg.norm(normals, axis=1) == 0.0):
        # a sliver facet of Gram-volume-0 simplices: sum the unit normals
        for s in np.flatnonzero(gid == f):
            normals[f] += u_s[s]
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    stacked = np.concatenate([edges, normals[gid][:, None]], axis=1)
    areas = np.zeros(len(roots))
    np.add.at(areas, gid,
              np.abs(np.linalg.det(stacked)) / math.factorial(n - 1))
    offsets = (verts @ normals.T).max(axis=0)
    z = verts.mean(axis=0)
    cones = np.array([abs(np.linalg.det(verts[s] - z)) for s in simplices])
    volume = float(cones.sum() / math.factorial(n))

    sorted_simpl = np.sort(simplices, axis=1)
    pieces = {}
    for s, nbrs in enumerate(hull.neighbors):
        for t in nbrs:
            if t <= s or gid[s] == gid[t]:
                continue
            row = sorted_simpl[s]
            shared = row[np.isin(row, sorted_simpl[t])]
            if shared.size >= n - 1:
                key = (min(gid[s], gid[t]), max(gid[s], gid[t]))
                pieces.setdefault(key, []).append(shared[: n - 1])
    keys = sorted(pieces)
    ua = normals[[k[0] for k in keys]]
    ub = normals[[k[1] for k in keys]]
    cos = np.clip(np.einsum("rk,rk->r", ua, ub), -1.0, 1.0)
    ortho = ub - cos[:, None] * ua
    nrm = np.linalg.norm(ortho, axis=1, keepdims=True)
    nrm[nrm < 1e-300] = 1.0
    ortho = ortho / nrm
    key_of = np.array([i for i, k in enumerate(keys) for _ in pieces[k]])
    piece_vertices = np.array([a for k in keys for a in pieces[k]])
    ridge_pts = verts[piece_vertices]
    stacked = np.concatenate([ridge_pts[:, 1:] - ridge_pts[:, :1],
                              ua[key_of][:, None], ortho[key_of][:, None]],
                             axis=1)
    vols = np.zeros(len(keys))
    np.add.at(vols, key_of,
              np.abs(np.linalg.det(stacked)) / math.factorial(n - 2))
    return normals, offsets, areas, gid, (vols, ua, ub, ortho,
                                          np.arccos(cos), piece_vertices,
                                          key_of), volume


def _grid(n):
    return np.array(list(itertools.product([-1.0, 0.0, 1.0], repeat=n)))


def _cube_points(n):
    return np.array(list(itertools.product([-1.0, 1.0], repeat=n)))


def _random_points(n, count, seed):
    return np.random.default_rng(seed).standard_normal((count, n))


_RANDOM_CASES = [
    pytest.param(_random_points(n, count, seed), id=f"random-{n}-{count}-{seed}")
    for n in (3, 4, 5) for count in (6, 12, 40) for seed in (0, 1, 2)
    if count > n]

_BUILD_CASES = (
    _RANDOM_CASES
    + [pytest.param(_grid(n), id=f"grid-{n}") for n in (3, 4, 5)]
    + [pytest.param(_cross(n).vertices, id=f"cross-{n}") for n in (3, 4, 5)]
    + [pytest.param(bodies.ball_approx(3, 500).build().vertices,
                    id="ball-approx-500-3")]
    # sliver facets along the cube's ridges (n = 5, seed 3 is a qhull error)
    + [pytest.param(_cube_points(n) + 1e-13 * _random_points(n, 2 ** n, seed),
                    id=f"jittered-cube-{n}-{seed}")
       for n in (4, 5) for seed in range(6) if (n, seed) != (5, 3)]
    # heavy merges: 2^7 sign patterns hull into many split facets
    + [pytest.param(zonotope_to_polytope(
        bodies.random_zonotope(4, 7, 1).build()).vertices,
        id="random-zonotope-7-1-4")]
)


@pytest.mark.parametrize("points", _BUILD_CASES)
def test_build_matches_loop_reference_bit_for_bit(points):
    body = Polytope(points)
    normals, offsets, areas, gid, ridges, volume = _loop_build(points)
    assert np.array_equal(body.facet_normals, normals)
    assert np.array_equal(body.facet_offsets, offsets)
    assert np.array_equal(body.facet_areas, areas)
    assert np.array_equal(body._tri_facet, gid)
    assert body.volume() == volume
    rd = body.ridges()
    for got, want in zip((rd.volumes, rd.normal_a, rd.normal_b, rd.ortho_b,
                          rd.angles, rd.piece_vertices, rd.piece_ridge),
                         ridges):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("points", _RANDOM_CASES)
def test_simplicial_hull_has_one_piece_per_ridge(points):
    body = Polytope(points)
    simplices = len(body._tri_simplices)
    assert np.array_equal(body._tri_facet, np.arange(simplices))
    rd = body.ridges()
    # each simplex has n neighbors, each ridge two sides
    assert rd.volumes.size == body.dim * simplices // 2
    assert np.array_equal(rd.piece_ridge, np.arange(rd.volumes.size))


def test_hull_without_coplanar_neighbors_runs_no_union_find(monkeypatch):
    def refuse(graph, directed):
        raise AssertionError("components labeled for a simplicial hull")

    monkeypatch.setattr(polytope, "connected_components", refuse)
    body = Polytope(_random_points(4, 12, 0))
    assert np.array_equal(body._tri_facet,
                          np.arange(len(body._tri_simplices)))
    assert body.ridges().volumes.size > 0
    with pytest.raises(AssertionError, match="components labeled"):
        Polytope(_cube_points(4))        # qhull splits the cube's facets


# A 1e-13 vertex jitter leaves qhull's cube facets as separate simplices
# whose hyperplanes differ in the last bits, so the merge tolerances do the
# merging.  At n >= 4 the same jitter is wider than qhull's roundoff and
# the hull gains true sliver facets along the ridges, so it is not a cube.
_CUBE_LIKE = (
    [pytest.param(_cube_points(n), id=f"cube-{n}") for n in (3, 4, 5)]
    + [pytest.param(_grid(n), id=f"grid-{n}") for n in (3, 4, 5)]
    + [pytest.param(_cube_points(3) + 1e-13 * _random_points(3, 8, 0),
                    id="jittered-cube-3")]
)


@pytest.mark.parametrize("points", _CUBE_LIKE)
def test_coplanar_simplices_merge_into_cube_facets_and_ridges(points):
    body = Polytope(points)
    n = body.dim
    assert body.n_facets == 2 * n
    assert np.allclose(body.facet_areas, 2.0 ** (n - 1), rtol=1e-11)
    rd = body.ridges()
    assert rd.volumes.size == 4 * math.comb(n, 2)
    assert np.allclose(rd.volumes, 2.0 ** (n - 2), rtol=1e-11)
    assert np.allclose(rd.angles, math.pi / 2, atol=1e-11)


def test_ridges_are_built_once_per_polytope(monkeypatch):
    # perfbench's span tracer wraps Polytope._build_ridges by name; every
    # ridge consumer must reach it through the memo in Polytope.ridges.
    calls = []
    build = Polytope._build_ridges

    def counted(self):
        calls.append(self)
        return build(self)

    monkeypatch.setattr(Polytope, "_build_ridges", counted)
    body = bodies.random_hull(4, 12, 1).build()
    dirs = sphere_points(4, 20, RngSeed(3).generator())
    body.shadow_surfaces(dirs)
    body.shadow_surfaces(dirs[:5])
    body.mean_width_exact_2codim()
    assert calls == [body]


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("seed", range(6))
def test_jittered_cube_has_finite_facets_and_cube_shadows(n, seed):
    # At n >= 4 the jittered hull keeps sliver facets along the cube's
    # ridges, some made only of simplices of Gram volume 0.
    points = _cube_points(n) + 1e-13 * _random_points(n, 2 ** n, seed)
    if (n, seed) == (5, 3):
        with pytest.raises(DegenerateInputError):   # a qhull wide merge
            Polytope(points)
        return
    body = Polytope(points)
    assert np.isfinite(body.facet_normals).all()
    assert np.isfinite(body.facet_areas).all()
    assert body.surface_area() == pytest.approx(2 * n * 2.0 ** (n - 1),
                                                rel=1e-11)
    assert body.volume() == pytest.approx(2.0 ** n, rel=1e-11)
    dirs = sphere_points(n, 50, RngSeed(seed).generator())
    volumes = 2.0 ** (n - 1) * np.abs(dirs).sum(axis=1)
    surfaces = 2.0 ** (n - 1) * sum(np.hypot(dirs[:, i], dirs[:, j])
                                    for i, j in itertools.combinations(
                                        range(n), 2))
    assert np.allclose(body.shadow_volumes(dirs), volumes, rtol=1e-11, atol=0)
    assert np.allclose(body.shadow_surfaces(dirs), surfaces, rtol=1e-11,
                       atol=0)


# ---------------------------------------------------------------------------
# the silhouette kernel against its weighted form


def _silhouette_reference(body, dirs):
    """S(P_{ξ⊥}K) as (w·span) @ volumes with w in {0, 1/2, 1}, per block."""
    rd = body.ridges()
    out = np.empty(len(dirs))
    for blk in row_blocks(len(dirs), rd.volumes.size):
        xi = dirs[blk]
        da = xi @ rd.normal_a.T
        db = xi @ rd.normal_b.T
        w = np.where(da * db < 0.0, 1.0,
                     np.where((da == 0.0) ^ (db == 0.0), 0.5, 0.0))
        span = np.sqrt(da ** 2 + (xi @ rd.ortho_b.T) ** 2)
        out[blk] = (w * span) @ rd.volumes
    return out


@pytest.mark.parametrize("points", [
    pytest.param(_cube_points(3), id="cube-3"),
    pytest.param(_cube_points(4), id="cube-4"),
    pytest.param(bodies.ball_approx(3, 500).build().vertices,
                 id="ball-approx-500-3")])
def test_silhouette_kernel_matches_weighted_form_bit_for_bit(points):
    body = Polytope(points)
    n = body.dim
    rd = body.ridges()
    block = next(row_blocks(10 ** 9, rd.volumes.size)).stop
    for rows in (1, 30, block, 2 * block + 5):
        dirs = sphere_points(n, rows, np.random.default_rng(rows))
        # coordinate zeros put ξ exactly orthogonal to cube facet normals
        dirs[::3, 0] = 0.0
        dirs[1::4, 1] = 0.0
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        assert np.array_equal(body.shadow_surfaces(dirs),
                              _silhouette_reference(body, dirs)), rows
    if body.n_facets == 2 * n:
        # the boundary weight 1/2 was exercised
        da, db = dirs @ rd.normal_a.T, dirs @ rd.normal_b.T
        assert ((da == 0.0) ^ (db == 0.0)).any()


def _silhouette_where(xi, rd):
    """The selection `_silhouette` replaces: np.where on prod < 0, then the
    boundary entries set to half their span."""
    da = xi @ rd.normal_a.T
    db = xi @ rd.normal_b.T
    prod = da * db
    edge = None if prod.all() else (da == 0.0) ^ (db == 0.0)
    span = np.square(da, out=da)
    ob = xi @ rd.ortho_b.T
    span += np.square(ob, out=ob)
    np.sqrt(span, out=span)
    sel = np.where(prod < 0.0, span, 0.0)
    if edge is not None:
        sel[edge] = 0.5 * span[edge]
    return sel @ rd.volumes


def _axis_and_diagonal_rows(n):
    """Unit axis and face-diagonal directions, whose products with the
    cube's facet normals include exact zeros."""
    eye = np.eye(n)
    diag = [(eye[i] + s * eye[j]) / np.sqrt(2.0)
            for i in range(n) for j in range(i + 1, n) for s in (1.0, -1.0)]
    return np.vstack([eye, -eye, np.array(diag)])


@pytest.mark.parametrize("n", [3, 4, 5])
def test_silhouette_weights_match_the_where_form_bit_for_bit(n):
    rng = np.random.default_rng(n)
    random = sphere_points(n, 64, rng)
    for seed in (1, 2):
        rd = bodies.random_hull(n, 12 + 4 * n, seed).build().ridges()
        assert np.array_equal(_silhouette(random, rd),
                              _silhouette_where(random, rd))
    rd = bodies.cube(n).build().ridges()
    special = _axis_and_diagonal_rows(n)
    for xi in (special, np.vstack([random[:7], special]), random):
        assert np.array_equal(_silhouette(xi, rd), _silhouette_where(xi, rd))
    # the cube's axis rows meet boundary entries: the 1/2 weights ran
    da = special @ rd.normal_a.T
    db = special @ rd.normal_b.T
    assert ((da == 0.0) ^ (db == 0.0)).any()


# ---------------------------------------------------------------------------
# exact W_3 from the normal cones of the (n-3)-faces


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_cube_w3_is_the_closed_form(n):
    # V_{n-3}(cube) = C(n,3) 2^{n-3}, so W_3 = omega_3 2^{n-3}; at n = 3 the
    # vertex cones tile the sphere and W_3 = omega_3
    v = math.comb(n, 3) * 2.0 ** (n - 3)
    assert _cube(n).quermass_exact_3codim() == pytest.approx(
        omega(3) * v / math.comb(n, 3), rel=1e-12)


@pytest.mark.parametrize("n, m", [(4, 7), (5, 8)])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_w3_of_zonotope_hull_matches_generator_formula(n, m, seed):
    # merged non-simplicial facets against the subset-Gram route
    zon = bodies.random_zonotope(n, m, seed).build()
    assert zonotope_to_polytope(zon).quermass_exact_3codim() == pytest.approx(
        zon.quermassintegral_exact(3), rel=1e-12)


@pytest.mark.parametrize("n", [4, 5])
def test_w3_is_rotation_invariant(n):
    body = bodies.random_hull(n, 3 * n, 1).build()
    q, _ = np.linalg.qr(np.random.default_rng(n).standard_normal((n, n)))
    rotated = transform_body(body, q)
    assert rotated.quermass_exact_3codim() == pytest.approx(
        body.quermass_exact_3codim(), rel=1e-12)


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("seed", range(6))
def test_jittered_cube_w3_is_the_cube_value(n, seed):
    # the sliver facets along the cube's ridges add faces with thin cones
    points = _cube_points(n) + 1e-13 * _random_points(n, 2 ** n, seed)
    if (n, seed) == (5, 3):
        with pytest.raises(DegenerateInputError):   # a qhull wide merge
            Polytope(points)
        return
    assert Polytope(points).quermass_exact_3codim() == pytest.approx(
        omega(3) * 2.0 ** (n - 3), rel=1e-8)


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("name", ["simplex", "cross", "random-hull(12,1)",
                                  "random-hull(14,2)"])
def test_w3_agrees_with_kubota_sampling(n, name):
    body = bodies.from_name(name, n).build()
    exact = quermassintegral(body, 3)
    assert exact.stderr == 0.0
    assert exact.value == body.quermass_exact_3codim()
    est = quermassintegral(body, 3, seed=RngSeed(n), method="mc")
    assert abs(est.value - exact.value) <= 4.0 * est.stderr


def test_w3_faces_are_built_lazily_once(monkeypatch):
    calls = []
    build = Polytope._build_w3

    def counted(self):
        calls.append(self)
        return build(self)

    monkeypatch.setattr(Polytope, "_build_w3", counted)
    body = bodies.random_hull(4, 12, 1).build()
    body.shadow_surfaces(sphere_points(4, 5, RngSeed(0).generator()))
    body.mean_width_exact_2codim()
    assert calls == []
    assert body.quermass_exact_3codim() == body.quermass_exact_3codim()
    assert calls == [body]


# ---------------------------------------------------------------------------
# edges and their external angles, transported to a linear image


def _edge_measure(body, linear):
    """(Σ_e |Te| γ_e, Σ_e |Te| γ_e ê êᵀ) of the image TK, from K's edges and
    the angles of its transported facet normals."""
    moved = body.edges() @ linear.T
    lengths = np.linalg.norm(moved, axis=1)
    weights = lengths * body.edge_angles(np.linalg.inv(linear))
    return weights.sum(), (moved * (weights / lengths ** 2)[:, None]).T @ moved


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("name", ["cube", "simplex", "random-hull(12,1)",
                                  "random-zonotope(7,2)"])
def test_edge_lengths_and_angles_sum_to_the_exact_mean_width(n, name):
    # V_1 = Σ_e |e| γ_e and W_{n-1} = ω_{n-1} V_1 / n
    body = to_polytope(bodies.from_name(name, n).build())
    v1, _ = _edge_measure(body, np.eye(n))
    assert omega(n - 1) * v1 / n == pytest.approx(
        quermassintegral(body, n - 1).value, rel=1e-12)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("name", ["random-hull(12,3)", "random-zonotope(7,4)"])
def test_transported_edge_measure_matches_the_rebuilt_hull(n, name):
    body = to_polytope(bodies.from_name(name, n).build())
    rng = np.random.default_rng(n)
    linear = np.eye(n) + 0.5 * rng.standard_normal((n, n))
    total, moment = _edge_measure(body, linear)
    image = transform_body(body, linear)
    ref_total, ref_moment = _edge_measure(image, np.eye(n))
    assert total == pytest.approx(ref_total, rel=1e-12)
    assert np.abs(moment - ref_moment).max() <= 1e-12 * ref_total


def test_face_fan_is_shared_by_w3_and_the_edge_angles(monkeypatch):
    calls = []
    build = Polytope._face_fan

    def counted(self):
        calls.append(self._fan is None)
        return build(self)

    monkeypatch.setattr(Polytope, "_face_fan", counted)
    body = bodies.random_hull(4, 12, 1).build()
    body.edge_angles(np.eye(4))
    body.edge_angles(2.0 * np.eye(4))
    body.quermass_exact_3codim()
    assert calls[0] and not any(calls[1:])
