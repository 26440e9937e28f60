"""Classical positions: fixed points, certificates, and recovery tests."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from scipy.optimize import minimize, nnls

from projgeo import bodies, checks, polytope
from projgeo.bodyops import transform_body
from projgeo.polytope import Polytope, circumradius
from projgeo import positions
from projgeo.positions import (Ellipsoid, isotropic_position, john_position,
                               lowner_position, min_mean_width_position,
                               minimal_surface_position)
from projgeo.quermass import omega, quermassintegral
from projgeo.sampling import RngSeed
from projgeo.zonotope import Zonotope


def test_ellipsoid_volume_and_radii():
    ball = Ellipsoid(shape=np.eye(3), center=np.zeros(3))
    assert ball.volume() == pytest.approx(omega(3), rel=1e-12)
    stretched = Ellipsoid(shape=np.diag([4.0, 1.0, 0.25]), center=np.zeros(3))
    assert stretched.radii() == pytest.approx([2.0, 1.0, 0.5], rel=1e-12)
    assert stretched.volume() == pytest.approx(omega(3), rel=1e-12)


def test_cube_is_already_minimal_surface():
    q3 = bodies.cube(3).build()
    result, quotient = minimal_surface_position(q3)
    assert result.converged
    assert result.iterations == 0
    assert result.residual <= 1e-10
    assert np.allclose(result.transform, np.eye(3), atol=1e-12)
    # S / V^{2/3} = 24 / 8^{2/3} = 6 for the cube
    assert quotient == pytest.approx(6.0, rel=1e-12)


def test_cross_polytope_is_already_minimal_surface():
    c3 = bodies.cross_polytope(3).build()
    result, quotient = minimal_surface_position(c3)
    assert result.residual <= 1e-10
    # S / V^{2/3} = 4 sqrt(3) / (4/3)^{2/3}
    assert quotient == pytest.approx(
        4.0 * math.sqrt(3.0) / (4.0 / 3.0) ** (2.0 / 3.0), rel=1e-12)


def test_minimal_surface_recovers_stretched_cube():
    q3 = bodies.cube(3).build()
    stretch = np.diag([4.0, 1.0, 1.0])
    image = transform_body(q3, stretch / np.linalg.det(stretch) ** (1.0 / 3.0))
    result, quotient = minimal_surface_position(image)
    assert result.converged
    assert result.iterations <= positions.ISOTROPY_MAX_ITER
    assert result.residual <= positions.ISOTROPY_TOL
    assert quotient == pytest.approx(6.0, rel=1e-12)
    # applying the map must reproduce the quotient on the positioned body
    placed = result.apply(image)
    n = placed.dim
    direct = placed.surface_area() / placed.volume() ** ((n - 1) / n)
    assert direct == pytest.approx(quotient, rel=1e-12)


_CORPUS = [spec for n in (3, 4, 5) for spec in bodies.corpus(n)]


def _spec_id(spec) -> str:
    return f"{spec.name}-n{spec.dim}"


@pytest.mark.parametrize("spec", _CORPUS, ids=_spec_id)
def test_minimal_surface_of_a_corpus_body_is_certified(spec):
    # the quotient is S/|K|^{(n-1)/n} of the positioned body, hulled anew
    body = spec.build()
    n = body.dim
    result, quotient = minimal_surface_position(body)
    assert result.converged and result.residual <= positions.ISOTROPY_TOL
    assert abs(np.linalg.det(result.transform)) == pytest.approx(1.0,
                                                                 rel=1e-12)
    placed = positions.to_polytope(result.apply(body))
    assert placed.surface_area() / placed.volume() ** ((n - 1) / n) \
        == pytest.approx(quotient, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("stretch", [1e2, 1e3])
@pytest.mark.parametrize("spec", [bodies.simplex(3), bodies.random_hull(3, 10, 1),
                                  bodies.random_hull(4, 12, 2),
                                  bodies.random_zonotope(4, 7, 3),
                                  bodies.random_hull(5, 14, 1)], ids=_spec_id)
def test_minimal_surface_quotient_is_affine_invariant(spec, stretch):
    # the quotient is a function of the GL(n) orbit; rotated diag(s, 1, ...)
    body = spec.build()
    n = body.dim
    rotation, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((n, n)))
    image = transform_body(body, rotation @ np.diag([stretch] + [1.0] * (n - 1)))
    assert image.surface_measure().normals.shape \
        == body.surface_measure().normals.shape
    _, quotient = minimal_surface_position(body)
    result, moved = minimal_surface_position(image)
    assert result.converged and result.residual <= positions.ISOTROPY_TOL
    assert moved == pytest.approx(quotient, rel=1e-9, abs=0.0)


def test_isotropic_cube_constant():
    q3 = bodies.cube(3).build()
    result, constant = isotropic_position(q3)
    assert constant == pytest.approx(12.0 ** -0.5, abs=1e-10)
    assert result.residual <= 1e-10
    placed = result.apply(q3)
    assert placed.volume() == pytest.approx(1.0, rel=1e-9)


def test_isotropic_undoes_a_shear():
    q3 = bodies.cube(3).build()
    shear = np.array([[1.0, 0.7, 0.0], [0.0, 1.0, -0.3], [0.0, 0.0, 1.0]])
    image = transform_body(q3, shear, shift=np.array([0.5, -1.0, 2.0]))
    _, constant = isotropic_position(image)
    # the isotropic constant is affine-invariant
    assert constant == pytest.approx(12.0 ** -0.5, abs=1e-9)


def test_john_ellipsoid_of_cube_is_unit_ball():
    q3 = bodies.cube(3).build()
    result, ellipsoid = john_position(q3)
    assert result.converged
    assert ellipsoid.radii() == pytest.approx([1.0, 1.0, 1.0], abs=1e-5)
    assert np.allclose(ellipsoid.center, 0.0, atol=1e-7)


def test_john_ellipsoid_of_cross_is_inscribed_ball():
    c3 = bodies.cross_polytope(3).build()
    _, ellipsoid = john_position(c3)
    r = 1.0 / math.sqrt(3.0)
    assert ellipsoid.radii() == pytest.approx([r, r, r], abs=1e-5)


def test_lowner_ellipsoid_of_cube_is_circumscribed_ball():
    q3 = bodies.cube(3).build()
    result, ellipsoid = lowner_position(q3)
    assert result.converged
    r = math.sqrt(3.0)
    assert ellipsoid.radii() == pytest.approx([r, r, r], abs=1e-5)
    assert np.allclose(ellipsoid.center, 0.0, atol=1e-6)
    # the returned map sends the ellipsoid (hence the body) into the unit ball
    placed = result.apply(q3)
    assert circumradius(placed) <= 1.0 + 1e-5


def test_lowner_ellipsoid_of_cross_is_unit_ball():
    c3 = bodies.cross_polytope(3).build()
    _, ellipsoid = lowner_position(c3)
    assert ellipsoid.radii() == pytest.approx([1.0, 1.0, 1.0], abs=1e-5)


def test_john_of_simplex_touches_inscribed_ball():
    # for the regular simplex with circumradius 1 the inscribed ball has
    # radius 1/n and the John ellipsoid is that ball
    s3 = bodies.simplex(3).build()
    _, ellipsoid = john_position(s3)
    assert ellipsoid.radii() == pytest.approx([1 / 3.0] * 3, abs=1e-5)


def test_min_width_leaves_ball_alone():
    # the sampled route, called directly: the edge-measure route runs at n=3
    b3 = bodies.ball_approx(3, 500).build()
    result = positions.sampled_min_width_position(b3, seed=RngSeed(3))
    assert result.converged
    assert np.abs(result.transform - np.eye(3)).max() < 0.05
    assert abs(np.linalg.det(result.transform)) == pytest.approx(1.0, rel=1e-9)


def test_min_width_descent_trace_is_monotone():
    q3 = bodies.cube(3).build()
    result = positions.sampled_min_width_position(q3, seed=RngSeed(0))
    trace = np.asarray(result.history)
    assert trace.size >= 1
    assert np.all(np.diff(trace) <= 0.0)
    assert result.objective == pytest.approx(trace[-1])


def test_min_width_recovers_stretched_cube():
    q3 = bodies.cube(3).build()
    stretch = np.diag([3.0, 1.0, 1.0])
    image = transform_body(q3, stretch / np.linalg.det(stretch) ** (1.0 / 3.0))
    result = min_mean_width_position(image)
    placed = result.apply(image)
    exact = quermassintegral(placed, 2).value / omega(3)
    # the volume-1-normalized cube has minimal mean width 3/2 over SL(3) images
    assert result.objective == pytest.approx(1.5, rel=1e-9, abs=0.0)
    assert exact == pytest.approx(1.5, rel=1e-9, abs=0.0)


def test_position_results_report_unimodular_transforms():
    q3 = bodies.cube(3).build()
    for result in (minimal_surface_position(q3)[0],
                   isotropic_position(q3)[0],
                   john_position(q3)[0],
                   lowner_position(q3)[0]):
        assert abs(np.linalg.det(result.transform)) == pytest.approx(
            1.0, rel=1e-8)


def test_solve_dispatches_through_the_module_solvers(monkeypatch):
    # one entry point for the CLI and the check contexts; a wrapper set on
    # the module (as the benchmark tracer installs) sees every solve
    z3 = bodies.random_zonotope(3, 6, 1).build()
    called = []
    for name in ("minimal_surface_position", "isotropic_position",
                 "john_position", "lowner_position",
                 "min_mean_width_position"):
        def traced(*args, _real=getattr(positions, name), _name=name, **kw):
            called.append(_name)
            return _real(*args, **kw)
        monkeypatch.setattr(positions, name, traced)
    extras = {kind: positions.solve(kind, z3, RngSeed(3))[1]
              for kind in ("min-surface", "isotropic", "john", "lowner",
                           "min-width")}
    assert called == ["minimal_surface_position", "isotropic_position",
                      "john_position", "lowner_position",
                      "min_mean_width_position"]
    assert set(extras["min-surface"]) == {"surface-quotient"}
    assert set(extras["isotropic"]) == {"isotropic-constant"}
    assert len(extras["john"]["ellipsoid-radii"]) == 3
    assert len(extras["lowner"]["ellipsoid-radii"]) == 3
    assert extras["min-width"] == {}
    with pytest.raises(ValueError, match="unknown position kind"):
        positions.solve("banana", z3)


def test_zonotope_is_hulled_once_across_the_position_solves(monkeypatch):
    # isotropic, John and Löwner all read the vertex form of a zonotope;
    # its 2^m sign patterns are hulled once and cached on the zonotope.
    builds = []
    init = Polytope.__init__

    def counted(self, points):
        builds.append(len(points))
        init(self, points)

    monkeypatch.setattr(Polytope, "__init__", counted)
    body = bodies.random_zonotope(4, 6, 1).build()
    for kind in ("isotropic", "john", "lowner"):
        positions.solve(kind, body)
    assert builds == [2 ** 6]


# ---------------------------------------------------------------------------
# Löwner: the polar interior-point solve on centered or lifted rows


def _lowner_levels(body, ellipsoid: Ellipsoid, lifted: bool) -> np.ndarray:
    """M_i = q_i^T S^{-1} q_i of every vertex, read back from the ellipsoid:
    n x^T shape^{-1} x on centered rows, plus 1 on lifted rows."""
    off = body.vertices - ellipsoid.center
    n = body.dim
    levels = n * np.einsum("ij,jk,ik->i", off, np.linalg.inv(ellipsoid.shape),
                           off)
    return levels + 1.0 if lifted else levels


def _lowner_support(body, ellipsoid: Ellipsoid, lifted: bool) -> np.ndarray:
    """Weights u >= 0 on the vertices at level >= d (1 - 1e-6) with
    sum u_i q_i q_i^T = S, by NNLS on the ellipsoid alone (S = shape / n
    on centered rows; on lifted rows S = [[shape / n + c c^T, c], [c^T, 1]]
    for the center c).  They exist iff the ellipsoid is the Loewner one."""
    n = body.dim
    c = ellipsoid.center
    rows = body.vertices
    scatter = ellipsoid.shape / n
    if lifted:
        rows = np.hstack([rows, np.ones((len(rows), 1))])
        scatter = np.block([[scatter + np.outer(c, c), c[:, None]],
                            [c[None, :], np.ones((1, 1))]])
    d = rows.shape[1]
    touching = _lowner_levels(body, ellipsoid, lifted) >= d * (1.0 - 1e-6)
    outer = np.einsum("ij,ik->jki", rows[touching], rows[touching])
    weights, rnorm = nnls(outer.reshape(d * d, -1), scatter.ravel())
    assert rnorm <= 1e-12 * np.linalg.norm(scatter)
    u = np.zeros(len(rows))
    u[touching] = weights
    return u


def _assert_lowner_optimal(poly, lifted: bool) -> tuple:
    """Read back from the returned ellipsoid: every level within
    d (1 ± 1e-12) on the support and at most d (1 + 1e-12) off it."""
    result, ellipsoid = lowner_position(poly)
    tol = 1e-12
    assert result.converged and result.residual <= tol
    d = poly.dim + lifted
    levels = _lowner_levels(poly, ellipsoid, lifted)
    support = _lowner_support(poly, ellipsoid, lifted) > 0.0
    assert support.sum() >= d
    assert np.abs(levels[support] / d - 1.0).max() <= tol
    assert levels.max() <= (1.0 + tol) * d
    if not lifted:
        assert np.array_equal(ellipsoid.center, np.zeros(poly.dim))
    return result, ellipsoid


@pytest.mark.parametrize("spec", _CORPUS, ids=_spec_id)
def test_lowner_of_a_corpus_body_meets_the_optimality_conditions(spec):
    # on centered rows when the body is origin-symmetric, else on lifted rows
    poly = positions.to_polytope(spec.build())
    _assert_lowner_optimal(poly, lifted=not poly.symmetric)


@pytest.mark.parametrize("spec", [bodies.simplex(3),
                                  bodies.random_hull(3, 10, 1),
                                  bodies.random_hull(4, 10, 1)],
                         ids=lambda spec: f"{spec.name}-n{spec.dim}")
def test_lowner_of_a_non_symmetric_body_runs_on_lifted_rows(spec):
    poly = spec.build()
    assert not poly.symmetric
    _assert_lowner_optimal(poly, lifted=True)


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("family", [bodies.cube, bodies.cross_polytope])
def test_lowner_leaves_cube_and_cross_at_the_identity(family, n):
    result, _ = lowner_position(family(n).build())
    assert result.converged
    assert np.abs(result.transform - np.eye(n)).max() <= 1e-14


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_lowner_centered_rows_match_lifted_rows(monkeypatch, n, seed):
    # an origin-symmetric body's ellipsoid is centered, so its rows are one
    # vertex of each ± pair (d = n); forcing the lifted rows (d = n + 1)
    # gives the same ellipsoid
    poly = positions.to_polytope(bodies.random_zonotope(n, n + 3, seed).build())
    tol = positions.LOWNER_TOL
    centered, ell_c = lowner_position(poly)
    monkeypatch.setattr(poly, "symmetric", False)
    lifted, ell_l = lowner_position(poly)
    for result in (centered, lifted):
        assert result.converged and result.residual <= tol
    assert np.array_equal(ell_c.center, np.zeros(n))
    assert np.abs(ell_l.center).max() <= 1e-12 * np.abs(poly.vertices).max()
    scale = np.abs(ell_c.shape).max()
    assert np.abs(ell_c.shape - ell_l.shape).max() <= 1e-12 * scale
    # every vertex satisfies the certificate's bound M_i <= (1 + tol) d
    for ell, lifted_rows, d in ((ell_c, False, n), (ell_l, True, n + 1)):
        assert _lowner_levels(poly, ell, lifted_rows).max() <= (1 + tol) * d


@pytest.mark.parametrize("spec", [bodies.cube(4), bodies.cross_polytope(5),
                                  bodies.random_zonotope(4, 7, 1)],
                         ids=lambda spec: f"{spec.name}-n{spec.dim}")
def test_lowner_keeps_one_row_of_each_pair(spec):
    poly = positions.to_polytope(spec.build())
    rows = poly.vertices[positions._pair_mask(poly.vertices)]
    assert 2 * len(rows) == poly.n_vertices
    # every vertex is a kept row or the negation of one
    both = np.vstack([rows, -rows])
    gaps = np.abs(poly.vertices[:, None, :] - both[None, :, :]).max(axis=2)
    assert gaps.min(axis=1).max() <= 1e-12 * np.abs(poly.vertices).max()


def test_lowner_stops_on_a_residual_from_a_fresh_inverse(monkeypatch):
    # the solver stops on the levels of the last inverse, of S on the
    # orthonormal factor Q of the rows (rows = Q R); R^T S R is the
    # returned ellipsoid's scatter
    scatters = []
    real_inv = np.linalg.inv

    def recording(mat):
        scatters.append(mat.copy())
        return real_inv(mat)

    poly = positions.to_polytope(bodies.random_zonotope(4, 7, 1).build())
    monkeypatch.setattr(np.linalg, "inv", recording)
    result, ellipsoid = lowner_position(poly)
    monkeypatch.undo()
    orth, tri = np.linalg.qr(poly.vertices[positions._pair_mask(poly.vertices)])
    assert np.abs(4 * tri.T @ scatters[-1] @ tri - ellipsoid.shape).max() \
        <= 1e-12 * np.abs(ellipsoid.shape).max()
    levels = np.einsum("ij,jk,ik->i", orth, real_inv(scatters[-1]), orth)
    assert result.residual <= positions.LOWNER_TOL
    assert levels.max() <= (1 + positions.LOWNER_TOL) * 4


@pytest.mark.parametrize(("john_tol", "certified"), [(positions.JOHN_TOL, True),
                                                     (1e-4, False)])
def test_lowner_reports_a_failed_newton_finish(monkeypatch, john_tol,
                                               certified):
    # without the Newton finish the support weights of the interior-point
    # solve are returned uncertified, with their own residual; the check's
    # 1e-9 certificate then decides (a looser interior-point stop leaves
    # them above it)
    spec = bodies.random_zonotope(4, 7, 1)
    monkeypatch.setattr(positions, "_lowner_newton", lambda rows, u, d: (None, 0))
    monkeypatch.setattr(positions, "JOHN_TOL", john_tol)
    result, _ = lowner_position(spec.build())
    assert not result.converged and result.residual > positions.LOWNER_TOL
    cert = checks._POSITION_CERT["lowner"]
    assert (result.residual <= cert) == certified
    ctx = checks.BodyContext(spec, checks.SuiteConfig())
    if certified:
        assert ctx.positioned("lowner").residual == result.residual
    else:
        with pytest.raises(checks.PositionCertificateError, match="lowner"):
            ctx.positioned("lowner")


def test_a_nan_position_residual_fails_the_certificate(monkeypatch):
    real = positions.lowner_position

    def nan_residual(body):
        result, ellipsoid = real(body)
        return dataclasses.replace(result, residual=math.nan), ellipsoid

    monkeypatch.setattr(positions, "lowner_position", nan_residual)
    ctx = checks.BodyContext(bodies.cube(3), checks.SuiteConfig())
    with pytest.raises(checks.PositionCertificateError, match="nan"):
        ctx.positioned("lowner")


@pytest.mark.parametrize("stretch", [1e2, 1e4])
@pytest.mark.parametrize("spec", [bodies.simplex(3), bodies.random_hull(3, 10, 1),
                                  bodies.random_hull(4, 12, 1),
                                  bodies.random_zonotope(4, 7, 1)],
                         ids=lambda spec: f"{spec.name}-n{spec.dim}")
def test_lowner_is_affine_equivariant(spec, stretch):
    # Löwner(T K) = T Löwner(K), each optimal at 1e-12
    body = positions.to_polytope(spec.build())
    n = body.dim
    linear = np.diag([stretch] + [1.0] * (n - 1))
    image = positions.to_polytope(transform_body(body, linear))
    assert image.n_vertices == body.n_vertices
    _, moved = _assert_lowner_optimal(image, lifted=not image.symmetric)
    _, ellipsoid = lowner_position(body)
    back = np.diag(1.0 / np.diag(linear))
    scale = np.abs(ellipsoid.shape).max()
    assert np.abs(back @ moved.shape @ back
                  - ellipsoid.shape).max() <= 1e-12 * scale
    assert np.abs(back @ moved.center
                  - ellipsoid.center).max() <= 1e-12 * np.sqrt(scale)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_lowner_of_a_jittered_cube_is_the_circumscribed_ball(n):
    poly = _jittered_cube(n, 0)
    _, ellipsoid = _assert_lowner_optimal(poly, lifted=not poly.symmetric)
    assert ellipsoid.radii() == pytest.approx([math.sqrt(n)] * n, rel=1e-12)


def _random_lowner_points(n: int, seed: int) -> np.ndarray:
    """Gaussian points, on the sphere every fifth seed, with their ±
    closure every third seed, stretched by diag(1, ..., 1e4) every other
    seed."""
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((3 * n + seed % 7, n))
    if seed % 5 == 0:
        points /= np.linalg.norm(points, axis=1)[:, None]
    if seed % 3 == 0:
        points = np.vstack([points, -points])
    if seed % 2 == 0:
        points *= np.logspace(0, 4, n)
    return points


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("seed", range(20))
def test_lowner_of_a_random_body_is_certified(n, seed):
    poly = Polytope(_random_lowner_points(n, seed))
    assert poly.symmetric == (seed % 3 == 0)
    _assert_lowner_optimal(poly, lifted=not poly.symmetric)


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("seed", [0, 2, 4, 6])
def test_lowner_of_a_rotated_thin_body_is_the_rotated_ellipsoid(n, seed):
    # the stretch of the sweep above along rotated axes: the solve reads
    # an orthonormal frame of the rows, so it meets the same ellipsoid.
    # Its residual is read in that frame too: in the body's frame a float
    # shape of condition 1e8 knows its short axes to about 1e-8 only.
    points = _random_lowner_points(n, seed)
    rng = np.random.default_rng(100 + seed)
    basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
    result, ellipsoid = lowner_position(Polytope(points))
    moved_result, moved = lowner_position(Polytope(points @ basis.T))
    assert moved_result.converged  # residual <= LOWNER_TOL
    assert moved_result.iterations <= 2 * result.iterations
    scale = np.abs(ellipsoid.shape).max()
    assert np.abs(basis.T @ moved.shape @ basis
                  - ellipsoid.shape).max() <= 1e-11 * scale
    assert np.abs(basis.T @ moved.center
                  - ellipsoid.center).max() <= 1e-11 * np.sqrt(scale)


def test_a_polytope_is_tested_for_symmetry_once(monkeypatch):
    # John and Löwner read the flag `Polytope.symmetric` caches
    tests = []
    real_keys = polytope.symmetry_keys
    monkeypatch.setattr(polytope, "symmetry_keys",
                        lambda verts: tests.append(1) or real_keys(verts))
    for spec in (bodies.random_zonotope(3, 6, 1), bodies.random_hull(3, 10, 1)):
        poly = positions.to_polytope(spec.build())
        for solver in (john_position, lowner_position, john_position):
            solver(poly)
    assert len(tests) == 2


# ---------------------------------------------------------------------------
# John: the interior-point solve against an SLSQP reference


def _svec(mat: np.ndarray) -> np.ndarray:
    iu = np.triu_indices(mat.shape[0])
    return mat[iu] * np.where(iu[0] == iu[1], 1.0, np.sqrt(2.0))


def _reference_john(poly) -> Ellipsoid:
    """Reference: the largest inscribed ellipsoid L B_2^n + d by SLSQP over
    every facet.  L is lower triangular, the objective -sum log L_ii, the
    constraints ||L^T u_i|| + <u_i, d> <= b_i, and the start 0.9 times the
    largest inscribed ball (`polytope.inradius`, an LP unless the body is
    origin-symmetric); an origin-symmetric body keeps d = 0."""
    n = poly.dim
    normals, offsets = poly.facet_normals, poly.facet_offsets
    symmetric = poly.symmetric
    r0, center0 = polytope.inradius(poly)
    q = n * (n + 1) // 2
    il = np.tril_indices(n)
    diag = np.flatnonzero(il[0] == il[1])

    def unpack(x):
        low = np.zeros((n, n))
        low[il] = x[:q]
        return low, (np.zeros(n) if symmetric else x[q:])

    def objective_grad(x):
        grad = np.zeros(x.size)
        grad[diag] = -1.0 / x[diag]
        return grad

    def constraints(x):
        low, center = unpack(x)
        return (offsets - normals @ center
                - np.linalg.norm(normals @ low, axis=1))

    def constraints_jac(x):
        low, _ = unpack(x)
        prods = normals @ low
        unit = prods / np.linalg.norm(prods, axis=1)[:, None]
        full = normals[:, :, None] * unit[:, None, :]
        jac = np.zeros((len(normals), x.size))
        jac[:, :q] = -full[:, il[0], il[1]]
        if not symmetric:
            jac[:, q:] = -normals
        return jac

    x0 = np.zeros(q + (0 if symmetric else n))
    x0[:q] = 0.9 * r0 * np.eye(n)[il]
    if not symmetric:
        x0[q:] = center0
    lower = np.full(x0.size, -np.inf)
    lower[diag] = 1e-9 * r0
    res = minimize(lambda x: -float(np.sum(np.log(x[diag]))), x0,
                   jac=objective_grad, method="SLSQP",
                   constraints=[{"type": "ineq", "fun": constraints,
                                 "jac": constraints_jac}],
                   bounds=list(zip(lower, np.full(x0.size, np.inf))),
                   options={"maxiter": 300, "ftol": 1e-14})
    low, center = unpack(res.x)
    return Ellipsoid(shape=low @ low.T, center=center)


def _nnls_residual(poly, ellipsoid: Ellipsoid) -> float:
    """A KKT certificate independent of either solver: the relative norm of
    the log-det gradient left after projecting it (NNLS) onto the cone of
    the constraint gradients of the facets within 1e-6 of touching."""
    normals, offsets = poly.facet_normals, poly.facet_offsets
    symmetric = poly.symmetric
    eigval, eigvec = np.linalg.eigh(ellipsoid.shape)
    root = (eigvec * np.sqrt(eigval)) @ eigvec.T
    grad = _svec(np.linalg.inv(root))
    if not symmetric:
        grad = np.concatenate([grad, np.zeros(poly.dim)])
    lengths = np.linalg.norm(normals @ root, axis=1)
    slack = offsets - lengths - normals @ ellipsoid.center
    # absolute: the offsets of facets through the origin vanish
    scale = max(float(np.abs(offsets).max()), polytope.inradius(poly)[0])
    cols = []
    for i in np.flatnonzero(slack <= 1e-6 * scale):
        outer = np.outer(root @ normals[i], normals[i])
        col = _svec(0.5 * (outer + outer.T) / lengths[i])
        cols.append(col if symmetric else np.concatenate([col, normals[i]]))
    cmat = np.array(cols).T
    coef, _ = nnls(cmat, grad)
    return float(np.linalg.norm(grad - cmat @ coef) / np.linalg.norm(grad))


def _assert_john_matches_reference(poly) -> tuple:
    result, ellipsoid = john_position(poly)
    assert result.converged and result.residual <= 1e-9
    assert _nnls_residual(poly, ellipsoid) <= 1e-9
    ref = _reference_john(poly)
    assert ellipsoid.volume() == pytest.approx(ref.volume(), rel=1e-8, abs=0.0)
    return result, ellipsoid, ref


@pytest.mark.parametrize("spec", [spec for n in (3, 4)
                                  for spec in bodies.corpus(n)],
                         ids=lambda spec: f"{spec.name}-n{spec.dim}")
def test_john_of_a_corpus_body_matches_the_slsqp_reference(spec):
    _assert_john_matches_reference(positions.to_polytope(spec.build()))


def _jittered_cube(n: int, seed: int) -> Polytope:
    cube = np.array(list(itertools.product([-1.0, 1.0], repeat=n)))
    rng = np.random.default_rng(seed)
    return Polytope(cube + 1e-13 * rng.standard_normal(cube.shape))


@pytest.mark.parametrize(("n", "seed"), [(3, 0), (4, 0), (4, 1), (5, 0), (5, 1)])
def test_john_of_a_jittered_cube_is_the_unit_ball(n, seed):
    # at n >= 4 the jitter leaves sliver facets along the ridges
    # (test_polytope), nearly parallel to the cube's own
    poly = _jittered_cube(n, seed)
    _, ellipsoid, _ = _assert_john_matches_reference(poly)
    assert ellipsoid.volume() == pytest.approx(omega(n), rel=1e-9, abs=0.0)


@pytest.mark.parametrize("stretch", [1e2, 1e4])
@pytest.mark.parametrize("spec", [bodies.simplex(3), bodies.random_hull(3, 10, 1),
                                  bodies.random_hull(4, 12, 1),
                                  bodies.random_zonotope(4, 7, 1)],
                         ids=lambda spec: f"{spec.name}-n{spec.dim}")
def test_john_is_affine_equivariant(spec, stretch):
    # John(T K) = T John(K); the solve whitens the vertex covariance, so a
    # stretched body is solved in the same frame as the body itself
    body = positions.to_polytope(spec.build())
    n = body.dim
    linear = np.diag([stretch] + [1.0] * (n - 1))
    image = positions.to_polytope(transform_body(body, linear))
    assert image.n_facets == body.n_facets
    _, ellipsoid = john_position(body)
    result, moved = john_position(image)
    assert result.converged and result.residual <= 1e-9
    assert moved.volume() == pytest.approx(stretch * ellipsoid.volume(),
                                           rel=1e-9, abs=0.0)
    back = np.diag(1.0 / np.diag(linear))
    scale = np.abs(ellipsoid.shape).max()
    assert np.abs(back @ moved.shape @ back
                  - ellipsoid.shape).max() <= 1e-9 * scale
    assert np.abs(back @ moved.center
                  - ellipsoid.center).max() <= 1e-9 * np.sqrt(scale)


def _no_lp(*args, **kwargs):
    raise AssertionError("the Chebyshev-center walk ran")


@pytest.mark.parametrize("spec", [bodies.cube(3), bodies.cross_polytope(3)]
                         + [bodies.random_zonotope(3, 6, s) for s in (1, 3, 5)],
                         ids=lambda spec: spec.name)
def test_john_of_a_symmetric_body_solves_no_lp(monkeypatch, spec):
    poly = positions.to_polytope(spec.build())
    monkeypatch.setattr(polytope, "_inball_walk", _no_lp)
    result, ellipsoid = john_position(poly)
    assert poly.symmetric and result.converged
    assert np.array_equal(ellipsoid.center, np.zeros(3))
    ref = _reference_john(poly)
    assert ellipsoid.volume() == pytest.approx(ref.volume(), rel=1e-8, abs=0.0)
    scale = np.abs(ref.shape).max()
    assert np.abs(ellipsoid.shape - ref.shape).max() <= 1e-6 * scale


@pytest.mark.parametrize("spec", [bodies.simplex(3), bodies.random_hull(3, 10, 1),
                                  bodies.random_hull(4, 12, 1)],
                         ids=lambda spec: f"{spec.name}-n{spec.dim}")
def test_john_of_a_non_symmetric_body_solves_no_lp(monkeypatch, spec):
    # the solve starts from `Polytope.interior_point`, not the Chebyshev ball
    poly = spec.build()
    monkeypatch.setattr(polytope, "_inball_walk", _no_lp)
    result, _ = john_position(poly)
    assert not poly.symmetric and result.converged
    assert poly._inball is None


def test_john_certificate_sees_a_perturbed_ellipsoid(monkeypatch):
    # the residual is read from the returned ellipsoid and multipliers: a
    # relative change of 1e-6 in any of them shows
    calls = []
    real = positions._john_kkt
    monkeypatch.setattr(positions, "_john_kkt",
                        lambda *args: calls.append(args) or real(*args))
    result, _ = john_position(bodies.random_hull(4, 12, 1).build())
    normals, offsets, root, center, lam, centered = calls[0]
    assert not centered and real(*calls[0]) == result.residual <= 1e-9
    for changed in ((root * (1.0 + 1e-6), center, lam),
                    (root * (1.0 - 1e-6), center, lam),
                    (root, center + 1e-6 * root[:, 0], lam),
                    (root, center, lam * (1.0 + 1e-6))):
        assert real(normals, offsets, *changed, False) >= 1e-7


# ---------------------------------------------------------------------------
# min-width: vertex-major extrema


def _min_width_row_major(body, samples=2000, max_iter=300, seed=RngSeed()):
    """The vertex-body descent of `min_mean_width_position` with the
    products laid out (directions, vertices), reduced along axis 1."""
    n = body.dim
    pairs = max(8, samples // 2)
    thetas = positions.sphere_points(
        n, pairs, seed.derive("min-width-panel").generator())
    transform = np.eye(n)
    verts = body.vertices

    def width_stats(t_mat):
        seen = (thetas @ t_mat) @ verts.T
        width = 0.5 * (seen.max(axis=1) - seen.min(axis=1))
        return float(width.mean()), seen

    value, seen = width_stats(transform)
    step = 0.1
    iterations = 0
    for iterations in range(1, max_iter + 1):
        pts = 0.5 * (verts[seen.argmax(axis=1)] - verts[seen.argmin(axis=1)])
        moment = (transform @ pts.T) @ thetas / pairs
        grad = 0.5 * (moment + moment.T)
        grad -= np.trace(grad) / n * np.eye(n)
        gnorm = float(np.linalg.norm(grad))
        if gnorm * n / max(value, 1e-300) <= 1e-4:
            break
        direction = -grad / gnorm
        accepted = False
        while step > 1e-10:
            eigval, eigvec = np.linalg.eigh(step * direction)
            cand = ((eigvec * np.exp(eigval)) @ eigvec.T) @ transform
            cand_value, cand_seen = width_stats(cand)
            if cand_value < value - 1e-12 * abs(value):
                transform, value, seen = cand, cand_value, cand_seen
                step = min(step * 1.5, 1.0)
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
    return positions._unimodular(transform), iterations, value


@pytest.mark.parametrize("n", [3, 4])
def test_min_width_matches_row_major_reference_bit_for_bit(n):
    # the sampled route, called directly: it runs on vertex bodies at n = 5
    for spec in bodies.corpus(n):
        body = spec.build()
        if positions.is_zonotope(body):
            continue
        result = positions.sampled_min_width_position(body, seed=RngSeed(0))
        transform, iterations, value = _min_width_row_major(body,
                                                            seed=RngSeed(0))
        assert np.array_equal(result.transform, transform), spec.name
        assert result.iterations == iterations, spec.name
        assert result.objective == value, spec.name


# ---------------------------------------------------------------------------
# min-width: the edge-measure fixed point


def _exact_mean_width(body) -> float:
    """E h_K from the exact W_{n-1} (ridges at n=3, edge cones at n=4)."""
    return quermassintegral(body, body.dim - 1).value / omega(body.dim)


@pytest.mark.parametrize("n", [3, 4])
def test_edge_measure_puts_the_corpus_in_position_below_the_sampled_width(n):
    for spec in bodies.corpus(n):
        body = spec.build()
        result = min_mean_width_position(body)
        assert result.route == positions.EDGE_MEASURE_ROUTE, spec.name
        assert result.converged and result.residual <= 1e-9, spec.name
        assert abs(np.linalg.det(result.transform)) == pytest.approx(
            1.0, rel=1e-12)
        # the objective is the exact mean width of the positioned body
        assert _exact_mean_width(result.apply(body)) == pytest.approx(
            result.objective, rel=1e-12)
        sampled = positions.sampled_min_width_position(body, seed=RngSeed(0))
        assert result.objective <= _exact_mean_width(sampled.apply(body)), \
            spec.name


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("make", [bodies.cube, bodies.cross_polytope,
                                  bodies.simplex],
                         ids=["cube", "cross", "simplex"])
def test_edge_measure_leaves_symmetric_bodies_at_the_identity(n, make):
    result = min_mean_width_position(make(n).build())
    assert result.iterations == 0
    assert result.residual <= 1e-12
    assert np.array_equal(result.transform, np.eye(n))


@pytest.mark.parametrize("spec", [bodies.random_hull(3, 10, 1),
                                  bodies.random_hull(4, 12, 2),
                                  bodies.random_zonotope(4, 7, 3)],
                         ids=lambda spec: f"{spec.name}-n{spec.dim}")
def test_edge_measure_width_is_affine_invariant(spec):
    # the minimal mean width is a function of the SL(n) orbit
    body = spec.build()
    n = body.dim
    rng = np.random.default_rng(5)
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    linear = q1 @ np.diag(np.logspace(0.0, 2.0, n)) @ q2
    assert np.linalg.cond(linear) == pytest.approx(1e2, rel=1e-9)
    image = transform_body(body, linear / abs(np.linalg.det(linear))
                           ** (1.0 / n))
    ref = min_mean_width_position(body)
    moved = min_mean_width_position(image)
    assert moved.residual <= 1e-9
    assert moved.objective == pytest.approx(ref.objective, rel=1e-9, abs=0.0)


def test_zonotope_generator_and_vertex_routes_agree():
    zono = bodies.random_zonotope(3, 6, 1).build()
    poly = positions.to_polytope(zono)
    by_generators = min_mean_width_position(zono)
    by_vertices = min_mean_width_position(poly)
    assert by_generators.objective == pytest.approx(by_vertices.objective,
                                                    rel=1e-9, abs=0.0)
    assert np.abs(by_generators.transform
                  - by_vertices.transform).max() <= 1e-9


def test_edge_measure_of_a_flat_zonotope_is_degenerate():
    # both measures of the shared fixed point lie in the plane
    flat = Zonotope(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                                     [1.0, 1.0, 0.0]]))
    with pytest.raises(positions.DegenerateInputError, match="singular"):
        min_mean_width_position(flat)
    with pytest.raises(positions.DegenerateInputError, match="singular"):
        minimal_surface_position(flat)


def test_min_width_runs_the_sampled_route_on_vertex_bodies_at_n5():
    cube = bodies.cube(5).build()
    result = min_mean_width_position(cube, seed=RngSeed(0))
    ref = positions.sampled_min_width_position(cube, seed=RngSeed(0))
    assert result.route == positions.SAMPLED_ROUTE
    assert np.array_equal(result.transform, ref.transform)
    assert result.to_dict()["route"] == "sampled pairs"
    zono = min_mean_width_position(bodies.random_zonotope(5, 8, 1).build())
    assert zono.route == positions.EDGE_MEASURE_ROUTE
    assert zono.residual <= 1e-9
