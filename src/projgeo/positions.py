"""Classical positions of convex bodies and the associated certificates.

Every operator returns a :class:`PositionResult` describing the affine map
``x -> scale * transform @ (x - shift)`` with a unimodular linear part
(|det transform| = 1), together with a residual that certifies how close the
positioned body is to the defining fixed-point condition:

* minimal surface area: the normalized surface-area measure is isotropic,
  residual = ||n M - I||_F with M = (1/S) sum_i a_i u_i u_i^T; this and the
  edge measure below are one fixed point (`_isotropic_fixed_point`), which
  raises `DegenerateInputError` on a singular measure;
* isotropic: the covariance of the volume-1 body is L^2 I, computed in closed
  form from the exact covariance (residual is roundoff);
* John / Loewner: largest inscribed / smallest circumscribed ellipsoid, the
  residual is the largest relative violation of John's KKT conditions,
  read from the returned ellipsoid and multipliers / the relative
  violation of the Loewner optimality condition, read from a freshly
  inverted scatter of the orthonormal factor of its rows;
* minimal mean width: the edge measure M = sum_e |e| g_e e^ e^T / sum_e
  |e| g_e (unit edge directions e^, normalized external angles g_e) is
  isotropic, residual = ||n M - I||_F; exact for zonotopes at every n and
  vertex bodies at n = 3, 4.  A vertex body at other n falls back to a
  sampled descent whose residual is the first-order condition
  w(K) = n E[<xi, theta>^2 h(theta)] for every xi, estimated on its
  sample set (best effort).

The iterative solvers keep their per-step work small.  John's
interior-point Newton matrix is diagonal plus a rank-n(n+1)/2 term, solved
by Woodbury in time linear in the row count; it starts from the polytope's
interior point, so it runs no LP.  Loewner's ellipsoid is the polar of
the one the same solve finds on the vertex rows, and Newton's method on
its optimality conditions finishes it on the support found.  The
isotropy fixed point maps the measure's vectors (and, for edge angles,
the facet normals) instead of building hulls.  The sampled mean-width
descent lays its support products out (vertices, directions) and reduces
along the first axis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bodyops import Body, is_zonotope, to_polytope, transform_body
from .polytope import (DegenerateInputError, centroid_and_covariance,
                       symmetry_keys)
from .quermass import omega
from .sampling import RngSeed, sphere_points

# Solver settings: every position is solved at one fixed setting.
ISOTROPY_TOL = 1e-10         # residual ||n M - I||_F of the min-surface
ISOTROPY_MAX_ITER = 200      # and edge-measure fixed point
LOWNER_TOL = 1e-12           # relative violation of the Loewner condition
LOWNER_NEWTON_STEPS = 30     # Newton steps per attempt
JOHN_TOL = 1e-11             # relative KKT residual (`_john_kkt`)
JOHN_MAX_ITER = 100          # interior-point steps
JOHN_STEP = 0.99             # fraction of the step to the boundary y, s > 0
MIN_WIDTH_PAIRS = 1000       # sampled route: antithetic direction pairs
MIN_WIDTH_MAX_ITER = 300
MIN_WIDTH_TOL = 0.02         # first-order residual floor for convergence

# The min-width route that ran, named in its position record.
EDGE_MEASURE_ROUTE = "edge measure"
SAMPLED_ROUTE = "sampled pairs"


@dataclass(frozen=True)
class Ellipsoid:
    """The set {x : (x - center)^T shape^{-1} (x - center) <= 1} with shape SPD."""

    shape: np.ndarray
    center: np.ndarray

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    def volume(self) -> float:
        return omega(self.dim) * float(np.sqrt(np.linalg.det(self.shape)))

    def radii(self) -> np.ndarray:
        """Semi-axis lengths, descending."""
        return np.sqrt(np.linalg.eigvalsh(self.shape))[::-1]


@dataclass(frozen=True)
class PositionResult:
    """An affine position map x -> scale * transform @ (x - shift)."""

    transform: np.ndarray
    residual: float
    objective: float
    iterations: int
    converged: bool
    scale: float = 1.0
    shift: np.ndarray = field(default=None)  # type: ignore[assignment]
    history: tuple = ()  # objective value at each accepted iterate
    route: str = ""  # the min-width route that ran (empty for other kinds)

    def __post_init__(self):
        if self.shift is None:
            object.__setattr__(self, "shift", np.zeros(self.transform.shape[0]))

    def apply(self, body: Body) -> Body:
        return transform_body(body, self.transform, self.shift, self.scale)

    def to_dict(self) -> dict:
        """The map and its solver record, as JSON-ready values."""
        return {"transform": np.asarray(self.transform, dtype=float).tolist(),
                "scale": float(self.scale),
                "shift": np.asarray(self.shift, dtype=float).tolist(),
                "residual": float(self.residual),
                "objective": float(self.objective),
                "iterations": int(self.iterations),
                **({"route": self.route} if self.route else {})}


def _unimodular(matrix: np.ndarray) -> np.ndarray:
    det = abs(float(np.linalg.det(matrix)))
    return matrix / det ** (1.0 / matrix.shape[0])


# ---------------------------------------------------------------------------
# minimal surface area


def _isotropic_fixed_point(vectors: np.ndarray, angles=None
                           ) -> tuple[np.ndarray, float, float, int]:
    """Damped fixed point B <- (n M)^{-1/2} B, |det B| = 1, on
    M = Σ γ_i (B x_i)(B x_i)^T / |B x_i| / Σ γ_i |B x_i|, with γ = 1 or
    γ = ``angles(B^{-1})``, until ||n M - I||_F <= ISOTROPY_TOL.  Raises
    `DegenerateInputError` when n M is singular.  Returns B,
    Σ γ_i |B x_i|, the residual and the steps taken.
    """
    n = vectors.shape[1]
    eye = np.eye(n)
    transform = eye
    for iterations in range(ISOTROPY_MAX_ITER + 1):
        moved = vectors @ transform.T
        lengths = np.linalg.norm(moved, axis=1)
        gamma = 1.0 if angles is None else angles(np.linalg.inv(transform))
        total = float((lengths * gamma).sum())
        # γ |Bx| x̂ x̂ᵀ = (γ/|Bx|) (Bx)(Bx)ᵀ
        moment = (moved * (gamma / lengths)[:, None]).T @ moved / total
        residual = float(np.linalg.norm(n * moment - eye))
        if residual <= ISOTROPY_TOL or iterations == ISOTROPY_MAX_ITER:
            break
        eigval, eigvec = np.linalg.eigh(n * moment)
        if eigval[0] <= 1e-14 * eigval[-1]:
            raise DegenerateInputError(
                "the measure is singular: the body is not full-dimensional")
        step = (eigvec * eigval ** -0.5) @ eigvec.T
        transform = _unimodular(step @ transform)
    return transform, total, residual, iterations


def minimal_surface_position(body: Body) -> tuple[PositionResult, float]:
    """`_isotropic_fixed_point` on the vectors a_i u_i of the surface-area
    measure: a unimodular T moves them to T^{-T} a_i u_i, the facets of TK,
    so T = B^{-T} and Σ |B a_i u_i| = S(TK).  Returns the position and the
    minimal surface quotient S(TK)/|TK|^{(n-1)/n}.
    """
    meas = body.surface_measure()
    n = body.dim
    back, surface, residual, iterations = _isotropic_fixed_point(
        meas.normals * meas.weights[:, None])
    quotient = surface / body.volume() ** ((n - 1) / n)
    result = PositionResult(transform=np.linalg.inv(back).T, residual=residual,
                            objective=surface, iterations=iterations,
                            converged=residual <= ISOTROPY_TOL)
    return result, quotient


# ---------------------------------------------------------------------------
# isotropic


def isotropic_position(body: Body) -> tuple[PositionResult, float]:
    """Closed-form isotropic position (volume 1, centered, covariance L^2 I).

    Returns the affine map and the isotropic constant L of the body.
    """
    poly = to_polytope(body)
    n = poly.dim
    centroid, cov = centroid_and_covariance(poly)
    volume = poly.volume()
    cov1 = cov / volume ** (2.0 / n)
    constant = float(np.linalg.det(cov1)) ** (1.0 / (2 * n))
    eigval, eigvec = np.linalg.eigh(cov1)
    whiten = (eigvec * eigval ** -0.5) @ eigvec.T
    linear = constant * whiten
    scale = volume ** (-1.0 / n)
    placed_cov = (scale * linear) @ cov @ (scale * linear).T
    residual = float(np.linalg.norm(placed_cov / constant ** 2 - np.eye(n)))
    result = PositionResult(transform=linear, residual=residual,
                            objective=constant, iterations=1, converged=True,
                            scale=scale, shift=centroid)
    return result, constant


# ---------------------------------------------------------------------------
# Loewner (smallest circumscribed ellipsoid)


def _pair_mask(points: np.ndarray) -> np.ndarray:
    """One point of each ± pair of an origin-symmetric point set: the one
    whose first nonzero symmetry key (`symmetry_keys`) is positive."""
    keys = symmetry_keys(points)
    first = keys[np.arange(len(keys)), np.argmax(keys != 0.0, axis=1)]
    return first > 0.0


def _lowner_newton(rows: np.ndarray, u: np.ndarray,
                   d: int) -> tuple[np.ndarray | None, int]:
    """Newton's method on the support levels M_i(u) = d, u_i > 0.

    With G = Q_S S^{-1} Q_S^T on the support rows Q_S, the Jacobian of the
    levels is -(G∘G), so a step solves (G∘G) δ = M - d (least squares: a
    degenerate support leaves G∘G singular).  The step is damped so that
    u stays >= 0, and a row whose weight reaches 0 leaves the support.
    Returns the weights, rescaled to sum 1, and the steps taken; the weights
    are None when the support residual failed to fall below LOWNER_TOL.
    """
    u = u.copy()
    prev, dropped, steps = np.inf, False, 0
    while True:
        s = np.flatnonzero(u)
        q = rows[s]
        try:
            gram = q @ np.linalg.solve(q.T @ (q * u[s, None]), q.T)
        except np.linalg.LinAlgError:
            return None, steps
        r = np.diagonal(gram) - d
        err = float(np.abs(r).max()) / d
        if not np.isfinite(err):
            return None, steps
        # done at a tenth of the tolerance, or once a step without a drop
        # fails to lower the error (the roundoff floor, or divergence)
        if err <= 0.1 * LOWNER_TOL or (err >= prev and not dropped) \
                or steps == LOWNER_NEWTON_STEPS:
            return (u / u.sum() if err <= LOWNER_TOL else None), steps
        delta = np.linalg.lstsq(gram * gram, r, rcond=None)[0]
        shrink = delta < 0.0
        ratio = u[s[shrink]] / -delta[shrink]
        t = min(1.0, float(ratio.min())) if ratio.size else 1.0
        u[s] += t * delta
        dropped = t < 1.0
        if dropped:
            u[s[shrink][np.argmin(ratio)]] = 0.0
        np.maximum(u, 0.0, out=u)
        prev = err
        steps += 1


def lowner_position(body: Body) -> tuple[PositionResult, Ellipsoid]:
    """Minimum-volume enclosing ellipsoid: John's interior-point solve on
    the polar finds the support, Newton's method solves it.

    The solver weighs rows q_i with u_i >= 0, sum u_i = 1.  For an
    origin-symmetric body the rows are one vertex of each ± pair (both
    weigh the same q q^T, and a duplicated row would make the Newton
    matrix singular) and d = n: its ellipsoid is centered.  Otherwise they
    are the lifted vertices [v_i, 1] and d = n + 1.  With
    S = sum u_i q_i q_i^T and the levels M_i = q_i^T S^{-1} q_i, u is
    optimal iff M_i <= d for every row and M_i = d on the support u_i > 0;
    the residual is the larger relative violation, max_i M_i / d - 1 or
    1 - min over the support M_i / d.  By polarity the smallest centered
    ellipsoid around the rows is the polar of the largest one inside
    {x : |<q_i, x>| <= 1}, which `_john_newton` solves: its weights
    u_i = y_i h_i^2 / d sum to 1 (Σ y_i h_i^2 = tr I = d).  The rows with
    slack 1 - h_i <= sqrt(JOHN_TOL) are the support; `_lowner_newton` meets
    M_i = d on it from u rescaled to sum 1.  Both solves read the
    orthonormal factor Q of the rows (rows = Q R): the levels, hence u, do
    not change under q -> R^{-T} q, and on the raw rows of a body stretched
    1e4 along a rotated axis the interior-point solve diverges.  Every level
    is then recomputed from a fresh inverse of S on Q, which keeps digits
    that the rows' S (condition ~1e8 there) loses; the center and shape
    come from S on the rows.  If Newton fails, the support weights are
    returned with that residual, uncertified.  ``converged`` means the
    residual is <= LOWNER_TOL.
    ``iterations`` counts interior-point and Newton steps.  The returned
    position maps the ellipsoid to the unit ball.
    """
    poly = to_polytope(body)
    points = poly.vertices
    n = poly.dim
    symmetric = poly.symmetric
    rows = (points[_pair_mask(points)] if symmetric
            else np.hstack([points, np.ones((len(points), 1))]))
    d = rows.shape[1]
    orth = np.linalg.qr(rows)[0]
    y, _, _, h, iterations = _john_newton(orth, centered=True)
    u = np.where(1.0 - h <= np.sqrt(JOHN_TOL), y * h * h / d, 0.0)
    u /= u.sum()
    solved, steps = _lowner_newton(orth, u, d)
    iterations += steps
    if solved is not None:
        u = solved
    scatter = orth.T @ (orth * u[:, None])
    levels = np.einsum("ij,jk,ik->i", orth, np.linalg.inv(scatter), orth)
    residual = max(float(levels.max()) / d - 1.0,
                   1.0 - float(levels[u > 0].min()) / d)
    scatter = rows.T @ (rows * u[:, None])
    # a lifted scatter is [[Σ u v v^T, c], [c^T, 1]], c = Σ u v the center
    center = np.zeros(n) if symmetric else scatter[:n, n]
    shape = n * (scatter[:n, :n] - np.outer(center, center))
    ellipsoid = Ellipsoid(shape=shape, center=center)
    eigval, eigvec = np.linalg.eigh(shape)
    eigval = np.clip(eigval, 1e-300, None)
    whiten = (eigvec * eigval ** -0.5) @ eigvec.T
    scale = float(np.linalg.det(whiten)) ** (1.0 / n)
    result = PositionResult(transform=whiten / scale, residual=residual,
                            objective=ellipsoid.volume(), iterations=iterations,
                            converged=residual <= LOWNER_TOL, scale=scale,
                            shift=center)
    return result, ellipsoid


# ---------------------------------------------------------------------------
# John (largest inscribed ellipsoid)


def _john_kkt(normals: np.ndarray, offsets: np.ndarray, root: np.ndarray,
              center: np.ndarray, lam: np.ndarray, centered: bool) -> float:
    """Largest relative violation of the KKT conditions of
    max log det E s.t. ||E a_i|| + <a_i, c> <= b_i at the ellipsoid with
    SPD shape root ``root`` = E and center c, under the multipliers λ.

    With h_i = ||E a_i||, s_i = b_i - h_i - <a_i, c> and y_i = λ_i / h_i the
    conditions are E (Σ y_i a_i a_i^T) E = I (shape stationarity),
    Σ λ_i a_i = 0 (center stationarity, read as ||E Σ λ_i a_i||; dropped
    when the center is held at 0), Σ λ_i s_i = 0, s >= 0 and λ >= 0.
    Each is read relative to Σ λ_i h_i (= n at the optimum) or, for s, to
    h_i, so the residual is invariant under affine maps and under
    rescaling a row (a_i, b_i).
    """
    n = center.shape[0]
    moved = normals @ root
    h = np.sqrt(np.einsum("ij,ij->i", moved, moved))
    slack = offsets - h - normals @ center
    total = float(lam @ h)
    stationary = moved.T @ (moved * (lam / h)[:, None]) - np.eye(n)
    return max(float(np.abs(np.linalg.eigvalsh(stationary)).max()),
               0.0 if centered else float(np.linalg.norm(moved.T @ lam)) / total,
               abs(float(lam @ slack)) / total,
               float((-slack / h).max()),
               float((-lam * h).max()) / total)


def _john_newton(rows: np.ndarray, centered: bool
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Primal-dual interior-point solve of max log det E s.t.
    ||E r_i|| + <r_i, c> <= 1 (Zhang & Gao, SIAM J. Optim. 14, 2003).

    The dual weights y > 0 carry the shape, E^2 = M^{-1} with
    M = Σ y_i r_i r_i^T = L L^T, and h_i = ||E r_i|| = ||L^{-1} r_i||; the
    multipliers are λ_i = y_i h_i.  Newton's method with Mehrotra's
    predictor-corrector drives the residuals of Σ y_i h_i r_i = 0 (skipped
    when ``centered``: c stays 0), <r_i, c> + h_i + s_i = 1 and
    y_i s_i = σμ to 0, keeping y, s > 0 by a step of JOHN_STEP of the way
    to their boundary.  Since dh = -½ H^{-1} (Q∘Q) dy for
    Q = R M^{-1} R^T, eliminating ds leaves G dy = H (R dc + r̂) with
    G = diag(h s / y) + ½ Q∘Q, and then an n x n system for dc.
    Q∘Q = V V^T has rank n(n+1)/2: V_i is the packed b_i b_i^T of
    b_i = L^{-1} r_i, so G is solved by Woodbury in O(F n^4), not O(F^3).
    The start is c = 0 and a constant y with every h_i <= 1/2.  The solve
    stops once the center residual ||L^{-1} Σ λ_i r_i|| / Σ λ_i h_i, the
    relative complementarity Σ λ_i s_i / Σ λ_i h_i and the relative
    infeasibility max_i -s_i / h_i, on the true slacks
    s_i = 1 - <r_i, c> - h_i, are all <= JOHN_TOL.  Returns y, c, L^{-1},
    h and the steps taken.  `john_position` passes facet rows;
    `lowner_position` passes vertex rows with ``centered`` set, whose
    ellipsoid is the polar of the Loewner one.
    """
    count, n = rows.shape
    iu = np.triu_indices(n)
    packed = np.where(iu[0] == iu[1], 1.0, np.sqrt(2.0))
    c = np.zeros(n)
    b = rows @ np.linalg.inv(np.linalg.cholesky(rows.T @ rows)).T
    leverage = np.einsum("ij,ij->i", b, b)  # h_i^2 at y = 1
    y = np.full(count, 4.0 * float(leverage.max()))
    s = 1.0 - np.sqrt(leverage / y)
    steps = 0
    while True:
        m = rows.T @ (rows * y[:, None])
        linv = np.linalg.inv(np.linalg.cholesky(m))
        b = rows @ linv.T
        h = np.sqrt(np.einsum("ij,ij->i", b, b))
        r2 = rows @ c + s + h - 1.0
        lam = y * h
        total = float(lam @ h)
        r1 = rows.T @ lam
        residual = max(
            0.0 if centered else float(np.linalg.norm(linv @ r1)) / total,
            abs(float(lam @ (s - r2))) / total,
            float(((r2 - s) / h).max()))
        if residual <= JOHN_TOL or steps == JOHN_MAX_ITER:
            return y, c, linv, h, steps
        v = b[:, iu[0]] * b[:, iu[1]] * packed
        d = h * s / y
        vd = v / d[:, None]
        cap = 2.0 * np.eye(len(packed)) + v.T @ vd

        def woodbury(x: np.ndarray) -> np.ndarray:
            dx = x / d[:, None]
            return dx - vd @ np.linalg.solve(cap, v.T @ dx)

        def g_solve(x: np.ndarray) -> np.ndarray:
            # near the optimum d spans many decades, and Woodbury's
            # difference loses the touching rows; one refinement step
            # against G = diag(d) + ½ V V^T restores them
            z = woodbury(x)
            return z + woodbury(x - d[:, None] * z - 0.5 * v @ (v.T @ z))

        if not centered:
            gha = g_solve(h[:, None] * rows)
            hs = h + s
            schur = rows.T @ (hs[:, None] * gha) - m

        def newton(r3: np.ndarray):
            rhat = r2 - r3 / y
            g = g_solve((h * rhat)[:, None])[:, 0]
            if centered:
                dc, dy = np.zeros(n), g
            else:
                dc = np.linalg.solve(schur, rows.T @ (y * rhat - hs * g) - r1)
                dy = gha @ dc + g
            return dc, dy, -(r3 + s * dy) / y

        def to_boundary(dy: np.ndarray, ds: np.ndarray) -> float:
            ratios = np.concatenate([y[dy < 0.0] / -dy[dy < 0.0],
                                     s[ds < 0.0] / -ds[ds < 0.0], [1.0]])
            return float(ratios.min())

        mu = float(y @ s) / count
        _, dy, ds = newton(y * s)
        t = to_boundary(dy, ds)
        sigma = (float((y + t * dy) @ (s + t * ds)) / count / mu) ** 3
        dc, dy, ds = newton(y * s + dy * ds - sigma * mu)
        t = JOHN_STEP * to_boundary(dy, ds)
        c = c + t * dc
        y = y + t * dy
        s = s + t * ds
        steps += 1


def john_position(body: Body) -> tuple[PositionResult, Ellipsoid]:
    """Largest inscribed ellipsoid by a primal-dual interior-point solve.

    The solve (`_john_newton`) runs in the frame x' = C^{-1/2} (x - o) that
    whitens the vertex covariance C about the origin o, which is 0 for an
    origin-symmetric body and `Polytope.interior_point` otherwise, on the
    facet rows r_i = C^{1/2} u_i / (b_i - <u_i, o>) with offsets 1.  John's
    ellipsoid is affine-equivariant, so it maps back as
    shape = C^{1/2} M^{-1} C^{1/2} and center = C^{1/2} c + o.  An
    origin-symmetric body keeps one facet of each ± pair (`_pair_mask` on
    u_i / b_i; both rows weigh the same r r^T) and its center stays at 0.
    No LP runs: the start is the origin o.  The reported residual is
    `_john_kkt`, recomputed in the body's own frame from the returned
    shape and center and the multipliers λ_i = y_i h_i / (b_i - <u_i, o>),
    over every facet (0 on the other facet of each pair).
    """
    poly = to_polytope(body)
    n = poly.dim
    normals = poly.facet_normals
    offsets = poly.facet_offsets
    symmetric = poly.symmetric
    origin = np.zeros(n) if symmetric else poly.interior_point
    _, spread, basis = np.linalg.svd(poly.vertices - origin,
                                     full_matrices=False)
    frame = (basis.T * (spread / np.sqrt(poly.n_vertices))) @ basis
    room = offsets - normals @ origin
    keep = (_pair_mask(normals / offsets[:, None]) if symmetric
            else np.ones(len(offsets), dtype=bool))
    rows = (normals[keep] @ frame) / room[keep, None]
    y, c, linv, h, iterations = _john_newton(rows, centered=symmetric)
    lam = np.zeros(len(offsets))
    lam[keep] = y * h / room[keep]
    # shape = F F^T for F = C^{1/2} L^{-T}; its SPD square root comes from
    # the SVD of F, which keeps the small axes of a thin body accurate
    # where an eigendecomposition of the shape (cond F^2) would not
    left, radii, _ = np.linalg.svd(frame @ linv.T)
    center = np.zeros(n) if symmetric else frame @ c + origin
    residual = _john_kkt(normals, offsets, (left * radii) @ left.T, center,
                         lam, symmetric)
    ellipsoid = Ellipsoid(shape=(left * radii ** 2) @ left.T, center=center)
    scale = float(np.prod(radii)) ** (-1.0 / n)
    result = PositionResult(transform=(left / radii) @ left.T / scale,
                            residual=residual, objective=ellipsoid.volume(),
                            iterations=iterations,
                            converged=residual <= JOHN_TOL,
                            scale=scale, shift=center)
    return result, ellipsoid


# ---------------------------------------------------------------------------
# minimal mean width


def min_mean_width_position(body: Body,
                            seed: RngSeed = RngSeed()) -> PositionResult:
    """The minimal mean width position: by the edge-measure fixed point for
    a zonotope at any n and a vertex body at n = 3, 4, and by the sampled
    descent (``seed`` picks its panel) for a vertex body otherwise."""
    if is_zonotope(body) or body.dim in (3, 4):
        return edge_measure_min_width_position(body)
    return sampled_min_width_position(body, seed)


def edge_measure_min_width_position(body: Body) -> PositionResult:
    """`_isotropic_fixed_point` on the edge measure of TK.

    The mean width of a polytope is E h_K = ω_{n-1}/(n ω_n)·Σ_e |e|·γ_e
    over its edges e with normalized external angles γ_e, and its
    derivative along SL(n) is the trace-free part of the edge measure
    Σ_e |e|·γ_e·ê êᵀ.  So K is in minimal mean width position iff
    M = Σ_e |Te| γ_e ê êᵀ / Σ_e |Te| γ_e (ê = Te/|Te|) is I/n.  A zonotope
    reads its generators as edges with γ = 2, in closed form at every n; a
    vertex body at n = 3, 4 transports its facet normals by T^{-T} for the
    angles of TK (`Polytope.edge_angles`).  The residual is ||n M - I||_F
    and the objective the exact E h_{TK}.
    """
    n = body.dim
    if is_zonotope(body):
        transform, total, residual, iterations = _isotropic_fixed_point(
            body.generators)
        total *= 2.0  # γ = 2 on every generator, a factor the step ignores
    else:
        transform, total, residual, iterations = _isotropic_fixed_point(
            body.edges(), body.edge_angles)
    return PositionResult(transform=transform, residual=residual,
                          objective=omega(n - 1) / (n * omega(n)) * total,
                          iterations=iterations,
                          converged=residual <= ISOTROPY_TOL,
                          route=EDGE_MEASURE_ROUTE)


def sampled_min_width_position(body: Body,
                               seed: RngSeed = RngSeed()) -> PositionResult:
    """Stochastic minimization of the mean width over SL(n) (best effort).

    The objective is the empirical mean width on a fixed antithetic direction
    panel (common random numbers), descended along the exact subgradient
    with multiplicative exp-steps, which keeps det T = 1.  The residual is
    the sup-norm deviation of the first-order condition
    w(K) = n E[<xi, theta>^2 h_K(theta)] estimated on the same panel.
    Supports are read from the vertices (`min_mean_width_position` sends
    no zonotope here).
    """
    n = body.dim
    pairs = MIN_WIDTH_PAIRS
    thetas = sphere_points(n, pairs, seed.derive("min-width-panel").generator())
    transform = np.eye(n)
    verts = to_polytope(body).vertices

    # the half widths (h(theta) + h(-theta)) / 2 and both support points
    # come from one product with the vertices, laid out (vertices,
    # directions) so the extrema reduce along axis 0
    def width_stats(t_mat: np.ndarray):
        seen = verts @ (thetas @ t_mat).T
        height = 0.5 * (seen.max(axis=0) - seen.min(axis=0))
        return float(height.mean()), seen, height

    value, seen, height = width_stats(transform)
    history = [value]
    step = 0.1
    iterations = 0
    for iterations in range(1, MIN_WIDTH_MAX_ITER + 1):
        # half of x(theta) - x(-theta) for the support points x of each theta
        pts = 0.5 * (verts[seen.argmax(axis=0)] - verts[seen.argmin(axis=0)])
        moment = (transform @ pts.T) @ thetas / pairs
        grad = 0.5 * (moment + moment.T)
        grad -= np.trace(grad) / n * np.eye(n)
        gnorm = float(np.linalg.norm(grad))
        if gnorm * n / max(value, 1e-300) <= 1e-4:
            break
        direction = -grad / gnorm
        while step > 1e-10:
            eigval, eigvec = np.linalg.eigh(step * direction)
            mover = (eigvec * np.exp(eigval)) @ eigvec.T
            cand = mover @ transform
            cand_stats = width_stats(cand)
            if cand_stats[0] < value - 1e-12 * abs(value):
                transform = cand
                value, seen, height = cand_stats
                history.append(value)
                step = min(step * 1.5, 1.0)
                break
            step *= 0.5
        else:  # no step down the gradient lowered the width
            break
    outer = (thetas[:, :, None] * thetas[:, None, :])
    second = np.einsum("b,bij->ij", height, outer) / pairs
    deviation = n * second / max(value, 1e-300) - np.eye(n)
    residual = float(np.abs(np.linalg.eigvalsh(deviation)).max())
    entry_sd = float(np.einsum("b,bij->ij", height ** 2, outer ** 2).max()) ** 0.5
    noise = n * entry_sd / (max(value, 1e-300) * np.sqrt(pairs))
    return PositionResult(transform=_unimodular(transform), residual=residual,
                          objective=value, iterations=iterations,
                          converged=residual <= max(MIN_WIDTH_TOL, 3.0 * noise),
                          history=tuple(history), route=SAMPLED_ROUTE)


# ---------------------------------------------------------------------------
# dispatch


def solve(kind: str, body: Body,
          seed: RngSeed = RngSeed()) -> tuple[PositionResult, dict]:
    """The named position of ``body`` and the solver's by-products.

    ``kind`` is one of min-surface, isotropic, john, lowner and min-width;
    ``seed`` drives the sample set of the sampled min-width route only (a
    vertex body at n other than 3, 4).  The solvers are looked
    up as module globals at call time, so wrappers installed on this
    module see every call.
    """
    if kind == "min-surface":
        result, quotient = minimal_surface_position(body)
        return result, {"surface-quotient": quotient}
    if kind == "isotropic":
        result, constant = isotropic_position(body)
        return result, {"isotropic-constant": constant}
    if kind in ("john", "lowner"):
        solver = john_position if kind == "john" else lowner_position
        result, ellipsoid = solver(body)
        return result, {"ellipsoid-radii": ellipsoid.radii().tolist()}
    if kind == "min-width":
        return min_mean_width_position(body, seed=seed), {}
    raise ValueError(f"unknown position kind {kind!r}")

