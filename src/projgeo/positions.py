"""Classical positions of convex bodies and the associated certificates.

Every operator returns a :class:`PositionResult` describing the affine map
``x -> scale * transform @ (x - shift)`` with a unimodular linear part
(|det transform| = 1), together with a residual that certifies how close the
positioned body is to the defining fixed-point condition:

* minimal surface area: the normalized surface-area measure is isotropic,
  residual = ||n M - I||_F with M = (1/S) sum_i a_i u_i u_i^T;
* isotropic: the covariance of the volume-1 body is L^2 I, computed in closed
  form from the exact covariance (residual is roundoff);
* John / Loewner: largest inscribed / smallest circumscribed ellipsoid, the
  residual is the relative KKT stationarity / the relative violation of
  the Loewner optimality condition, read from a freshly inverted scatter;
* minimal mean width: the edge measure M = sum_e |e| g_e e^ e^T / sum_e
  |e| g_e (unit edge directions e^, normalized external angles g_e) is
  isotropic, residual = ||n M - I||_F; exact for zonotopes at every n and
  vertex bodies at n = 3, 4.  A vertex body at other n falls back to a
  sampled descent whose residual is the first-order condition
  w(K) = n E[<xi, theta>^2 h(theta)] for every xi, estimated on its
  sample set (best effort).

The iterative solvers keep their per-step work small.  Loewner's
Frank-Wolfe steps update the inverse scatter by Sherman-Morrison on one
vertex of each ± pair of an origin-symmetric body (a centered ellipsoid)
or on the lifted vertices otherwise, until Newton's method solves the
optimality conditions on the support they found.  John starts from the
inscribed ball `inradius` caches on the polytope, which an
origin-symmetric body gets with no LP.  The edge-measure iteration
transports facet normals instead of building hulls.  The sampled
mean-width descent lays its support products out (vertices, directions)
and reduces along the first axis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize, nnls

from .bodyops import Body, is_zonotope, to_polytope, transform_body
from .polytope import (DegenerateInputError, centroid_and_covariance, inradius,
                       symmetry_keys)
from .quermass import omega
from .sampling import RngSeed, sphere_points

# Solver settings: every position is solved at one fixed setting.
MIN_SURFACE_TOL = 1e-6       # residual ||n M - I||_F that stops the iteration
MIN_SURFACE_MAX_ITER = 500
MIN_SURFACE_STEP_POWER = 0.5  # damping: the step is (n M)^power
LOWNER_TOL = 1e-12           # relative violation of the Loewner condition
LOWNER_HANDOFF = 1e-2        # Frank-Wolfe residual at which Newton starts
LOWNER_NEWTON_STEPS = 30     # Newton steps per attempt
LOWNER_MAX_ITER = 10_000     # Frank-Wolfe and Newton steps
JOHN_TOL = 1e-7              # relative KKT residual
JOHN_MAX_ITER = 300          # SLSQP iterations
EDGE_MEASURE_TOL = 1e-10     # residual ||n M - I||_F of the edge measure
EDGE_MEASURE_MAX_ITER = 200
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


def minimal_surface_position(body: Body) -> tuple[PositionResult, float]:
    """Damped fixed-point iteration for the minimal surface area position.

    Pushes the surface-area measure toward isotropy by the volume-preserving
    step A = (n M)^MIN_SURFACE_STEP_POWER; the measure of the image is
    transported in closed form (u -> A^{-T}u normalized,
    a -> a ||A^{-T}u||), so no hulls are rebuilt inside the loop.  Returns
    the position and the minimal surface quotient S(TK)/|TK|^{(n-1)/n}.
    """
    meas = body.surface_measure()
    normals = meas.normals.copy()
    weights = meas.weights.copy()
    n = body.dim
    eye = np.eye(n)
    total_transform = eye.copy()
    residual = np.inf
    iterations = 0
    converged = False
    for iterations in range(MIN_SURFACE_MAX_ITER + 1):
        total = weights.sum()
        moment = (normals * weights[:, None]).T @ normals / total
        residual = float(np.linalg.norm(n * moment - eye))
        if residual < MIN_SURFACE_TOL:
            converged = True
            break
        if iterations == MIN_SURFACE_MAX_ITER:
            break
        eigval, eigvec = np.linalg.eigh(n * moment)
        eigval = np.clip(eigval, 1e-12, None)
        step = (eigvec * eigval ** MIN_SURFACE_STEP_POWER) @ eigvec.T
        step /= np.linalg.det(step) ** (1.0 / n)
        back = np.linalg.inv(step).T
        moved = normals @ back.T
        lengths = np.linalg.norm(moved, axis=1)
        normals = moved / lengths[:, None]
        weights = weights * lengths
        total_transform = _unimodular(step @ total_transform)
    surface = float(weights.sum())
    volume = body.volume()
    quotient = surface / volume ** ((n - 1) / n)
    result = PositionResult(transform=total_transform, residual=residual,
                            objective=surface, iterations=iterations,
                            converged=converged)
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


def _pair_rows(points: np.ndarray) -> np.ndarray:
    """One vertex of each ± pair of an origin-symmetric vertex set: the one
    whose first nonzero symmetry key (`symmetry_keys`) is positive."""
    keys = symmetry_keys(points)
    first = keys[np.arange(len(keys)), np.argmax(keys != 0.0, axis=1)]
    return points[first > 0.0]


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
    """Minimum-volume enclosing ellipsoid: Frank-Wolfe with away steps finds
    the support, Newton's method solves it.

    The solver weighs rows q_i with u_i >= 0, sum u_i = 1.  For an
    origin-symmetric body the rows are one vertex of each ± pair (both
    weigh the same q q^T, and a duplicated row would make the Newton
    matrix singular) and d = n: its ellipsoid is centered.  Otherwise they
    are the lifted vertices [v_i, 1] and d = n + 1.  With
    S = sum u_i q_i q_i^T and the levels M_i = q_i^T S^{-1} q_i, u is
    optimal iff M_i <= d for every row and M_i = d on the support u_i > 0;
    the residual is the larger relative violation, max_i M_i / d - 1 or
    1 - min over the support M_i / d.  A Frank-Wolfe step u <- a u + b e_j
    updates S^{-1} and every level by Sherman-Morrison, so no step inverts
    S.  Once the residual is below LOWNER_HANDOFF, `_lowner_newton` meets
    M_i = d on the support; then every level is recomputed from a fresh
    inverse, and a row above d rejoins by the next Frank-Wolfe step.  If
    Newton fails, Frank-Wolfe runs on to a tenth of the residual.  The
    solver stops only on a residual from a fresh inverse <= LOWNER_TOL.
    ``iterations`` counts Frank-Wolfe and Newton steps.  The returned
    position maps the ellipsoid to the unit ball.
    """
    poly = to_polytope(body)
    points = poly.vertices
    n = poly.dim
    symmetric = poly.symmetric
    rows = (_pair_rows(points) if symmetric
            else np.hstack([points, np.ones((len(points), 1))]))
    count, d = rows.shape
    u = np.full(count, 1.0 / count)

    def exact() -> tuple[np.ndarray, np.ndarray]:
        inv = np.linalg.inv(rows.T @ (rows * u[:, None]))
        return inv, np.einsum("ij,jk,ik->i", rows, inv, rows)

    inv, levels = exact()
    fresh = True
    handoff = LOWNER_HANDOFF
    iterations = 0
    while True:
        hi = int(np.argmax(levels))
        lo = int(np.argmin(np.where(u > 0, levels, np.inf)))
        eps_hi = float(levels[hi]) / d - 1.0
        eps_lo = 1.0 - float(levels[lo]) / d
        residual = max(eps_hi, eps_lo)
        if (fresh and residual <= LOWNER_TOL) or iterations >= LOWNER_MAX_ITER:
            break
        if not fresh and residual < handoff:
            solved, steps = _lowner_newton(rows, u, d)
            iterations += steps
            if solved is None:
                handoff = 0.1 * residual
            else:
                u = solved
            inv, levels = exact()
            fresh = True
            continue
        if eps_hi >= eps_lo:
            j, m = hi, float(levels[hi])
            lam = (m - d) / (d * (m - 1.0))
            a, b = 1.0 - lam, lam
        else:
            # at a level <= 1 (possible on centered rows only) the log-det
            # rises all the way to dropping the row
            j, m = lo, float(levels[lo])
            lam = float(u[lo] / (1.0 - u[lo]))
            if m > 1.0:
                lam = min(lam, (d - m) / (d * (m - 1.0)))
            a, b = 1.0 + lam, -lam
        u *= a
        u[j] = max(u[j] + b, 0.0)  # a > 0, so only u[j] can fall below 0
        v = inv @ rows[j]
        w = rows @ v
        c = b / (a + b * m)
        levels = (levels - c * (w * w)) / a
        inv = (inv - c * np.outer(v, v)) / a
        fresh = False
        iterations += 1
    if symmetric:
        center = np.zeros(n)
        shape = n * (rows.T @ (rows * u[:, None]))
    else:
        center = points.T @ u
        scatter_c = points.T @ (points * u[:, None]) - np.outer(center, center)
        shape = n * scatter_c
    ellipsoid = Ellipsoid(shape=shape, center=center)
    eigval, eigvec = np.linalg.eigh(shape)
    eigval = np.clip(eigval, 1e-300, None)
    whiten = (eigvec * eigval ** -0.5) @ eigvec.T
    scale = float(np.linalg.det(whiten)) ** (1.0 / n)
    result = PositionResult(transform=whiten / scale, residual=float(residual),
                            objective=ellipsoid.volume(), iterations=iterations,
                            converged=residual <= LOWNER_TOL, scale=scale,
                            shift=center)
    return result, ellipsoid


# ---------------------------------------------------------------------------
# John (largest inscribed ellipsoid)


def _sym_to_vec(mat: np.ndarray) -> np.ndarray:
    n = mat.shape[0]
    iu = np.triu_indices(n)
    weights = np.where(iu[0] == iu[1], 1.0, np.sqrt(2.0))
    return mat[iu] * weights


def john_position(body: Body) -> tuple[PositionResult, Ellipsoid]:
    """Largest inscribed ellipsoid by sequential quadratic programming.

    The ellipsoid L B_2^n + d is parametrized by a lower-triangular L with
    positive diagonal, so maximizing the volume is minimizing
    -sum log L_ii under the smooth facet constraints
    ||L^T u_i|| + <u_i, d> <= b_i.  The start is 0.9 r0 B_2^n at the
    Chebyshev center (`inradius`: an LP, shared with every other inradius
    call on the polytope; for origin-symmetric bodies the center is 0 and
    r0 = min_i b_i without one), and the center of an origin-symmetric
    body stays fixed at 0 throughout.  The reported residual is the
    relative norm of the log-det gradient projected onto the active-facet
    cone (NNLS), i.e. a KKT stationarity certificate computed independently
    of the solver.
    """
    poly = to_polytope(body)
    n = poly.dim
    normals = poly.facet_normals
    offsets = poly.facet_offsets
    symmetric = poly.symmetric
    r0, center0 = inradius(poly)
    q = n * (n + 1) // 2
    il = np.tril_indices(n)
    diag_pos = np.where(il[0] == il[1])[0]
    free_center = 0 if symmetric else n

    def unpack(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        low = np.zeros((n, n))
        low[il] = x[:q]
        cen = np.zeros(n) if symmetric else x[q:]
        return low, cen

    def objective(x: np.ndarray) -> float:
        return -float(np.sum(np.log(x[:q][diag_pos])))

    def objective_grad(x: np.ndarray) -> np.ndarray:
        g = np.zeros(x.size)
        g[diag_pos] = -1.0 / x[:q][diag_pos]
        return g

    def constraints(x: np.ndarray) -> np.ndarray:
        low, cen = unpack(x)
        return offsets - normals @ cen - np.linalg.norm(normals @ low, axis=1)

    def constraints_jac(x: np.ndarray) -> np.ndarray:
        low, cen = unpack(x)
        prods = normals @ low
        lens = np.maximum(np.linalg.norm(prods, axis=1), 1e-300)
        full = normals[:, :, None] * (prods / lens[:, None])[:, None, :]
        jac = np.zeros((normals.shape[0], x.size))
        jac[:, :q] = -full[:, il[0], il[1]]
        if not symmetric:
            jac[:, q:] = -normals
        return jac

    x0 = np.zeros(q + free_center)
    x0[:q] = (0.9 * r0) * np.eye(n)[il]
    if not symmetric:
        x0[q:] = center0
    lower = np.full(x0.size, -np.inf)
    lower[diag_pos] = 1e-9 * r0
    solve = minimize(
        objective, x0, jac=objective_grad, method="SLSQP",
        constraints=[{"type": "ineq", "fun": constraints,
                      "jac": constraints_jac}],
        bounds=list(zip(lower, np.full(x0.size, np.inf))),
        options={"maxiter": JOHN_MAX_ITER, "ftol": 1e-14})
    low, d = unpack(solve.x)

    # SPD square root of the shape so the certificate and the returned
    # transform are parametrization-free
    shape = low @ low.T
    eigval, eigvec = np.linalg.eigh(shape)
    mat = (eigvec * np.sqrt(np.clip(eigval, 1e-300, None))) @ eigvec.T

    inv = np.linalg.inv(mat)
    grad_full = np.concatenate(
        [_sym_to_vec(0.5 * (inv + inv.T)), np.zeros(free_center)])
    lengths = np.linalg.norm(normals @ mat, axis=1)
    slack = offsets - lengths - normals @ d
    # absolute activation threshold: offsets of facets through the origin
    # vanish, so a relative-to-offset test would drop them from the cone
    body_scale = max(float(np.abs(offsets).max()), r0)
    active = slack <= 1e-6 * body_scale
    if np.any(active):
        cols = []
        for i in np.flatnonzero(active):
            u = normals[i]
            au = mat @ u
            outer = np.outer(au, u)
            grad_con = _sym_to_vec(0.5 * (outer + outer.T) / max(lengths[i], 1e-300))
            cols.append(grad_con if symmetric
                        else np.concatenate([grad_con, u]))
        cmat = np.array(cols).T
        coef, _ = nnls(cmat, grad_full)
        proj = grad_full - cmat @ coef
    else:
        proj = grad_full
    gnorm = float(np.linalg.norm(grad_full))
    residual = float(np.linalg.norm(proj)) / max(gnorm, 1e-300)

    ellipsoid = Ellipsoid(shape=shape, center=d)
    det = abs(float(np.linalg.det(inv)))
    result = PositionResult(transform=inv / det ** (1.0 / n), residual=residual,
                            objective=ellipsoid.volume(),
                            iterations=int(solve.nit),
                            converged=residual <= JOHN_TOL,
                            scale=det ** (1.0 / n), shift=d)
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
    """Damped fixed point T <- (n M)^{-1/2} T, |det T| = 1, on the edge
    measure of TK.

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
    zonotope = is_zonotope(body)
    edges = body.generators if zonotope else body.edges()
    eye = np.eye(n)
    transform = eye
    for iterations in range(EDGE_MEASURE_MAX_ITER + 1):
        moved = edges @ transform.T
        lengths = np.linalg.norm(moved, axis=1)
        gamma = 2.0 if zonotope else body.edge_angles(np.linalg.inv(transform))
        total = float((lengths * gamma).sum())
        # |Te| γ ê êᵀ = (γ/|Te|) (Te)(Te)ᵀ
        moment = (moved * (gamma / lengths)[:, None]).T @ moved / total
        residual = float(np.linalg.norm(n * moment - eye))
        if residual <= EDGE_MEASURE_TOL or iterations == EDGE_MEASURE_MAX_ITER:
            break
        eigval, eigvec = np.linalg.eigh(n * moment)
        if eigval[0] <= 1e-14 * eigval[-1]:
            raise DegenerateInputError(
                "the edge measure is singular: the body is not full-dimensional")
        step = (eigvec * eigval ** -0.5) @ eigvec.T
        transform = _unimodular(step @ transform)
    return PositionResult(transform=transform, residual=residual,
                          objective=omega(n - 1) / (n * omega(n)) * total,
                          iterations=iterations,
                          converged=residual <= EDGE_MEASURE_TOL,
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

