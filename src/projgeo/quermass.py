"""Quermassintegrals, mean width, and related size functionals.

Conventions for a convex body K in R^n:

* ``V_n = |K|``, ``V_{n-1} = S(K)/n``, ``V_0 = omega_n``.
* ``V_{n-p}`` here is the quermassintegral ``W_p``, the mixed volume of K
  with p copies of the unit ball; the intrinsic volume of index n-p is
  ``binom(n, p) * W_p / omega_p``.
* Kubota: ``V_j(K) = (omega_n/omega_j) * E_{F ~ G(n,j)} |P_F K|`` where the
  expectation is over Haar-random j-dimensional subspaces.
* ``Q_k(K) = (V_k(K)/omega_n)^{1/k}``; the Aleksandrov inequalities say
  ``vrad(K) = Q_n <= Q_{n-1} <= ... <= Q_1 = w(K)`` with ``w = E h_K`` the
  (support) mean width.

Exact routes are used whenever the representation allows: every index for
generator bodies, and W_p at p <= 3 and p = n for vertex bodies (facet
areas, ridge angles and the normal cones of the (n-3)-faces).  The
remaining indices fall back to Monte Carlo over random subspaces.
"""

from __future__ import annotations

import numpy as np

from .bodyops import Body, frame_shadow_panel
from .sampling import Estimate, RngSeed, grassmann_frames, mc_estimate, sphere_points
from .zonotope import Zonotope, omega

DEFAULT_SPHERE_SAMPLES = 20_000
DEFAULT_FRAME_SAMPLES = 2_500


def b_constant(n: int) -> float:
    """The sharp constant b_n = (n-1) omega_{n-1} / (n omega_n^{(n-1)/n})."""
    return (n - 1) * omega(n - 1) / (n * omega(n) ** ((n - 1) / n))


def vrad(body: Body) -> float:
    """Volume radius: the radius of the ball with the same volume."""
    n = body.dim
    return (body.volume() / omega(n)) ** (1.0 / n)


def mean_width(body: Body, samples: int = DEFAULT_SPHERE_SAMPLES,
               seed: RngSeed = RngSeed()) -> Estimate:
    """Spherical average of the support function, w(K) = E h_K (antithetic)."""
    n = body.dim
    pairs = max(1, samples // 2)
    dirs = sphere_points(n, pairs, seed.generator())
    return mc_estimate(body.width_batch(dirs) / 2.0)


def polar_vrad(body: Body, samples: int = DEFAULT_SPHERE_SAMPLES,
               seed: RngSeed = RngSeed()) -> Estimate:
    """vrad of the polar body via |K°| = omega_n * E[h_K^{-n}] (origin interior)."""
    n = body.dim
    dirs = sphere_points(n, samples, seed.generator())
    h = body.support_batch(dirs)
    if np.any(h <= 0):
        raise ValueError("polar volume needs the origin strictly inside the body")
    return mc_estimate(h ** (-float(n))).powered(1.0 / n)


def quermassintegral(body: Body, p: int, samples: int | None = None,
                     seed: RngSeed = RngSeed(), method: str = "auto") -> Estimate:
    """The p-th quermassintegral V_{n-p}(K), indexed by codimension p.

    V_{n-p} is the mixed volume of K with p copies of the unit ball, so
    p = 0 gives |K|, p = 1 gives S(K)/n, and p = n gives omega_n.  With
    ``method="auto"`` exact routes are used where the representation allows
    (every p for generator bodies; p in {0, 1, 2, 3, n} for vertex bodies) and
    the rest is Monte Carlo Kubota averaging over random (n-p)-subspaces.
    ``method="mc"`` forces the Kubota route for 1 <= p <= n-1, which is
    useful as a cross-check against the exact values.
    """
    n = body.dim
    if not 0 <= p <= n:
        raise ValueError(f"codimension {p} out of range for dimension {n}")
    if method not in ("auto", "mc"):
        raise ValueError(f"unknown method {method!r}")
    j = n - p  # dimension of the averaged shadows
    if p == 0:
        return Estimate.of(body.volume())
    if j == 0:
        return Estimate.of(omega(n))
    if method == "auto":
        if isinstance(body, Zonotope):
            return Estimate.of(body.quermassintegral_exact(p))
        if p == 1:
            return Estimate.of(body.surface_area() / n)
        if p == 2:
            return Estimate.of(body.mean_width_exact_2codim())
        if p == 3:
            return Estimate.of(body.quermass_exact_3codim())
    if j == 1:
        mw = mean_width(body, samples or DEFAULT_SPHERE_SAMPLES, seed)
        return mw.scaled(omega(n))
    count = samples or DEFAULT_FRAME_SAMPLES
    frames = grassmann_frames(n, j, count, seed.generator())
    vols, _ = frame_shadow_panel(body, frames, want_surface=False)
    return mc_estimate(vols).scaled(omega(n) / omega(j))


def q_k(body: Body, k: int, samples: int | None = None,
        seed: RngSeed = RngSeed()) -> Estimate:
    """Normalized mean shadow Q_k = (V_k/omega_n)^{1/k} (Q_1 = w, Q_n = vrad)."""
    n = body.dim
    if not 1 <= k <= n:
        raise ValueError(f"index {k} out of range for dimension {n}")
    vk = quermassintegral(body, n - k, samples, seed)
    return vk.scaled(1.0 / omega(n)).powered(1.0 / k)

