"""Quermassintegrals, mean width, and related size functionals.

Conventions for a convex body K in R^n:

* ``V_n = |K|``, ``V_{n-1} = S(K)/n``, ``V_0 = omega_n``.
* ``V_{n-p}`` here is the quermassintegral ``W_p``, the mixed volume of K
  with p copies of the unit ball; the intrinsic volume of index n-p is
  ``binom(n, p) * W_p / omega_p``.
* Kubota: ``V_j(K) = (omega_n/omega_j) * E_{F ~ G(n,j)} |P_F K|`` where the
  expectation is over Haar-random j-dimensional subspaces.
* The mean width ``w(K) = E h_K`` over unit directions is ``V_1/omega_n``,
  so ``quermassintegral(K, n-1)`` scaled by ``1/omega_n``; the Aleksandrov
  inequalities say ``vrad(K) = Q_n <= Q_{n-1} <= ... <= Q_1 = w(K)`` for
  ``Q_k(K) = (V_k(K)/omega_n)^{1/k}``.

Exact routes are used whenever the representation allows: every index for
generator bodies, and W_p at p <= 3 and p = n for vertex bodies (facet
areas, ridge angles and the normal cones of the (n-3)-faces).  The
remaining indices fall back to Monte Carlo over random subspaces.
"""

from __future__ import annotations

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


def _draws(samples: int | None, default: int, per_draw: int) -> int:
    """The draws a budget of ``samples`` (None: ``default``) buys."""
    draws = (default if samples is None else samples) // per_draw
    if draws < 2:
        raise ValueError(f"samples={samples} gives fewer than 2 Monte Carlo "
                         f"draws of {per_draw} sample(s) each: no error bar")
    return draws


def quermassintegral(body: Body, p: int, samples: int | None = None,
                     seed: RngSeed = RngSeed(), method: str = "auto") -> Estimate:
    """The p-th quermassintegral V_{n-p}(K), indexed by codimension p.

    V_{n-p} is the mixed volume of K with p copies of the unit ball, so
    p = 0 gives |K|, p = 1 gives S(K)/n, and p = n gives omega_n.  With
    ``method="auto"`` exact routes are used where the representation allows
    (every p for generator bodies; p in {0, 1, 2, 3, n} for vertex bodies) and
    the rest is Monte Carlo Kubota averaging over random (n-p)-subspaces.
    ``method="mc"`` forces the Kubota route for 1 <= p <= n-1, which is
    useful as a cross-check against the exact values.  ``samples`` is the
    Monte Carlo budget (None: the defaults); one that buys fewer than two
    draws (a width pair is one) raises ValueError.
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
        # omega_n times the mean width E h_K, from antithetic direction pairs
        pairs = _draws(samples, DEFAULT_SPHERE_SAMPLES, 2)
        dirs = sphere_points(n, pairs, seed.generator())
        return mc_estimate(body.width_batch(dirs) / 2.0).scaled(omega(n))
    count = _draws(samples, DEFAULT_FRAME_SAMPLES, 1)
    frames = grassmann_frames(n, j, count, seed.generator())
    vols, _ = frame_shadow_panel(body, frames, want_surface=False)
    return mc_estimate(vols).scaled(omega(n) / omega(j))

