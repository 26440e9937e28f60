"""The executable check catalog for shadow inequalities and identities.

Each catalog entry evaluates one inequality or identity about projections
(shadows) of convex bodies: both sides are computed with the geometry
modules, Monte Carlo sides carry standard errors, and the verdict uses
three-valued logic so that sampling noise near a tight bound reports
``inconclusive`` instead of a false failure.

The heavy lifting lives in :class:`BodyContext`, which caches per-body
panels (sphere directions, subspace frames, support values) so that checks
sharing a quantity also share its sample draw.  Check-specific randomness
is derived from (seed, check id, body name) so cells are independent of
evaluation order.
"""

from __future__ import annotations

import math
import traceback
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from . import positions
from .bodies import BodySpec
from .bodyops import (Body, frame_shadow_panel, is_zonotope, project_body,
                      to_polytope)
from .polytope import inradius
from .quermass import b_constant, omega, quermassintegral, vrad
from .sampling import (Estimate, RngSeed, grassmann_frames, mc_estimate,
                       minimize_on_grassmannian, minimize_on_sphere,
                       sphere_points)
from .zonotope import (CONVERSION_GENERATOR_CAP, SUBSET_BUDGET, Zonotope,
                       projection_body, zonotope_to_polytope)

# Panel and budget policy (tuned so the default corpus at n in {3,4,5}
# finishes in minutes while every Monte Carlo side keeps a sub-percent
# standard error).
SPHERE_PANEL_MAX = 20_000
KUBOTA_WIDTH_PAIRS = 200_000
ZONOTOPE_SHADOW_BUDGET = 4_000_000  # max (n-1)-subset evaluations for shadows
SNAP_SEED_ITERS = 50  # descent iterations that seed the Pi K facet walk
# Screen and polish of the vertex-body shadow quermassintegral minima: each
# objective row hulls one shadow.
SCREEN_DIRECTIONS = 128
POLISH_STEP0 = 0.25
POLISH_STEP_MIN = 2e-3
# Direction panels kept by _shared_directions (100 rows each for GHP).
SHARED_DIRECTIONS_CACHE = 64
# Live sub-cases whose relative margins lie within this of the least are
# tied, and the first of them in evaluation order binds the cell, so that
# roundoff does not pick among sub-cases equal in exact arithmetic.
BINDING_TIE = 1e-12
# The two relative allowances of le/ge sub-cases; every other sub-case
# resolves at tol 0.  ZON-VOL's polar volume is a Monte Carlo mean that reads
# the cube's equality case up to 0.3% high; ROADMAP item 7's exact |Pi* K|
# deletes this.
ZON_VOL_POLAR_TOL = 0.05
# BALL-EQ claims near-equality, on both sides of the bound: ball-approx is a
# polytope, not a zonoid.
BALL_EQ_TOL = 0.05


class SkipCheck(Exception):
    """Raised by an evaluator when a check does not apply to the body."""


class PositionCertificateError(RuntimeError):
    """A position solver finished without meeting its residual certificate."""


# ---------------------------------------------------------------------------
# result plumbing


@dataclass
class SubCase:
    """One inequality instance inside a check (a single p, k, position, ...)."""

    label: str
    lhs: Estimate
    rhs: Estimate
    direction: str  # "le" | "ge" | "eq"
    tol: float = 0.0  # relative; nonzero only for a named allowance
    sigmas: float = 3.0
    status: str = field(default="", init=False)
    margin: float = field(default=0.0, init=False)
    rel_margin: float = field(default=0.0, init=False)
    ratio: float = field(default=float("nan"), init=False)

    def resolve(self) -> None:
        lhs, rhs = self.lhs, self.rhs
        scale = max(abs(lhs.value), abs(rhs.value), 1e-300)
        if rhs.value != 0.0:
            self.ratio = lhs.value / rhs.value
        if self.direction == "eq":
            diff = abs(lhs.value - rhs.value)
            sd = math.hypot(lhs.stderr, rhs.stderr)
            bound = self.tol * scale + self.sigmas * sd
            self.margin = bound - diff
            self.status = "pass" if diff <= bound else "fail"
        else:
            if self.direction == "le":
                self.margin = rhs.value * (1.0 + self.tol) - lhs.value
                sd = math.hypot(lhs.stderr, rhs.stderr * (1.0 + self.tol))
            elif self.direction == "ge":
                self.margin = lhs.value - rhs.value * (1.0 - self.tol)
                sd = math.hypot(lhs.stderr, rhs.stderr * (1.0 - self.tol))
            else:
                raise ValueError(f"unknown direction {self.direction!r}")
            if sd == 0.0:
                self.status = "pass" if self.margin >= -1e-12 * scale else "fail"
            elif self.margin >= self.sigmas * sd:
                self.status = "pass"
            elif self.margin <= -self.sigmas * sd:
                self.status = "fail"
            else:
                self.status = "inconclusive"
        self.rel_margin = self.margin / scale

    def to_dict(self) -> dict:
        return {"label": self.label, "lhs": self.lhs.to_dict(),
                "rhs": self.rhs.to_dict(), "direction": self.direction,
                "tol": self.tol, "sigmas": self.sigmas, "status": self.status,
                "margin": self.margin, "ratio": self.ratio}


@dataclass(frozen=True)
class CheckSpec:
    """A catalog entry: an id, a one-line claim, and an evaluator."""

    id: str
    claim: str
    fn: Callable
    body_classes: tuple = ("any",)  # | ("zonoid",) | ("ball-approx",)

    def admissible(self, ctx: "BodyContext") -> bool:
        if "any" in self.body_classes:
            return True
        if "zonoid" in self.body_classes and ctx.is_zonoid:
            return True
        if "ball-approx" in self.body_classes and ctx.spec.kind == "ball-approx":
            return True
        return False


@dataclass
class CheckResult:
    id: str
    body: str
    n: int
    lhs: Estimate
    rhs: Estimate
    ratio: float
    status: str
    detail: dict

    def to_dict(self) -> dict:
        return {"id": self.id, "body": self.body, "n": self.n,
                "lhs": self.lhs.to_dict(), "rhs": self.rhs.to_dict(),
                "ratio": self.ratio, "status": self.status,
                "detail": self.detail}

    def csv_row(self) -> list:
        return [self.id, self.body, self.n, self.lhs.value, self.lhs.stderr,
                self.rhs.value, self.rhs.stderr, self.ratio, self.status]


# ---------------------------------------------------------------------------
# per-body evaluation context


@dataclass(frozen=True)
class SuiteConfig:
    samples: int = 20_000  # sphere-panel directions, at most SPHERE_PANEL_MAX
    seed: int = 0

    def __post_init__(self):
        if self.samples > SPHERE_PANEL_MAX:
            raise ValueError(f"samples must be at most {SPHERE_PANEL_MAX}, "
                             f"the largest sphere panel, not {self.samples}")


# residual certificates a position solve must meet before a positioned
# check is allowed to run on its output
_POSITION_CERT = {
    "min-surface": 1e-9,
    "isotropic": 1e-7,
    "john": 1e-9,
    "lowner": 1e-9,
    "min-width": 1e-9,  # edge-measure route; the sampled route has its flag
}


class BodyContext:
    """Caches per-body quantities shared between checks.

    A positioned child context (`positioned("john")` etc.) wraps the
    affinely repositioned body; its panels are keyed by the position label
    so parallel and serial runs see identical draws.  The catalog runs at
    n = 3, 4 and 5, where every mean and minimum has an exact or one-panel
    route (see `quermass`); other dimensions are refused before the body
    is built.
    """

    def __init__(self, spec: BodySpec, cfg: SuiteConfig, body: Body | None = None,
                 position: str | None = None, residual: float | None = None,
                 parent: "BodyContext | None" = None):
        if spec.dim not in (3, 4, 5):
            raise ValueError(f"the check catalog runs at n = 3, 4 or 5, "
                             f"not n = {spec.dim}")
        self.spec = spec
        self.cfg = cfg
        self.body = spec.build() if body is None else body
        self.n = self.body.dim
        self.position = position
        self.residual = residual
        self.parent = parent
        self.key = spec.name if position is None else f"{spec.name}@{position}"
        self._cache: dict = {}

    # -- randomness ---------------------------------------------------------

    def rng(self, *labels) -> RngSeed:
        return RngSeed(self.cfg.seed).derive(self.key, *labels)

    def _memo(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    # -- basic exact quantities ----------------------------------------------

    @property
    def is_zonoid(self) -> bool:
        return is_zonotope(self.body)

    def volume(self) -> float:
        return self._memo("volume", self.body.volume)

    def surface(self) -> float:
        return self._memo("surface", self.body.surface_area)

    def measure(self):
        return self._memo("measure", self.body.surface_measure)

    def inradius(self) -> float:
        def build():
            if self.is_zonoid:
                # a centered body's inscribed ball is centered: half the
                # least width, attained at a facet normal
                return float(self.body.width_batch(self.measure().normals).min()
                             / 2.0)
            return inradius(to_polytope(self.body))[0]
        return self._memo("inradius", build)

    # The cost heuristics read ridge_count and n_vertices of vertex bodies
    # only: a zonotope over the conversion cap has no vertex polytope.
    def n_vertices(self) -> int:
        return to_polytope(self.body).n_vertices

    def ridge_count(self) -> int:
        return to_polytope(self.body).ridges().volumes.size

    def partial(self) -> float:
        """Minimal surface quotient min_T S(TK)/|TK|^{(n-1)/n} (affine
        invariant), read from the certified min-surface solve."""
        if self.parent is not None:
            return self.parent.partial()
        return self.position_solve("min-surface")[1]["surface-quotient"]

    # -- shared panels --------------------------------------------------------
    #
    # Only root contexts draw sphere panels (CK-IDENT, ZON-VOL and the
    # facet snap's starts); positioned contexts read `quermass` alone.

    def sphere_panel(self) -> np.ndarray:
        def build():
            ridges = 0 if self.is_zonoid else self.ridge_count()
            count = (4096 if ridges > 20_000 else 8000 if ridges > 8_000
                     else self.cfg.samples)
            return sphere_points(self.n, count, self.rng("sphere-panel").generator())
        return self._memo("sphere_panel", build)

    def shadow_vols(self) -> np.ndarray:
        return self._memo("shadow_vols",
                          lambda: self.body.shadow_volumes(self.sphere_panel()))

    def shadow_surfs(self) -> np.ndarray:
        return self._memo("shadow_surfs",
                          lambda: self.body.shadow_surfaces(self.sphere_panel()))

    def _frame_panel_size(self) -> int:
        if self.is_zonoid:
            return 2500
        v = self.n_vertices()
        return 2500 if v <= 80 else (1200 if v <= 250 else 700)

    def frame_panel(self, k: int) -> np.ndarray:
        def build():
            count = self._frame_panel_size()
            rng = self.rng("frame-panel", k).generator()
            return grassmann_frames(self.n, k, count, rng)
        return self._memo(("frames", k), build)

    # -- means by Kubota's recursion -------------------------------------------
    #
    # Every mean over directions or subspaces is one quermassintegral of K:
    #     E_{F in G(n,k)} W_i(P_F K) = (omega_k/omega_n) W_{n-k+i}(K).
    # The mean k-frame shadow surface (i = 1) reads W_{n-k+1}, p_k (i = 0)
    # reads W_{n-k}, and the mean of V_j over hyperplane shadows (k = n-1,
    # i = p, j = n-1-p) reads W_{p+1} = V_j(K).  At n <= 5 `quermass` is
    # exact for zonoids and, for vertex bodies, at every p but one: p <= 3
    # (ridge angles and the normal cones of the (n-3)-faces) and p = n are
    # exact, and W_4 at n = 5, the mean width, is one antithetic panel of
    # KUBOTA_WIDTH_PAIRS width pairs.
    # CK-IDENT checks these identities, so it keeps its Monte Carlo sides.

    def quermass(self, p: int) -> Estimate:
        """W_p(K) = V_{n-p}(K), the one source of every mean (see above)."""
        def build():
            if p == self.n - 1:
                # the mean width, wherever it is not exact
                return quermassintegral(self.body, p,
                                        samples=2 * KUBOTA_WIDTH_PAIRS,
                                        seed=self.rng("kubota-v1"))
            return quermassintegral(self.body, p)
        return self._memo(("quermass", p), build)

    def mean_shadow_surface(self) -> Estimate:
        """E_xi S(P_xi K) = (n-1)(omega_{n-1}/omega_n) W_2(K), exact."""
        return self.mean_frame_surface(self.n - 1)

    def mean_frame_surface(self, k: int) -> Estimate:
        """E_F S(P_F K) over k-subspaces F = k (omega_k/omega_n) W_{n-k+1}(K)."""
        n = self.n
        return self.quermass(n - k + 1).scaled(k * omega(k) / omega(n))

    def shadow_quermass_mean(self, p: int) -> tuple[Estimate, str]:
        """(mean over directions of V_{n-1-p}(shadow), method note)."""
        n = self.n
        j = n - 1 - p
        if not 1 <= j <= n - 2:
            raise ValueError(f"shadow quermass index p={p} out of range")
        mean = self.quermass(p + 1).scaled(omega(n - 1) / omega(n))
        if mean.exact:
            return mean, f"Kubota recursion, exact W_{p + 1}(K)"
        return mean, f"Kubota recursion, {KUBOTA_WIDTH_PAIRS} width pairs"

    def min_shadow_surface(self) -> float:
        def build():
            restarts = (None if self.is_zonoid or self.ridge_count() <= 8000
                        else 12)
            _, value = minimize_on_sphere(
                self.body.shadow_surfaces, self.n, restarts=restarts,
                seed=self.rng("min-shadow-surface"), vectorized=True)
            return value
        return self._memo("min_shadow_surface", build)

    def min_shadow_volume(self) -> float:
        """min over directions of |P_{xi-perp} K|, the inradius of Pi K.

        A walk over the facet normals of Pi K sets the value
        (`_facet_snap`).  The objective h_{Pi K} is piecewise linear and its
        minimum sits at a facet normal of the zonotope Pi K, a kink where
        finite-difference steps stall short of the vertex.  A sphere descent
        capped at SNAP_SEED_ITERS iterations, without the polish, only
        seeds the walk: it starts from the descent's best point and from
        the 8n lowest directions of the sphere panel.  The walk is local:
        it stops at the first facet normal no neighbor improves, so it needs
        the descent's point as a start.  From the panel directions alone it
        stopped 0.18% high on `random-zonotope(8,4)` at n=5.  The walk only
        proposes directions: every value is Cauchy's formula on K, so
        MINPROJ's inradius of Pi K stays an independent route.
        """
        def build():
            x, value = minimize_on_sphere(
                self.body.shadow_volumes, self.n,
                seed=self.rng("min-shadow-volume"), vectorized=True,
                seed_iters=SNAP_SEED_ITERS)
            lowest = _lowest(self.shadow_vols(), 8 * self.n)
            starts = np.vstack([x, self.sphere_panel()[lowest]])
            return min(value, self._facet_snap(starts))
        return self._memo("min_shadow_volume", build)

    def _facet_snap(self, starts: np.ndarray) -> float:
        """Lowest shadow volume met walking facet normals of Pi K from starts.

        This walk sets `min_shadow_volume`; its starts only need to land
        near the right facet.  At a direction xi, the 2n+2 generators of
        Pi K most nearly orthogonal to xi span the facets around xi; the
        unit normals of their (n-1)-subsets are the candidates, and the
        walk moves to the lowest while the value drops.  A generator set
        met before is not expanded again, since its walk is already counted.
        """
        gens = self.projection_body_merged().generators
        units = gens / np.linalg.norm(gens, axis=1, keepdims=True)
        near = min(len(gens), 2 * self.n + 2)
        seen = set()
        best = math.inf
        for xi in starts:
            fx = math.inf
            while True:
                idx = np.sort(np.argsort(np.abs(units @ xi), kind="stable")[:near])
                if idx.tobytes() in seen:
                    break
                seen.add(idx.tobytes())
                atoms = Zonotope(gens[idx]).cross_atoms()
                lens = np.linalg.norm(atoms, axis=1)
                keep = lens > 1e-12 * lens.max()
                if not keep.any():
                    break
                normals = atoms[keep] / lens[keep, None]
                vals = self.body.shadow_volumes(normals)
                i = int(np.argmin(vals))
                if vals[i] >= fx:
                    break
                xi, fx = normals[i], float(vals[i])
            best = min(best, fx)
        return best

    def projection_body_merged(self) -> Zonotope:
        return self._memo("projection_body",
                          lambda: projection_body(self.body))

    # -- shadow quermassintegral minima ----------------------------------------
    #
    # V_j of the (n-1)-dimensional shadows, j = n-1-p.  Zonoid minima are
    # exact: V_j of a zonotope shadow is a constant times the subset-Gram
    # kernel `Zonotope.shadow_subset_volumes`.

    def min_shadow_quermass(self, p: int) -> tuple[float, str]:
        """min over directions of V_{n-1-p}(shadow), with a method note.

        Exact at j = n-2 and for zonoids.  A vertex body's value at xi is
        W_p of the hull of its vertices projected on an orthonormal basis
        of xi-perp, read by `quermassintegral` (exact at p <= 3, which
        covers every index at n <= 5), so each screened and polished
        direction is an exact shadow quermassintegral.
        """
        n = self.n
        j = n - 1 - p
        if j == n - 2:
            return self.min_shadow_surface() / (n - 1), "exact shadow surfaces"
        if self.is_zonoid:
            const = 2.0 ** j * omega(n - 1 - j) / math.comb(n - 1, j)

            def objective(dirs: np.ndarray) -> np.ndarray:
                return const * self.body.shadow_subset_volumes(dirs, j)

            _, value = minimize_on_sphere(
                objective, n, seed=self.rng("min-quermass", p), vectorized=True)
            return value, f"sphere minimum of the exact subset-Gram V_{j}"

        def objective(dirs: np.ndarray) -> np.ndarray:
            return np.array([quermassintegral(
                project_body(self.body, np.linalg.svd(xi[None])[2][1:]), p).value
                for xi in dirs])

        value = _screened_sphere_min(objective, n,
                                     self.rng("min-quermass", p).generator())
        return value, f"screened sphere minimum of the exact shadow-hull V_{j}"

    # -- positions ---------------------------------------------------------------

    def position_solve(self, kind: str) -> tuple:
        """`positions.solve` of ``kind``, memoized once its residual meets
        the certificate (else `PositionCertificateError`)."""
        def build():
            result, extras = positions.solve(kind, self.body,
                                             self.rng("min-width-position"))
            cert = _POSITION_CERT[kind]
            if result.route == positions.SAMPLED_ROUTE:
                # a panel estimate: checked against its own noise-aware flag
                if not result.converged:
                    raise PositionCertificateError(
                        f"min-width position did not converge for {self.key} "
                        f"(residual {result.residual:.3g})")
            elif not result.residual <= cert:  # NaN fails too
                raise PositionCertificateError(
                    f"{kind} position residual {result.residual:.3g} exceeds "
                    f"certificate {cert:.1g} for {self.key}")
            return result, extras
        return self._memo(("position-solve", kind), build)

    def positioned(self, kind: str) -> "BodyContext":
        def build():
            result = self.position_solve(kind)[0]
            child_body = result.apply(self.body)
            ctx = BodyContext(self.spec, self.cfg, body=child_body,
                              position=kind, residual=result.residual,
                              parent=self)
            ctx._cache["position_record"] = result.to_dict()
            return ctx
        return self._memo(("positioned", kind), build)

    def position_record(self) -> dict:
        """Solver provenance for a positioned context (empty at the root)."""
        return self._cache.get("position_record", {})

    def position_list(self, kinds: tuple[str, ...]) -> list[str]:
        """The subset of ``kinds`` applicable to this body: Löwner only for
        an origin-symmetric one."""
        return [kind for kind in kinds
                if kind != "lowner" or self.body.symmetric]


def _lowest(values: np.ndarray, k: int) -> np.ndarray:
    """np.argsort(values, kind="stable")[:k], ties in index order, without
    sorting the values above the k-th smallest."""
    kth = np.partition(values, k - 1)[k - 1]
    below = np.flatnonzero(values <= kth)
    return below[np.argsort(values[below], kind="stable")[:k]]


def _frame_shadows(body: Body, frames: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(volumes, surface areas) of the shadows P_F K over (B, k, n) frames.

    At 2 <= k = n-1 a vertex body reads Cauchy's formula and the ridge
    silhouette at each frame's unit normal, so no shadow is hulled; every
    other case is `frame_shadow_panel`.
    """
    k, n = frames.shape[1:]
    if 1 < k == n - 1 and not is_zonotope(body):
        xi = np.linalg.svd(frames)[2][:, -1]
        return body.shadow_volumes(xi), body.shadow_surfaces(xi)
    return frame_shadow_panel(body, frames)


def _screened_sphere_min(objective, n: int, gen: np.random.Generator) -> float:
    """Screen a batch objective on SCREEN_DIRECTIONS random directions, then
    pattern-polish the best one."""
    cands = sphere_points(n, SCREEN_DIRECTIONS, gen)
    vals = objective(cands)
    best = int(np.argmin(vals))
    return min(float(vals[best]), _polish_sphere(objective, cands[best]))


def _polish_sphere(objective, x0: np.ndarray) -> float:
    """Pattern search on the sphere from x0 (tangent +- basis probes).

    The rows e_i - x_i x of I - x x^T span the tangent space with one to
    spare; the shortest, at the largest |x_i|, is left out.  Near the axis
    e_i its length is the distance to e_i, so its probes would creep toward
    the axis a fraction `step` of the way per accepted move: hundreds of
    moves on the cube.
    """
    n = x0.size
    x = x0 / np.linalg.norm(x0)
    fx = float(objective(x[None])[0])
    step = POLISH_STEP0
    eye = np.eye(n)
    while step > POLISH_STEP_MIN:
        tangent = np.delete(eye - np.outer(x, x), np.argmax(np.abs(x)), axis=0)
        probes = np.vstack([x + step * tangent, x - step * tangent])
        probes /= np.linalg.norm(probes, axis=1, keepdims=True)
        vals = objective(probes)
        i = int(np.argmin(vals))
        if vals[i] < fx - 1e-15 * abs(fx):
            x, fx = probes[i], float(vals[i])
        else:
            step *= 0.5
    return fx


# ---------------------------------------------------------------------------
# evaluators
#
# Each evaluator returns (sub-cases, detail).  Constants live inline so a
# reader can match them against the claim strings in the catalog below.


@lru_cache(maxsize=SHARED_DIRECTIONS_CACHE)
def _shared_directions(n: int, count: int, seed: RngSeed) -> np.ndarray:
    """Read-only ``sphere_points(n, count, seed.generator())``."""
    dirs = sphere_points(n, count, seed.generator())
    dirs.flags.writeable = False
    return dirs


def _check_ghp(ctx: BodyContext):
    # The draw depends only on (n, seed), and the seed only on the run seed
    # and the body name, so contexts of one name share it.  A search scores
    # every step under one name (common random numbers): its steps reuse
    # one panel, which no caller can change.
    dirs = _shared_directions(ctx.n, 100, ctx.rng("GHP"))
    quotients = ctx.body.shadow_surfaces(dirs) / ctx.body.shadow_volumes(dirs)
    worst = int(np.argmax(quotients))
    lhs = Estimate.of(quotients[worst])
    n = ctx.n
    rhs = Estimate.of(2.0 * (n - 1) / n * ctx.surface() / ctx.volume())
    sub = SubCase("worst of 100 directions", lhs, rhs, "le")
    detail = {"quotient_min": float(quotients.min()),
              "quotient_max": float(quotients.max()),
              "directions": 100}
    return [sub], detail


def _check_t_hyper_1(ctx: BodyContext):
    n = ctx.n
    lhs = Estimate.of(ctx.volume() ** (1.0 / n) * ctx.min_shadow_surface())
    factor = (2.0 * b_constant(n) * ctx.partial()
              / (n * omega(n) ** (1.0 / n)))
    rhs = Estimate.of(factor * ctx.surface())
    detail = {"min_surface_quotient": ctx.partial(), "constant_factor": factor}
    return [SubCase("min shadow surface", lhs, rhs, "le")], detail


def _check_t_lower_min(ctx: BodyContext):
    n = ctx.n
    child = ctx.positioned("min-surface")
    vol, surf = child.volume(), child.surface()
    quotient = surf / vol ** ((n - 1.0) / n)
    lhs = Estimate.of(vol ** (1.0 / n) * child.min_shadow_surface())
    const = ((n - 1) * omega(n) ** (1.0 / (n - 1))
             / (4.0 * n ** ((n - 2.0) / (n - 1)) * quotient ** (1.0 / (n - 1))))
    rhs = Estimate.of(const * surf)
    sub = SubCase("at the minimal-surface fixed point", lhs, rhs, "ge")
    detail = {"surface_quotient": quotient,
              "position": child.position_record()}
    return [sub], detail


def _check_t_hyper_2(ctx: BodyContext):
    n = ctx.n
    lhs = Estimate.of(ctx.volume() ** (1.0 / n) * ctx.min_shadow_surface())
    surf = ctx.surface()
    subs = [
        SubCase("sharp form", lhs, Estimate.of(b_constant(n) * surf), "le"),
        SubCase("doubled form", lhs, Estimate.of(2.0 * b_constant(n) * surf),
                "le"),
    ]
    detail = {"equality_gap": 1.0 - lhs.value / (b_constant(n) * surf)}
    return subs, detail


def _check_t_hyper_3(ctx: BodyContext):
    n = ctx.n
    lhs = ctx.mean_shadow_surface().scaled(ctx.volume())
    const = 2.0 * b_constant(n) / (n * omega(n) ** (1.0 / n))
    rhs = Estimate.of(const * ctx.surface() ** 2)
    return [SubCase("mean shadow surface", lhs, rhs, "le")], {}


_UPPER_POSITIONS = ("min-surface", "isotropic", "john", "lowner")
_LOWER_POSITIONS = ("min-surface", "min-width", "isotropic", "john", "lowner")


def _at_positions(ctx: BodyContext, kinds: tuple[str, ...], evaluate):
    """The sub-cases of ``evaluate(child) -> (sub-cases, constants)`` at each
    applicable position, labelled by the position and any index (k=..., p=...);
    the constants and the solver record go to ``detail.positions.<kind>``."""
    subs, reported = [], {}
    for kind in ctx.position_list(kinds):
        child = ctx.positioned(kind)
        child_subs, constants = evaluate(child)
        for sub in child_subs:
            sub.label = f"{kind}, {sub.label}" if "=" in sub.label else kind
        subs += child_subs
        reported[kind] = {**constants, "position": child.position_record()}
    return subs, {"positions": reported}


# T-HYPER-4, T-HYPER-6 and T-HIGHER-7 bound a positioned body by a constant
# measured on it (c0 or the width-condition constant) that cancels against
# its volume and surface, so each runs its base check on the positioned body.

def _check_t_hyper_4(ctx: BodyContext):
    n = ctx.n

    def evaluate(child: BodyContext):
        vol, surf = child.volume(), child.surface()
        lhs = child.mean_shadow_surface().value * vol ** (1.0 / n)
        return _check_t_hyper_3(child)[0], {
            "c2": lhs / (math.sqrt(n) * surf),
            "surface_constant_c0": surf / (n * vol ** ((n - 1.0) / n))}
    return _at_positions(ctx, _UPPER_POSITIONS, evaluate)


def _check_t_hyper_5(ctx: BodyContext):
    n = ctx.n
    lhs = ctx.mean_shadow_surface()
    const = (n - 1) * omega(n - 1) / (n * omega(n)) ** ((n - 2.0) / (n - 1))
    rhs = Estimate.of(const * ctx.surface() ** ((n - 2.0) / (n - 1)))
    return [SubCase("mean shadow surface", lhs, rhs, "ge")], {}


def _check_t_hyper_6(ctx: BodyContext):
    n = ctx.n

    def evaluate(child: BodyContext):
        vol, surf = child.volume(), child.surface()
        lhs = child.mean_shadow_surface().value * vol ** (1.0 / n)
        cw = surf ** (1.0 / (n - 1)) / vol ** (1.0 / n)
        return _check_t_hyper_5(child)[0], {"c5": lhs / surf,
                                            "width_condition_constant": cw}
    return _at_positions(ctx, _LOWER_POSITIONS, evaluate)


def _check_l_zon_1(ctx: BodyContext):
    n = ctx.n
    lhs = Estimate.of(ctx.min_shadow_volume())
    rhs = Estimate.of(n * b_constant(n) / (n - 1)
                      * ctx.volume() ** ((n - 1.0) / n))
    return [SubCase("min shadow volume", lhs, rhs, "le")], {}


def _check_t_zon_2(ctx: BodyContext):
    n = ctx.n
    body = ctx.body
    subs, methods = [], {}
    for k in range(2, n):
        if k == n - 1:
            # hyperplane shadows: the quantity and bound of L-ZON-1
            value = ctx.min_shadow_volume()
            methods[f"k={k}"] = "sphere minimum shared with L-ZON-1"
        else:
            _, value = minimize_on_grassmannian(
                body.frame_shadow_volumes, n, k,
                seed=ctx.rng("min-frame-volume", k), vectorized=True)
            methods[f"k={k}"] = f"Grassmann minimizer, d = {k * n}"
        lhs = Estimate.of(value)
        rhs = Estimate.of(n * b_constant(n) ** (n - k) / k
                          * ctx.volume() ** (k / n))
        subs.append(SubCase(f"k={k}", lhs, rhs, "le"))
    return subs, {"methods": methods}


def _check_zon_vol(ctx: BodyContext):
    n = ctx.n
    vol = ctx.volume()
    zone = ctx.projection_body_merged()
    part = ctx.partial()
    subs = []
    m = zone.n_generators
    if math.comb(m, n) <= SUBSET_BUDGET:
        # the volume-one copy: |Pi(tK)| = t^{n(n-1)} |Pi K| with t^n = 1/|K|
        pivol = Estimate.of(zone.volume() * vol ** (1 - n))
        subs.append(SubCase("projection body volume, lower",
                            Estimate.of((part / n) ** n), pivol, "le"))
        upper = omega(n) * (omega(n - 1) * part / (n * omega(n))) ** n
        subs.append(SubCase("projection body volume, upper",
                            pivol, Estimate.of(upper), "le"))
        budget_note = None
    else:
        budget_note = (f"projection body has {m} generators; exact volume "
                       f"skipped (budget {SUBSET_BUDGET} subsets)")
    # polar volume |Pi* K| = omega_n E[h^{-n}] over the shared panel
    shadows = ctx.shadow_vols() * vol ** (-(n - 1.0) / n)
    polar = mc_estimate(omega(n) * shadows ** (-float(n)))
    lower = omega(n) * (n * omega(n) / (omega(n - 1) * part)) ** n
    upper = 4.0 ** n * n ** n / (math.factorial(n) * part ** n)
    subs.append(SubCase("polar projection body volume, lower",
                        Estimate.of(lower), polar, "le",
                        tol=ZON_VOL_POLAR_TOL))
    subs.append(SubCase("polar projection body volume, upper",
                        polar, Estimate.of(upper), "le",
                        tol=ZON_VOL_POLAR_TOL))
    detail = {"min_surface_quotient": part, "generators": m}
    if budget_note:
        detail["note"] = budget_note
    return subs, detail


def _check_minproj(ctx: BodyContext):
    n = ctx.n
    zone = ctx.projection_body_merged()
    if zone.n_generators > CONVERSION_GENERATOR_CAP:
        raise SkipCheck(
            f"projection body has {zone.n_generators} generators after "
            "merging; the exact inradius route is reserved for <= "
            f"{CONVERSION_GENERATOR_CAP}")
    min_shadow = ctx.min_shadow_volume()
    reported_c = min_shadow / (math.sqrt(n) * ctx.volume() ** ((n - 1.0) / n))
    detail = {"sqrt_n_constant": reported_c}
    r_exact, _ = inradius(zonotope_to_polytope(zone))
    sub = SubCase("sphere minimum vs projection body inradius",
                  Estimate.of(min_shadow), Estimate.of(r_exact), "eq",
                  tol=1e-6, sigmas=0.0)
    detail["projection_body_inradius"] = r_exact
    return [sub], detail


def _check_alek(ctx: BodyContext):
    n = ctx.n
    q_values = {k: ctx.quermass(n - k).scaled(1.0 / omega(n)).powered(1.0 / k)
                for k in range(1, n)}
    # Q_1 = W_{n-1}/omega_n is the mean width by definition, so it is
    # reported as such and not compared with itself; CK-IDENT checks the
    # identity on an independent Monte Carlo route.
    subs = []
    for k in range(1, n - 1):
        subs.append(SubCase(f"Q_{k} >= Q_{k + 1}", q_values[k],
                            q_values[k + 1], "ge"))
    subs.append(SubCase(f"Q_{n - 1} >= vrad", q_values[n - 1],
                        Estimate.of(vrad(ctx.body)), "ge"))
    detail = {"chain": {f"Q_{k}": q.value for k, q in sorted(q_values.items())},
              "vrad": vrad(ctx.body), "mean_width": q_values[1].value}
    return subs, detail


def _check_s_inradius(ctx: BodyContext):
    lhs = Estimate.of(ctx.surface())
    rhs = Estimate.of(ctx.n * ctx.volume() / ctx.inradius())
    return [SubCase("surface vs volume over inradius", lhs, rhs, "le")], {}


def _check_t_quer_1(ctx: BodyContext):
    n = ctx.n
    vol = ctx.volume()
    part = ctx.partial()
    subs, methods = [], {}
    for p in range(1, n - 1):
        min_val, method = ctx.min_shadow_quermass(p)
        lhs = Estimate.of(vol ** (1.0 / n) * min_val)
        vnp = ctx.quermass(p)
        const = (p + 1) * omega(n - 1) * part / (n * omega(n))
        subs.append(SubCase(f"p={p}", lhs, vnp.scaled(const), "le"))
        if ctx.is_zonoid:
            subs.append(SubCase(f"p={p}, zonoid constant", lhs,
                                vnp.scaled((p + 1) * b_constant(n)), "le"))
        methods[f"p={p}"] = method
    return subs, {"methods": methods, "min_surface_quotient": part}


def _check_t_quer_2(ctx: BodyContext):
    n = ctx.n
    vol, surf = ctx.volume(), ctx.surface()
    subs, methods = [], {}
    for p in range(1, n - 1):
        mean, method = ctx.shadow_quermass_mean(p)
        lhs = mean.scaled(vol ** (1.0 / n))
        const = ((p + 1) * omega(n - 1) / (n * omega(n))
                 * surf / vol ** ((n - 1.0) / n))
        subs.append(SubCase(f"p={p}", lhs, ctx.quermass(p).scaled(const),
                            "le"))
        methods[f"p={p}"] = method
    return subs, {"methods": methods}


def _check_t_quer_3(ctx: BodyContext):
    n = ctx.n
    subs, methods = [], {}
    for p in range(1, n - 1):
        mean, method = ctx.shadow_quermass_mean(p)
        expo = (n - 1.0 - p) / (n - p)
        rhs = ctx.quermass(p).powered(expo).scaled(omega(n - 1) / omega(n) ** expo)
        subs.append(SubCase(f"p={p}", mean, rhs, "ge"))
        # the mean is (omega_{n-1}/omega_n) V_{n-1-p}(K) by Kubota, so this
        # sub-case divided by omega_{n-1} reads Q_{n-1-p}(K) >= Q_{n-p}(K)
        methods[f"p={p}"] = (f"{method}; Aleksandrov inequality "
                             f"Q_{n - 1 - p}(K) >= Q_{n - p}(K)")
    return subs, {"methods": methods}


def _check_t_quer_4(ctx: BodyContext):
    # the inradius constant c0 does not cancel, so this check keeps its
    # own arithmetic
    n = ctx.n

    def evaluate(child: BodyContext):
        vol = child.volume()
        c0 = child.inradius() / vol ** (1.0 / n)
        subs, reported = [], {"inradius_constant_c0": c0}
        for p in range(1, n - 1):
            mean, method = child.shadow_quermass_mean(p)
            lhs = mean.scaled(vol ** (1.0 / n))
            expo = (n - 1.0 - p) / (n - p)
            const = omega(n - 1) * c0 ** (p / (n - p)) / omega(n) ** expo
            rhs = child.quermass(p).scaled(const)
            subs.append(SubCase(f"p={p}", lhs, rhs, "ge"))
            reported[f"p={p}"] = method
        return subs, reported
    return _at_positions(ctx, _UPPER_POSITIONS, evaluate)


def _check_fgm(ctx: BodyContext):
    n = ctx.n
    vol = ctx.volume()
    subs = []
    for k in range(1, n):
        frames = grassmann_frames(n, k, 50, ctx.rng("FGM", k).generator())
        # Zonotope shadows (k >= 2) are zonotopes, exact at every index.
        # A vertex body's shadow volumes and surfaces come from
        # `_frame_shadows`, and V_j at 1 <= j <= k-2 (k >= 3) from the hull
        # of each frame's projected vertices.
        zonoid = ctx.is_zonoid and k > 1
        if zonoid or k > 2:
            shadows = [project_body(ctx.body, f) for f in frames]
        if zonoid:
            vols = np.array([s.volume() for s in shadows])
        else:
            vols, surfs = _frame_shadows(ctx.body, frames)
        # at p = 0 both sides are 1 (|K|/|K| and |P_F K|/|P_F K|), so the
        # bound holds by construction and is not compared with itself
        for p in range(1, k + 1):
            j = k - p
            if j == 0:
                sides = [Estimate.of(omega(k))] * len(frames)
            elif j == k - 1 and not zonoid:
                sides = [Estimate.of(s / k) for s in surfs]
            else:
                # exact: a zonotope shadow at every p, a hull at p <= 3
                sides = [quermassintegral(s, p) for s in shadows]
            best = max((side.scaled(1.0 / v) for side, v in zip(sides, vols)),
                       key=lambda q: q.value)
            lhs = ctx.quermass(p).scaled(1.0 / vol)
            rhs = best.scaled(1.0 / math.comb(n - k + p, n - k))
            subs.append(SubCase(f"k={k}, p={p}", lhs, rhs, "ge"))
    return subs, {"frames_per_subspace_dim": 50}


def _check_l_higher_1(ctx: BodyContext):
    n = ctx.n
    lhs = Estimate.of(ctx.surface() / ctx.volume())
    subs = []
    for k in range(1, n):
        frames = grassmann_frames(n, k, 50, ctx.rng("L-HIGHER-1", k).generator())
        vols, surfs = _frame_shadows(ctx.body, frames)
        quotients = surfs / vols
        worst = float(quotients.max())
        rhs = Estimate.of(n / (k * (n - k + 1.0)) * worst)
        subs.append(SubCase(f"k={k}", lhs, rhs, "ge"))
    return subs, {"frames_per_subspace_dim": 50}


def _check_t_higher_2(ctx: BodyContext):
    n = ctx.n
    body = ctx.body
    surf = ctx.surface()
    vol = ctx.volume()
    subs, methods = [], {}
    for k in range(1, n):
        if k == 1:
            value = 2.0
            methods[f"k={k}"] = "exact: a segment's boundary is two points"
        elif k == n - 1:
            # hyperplane shadows: T-HYPER-2's quantity, its doubled form
            value = ctx.min_shadow_surface()
            methods[f"k={k}"] = "sphere minimum shared with T-HYPER-2"
        else:
            _, value = minimize_on_grassmannian(
                body.frame_shadow_surfaces, n, k,
                seed=ctx.rng("min-frame-surface", k), vectorized=True)
            methods[f"k={k}"] = f"Grassmann minimizer, d = {k * n}"
        lhs = Estimate.of(vol ** ((n - k) / n) * value)
        rhs = Estimate.of((n - k + 1.0) * b_constant(n) ** (n - k) * surf)
        subs.append(SubCase(f"k={k}", lhs, rhs, "le"))
    return subs, {"methods": methods}


def _check_t_higher_5(ctx: BodyContext):
    n = ctx.n
    vol, surf = ctx.volume(), ctx.surface()
    subs = []
    for k in range(1, n):
        lhs = ctx.mean_frame_surface(k).scaled(vol ** ((n - k) / n))
        # p_k = E_F |P_F K| / |K|^{k/n} = (omega_k/omega_n) W_{n-k}(K) / |K|^{k/n}
        pk = ctx.quermass(n - k).scaled(omega(k) / omega(n) * vol ** (-k / n))
        rhs = pk.scaled(k * (n - k + 1.0) / n * surf)
        subs.append(SubCase(f"k={k}", lhs, rhs, "le"))
    return subs, {}


def _check_t_higher_6(ctx: BodyContext):
    n = ctx.n
    surf = ctx.surface()
    subs = []
    # at k = 1 every shadow is a segment with 2 boundary points and the rhs
    # is 1·ω_1·S(K)^0 = 2, so the bound holds with equality by construction
    # and is not compared with itself
    for k in range(2, n):
        lhs = ctx.mean_frame_surface(k)
        const = k * omega(k) / (n * omega(n)) ** ((k - 1.0) / (n - 1))
        rhs = Estimate.of(const * surf ** ((k - 1.0) / (n - 1)))
        subs.append(SubCase(f"k={k}", lhs, rhs, "ge"))
    return subs, {}


def _check_t_higher_7(ctx: BodyContext):
    n = ctx.n

    def evaluate(child: BodyContext):
        c0 = child.surface() / (n * child.volume() ** ((n - 1.0) / n))
        return _check_t_higher_6(child)[0], {"surface_constant_c0": c0}
    return _at_positions(ctx, _UPPER_POSITIONS, evaluate)


def _check_zon_vol_id(ctx: BodyContext):
    n = ctx.n
    meas = ctx.measure()
    zone = ctx.projection_body_merged()
    m = zone.n_generators
    if math.comb(m, n) > SUBSET_BUDGET:
        raise SkipCheck(f"projection body has {m} generators; exact volume "
                        "over budget")
    if math.comb(m, n - 1) * meas.normals.shape[0] > ZONOTOPE_SHADOW_BUDGET:
        raise SkipCheck(f"{meas.normals.shape[0]} facet shadows of a "
                        f"{m}-generator projection body over budget")
    exact = zone.volume()
    recomposed = float(meas.weights @ zone.shadow_volumes(meas.normals)) / n
    sub = SubCase("zonoid volume recomposition", Estimate.of(recomposed),
                  Estimate.of(exact), "eq", tol=1e-8, sigmas=0.0)
    return [sub], {"generators": m, "facets": int(meas.normals.shape[0])}


def _check_ck_ident(ctx: BodyContext):
    # These identities are the recursion every mean reads from `quermass`,
    # so both sides stay Monte Carlo panels of the body itself.
    n = ctx.n
    surf = Estimate.of(ctx.surface())
    mean_shadow = mc_estimate(ctx.shadow_vols())
    kubota = mean_shadow.scaled(n * omega(n) / omega(n - 1))
    subs = [SubCase("surface from mean shadow volume", kubota, surf, "eq",
                    sigmas=4.0)]
    mean_surface = mc_estimate(ctx.shadow_surfs())
    if n == 3:
        half = ctx.cfg.samples // 2
        dirs = sphere_points(n, half, ctx.rng("width-panel").generator())
        lower = mc_estimate(ctx.body.width_batch(dirs))
    else:
        vols, _ = frame_shadow_panel(ctx.body, ctx.frame_panel(n - 2),
                                     want_surface=False)
        lower = mc_estimate(vols)
    fubini = lower.scaled((n - 1.0) * omega(n - 1) / omega(n - 2))
    subs.append(SubCase("mean shadow surface from codimension-2 shadows",
                        mean_surface, fubini, "eq", sigmas=4.0))
    return subs, {}


def _check_ball_eq(ctx: BodyContext):
    n = ctx.n
    lhs = Estimate.of(ctx.volume() ** (1.0 / n) * ctx.min_shadow_surface())
    rhs = Estimate.of(b_constant(n) * ctx.surface())
    subs = [SubCase("sharp zonoid bound at a ball approximant", lhs, rhs,
                    "le", tol=BALL_EQ_TOL),
            SubCase("sharp zonoid bound nearly attained at a ball approximant",
                    lhs, rhs, "ge", tol=BALL_EQ_TOL)]
    detail = {"equality_gap": 1.0 - lhs.value / rhs.value}
    return subs, detail


# ---------------------------------------------------------------------------
# catalog


CHECKS: list[CheckSpec] = [
    CheckSpec("GHP",
              "shadow surface/volume quotient <= 2(n-1)/n times the body's "
              "quotient, at 100 random directions",
              _check_ghp),
    CheckSpec("T-HYPER-1",
              "|K|^{1/n} min shadow surface <= (2 b_n d_K / (n w_n^{1/n})) S(K)",
              _check_t_hyper_1),
    CheckSpec("T-LOWER-MIN",
              "at the minimal-surface position, |K|^{1/n} min shadow surface >= "
              "((n-1) w_n^{1/(n-1)} / (4 n^{(n-2)/(n-1)} d_K^{1/(n-1)})) S(K)",
              _check_t_lower_min),
    CheckSpec("T-HYPER-2",
              "zonoids: |Z|^{1/n} min shadow surface <= b_n S(Z) (sharp) and "
              "<= 2 b_n S(Z)",
              _check_t_hyper_2, body_classes=("zonoid",)),
    CheckSpec("T-HYPER-3",
              "|K| mean shadow surface <= (2 b_n / (n w_n^{1/n})) S(K)^2",
              _check_t_hyper_3),
    CheckSpec("T-HYPER-4",
              "T-HYPER-3 at each classical position; c2 and c0 reported",
              _check_t_hyper_4),
    CheckSpec("T-HYPER-5",
              "mean shadow surface >= ((n-1) w_{n-1} / (n w_n)^{(n-2)/(n-1)}) "
              "S(K)^{(n-2)/(n-1)}",
              _check_t_hyper_5),
    CheckSpec("T-HYPER-6",
              "T-HYPER-5 at each classical position; c5 and the "
              "width-condition constant reported",
              _check_t_hyper_6),
    CheckSpec("L-ZON-1",
              "zonoids: min shadow volume <= (n b_n / (n-1)) |Z|^{(n-1)/n}",
              _check_l_zon_1, body_classes=("zonoid",)),
    CheckSpec("T-ZON-2",
              "zonoids: min k-frame shadow volume <= (n b_n^{n-k} / k) |Z|^{k/n} "
              "for 2 <= k <= n-1",
              _check_t_zon_2, body_classes=("zonoid",)),
    CheckSpec("ZON-VOL",
              "volume-one bodies: two-sided bounds on the projection body volume "
              "and its polar in terms of the minimal surface quotient",
              _check_zon_vol),
    CheckSpec("MINPROJ",
              "min shadow volume equals the projection body inradius (within "
              "1e-6), and the sqrt(n)-normalized constant is reported",
              _check_minproj),
    CheckSpec("ALEK",
              "the normalized mean-shadow sequence Q_k is non-increasing and "
              "bracketed by the volume radius and the mean width",
              _check_alek),
    CheckSpec("S-INRADIUS",
              "S(K) <= n |K| / r(K)",
              _check_s_inradius),
    CheckSpec("T-QUER-1",
              "|K|^{1/n} min shadow quermassintegral <= ((p+1) w_{n-1} d_K / "
              "(n w_n)) V_{n-p}(K), plus the (p+1) b_n zonoid variant",
              _check_t_quer_1),
    CheckSpec("T-QUER-2",
              "|K|^{1/n} mean shadow quermassintegral <= ((p+1) w_{n-1} / "
              "(n w_n)) (S(K)/|K|^{(n-1)/n}) V_{n-p}(K)",
              _check_t_quer_2),
    CheckSpec("T-QUER-3",
              "mean shadow quermassintegral >= (w_{n-1} / w_n^{(n-1-p)/(n-p)}) "
              "V_{n-p}(K)^{(n-1-p)/(n-p)}",
              _check_t_quer_3),
    CheckSpec("T-QUER-4",
              "positioned bodies: mean shadow quermassintegral lower bound with "
              "the measured inradius constant c0",
              _check_t_quer_4),
    CheckSpec("FGM",
              "V_{n-p}(K)/|K| >= (1/C(n-k+p, n-k)) V_{k-p}(shadow)/|shadow| at "
              "50 random k-frames, 1 <= p <= k",
              _check_fgm),
    CheckSpec("L-HIGHER-1",
              "S(K)/|K| >= (n/(k(n-k+1))) S(shadow)/|shadow| at 50 random "
              "k-frames",
              _check_l_higher_1),
    CheckSpec("T-HIGHER-2",
              "zonoids: |Z|^{(n-k)/n} min k-frame shadow surface <= "
              "(n-k+1) b_n^{n-k} S(Z)",
              _check_t_higher_2, body_classes=("zonoid",)),
    CheckSpec("T-HIGHER-5",
              "|K|^{(n-k)/n} mean k-frame shadow surface <= (k(n-k+1)/n) S(K) "
              "p_k(K)",
              _check_t_higher_5),
    CheckSpec("T-HIGHER-6",
              "mean k-frame shadow surface >= (k w_k / (n w_n)^{(k-1)/(n-1)}) "
              "S(K)^{(k-1)/(n-1)}",
              _check_t_higher_6),
    CheckSpec("T-HIGHER-7",
              "T-HIGHER-6 at each classical position; c0 reported",
              _check_t_higher_7),
    CheckSpec("ZON-VOL-ID",
              "the projection body volume equals its facet-shadow recomposition "
              "(1/n) sum a_i |shadow_i|",
              _check_zon_vol_id),
    CheckSpec("CK-IDENT",
              "surface area from mean shadow volumes, and mean shadow surface "
              "from codimension-2 shadow volumes (two averaging identities)",
              _check_ck_ident),
    CheckSpec("BALL-EQ",
              "near-equality of the sharp zonoid bound on ball approximants",
              _check_ball_eq, body_classes=("ball-approx",)),
]

CHECK_MAP = {spec.id: spec for spec in CHECKS}
CHECK_IDS = [spec.id for spec in CHECKS]


# ---------------------------------------------------------------------------
# runner


def _aggregate(subs: list[SubCase]) -> str:
    statuses = [s.status for s in subs]
    if any(s == "fail" for s in statuses):
        return "fail"
    if any(s == "inconclusive" for s in statuses):
        return "inconclusive"
    if statuses and all(s == "skipped" for s in statuses):
        return "skipped"
    return "pass"


def run_check(spec: CheckSpec, ctx: BodyContext) -> CheckResult:
    """Evaluate one catalog check on one body."""
    blank = Estimate.of(float("nan"))
    if not spec.admissible(ctx):
        return CheckResult(spec.id, ctx.spec.name, ctx.n, blank, blank,
                           float("nan"), "skipped",
                           {"reason": f"body class outside "
                                      f"{'/'.join(spec.body_classes)}"})
    try:
        subs, detail = spec.fn(ctx)
    except SkipCheck as exc:
        return CheckResult(spec.id, ctx.spec.name, ctx.n, blank, blank,
                           float("nan"), "skipped", {"reason": str(exc)})
    except Exception as exc:  # captured per the harness contract
        tb = traceback.format_exc(limit=3)
        return CheckResult(spec.id, ctx.spec.name, ctx.n, blank, blank,
                           float("nan"), "error",
                           {"error": f"{type(exc).__name__}: {exc}",
                            "traceback": tb})
    for sub in subs:
        sub.resolve()
    status = _aggregate(subs)
    live = [s for s in subs if s.status != "skipped"]
    binding = subs[0]
    if live:
        least = min(s.rel_margin for s in live)
        binding = next(s for s in live if s.rel_margin <= least + BINDING_TIE)
    detail = dict(detail)
    detail["cases"] = [s.to_dict() for s in subs]
    detail["binding_case"] = binding.label
    return CheckResult(spec.id, ctx.spec.name, ctx.n, binding.lhs, binding.rhs,
                       binding.ratio, status, detail)
