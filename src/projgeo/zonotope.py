"""Zonotopes: Minkowski sums of segments, and projection bodies.

A zonotope with center c and generators g_1..g_m is
Z = c + Σ_i [-g_i, g_i].  Everything about Z reduces to subset sums over the
generators:

  * volume        |Z| = 2^n Σ_{|J|=n}   |det G_J|
  * surface area  S(Z) = 2^n Σ_{|J|=n-1} vol_{n-1}(para G_J)
  * quermassintegrals
        V_{n-j}(Z) = 2^{n-j} ω_j / C(n,j) · Σ_{|J|=n-j} vol_{n-j}(para G_J)
  * hyperplane shadows: with c_J the generalized cross product of the rows
    of G_J (|J| = n-1),
        |P_{ξ⊥}Z|  = 2^{n-1} Σ_J |⟨c_J, ξ⟩|
        V_j(P_{ξ⊥}Z) = 2^j ω_{n-1-j} / C(n-1,j) · Σ_{|J|=j} vol_j(P_{ξ⊥} G_J),
    the latter via the rank-one Gram update det(A_J)(1 - b_Jᵀ A_J^{-1} b_J);
    j = n-2 gives S(P_{ξ⊥}Z) = 2^{n-1} Σ_{|J|=n-2} vol_{n-2}(P_{ξ⊥} G_J).

Subset enumerations are budgeted; the polytope conversion keeps the stricter
m <= 12 generator cap from its contract.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from .polytope import (SYMMETRY_TOL, BudgetError, Polytope,
                       SurfaceAreaMeasure, by_row_blocks)

__all__ = [
    "Zonotope",
    "omega",
    "projection_body",
    "zonotope_to_polytope",
]

SUBSET_BUDGET = 300_000  # max subsets any enumeration may visit
CONVERSION_GENERATOR_CAP = 12  # max generators of the vertex conversion
_PARALLEL_TOL = 1e-10


@lru_cache(maxsize=256)
def _subsets(m: int, k: int) -> np.ndarray:
    if k == 0:
        return np.empty((1, 0), dtype=int)
    return np.array(list(itertools.combinations(range(m), k)), dtype=int)


def _check_budget(m: int, k: int, what: str) -> None:
    if math.comb(m, k) > SUBSET_BUDGET:
        raise BudgetError(
            f"{what}: C({m},{k}) subsets exceed the enumeration budget"
        )


def omega(k: int) -> float:
    """Volume of the k-dimensional Euclidean unit ball (omega_0 = 1)."""
    if k < 0:
        raise ValueError("dimension must be nonnegative")
    return math.pi ** (k / 2.0) / math.gamma(k / 2.0 + 1.0)


class Zonotope:
    """Zonotope c + Σ_i [-g_i, g_i] with generators as rows of a matrix."""

    def __init__(self, generators, center=None):
        g = np.ascontiguousarray(generators, dtype=float)
        if g.ndim != 2:
            raise ValueError("generators must be an (m, n) array")
        m, n = g.shape
        if n < 2:
            raise ValueError("ambient dimension must be >= 2")
        if m < 1:
            raise ValueError("need at least one generator")
        if not np.all(np.isfinite(g)):
            raise ValueError("generators contain non-finite values")
        lens = np.linalg.norm(g, axis=1)
        if np.any(lens == 0.0):
            raise ValueError("zero generator")
        self.generators: np.ndarray = g
        self.center: np.ndarray = (
            np.zeros(n) if center is None else np.asarray(center, dtype=float)
        )
        if self.center.shape != (n,):
            raise ValueError("center dimension mismatch")
        self.dim: int = n
        self._atoms: np.ndarray | None = None
        self._grams: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._polytope: Polytope | None = None

    # -- canonicalization ----------------------------------------------------

    @property
    def n_generators(self) -> int:
        return self.generators.shape[0]

    def merge_parallel(self) -> "Zonotope":
        """Combine (anti)parallel generators: lengths add along one direction."""
        g = self.generators
        lens = np.linalg.norm(g, axis=1)
        units = g / lens[:, None]
        taken = np.zeros(len(g), dtype=bool)
        merged = []
        for i in range(len(g)):
            if taken[i]:
                continue
            cos = units[i + 1:] @ units[i]
            group = np.flatnonzero(np.abs(cos) > 1.0 - _PARALLEL_TOL) + i + 1
            group = group[~taken[group]]
            total = lens[i] + lens[group].sum()
            merged.append(units[i] * total)
            taken[group] = True
            taken[i] = True
        return Zonotope(np.array(merged), self.center)

    def is_spanning(self) -> bool:
        return bool(np.linalg.matrix_rank(self.generators) == self.dim)

    @property
    def symmetric(self) -> bool:
        """True when Z = -Z, i.e. the center is 0 (no vertex form is built)."""
        return bool(np.max(np.abs(self.center)) <= SYMMETRY_TOL)

    # -- widths ---------------------------------------------------------------

    def width_batch(self, directions: np.ndarray) -> np.ndarray:
        d = np.atleast_2d(np.asarray(directions, dtype=float))
        return by_row_blocks(
            lambda xi: 2.0 * np.abs(xi @ self.generators.T).sum(axis=1),
            d, self.n_generators)

    # -- exact volumes --------------------------------------------------------

    def volume(self) -> float:
        """|Z| = 2^n Σ_{|J|=n} |det G_J| (requires spanning generators)."""
        m, n = self.generators.shape
        if m < n or not self.is_spanning():
            raise ValueError("degenerate zonotope: generators do not span")
        _check_budget(m, n, "zonotope volume")
        idx = _subsets(m, n)
        dets = np.abs(np.linalg.det(self.generators[idx]))
        return float(2.0 ** n * dets.sum())

    def surface_area(self) -> float:
        return self.quermassintegral_exact(1) * self.dim

    def quermassintegral_exact(self, j: int) -> float:
        """V_{n-j}(Z) by the subset-parallelepiped formula (exact)."""
        m, n = self.generators.shape
        if not 0 <= j <= n:
            raise ValueError("need 0 <= j <= n")
        if j == 0:
            return self.volume()
        k = n - j
        if k == 0:
            return omega(n)
        _check_budget(m, k, "zonotope quermassintegral")
        idx = _subsets(m, k)
        sub = self.generators[idx]
        gram = np.einsum("cik,cjk->cij", sub, sub)
        vols = np.sqrt(np.maximum(np.linalg.det(gram), 0.0))
        return float(2.0 ** k * omega(j) / math.comb(n, j) * vols.sum())

    # -- hyperplane shadows ---------------------------------------------------

    def cross_atoms(self) -> np.ndarray:
        """Generalized cross products c_J over all (n-1)-subsets J."""
        if self._atoms is None:
            m, n = self.generators.shape
            _check_budget(m, n - 1, "zonotope shadow atoms")
            idx = _subsets(m, n - 1)
            sub = self.generators[idx]                     # (C, n-1, n)
            atoms = np.empty((len(idx), n))
            cols = np.arange(n)
            for i in range(n):
                minor = sub[:, :, cols != i]
                atoms[:, i] = ((-1.0) ** i) * np.linalg.det(minor)
            self._atoms = atoms
        return self._atoms

    def shadow_volumes(self, directions: np.ndarray) -> np.ndarray:
        """|P_{ξ⊥}Z| for each unit row ξ (exact)."""
        d = np.atleast_2d(np.asarray(directions, dtype=float))
        atoms = self.cross_atoms()
        return 2.0 ** (self.dim - 1) * np.abs(d @ atoms.T).sum(axis=1)

    def shadow_subset_volumes(self, directions: np.ndarray, j: int) -> np.ndarray:
        """Σ_{|J|=j} vol_j(P_{ξ⊥} para G_J) for each unit row ξ (exact).

        Projecting out ξ is a rank-one Gram update: the Gram A_J - b_J b_Jᵀ
        with b_J = G_J ξ has determinant det(A_J)(1 - b_Jᵀ A_J^{-1} b_J).
        The j-subset stack, its Gram determinants and inverses do not
        depend on the directions; they are built once per zonotope and j.
        """
        m, n = self.generators.shape
        if not 1 <= j <= n - 1:
            raise ValueError("shadow subsets need 1 <= j <= n-1")
        if j not in self._grams:
            _check_budget(m, j, "zonotope shadow subsets")
            sub = self.generators[_subsets(m, j)]         # (C, j, n)
            gram = np.einsum("cik,cjk->cij", sub, sub)
            self._grams[j] = sub, np.linalg.det(gram), np.linalg.inv(gram)
        sub, det_a, inv_a = self._grams[j]
        d = np.atleast_2d(np.asarray(directions, dtype=float))
        b = np.einsum("cik,bk->bci", sub, d)              # (B, C, j)
        quad = np.einsum("bci,cij,bcj->bc", b, inv_a, b)
        vols = np.sqrt(np.maximum(det_a[None, :] * (1.0 - quad), 0.0))
        return vols.sum(axis=1)

    def shadow_surfaces(self, directions: np.ndarray) -> np.ndarray:
        """S(P_{ξ⊥}Z) for each unit row ξ (exact; needs n >= 3)."""
        n = self.dim
        return 2.0 ** (n - 1) * self.shadow_subset_volumes(directions, n - 2)

    # -- lower-dimensional shadows --------------------------------------------

    def frame_shadow_volumes(self, frames: np.ndarray) -> np.ndarray:
        """|P_F Z| for a (B, k, n) stack of orthonormal frames (exact)."""
        fr = np.asarray(frames, dtype=float)
        if fr.ndim == 2:
            fr = fr[None]
        b, k, n = fr.shape
        m = self.n_generators
        _check_budget(m, k, "zonotope frame shadows")
        idx = _subsets(m, k)
        out = np.empty(b)
        chunk = max(1, int(5e6 / (len(idx) * k * k)))
        for lo in range(0, b, chunk):
            fg = np.einsum("bkn,mn->bmk", fr[lo:lo + chunk], self.generators)
            sub = fg[:, idx, :]                           # (b, C, k, k)
            dets = np.abs(np.linalg.det(np.swapaxes(sub, 2, 3)))
            out[lo:lo + chunk] = 2.0 ** k * dets.sum(axis=1)
        return out

    def frame_shadow_surfaces(self, frames: np.ndarray) -> np.ndarray:
        """S(P_F Z) for a (B, k, n) stack of frames (exact)."""
        fr = np.asarray(frames, dtype=float)
        if fr.ndim == 2:
            fr = fr[None]
        b, k, n = fr.shape
        if k < 2:
            raise ValueError("frame shadows need k >= 2")
        m = self.n_generators
        _check_budget(m, k - 1, "zonotope frame shadow surfaces")
        idx = _subsets(m, k - 1)
        out = np.empty(b)
        chunk = max(1, int(5e6 / (max(len(idx), 1) * k * k)))
        for lo in range(0, b, chunk):
            fg = np.einsum("bkn,mn->bmk", fr[lo:lo + chunk], self.generators)
            sub = fg[:, idx, :]                           # (b, C, k-1, k)
            gram = np.einsum("bcik,bcjk->bcij", sub, sub)
            vols = np.sqrt(np.maximum(np.linalg.det(gram), 0.0))
            out[lo:lo + chunk] = 2.0 ** k * vols.sum(axis=1)
        return out

    # -- conversions -----------------------------------------------------------

    def surface_measure(self) -> SurfaceAreaMeasure:
        """Atomic surface measure: ±ν_J with weight 2^{n-1}‖c_J‖ each."""
        atoms = self.cross_atoms()
        lens = np.linalg.norm(atoms, axis=1)
        keep = lens > 1e-14 * max(lens.max(), 1.0)
        units = atoms[keep] / lens[keep][:, None]
        w = 2.0 ** (self.dim - 1) * lens[keep]
        return SurfaceAreaMeasure(
            np.vstack([units, -units]), np.concatenate([w, w])
        )

    def __repr__(self) -> str:  # pragma: no cover
        return f"Zonotope(dim={self.dim}, generators={self.n_generators})"


# ---------------------------------------------------------------------------
# Module-level operations.
# ---------------------------------------------------------------------------


def projection_body(body) -> Zonotope:
    """ΠK: the zonotope with generators (a_i/2)·u_i over the surface measure.

    Works for polytopes (atomic measure from the facets) and zonotopes
    (atoms from the cross products).  Antiparallel generator pairs merge.
    """
    if isinstance(body, Polytope):
        sm = body.surface_measure()
        gens = 0.5 * sm.weights[:, None] * sm.normals
        return Zonotope(gens).merge_parallel()
    if isinstance(body, Zonotope):
        atoms = body.cross_atoms()
        lens = np.linalg.norm(atoms, axis=1)
        keep = lens > 1e-14 * max(lens.max(), 1.0)
        gens = 2.0 ** (body.dim - 1) * atoms[keep]
        return Zonotope(gens).merge_parallel()
    raise TypeError(f"cannot form a projection body of {type(body).__name__}")


def zonotope_to_polytope(z: Zonotope) -> Polytope:
    """Vertex representation via sign-pattern enumeration (m <= 12), hulled
    once per zonotope and cached on it."""
    if z._polytope is None:
        zz = z.merge_parallel()
        m, _ = zz.generators.shape
        if m > CONVERSION_GENERATOR_CAP:
            raise BudgetError(f"conversion needs <= {CONVERSION_GENERATOR_CAP}"
                              f" generators, got {m}")
        signs = np.array(list(itertools.product((-1.0, 1.0), repeat=m)))
        z._polytope = Polytope(zz.center + signs @ zz.generators)
    return z._polytope

