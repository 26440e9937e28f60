"""Convex polytopes with exact facet, ridge, and projection data.

A :class:`Polytope` is built as the convex hull of points (qhull underneath).
Each simplex of qhull's triangulation is a facet unless qhull split facets
into coplanar neighbors (cubes, grids, zonotope vertex sets); only then are
the facets the connected components of the coplanar neighbor pairs, and
only then do the facet and ridge builds group simplices and sum over the
groups.  One determinant pass per hull measures every simplex as its area
in its facet hyperplane and as its cone from an interior point, which sum
to the facet areas and the volume.  Ridge pieces come from qhull's
neighbor table (neighbor j of a simplex lies opposite its vertex j), which
gives

  * the facet normals u_i, offsets b_i = h_K(u_i) and (n-1)-measures a_i
    (the atomic surface-area measure of the polytope), and
  * the ridges (facet-facet intersections) with their (n-2)-volumes and the
    pair of adjacent facet normals.

The ridge bundle makes two quantities exact and fast, batched over many
directions at once:

  * shadow volume   |P_{ξ⊥}K| = (1/2) Σ_i a_i |⟨ξ, u_i⟩|      (Cauchy), and
  * shadow surface  S(P_{ξ⊥}K) = Σ_ridges vol_{n-2}(r) · ‖P_{span(u_a,u_b)}ξ‖
    over the ridges whose adjacent facets separate ξ (⟨u_a,ξ⟩⟨u_b,ξ⟩ < 0,
    weight 1/2 on the boundary case): exactly the ridges on the shadow's
    silhouette, each contributing its projected volume.

The batched kernels (shadow volumes and surfaces, widths) walk their
directions in row blocks of about ``ROW_BLOCK_ENTRIES // columns`` rows, so
each (rows, facets/ridges/vertices) temporary holds about 1e5 doubles
(0.8 MB) and a kernel's few live temporaries stay inside a 4 MiB L2 cache
instead of streaming from RAM.  A block is a whole number of ``ROW_TILE``
rows: BLAS micro-kernels work on tiles of a few rows (12 in OpenBLAS's
Haswell dgemm, 4 in its dgemv) and a row's rounding depends on the kernel
that handles its tile, so tile-aligned blocks give every row of a batch
the value one unblocked call would give it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components
from scipy.spatial import ConvexHull
from scipy.spatial import QhullError

__all__ = [
    "Polytope",
    "SurfaceAreaMeasure",
    "DegenerateInputError",
    "BudgetError",
    "inradius",
    "circumradius",
    "centroid_and_covariance",
]

_MERGE_ANGLE_TOL = 1e-8
_MERGE_OFFSET_TOL = 1e-8
# Entries in one row block's (rows, columns) temporary, and the row count
# every block is a multiple of (a multiple of the 4-, 8-, 12- and 16-row
# BLAS tiles); see the module notes.
ROW_BLOCK_ENTRIES = 100_000
ROW_TILE = 48
SYMMETRY_TOL = 1e-9  # coordinate tolerance of the origin-symmetry test
# The inradius walk's certificate, feasibility over max(1, max_i |b_i|), and
# the size below which its multipliers, rates and projected objective are 0.
INRADIUS_TOL = 1e-12
INRADIUS_MAX_ITER = 200  # active-set steps of the inradius walk


class DegenerateInputError(ValueError):
    """Input points/halfspaces do not define a full-dimensional body."""


class BudgetError(ValueError):
    """An enumeration would exceed its combinatorial budget."""


@dataclass(frozen=True)
class SurfaceAreaMeasure:
    """Atomic surface-area measure of a polytope: Σ_i a_i δ_{u_i}."""

    normals: np.ndarray  # (F, n), unit rows
    weights: np.ndarray  # (F,), positive


@dataclass(frozen=True)
class _RidgeData:
    volumes: np.ndarray   # (R,)   (n-2)-volume of each ridge
    normal_a: np.ndarray  # (R, n) first adjacent facet normal
    normal_b: np.ndarray  # (R, n) second adjacent facet normal
    ortho_b: np.ndarray   # (R, n) normal_b orthonormalized against normal_a
    angles: np.ndarray    # (R,)   exterior dihedral angle in (0, π)
    piece_vertices: np.ndarray  # (P, n-1) sorted vertex ids of each piece
    piece_ridge: np.ndarray     # (P,)     ridge of each piece


@dataclass(frozen=True)
class _FaceFan:
    """The (n-3)-faces as groups of (face simplex, ridge) incidences."""

    sub: np.ndarray     # (m, n-2) sorted vertex ids of the face simplex
    ridge: np.ndarray   # (m,)     ridge of each incidence
    starts: np.ndarray  # (F,)     first incidence of each face
    group: np.ndarray   # (m,)     face of each incidence


def _cone_areas(fan: _FaceFan, normal_a: np.ndarray, normal_b: np.ndarray,
                ortho_b: np.ndarray):
    """(F,) areas of the normal cones N(F) ∩ S^{n-1} of the (n-3)-faces,
    from each ridge's unit facet normals (rows of normal_a, normal_b) and
    ortho_b, normal_b orthonormalized against normal_a; also each
    incidence's r, the part of the fan center off span(u_a, u_b), and ‖r‖."""
    starts, group = fan.starts, fan.group
    ua, ub = normal_a[fan.ridge], normal_b[fan.ridge]
    ob = ortho_b[fan.ridge]
    # c, an interior point of the polygon, cones it into triangles
    # (c, u_a, u_b).  With u_b = cos·u_a + sin·ob, √det Gram(c,u_a,u_b)
    # = sin·‖r‖: no cancellation.
    c = np.add.reduceat(ua + ub, starts, axis=0)
    c = (c / np.linalg.norm(c, axis=1, keepdims=True))[group]
    ca = np.einsum("mk,mk->m", c, ua)
    cb = np.einsum("mk,mk->m", c, ub)
    r = c - ca[:, None] * ua - np.einsum("mk,mk->m", c, ob)[:, None] * ob
    rn = np.linalg.norm(r, axis=1)
    sin = np.einsum("mk,mk->m", ub, ob)
    cos = np.einsum("mk,mk->m", ua, ub)
    # Van Oosterom–Strackee solid angle of each triangle.
    tri = 2.0 * np.arctan2(sin * rn, 1.0 + ca + cos + cb)
    return np.add.reduceat(tri, starts), r, rn


def _gram_volumes(edges: np.ndarray) -> np.ndarray:
    """(S,) j-volumes of S simplices given as (S, j, n) edge stacks."""
    gram = np.einsum("sik,sjk->sij", edges, edges)
    det = np.linalg.det(gram)
    return np.sqrt(np.maximum(det, 0.0)) / math.factorial(edges.shape[1])


def _block_rows(columns: int) -> int:
    step = ROW_BLOCK_ENTRIES // max(columns, 1) // ROW_TILE * ROW_TILE
    return max(step, ROW_TILE)


def row_blocks(rows: int, columns: int):
    """Slices that cover range(rows) in tile-aligned blocks of about
    ROW_BLOCK_ENTRIES entries (never fewer than ROW_TILE rows)."""
    step = _block_rows(columns)
    for lo in range(0, rows, step):
        yield slice(lo, lo + step)


def by_row_blocks(kernel, d: np.ndarray, columns: int) -> np.ndarray:
    """kernel(d) for a (B, n) batch whose kernel temporaries are (rows,
    columns), evaluated block by block (see row_blocks); a batch that fits
    in one block is one call."""
    if d.shape[0] <= _block_rows(columns):
        return kernel(d)
    out = np.empty(d.shape[0])
    for blk in row_blocks(d.shape[0], columns):
        out[blk] = kernel(d[blk])
    return out


def _silhouette(xi: np.ndarray, rd: _RidgeData) -> np.ndarray:
    """Σ_ridges vol(r)·w·‖P_{span(u_a,u_b)}ξ‖ for each row ξ of ``xi``, with
    w = 1 where ⟨u_a,ξ⟩⟨u_b,ξ⟩ < 0 and w = 1/2 where exactly one of the two
    inner products is 0.  The three products with ξ stay separate GEMMs: one
    stacked GEMM rounds differently."""
    da = xi @ rd.normal_a.T
    db = xi @ rd.normal_b.T
    # A boundary entry (da or db exactly 0) has prod == 0, so a batch whose
    # prod has no zero has none; one that has a zero recomputes db, which
    # the product overwrote.  The weight is 1, 1/2 or 0 and span >= 0, so
    # span * weight has the bits of the selection it stands for.
    prod = np.multiply(db, da, out=db)
    weight = prod < 0.0
    if not prod.all():
        weight = weight + 0.5 * ((da == 0.0) ^ (xi @ rd.normal_b.T == 0.0))
    span = np.square(da, out=da)
    ob = xi @ rd.ortho_b.T
    span += np.square(ob, out=ob)
    np.sqrt(span, out=span)
    span *= weight
    return span @ rd.volumes


class Polytope:
    """Full-dimensional convex polytope, the hull of its vertices."""

    def __init__(self, points):
        # A private copy: the vertices may be the input rows themselves.
        pts = np.array(points, dtype=float, order="C")
        if pts.ndim != 2:
            raise ValueError("points must be a (N, n) array")
        n = pts.shape[1]
        if n < 2:
            raise ValueError("ambient dimension must be >= 2")
        if pts.shape[0] < n + 1:
            raise DegenerateInputError(
                f"need at least {n + 1} points in R^{n}, got {pts.shape[0]}"
            )
        if not np.isfinite(pts).all():
            raise ValueError("points contain non-finite values")
        center = np.add.reduce(pts, 0) / len(pts)
        sv = np.linalg.svd(pts - center, compute_uv=False)
        if sv[-1] <= max(sv[0], 1e-30) * 1e-10:
            rank = int((sv > sv[0] * 1e-10).sum())
            raise DegenerateInputError(
                f"points span an affine subspace of dimension {rank} < {n}"
            )
        try:
            hull = ConvexHull(pts)
        except QhullError as exc:  # pragma: no cover - rank check catches most
            raise DegenerateInputError(f"hull construction failed: {exc}") from exc

        self.dim: int = n
        # Keep only extreme points (the simplices' vertices), reindexed,
        # unless every point is one; the vertex mean is then the center.
        simplices = hull.simplices
        keep = np.flatnonzero(np.bincount(simplices.ravel(),
                                          minlength=pts.shape[0]))
        if keep.size < pts.shape[0]:
            remap = np.full(pts.shape[0], -1, dtype=simplices.dtype)
            remap[keep] = np.arange(keep.size)
            simplices = remap[simplices]
            pts = pts[keep]
            center = np.add.reduce(pts, 0) / len(pts)
        self.vertices: np.ndarray = pts
        self.scale: float = math.sqrt(np.add.reduce(pts ** 2, 1).max())

        u_s = hull.equations[:, :n]
        b_s = -hull.equations[:, n]
        tri_pts = pts[simplices]
        edges = tri_pts[:, 1:, :] - tri_pts[:, :1, :]
        weighted = u_s * _gram_volumes(edges)[:, None]

        # Test every (simplex, neighbor) pair s < t for coplanarity at once;
        # j is the column of s whose vertex lies opposite t.
        nsimp = len(simplices)
        pair_s, pair_j = np.nonzero(hull.neighbors > np.arange(nsimp)[:, None])
        pair_t = hull.neighbors[pair_s, pair_j]
        off_tol = _MERGE_OFFSET_TOL * max(self.scale, 1.0)
        coplanar = ((u_s[pair_s] * u_s[pair_t]).sum(axis=1)
                    > 1.0 - _MERGE_ANGLE_TOL) & (
                        np.abs(b_s[pair_s] - b_s[pair_t]) <= off_tol)
        # Each simplex is a facet (+ 0.0 turns -0.0 into +0.0, as summing
        # from zeros does) unless qhull split facets: then the facets are
        # the connected components of the pairs that passed, labeled in
        # order of their lowest simplex.  np.nonzero lists the pairs by
        # ascending s, which is the row order of a CSR adjacency.
        gid, normals = np.arange(nsimp), weighted + 0.0
        merged = bool(coplanar.any())
        if merged:
            rows, cols = pair_s[coplanar], pair_t[coplanar]
            indptr = np.zeros(nsimp + 1, dtype=cols.dtype)
            np.cumsum(np.bincount(rows, minlength=nsimp), out=indptr[1:])
            graph = csr_array((np.ones(cols.size), cols, indptr),
                              shape=(nsimp, nsimp))
            nfacets, gid = connected_components(graph, directed=False)
            normals = np.zeros((nfacets, n))
            np.add.at(normals, gid, weighted)
        nrm = np.sqrt(np.add.reduce(normals * normals, 1))
        # A sliver facet whose simplices all have Gram volume 0 has a zero
        # area-weighted sum; its normal is the mean of qhull's unit normals.
        flat = nrm == 0.0
        if flat.any():
            unit_sum = np.zeros_like(normals)
            np.add.at(unit_sum, gid, u_s)
            normals[flat] = unit_sum[flat]
            nrm = np.sqrt(np.add.reduce(normals * normals, 1))
        normals /= nrm[:, None]
        # Offsets as exact support values in the merged normal directions.
        offsets = (pts @ normals.T).max(axis=0)
        # One determinant pass measures every simplex twice (LAPACK factors
        # each matrix on its own, so batching keeps every value's bits):
        #   * |det([v_1-v_0; ...; v_{n-1}-v_0; u_f])|/(n-1)! is the
        #     (n-1)-area of the simplex projected onto its facet hyperplane,
        #     backward-stable where sqrt(Gram det) is not — qhull's
        #     triangulations of merged facets contain slivers whose Gram
        #     determinants cancel catastrophically (~sqrt(eps) noise);
        #   * |det(v_i - z)|/n! is the volume of its cone from the interior
        #     point z, which sums to the volume (see volume()).
        stack = np.empty((2, nsimp, n, n))
        stack[0, :, :-1] = edges
        stack[0, :, -1] = normals[gid] if merged else normals
        np.subtract(tri_pts, center, out=stack[1])
        dets = np.abs(np.linalg.det(stack))
        tri_vol = dets[0] / math.factorial(n - 1)

        self.facet_normals: np.ndarray = normals
        self.facet_offsets: np.ndarray = offsets
        self.facet_areas: np.ndarray = (
            np.bincount(gid, tri_vol, len(normals)) if merged else tri_vol)
        self.interior_point: np.ndarray = center

        self._tri_simplices = simplices
        self._tri_facet = gid
        self._neighbor_pairs = (pair_s, pair_t, pair_j)
        self._ridges: _RidgeData | None = None
        self._cone_dets = dets[1]  # |det(v_i - z)| per simplex
        self._volume = float(dets[1].sum() / math.factorial(n))
        self._w3: float | None = None
        self._fan: _FaceFan | None = None
        self._inball: tuple[float, np.ndarray] | None = None

    # -- derived data -------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_facets(self) -> int:
        return self.facet_normals.shape[0]

    def volume(self) -> float:
        """Exact volume: cone formula in per-simplex determinant form.

        Each boundary simplex contributes the volume of its cone from an
        interior point, |det(v_i - z)| / n! — the same cone identity as
        Σ a_i (b_i - ⟨u_i, z⟩)/n at the facet level, but exact in floating
        point (facet-level areas inherit qhull's planarity tolerance).
        The build's determinant pass computes it.
        """
        return self._volume

    def surface_area(self) -> float:
        return float(self.facet_areas.sum())

    def surface_measure(self) -> SurfaceAreaMeasure:
        return SurfaceAreaMeasure(self.facet_normals, self.facet_areas)

    def ridges(self) -> _RidgeData:
        """Ridge bundle (built lazily; needs n >= 3)."""
        if self.dim < 3:
            raise ValueError("ridges need ambient dimension >= 3")
        if self._ridges is None:
            self._ridges = self._build_ridges()
        return self._ridges

    def _build_ridges(self) -> _RidgeData:
        gid = self._tri_facet
        n = self.dim
        simplices = self._tri_simplices
        # Every neighbor pair of different facets.  The shared vertices are
        # the row of s without its column j, the vertex opposite t.
        pair_s, pair_t, pair_j = self._neighbor_pairs
        merged = self.n_facets < len(simplices)
        if merged:
            keep = gid[pair_s] != gid[pair_t]
            pair_s, pair_t, pair_j = pair_s[keep], pair_t[keep], pair_j[keep]
        others = np.arange(n) != pair_j[:, None]
        shared = np.sort(simplices[pair_s][others].reshape(-1, n - 1), 1)
        if merged:
            # A precision sliver's neighbor holds fewer than those n-1
            # vertices: a measure-zero ridge piece.  Slivers come from
            # qhull's triangulation of the facets it merged, so only a
            # merged hull has them.
            full = (shared[:, :, None] == simplices[pair_t][:, None, :]).sum(
                (1, 2)) == n - 1
            shared = shared[full]
            ga, gb = gid[pair_s[full]], gid[pair_t[full]]
            lo, hi = np.minimum(ga, gb), np.maximum(ga, gb)
        else:
            lo, hi = pair_s, pair_t   # facets are simplices, and s < t
        # A stable sort keeps each ridge's pieces in the pair order above, so
        # the bincount below sums every ridge's volume in a fixed order.
        order = np.lexsort((hi, lo))
        lo, hi, idx = lo[order], hi[order], shared[order]
        if merged:
            new_key = np.ones(lo.size, dtype=bool)
            new_key[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
            key_of = np.cumsum(new_key) - 1
            lo, hi = lo[new_key], hi[new_key]
        else:
            # Two simplices share at most one ridge: every pair is a ridge
            # of one piece, and there is nothing to group.
            key_of = np.arange(lo.size)
        ua = self.facet_normals[lo]
        ub = self.facet_normals[hi]
        cos = np.clip(np.einsum("rk,rk->r", ua, ub), -1.0, 1.0)
        ortho = ub - cos[:, None] * ua
        nrm = np.sqrt(np.add.reduce(ortho * ortho, 1, keepdims=True))
        nrm[nrm < 1e-300] = 1.0
        ortho = ortho / nrm
        angles = np.arccos(cos)
        # Measure every ridge piece as |det([edges; u_a; ortho_b])|/(n-2)!,
        # the (n-2)-volume of its projection onto the ridge's affine plane —
        # stable for the sliver pieces that qhull triangulations produce.
        pts = self.vertices[idx]
        stack = np.empty((idx.shape[0], n, n))
        stack[:, :-2] = pts[:, 1:, :] - pts[:, :1, :]
        stack[:, -2] = ua[key_of] if merged else ua
        stack[:, -1] = ortho[key_of] if merged else ortho
        piece_vol = np.abs(np.linalg.det(stack)) / math.factorial(n - 2)
        vols = (np.bincount(key_of, piece_vol, ua.shape[0]) if merged
                else piece_vol)
        return _RidgeData(vols, ua, ub, ortho, angles, idx, key_of)

    # -- symmetry and widths ------------------------------------------------

    @cached_property
    def symmetric(self) -> bool:
        """True when K = -K: the vertex set, rounded by `symmetry_keys`, is
        closed under negation.  Tested once per polytope; the coordinate
        extremes, which K = -K makes negatives, are compared before sorting."""
        r = symmetry_keys(self.vertices)
        return (np.array_equal(r.max(axis=0), -r.min(axis=0))
                and np.array_equal(np.unique(r, axis=0), np.unique(-r, axis=0)))

    def width_batch(self, directions: np.ndarray) -> np.ndarray:
        d = np.atleast_2d(np.asarray(directions, dtype=float))

        # vertex-major (V, rows) products: the extrema reduce along axis 0,
        # which numpy runs as elementwise passes over contiguous rows
        def widths(xi):
            prods = self.vertices @ xi.T
            return prods.max(axis=0) - prods.min(axis=0)

        return by_row_blocks(widths, d, self.n_vertices)

    # -- shadows ------------------------------------------------------------

    def shadow_volumes(self, directions: np.ndarray) -> np.ndarray:
        """|P_{ξ⊥}K| for each unit row ξ, by the Cauchy projection formula."""
        d = np.atleast_2d(np.asarray(directions, dtype=float))
        return by_row_blocks(
            lambda xi: 0.5 * (np.abs(xi @ self.facet_normals.T)
                              @ self.facet_areas),
            d, self.n_facets)

    def shadow_surfaces(self, directions: np.ndarray) -> np.ndarray:
        """S(P_{ξ⊥}K) for each unit row ξ, by the ridge silhouette formula."""
        rd = self.ridges()
        d = np.atleast_2d(np.asarray(directions, dtype=float))
        return by_row_blocks(lambda xi: _silhouette(xi, rd), d,
                              rd.volumes.size)

    # -- misc exact quantities ----------------------------------------------

    def mean_width_exact_2codim(self) -> float:
        """V_{n-2} of the polytope via ridge volumes and dihedral angles."""
        rd = self.ridges()
        return float((rd.volumes * rd.angles).sum()
                     / (2.0 * math.comb(self.dim, 2)))

    def quermass_exact_3codim(self) -> float:
        """W_3 = ω_3 V_{n-3}/C(n,3) from the normal cones of the (n-3)-faces.

        The intrinsic volume is V_{n-3}(K) = Σ_F vol(F)·area(N(F))/4π over
        the (n-3)-faces F, whose normal cones N(F) are 3-dimensional, so
        W_3 = Σ_F vol(F)·area(N(F)) / (3·C(n,3)).  Built lazily, cached.
        """
        if self._w3 is None:
            self._w3 = self._build_w3()
        return self._w3

    def _build_w3(self) -> float:
        rd = self.ridges()
        fan = self._face_fan()
        area, r, rn = _cone_areas(fan, rd.normal_a, rd.normal_b, rd.ortho_b)
        n = self.dim
        # Measure each face simplex as |det([edges; u_a; ob; r/‖r‖])|/(n-3)!,
        # the orthonormal frame of (lin F)⊥ taken where ‖r‖ is largest (a
        # flat cone, r = 0, has area 0 and gets the volume 0).
        pick = np.lexsort((-rn, fan.group))[fan.starts]
        ridge = fan.ridge[pick]
        pts = self.vertices[fan.sub[pick]]
        unit_r = r[pick] / np.maximum(rn[pick], 1e-300)[:, None]
        frame = np.stack([rd.normal_a[ridge], rd.ortho_b[ridge], unit_r],
                         axis=1)
        stacked = np.concatenate([pts[:, 1:, :] - pts[:, :1, :], frame], axis=1)
        vol = np.abs(np.linalg.det(stacked)) / math.factorial(n - 3)
        return float(vol @ area / (3.0 * math.comb(n, 3)))

    def _face_fan(self) -> _FaceFan:
        """The (n-3)-faces and the ridges around each (topology only, built
        once and cached)."""
        if self._fan is not None:
            return self._fan
        rd = self.ridges()
        n = self.dim
        # Every (n-2)-vertex sub-simplex of every ridge piece, keyed by its
        # sorted vertex ids.
        cols = np.array(list(itertools.combinations(range(n - 1), n - 2)))
        sub = rd.piece_vertices[:, cols].reshape(-1, n - 2)
        ridge = np.repeat(rd.piece_ridge, n - 1)
        key = np.ravel_multi_index(tuple(sub.T), (self.n_vertices,) * (n - 2))
        order = np.lexsort((ridge, key))
        sub, ridge, key = sub[order], ridge[order], key[order]
        # A sub-simplex inside a ridge lies in two of its pieces, one on the
        # ridge's relative boundary in exactly one.
        twice = (key[1:] == key[:-1]) & (ridge[1:] == ridge[:-1])
        once = ~(np.r_[twice, False] | np.r_[False, twice])
        sub, ridge, key = sub[once], ridge[once], key[once]
        # The sub-simplices on >= 3 ridges tile the (n-3)-faces; the ridges
        # of one are the edges of the spherical polygon N(F) ∩ S^{n-1}.
        start = np.r_[True, key[1:] != key[:-1]]
        group = np.cumsum(start) - 1
        face = np.bincount(group)[group] >= 3
        sub, ridge, start = sub[face], ridge[face], start[face]
        self._fan = _FaceFan(sub, ridge, np.flatnonzero(start),
                             np.cumsum(start) - 1)
        return self._fan

    def edges(self) -> np.ndarray:
        """(E, n) edge vectors at n = 3 or 4: one row per ridge piece at
        n = 3 and per face simplex at n = 4 (collinear rows of one edge sum
        to it).  `edge_angles` gives their normalized external angles."""
        if self.dim == 3:
            ends = self.vertices[self.ridges().piece_vertices]
        elif self.dim == 4:
            fan = self._face_fan()
            ends = self.vertices[fan.sub[fan.starts]]
        else:
            raise ValueError("edges are read at ambient dimension 3 or 4")
        return ends[:, 1] - ends[:, 0]

    def edge_angles(self, transform_inv: np.ndarray) -> np.ndarray:
        """The normalized external angle γ of each row of `edges()` in the
        image TK, given T^{-1}.  TK has K's face lattice and its facet
        normals are T^{-T}u normalized, so each ridge's normals are
        transported and no hull is built: at n = 3 γ is the dihedral angle
        over 2π, at n = 4 the area of the edge's normal cone over 4π."""
        rd = self.ridges()
        ua = rd.normal_a @ transform_inv
        ua /= np.linalg.norm(ua, axis=1, keepdims=True)
        ub = rd.normal_b @ transform_inv
        ub /= np.linalg.norm(ub, axis=1, keepdims=True)
        cos = np.clip(np.einsum("rk,rk->r", ua, ub), -1.0, 1.0)
        if self.dim == 3:
            return np.arccos(cos)[rd.piece_ridge] / (2.0 * math.pi)
        ob = ub - cos[:, None] * ua
        ob /= np.maximum(np.linalg.norm(ob, axis=1, keepdims=True), 1e-300)
        return _cone_areas(self._face_fan(), ua, ub, ob)[0] / (4.0 * math.pi)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"Polytope(dim={self.dim}, vertices={self.n_vertices}, "
                f"facets={self.n_facets})")


# ---------------------------------------------------------------------------
# Module-level queries.
# ---------------------------------------------------------------------------


def symmetry_keys(verts: np.ndarray) -> np.ndarray:
    """The vertices rounded to the symmetry tolerance: v and -v of a
    symmetric vertex set get keys that are exact negatives."""
    scale = max(float(np.abs(verts).max()), 1.0)
    tol = SYMMETRY_TOL * scale
    digits = int(-np.log10(tol)) if tol < 1.0 else 0
    # + 0.0 turns -0.0 (a tiny negative coordinate, rounded) into 0.0
    return np.round(verts, digits) + 0.0


def inradius(p: Polytope) -> tuple[float, np.ndarray]:
    """Largest inscribed ball: (radius, center), cached on ``p``.

    When p = -p (`Polytope.symmetric`) no walk runs: if (c, r) is feasible
    so is (-c, r), hence their midpoint (0, r), and the largest ball at 0
    has radius min_i b_i.  Otherwise `_inball_walk` solves the
    Chebyshev-center LP max r s.t. ⟨u_i, c⟩ + r ≤ b_i exactly and
    certifies its ball: feasible to ``INRADIUS_TOL``·max(1, max|b_i|),
    with multipliers λ ≥ 0 on its tight facets (Σλ_i u_i = 0, Σλ_i = 1).
    """
    if p._inball is None:
        n = p.dim
        if p.symmetric:
            radius, center = float(p.facet_offsets.min()), np.zeros(n)
        else:
            x, _, _ = _inball_walk(p.facet_normals, p.facet_offsets,
                                   p.interior_point)
            radius, center = float(x[-1]), x[:n]
        center.flags.writeable = False
        p._inball = (radius, center)
    return p._inball


def _inball_walk(normals: np.ndarray, offsets: np.ndarray,
                 start: np.ndarray):
    """Primal active-set (simplex) walk for max r s.t. A x ≤ b, with
    x = (c, r) and the rows a_i = (u_i, 1) of A.

    It starts at (start, min slack), feasible, with that facet in the
    working set W.  Below a vertex it steps along e_{n+1} projected onto
    the null space of A_W; a ratio test adds the blocking facet.  Where
    that projection vanishes, e_{n+1} = A_Wᵀλ: the walk stops if λ ≥ 0 and
    otherwise drops the facet of least index with λ_j < 0 (Bland's rule,
    so degenerate vertices cannot cycle) and steps along the edge that
    leaves it.  The rows of A_W stay independent, since a blocking row
    has ⟨a_i, d⟩ > 0 for a d in their null space.  Multipliers and rates
    within ``INRADIUS_TOL`` of 0 count as 0.  Returns (x, W, λ) with every
    λ_j > 0 and x re-solved from A_W x = b_W; a ball that is not certified
    or a walk past ``INRADIUS_MAX_ITER`` steps raises RuntimeError.
    """
    f, n = normals.shape
    a = np.hstack([normals, np.ones((f, 1))])
    slack = offsets - normals @ start
    rows = [int(np.argmin(slack))]
    x = np.append(start, slack[rows[0]])
    for _ in range(INRADIUS_MAX_ITER):
        if len(rows) <= n:
            q, r = np.linalg.qr(a[rows].T)  # A_Wᵀ = QR
            d = -(q @ q[-1])
            d[-1] += 1.0  # e_{n+1} less its projection Q Qᵀ e_{n+1}
            stationary = math.sqrt(d @ d) <= INRADIUS_TOL
            if stationary:
                pinv = q @ np.linalg.inv(r).T
        else:  # at a vertex
            stationary, pinv = True, np.linalg.inv(a[rows])
        if stationary:
            # A_W A_W⁺ = I, so λ = (A_W⁺)ᵀe_{n+1} solves A_Wᵀλ = e_{n+1}
            lam = pinv[-1]
            drop = [k for k in range(len(rows)) if lam[k] < -INRADIUS_TOL]
            if not drop:
                zero = lam <= INRADIUS_TOL
                if zero.any():
                    # a degenerate optimum: the facets that are tight with a
                    # zero multiplier leave, so λ > 0 is not rounding's sign
                    rows = [i for i, z in zip(rows, zero) if not z]
                    continue
                x = x + pinv @ (offsets[rows] - a[rows] @ x)
                worst = float((a @ x - offsets).max())
                if worst > INRADIUS_TOL * max(1.0, np.abs(offsets).max()):
                    raise RuntimeError(
                        f"inradius walk ended {worst:.3g} outside a facet")
                return x, np.array(rows), lam
            k = min(drop, key=rows.__getitem__)
            # the edge that leaves row k: A_W d = -e_k, so ⟨e, d⟩ = -λ_k > 0
            d = -pinv[:, k]
            del rows[k]
        # a rate within rounding of 0 (a row that A_W already spans) blocks
        # nothing: adding it would make A_W singular
        d /= math.sqrt(d @ d)
        rate = a @ d
        rate[rows] = 0.0
        block = np.flatnonzero(rate > INRADIUS_TOL)
        if block.size == 0:
            raise RuntimeError("inradius walk found no blocking facet")
        gap = np.maximum(offsets[block] - a[block] @ x, 0.0) / rate[block]
        # np.argmin takes the first, the least facet index, of a tie
        i = int(np.argmin(gap))
        x = x + gap[i] * d
        rows.append(int(block[i]))
    raise RuntimeError(
        f"inradius walk passed {INRADIUS_MAX_ITER} steps uncertified")


def circumradius(p: Polytope) -> float:
    """max_i ‖v_i‖ — radius of the smallest origin-centered enclosing ball."""
    return float(np.max(np.linalg.norm(p.vertices, axis=1)))


def centroid_and_covariance(p: Polytope) -> tuple[np.ndarray, np.ndarray]:
    """Centroid and covariance of the uniform probability measure on K.

    Computed exactly by fanning the facet triangulation from an interior
    point and applying the standard simplex moment formulas; the cone
    volumes come from the build's determinant pass.
    """
    n = p.dim
    z = p.interior_point
    tri = p.vertices[p._tri_simplices]           # (S, n, n)
    vols = p._cone_dets / math.factorial(n)
    w = np.concatenate([np.broadcast_to(z, (len(tri), 1, n)), tri], axis=1)  # (S, n+1, n)
    total = vols.sum()
    first = (vols[:, None] * w.mean(axis=1)).sum(axis=0)
    centroid = first / total
    ssum = w.sum(axis=1)                          # (S, n)
    outer_sum = np.einsum("sin,sim->snm", w, w)   # Σ_i w_i w_iᵀ per simplex
    second = np.einsum("s,snm->nm",
                       vols / ((n + 1) * (n + 2)),
                       outer_sum + np.einsum("sn,sm->snm", ssum, ssum))
    cov = second / total - np.outer(centroid, centroid)
    return centroid, cov
