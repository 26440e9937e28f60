"""Operations that accept either vertex-based or generator-based bodies.

Most methods (volume, surface_area, shadow_volumes, ...) share names across
:class:`~projgeo.polytope.Polytope` and :class:`~projgeo.zonotope.Zonotope`,
so callers can use duck typing.  This module collects the few places where
the two representations genuinely diverge: subspace shadows, affine images,
and conversion.
"""

from __future__ import annotations

from typing import Union

import numpy as np
from scipy.spatial import ConvexHull

from .polytope import Polytope
from .zonotope import Zonotope, zonotope_to_polytope

Body = Union[Polytope, Zonotope]

SYMMETRY_TOL = 1e-9  # coordinate tolerance of the origin-symmetry test


def is_zonotope(body: Body) -> bool:
    return isinstance(body, Zonotope)


def to_polytope(body: Body) -> Polytope:
    """Vertex representation of ``body`` (may raise BudgetError for zonotopes)."""
    if isinstance(body, Zonotope):
        return zonotope_to_polytope(body)
    return body


def transform_body(body: Body, linear: np.ndarray, shift=None, scale: float = 1.0) -> Body:
    """Image of ``body`` under x -> scale * linear @ (x - shift)."""
    linear = np.asarray(linear, dtype=float)
    n = linear.shape[0]
    shift = np.zeros(n) if shift is None else np.asarray(shift, dtype=float)
    mat = scale * linear
    if isinstance(body, Zonotope):
        return Zonotope(body.generators @ mat.T, mat @ (body.center - shift))
    return Polytope((body.vertices - shift) @ mat.T)


def frame_shadow_panel(body: Body, frames: np.ndarray,
                       want_surface: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """Volumes (and optionally surface areas) of the shadows ``P_F body``.

    ``frames`` has shape (B, k, n) with orthonormal rows per frame.  For
    vertex bodies each frame costs one hull of the projected vertices; for
    generator bodies both quantities come from subset determinants.  A
    k = 1 shadow is a segment: its "volume" is the width and its boundary
    measure is 2 (two endpoints), matching m*V_{m-1}(A) = S(A) at m = 1.
    """
    frames = np.asarray(frames, dtype=float)
    nb, k, n = frames.shape
    if k == 1:
        vols = body.width_batch(frames[:, 0, :])
        return vols, (np.full(nb, 2.0) if want_surface else None)
    if isinstance(body, Zonotope):
        vols = body.frame_shadow_volumes(frames)
        surfs = body.frame_shadow_surfaces(frames) if want_surface else None
        return vols, surfs
    verts = body.vertices
    vols = np.empty(nb)
    surfs = np.empty(nb) if want_surface else None
    for i in range(nb):
        hull = ConvexHull(verts @ frames[i].T)
        vols[i] = hull.volume
        if want_surface:
            surfs[i] = hull.area
    return vols, surfs


def project_body(body: Body, frame: np.ndarray) -> Body:
    """The shadow of ``body`` on span(frame) as a body in frame coordinates."""
    frame = np.asarray(frame, dtype=float)
    if isinstance(body, Zonotope):
        return Zonotope(body.generators @ frame.T, frame @ body.center)
    return Polytope(body.vertices @ frame.T)


def support_points(body: Body, directions: np.ndarray) -> np.ndarray:
    """A maximizer of <x, theta> over the body for each row theta.

    For vertex bodies this is an attaining vertex; for generator bodies the
    sign combination sum_i sign(<g_i, theta>) g_i + center.  Ties are broken
    arbitrarily, which is fine for the subgradient uses in this package.
    """
    directions = np.asarray(directions, dtype=float)
    if isinstance(body, Zonotope):
        signs = np.sign(directions @ body.generators.T)
        return signs @ body.generators + body.center
    idx = np.argmax(directions @ body.vertices.T, axis=1)
    return body.vertices[idx]


def symmetry_keys(verts: np.ndarray) -> np.ndarray:
    """The vertices rounded to the symmetry tolerance: v and -v of a
    symmetric vertex set get keys that are exact negatives."""
    scale = max(float(np.abs(verts).max()), 1.0)
    tol = SYMMETRY_TOL * scale
    digits = int(-np.log10(tol)) if tol < 1.0 else 0
    # + 0.0 turns -0.0 (a tiny negative coordinate, rounded) into 0.0
    return np.round(verts, digits) + 0.0


def origin_symmetric(body: Body) -> bool:
    """True when body = -body (vertex set closed under negation).  A
    polytope is tested once: the flag is cached on it."""
    if isinstance(body, Zonotope):
        return bool(np.max(np.abs(body.center)) <= SYMMETRY_TOL)
    if body._symmetric is None:
        r = symmetry_keys(body.vertices)
        body._symmetric = np.array_equal(np.unique(r, axis=0),
                                         np.unique(-r, axis=0))
    return body._symmetric
