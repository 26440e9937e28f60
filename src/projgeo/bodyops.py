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

