"""Row-blocked batch kernels: same values as row-at-a-time, bounded memory."""

import tracemalloc

import numpy as np
import pytest

from projgeo import bodies
from projgeo.polytope import ROW_TILE, row_blocks
from projgeo.sampling import sphere_points
from projgeo.zonotope import projection_body


def _ball(n):
    return bodies.ball_approx(n).build()


def _kernels(n):
    """(name, batch kernel, columns of its row temporaries) on ball-approx(500)."""
    poly = _ball(n)
    zone = projection_body(poly)
    return [
        ("Polytope.shadow_surfaces", poly.shadow_surfaces,
         poly.ridges().volumes.size),
        ("Polytope.shadow_volumes", poly.shadow_volumes, poly.n_facets),
        ("Polytope.width_batch", poly.width_batch, poly.n_vertices),
        ("Zonotope.width_batch", zone.width_batch, zone.n_generators),
    ]


@pytest.mark.parametrize("n", [3, 4])
def test_blocked_kernels_match_row_at_a_time(n):
    for name, kernel, columns in _kernels(n):
        block = next(row_blocks(10**9, columns)).stop
        assert block % ROW_TILE == 0, name
        rows = 2 * block + 5                  # two full blocks and a tail
        dirs = sphere_points(n, rows, np.random.default_rng(11))
        blocked = kernel(dirs)
        single = np.array([kernel(dirs[i:i + 1])[0] for i in range(rows)])
        assert blocked.shape == (rows,)
        rel = np.abs(blocked - single) / np.abs(single)
        assert rel.max() <= 1e-14, (name, rel.max())


def test_shadow_panel_memory_stays_cache_sized():
    poly = _ball(3)
    poly.ridges()
    dirs = sphere_points(3, 20_000, np.random.default_rng(5))
    tracemalloc.start()
    try:
        poly.shadow_surfaces(dirs)
        poly.shadow_volumes(dirs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MB"
