"""Seed derivation, sphere/Grassmannian sampling, and the minimizers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projgeo.sampling import (DESCENT_STALL_ITERS, DESCENT_STALL_REL,
                              ObjectiveError, RngSeed, _BestTracker,
                              _descend, _normalize_rows, grassmann_frames,
                              mc_estimate, minimize_on_grassmannian,
                              minimize_on_sphere, sphere_points)


def test_rng_seed_reproducible():
    a = RngSeed(7).derive("panel", 3).generator().standard_normal(8)
    b = RngSeed(7).derive("panel", 3).generator().standard_normal(8)
    assert np.array_equal(a, b)


def test_rng_labels_decorrelate_streams():
    a = RngSeed(7).derive("panel", 3).generator().standard_normal(8)
    b = RngSeed(7).derive("panel", 4).generator().standard_normal(8)
    c = RngSeed(8).derive("panel", 3).generator().standard_normal(8)
    assert not np.allclose(a, b)
    assert not np.allclose(a, c)


@given(n=st.integers(2, 6), count=st.integers(1, 64),
       seed=st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_sphere_points_are_unit_rows(n, count, seed):
    pts = sphere_points(n, count, RngSeed(seed).generator())
    assert pts.shape == (count, n)
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)


def test_sphere_points_are_roughly_isotropic():
    pts = sphere_points(4, 40_000, RngSeed(0).generator())
    # E[theta_i] = 0 and E[theta_i^2] = 1/n, up to sampling error
    assert np.abs(pts.mean(axis=0)).max() < 0.02
    assert np.abs((pts ** 2).mean(axis=0) - 0.25).max() < 0.01


@given(n=st.integers(2, 6), k=st.integers(1, 4),
       seed=st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_grassmann_frames_are_orthonormal(n, k, seed):
    k = min(k, n)
    frames = grassmann_frames(n, k, 8, RngSeed(seed).generator())
    assert frames.shape == (8, k, n)
    grams = np.einsum("bij,bkj->bik", frames, frames)
    assert np.allclose(grams, np.eye(k), atol=1e-10)


def test_mc_estimate_matches_sample_statistics():
    vals = np.arange(10.0)
    est = mc_estimate(vals)
    assert est.value == pytest.approx(4.5)
    assert est.stderr == pytest.approx(np.std(vals, ddof=1) / np.sqrt(10.0))
    assert est.n_samples == 10


def test_minimize_on_sphere_linear_objective():
    a = np.array([1.0, 2.0, 2.0])
    x, v = minimize_on_sphere(lambda d: float(a @ d), 3,
                              seed=RngSeed(1))
    assert v == pytest.approx(-3.0, abs=1e-8)  # min <a, theta> = -|a|
    assert np.allclose(x, -a / 3.0, atol=1e-4)


def test_minimize_on_sphere_vectorized_matches_scalar():
    a = np.array([0.5, -1.0, 2.0, 1.0])
    _, v_scalar = minimize_on_sphere(lambda d: float(a @ d), 4,
                                     seed=RngSeed(2))
    _, v_vec = minimize_on_sphere(lambda xs: xs @ a, 4, seed=RngSeed(2),
                                  vectorized=True)
    assert v_vec == pytest.approx(v_scalar, rel=1e-9)
    assert v_vec == pytest.approx(-float(np.linalg.norm(a)), abs=1e-8)


def test_sphere_minimum_undercuts_random_probes():
    def objective(xs):
        return np.cos(3.0 * xs[:, 0]) + xs[:, 1] ** 2

    _, v = minimize_on_sphere(objective, 4, seed=RngSeed(3), vectorized=True)
    probes = objective(sphere_points(4, 5000, RngSeed(4).generator()))
    assert v <= probes.min() + 1e-9


def test_minimize_on_grassmannian_avoids_a_vector():
    e1 = np.zeros(3)
    e1[0] = 1.0

    def objective(frames):
        return np.einsum("bkj,j->bk", frames, e1).__pow__(2).sum(axis=1)

    frame, v = minimize_on_grassmannian(objective, 3, 2, seed=RngSeed(5),
                                        vectorized=True)
    # a 2-plane in R^3 orthogonal to e1 exists, so the projection vanishes
    assert v == pytest.approx(0.0, abs=1e-8)
    assert np.allclose(frame @ e1, 0.0, atol=1e-4)


def test_minimizer_rejects_bad_restarts():
    with pytest.raises(ValueError):
        minimize_on_sphere(lambda d: 0.0, 3, restarts=0)


class _Recorder:
    """A batched objective (smooth by default) that keeps a copy of every
    batch."""

    def __init__(self, f=None):
        self.batches = []
        self._f = _smooth if f is None else f

    def __call__(self, x):
        self.batches.append(x.copy())
        return self._f(x)


def test_descend_makes_one_gradient_call_per_iteration():
    rec = _Recorder()
    starts = sphere_points(4, 6, RngSeed(6).generator())
    iterations = 5
    _descend(_BestTracker(rec), starts, _normalize_rows, max_iter=iterations)
    assert len(rec.batches) == 1 + 2 * iterations
    r, d = starts.shape
    assert [b.shape[0] for b in rec.batches] == [r] + [d * r, r] * iterations
    # the first gradient batch: retract(x + fd_step e_j), coordinate-major
    x = rec.batches[0]
    expected = np.concatenate([_normalize_rows(x + 1e-6 * e) for e in np.eye(d)])
    assert np.array_equal(rec.batches[1], expected)


def _descend_per_coordinate(fb, x0, retract, max_iter=400, fd_step=1e-6,
                            step_min=1e-10):
    """Reference: the descent with one objective call per FD coordinate."""
    x = retract(x0.copy())
    fx = fb(x)
    r, d = x.shape
    t = np.full(r, 0.25)
    grad = np.empty_like(x)
    for _ in range(max_iter):
        live = t >= step_min
        if not live.any():
            break
        for j in range(d):
            xp = x.copy()
            xp[:, j] += fd_step
            grad[:, j] = (fb(retract(xp)) - fx) / fd_step
        gn2 = np.einsum("ij,ij->i", grad, grad)
        prop = retract(x - (t * live)[:, None] * grad)
        fp = fb(prop)
        ok = live & (fp <= fx - 1e-4 * t * gn2)
        x[ok] = prop[ok]
        fx[ok] = fp[ok]
        t[ok] = np.minimum(t[ok] * 1.25, 1.0)
        t[live & ~ok] *= 0.5


def test_stacked_descent_matches_per_coordinate_reference():
    def objective(x):
        return np.cos(3.0 * x[:, 0]) + np.abs(x[:, 1:]).sum(axis=1)

    starts = sphere_points(4, 12, RngSeed(8).generator())
    stacked, reference = _BestTracker(objective), _BestTracker(objective)
    _descend(stacked, starts, _normalize_rows)
    _descend_per_coordinate(reference, starts, _normalize_rows)
    assert stacked.best_v == reference.best_v
    assert np.array_equal(stacked.best_x, reference.best_x)


def _descend_full_batch(fb, x0, retract, max_iter=400, fd_step=1e-6,
                        step_min=1e-10, row_counts=None):
    """Reference: the descent that evaluates every row, retired or not.

    Appends (live rows, live rows that moved in the previous iteration) of
    each iteration to ``row_counts``; every row counts as moved at first.
    """
    x = retract(x0.copy())
    fx = fb(x)
    r, d = x.shape
    t = np.full(r, 0.25)
    grad = np.empty_like(x)
    coords = np.arange(d)
    moved = np.ones(r, dtype=bool)
    for _ in range(max_iter):
        live = t >= step_min
        if not live.any():
            break
        if row_counts is not None:
            row_counts.append((int(live.sum()), int((live & moved).sum())))
        xp = np.repeat(x[None], d, axis=0)
        xp[coords, :, coords] += fd_step
        fd = fb(retract(xp.reshape(d * r, d))).reshape(d, r)
        grad[:] = ((fd - fx) / fd_step).T
        gn2 = np.einsum("ij,ij->i", grad, grad)
        prop = retract(x - (t * live)[:, None] * grad)
        fp = fb(prop)
        ok = live & (fp <= fx - 1e-4 * t * gn2)
        x[ok] = prop[ok]
        fx[ok] = fp[ok]
        t[ok] = np.minimum(t[ok] * 1.25, 1.0)
        t[live & ~ok] *= 0.5
        moved = ok


def test_descend_evaluates_only_live_rows():
    rec = _Recorder()
    starts = sphere_points(4, 12, RngSeed(6).generator())
    r, d = starts.shape
    max_iter = 400
    _descend(_BestTracker(rec), starts, _normalize_rows, max_iter=max_iter)
    counts = []
    _descend_full_batch(_BestTracker(_Recorder()), starts, _normalize_rows,
                        max_iter=max_iter, row_counts=counts)
    live_counts = [m for m, _ in counts]
    # the restarts retire at different iterations, all before max_iter
    assert len(set(live_counts)) > 3 and len(live_counts) < max_iter
    # some iterations move no row, others move only some of the live ones
    assert any(mv == 0 for _, mv in counts)
    assert any(0 < mv < m for m, mv in counts)
    sizes = [b.shape[0] for b in rec.batches]
    assert sizes[0] == r
    # per iteration with a live row: an FD batch of the live rows that
    # moved (none when no row moved) and a proposal batch; nothing after
    assert sizes[1:] == [s for m, mv in counts
                         for s in ((d * mv, m) if mv else (m,))]
    assert all(b <= a for a, b in zip(live_counts, live_counts[1:]))


def test_live_row_descent_is_no_worse_than_full_batch_on_a_kink():
    def objective(x):
        return np.cos(3.0 * x[:, 0]) + np.abs(x[:, 1:]).sum(axis=1)

    starts = sphere_points(4, 12, RngSeed(8).generator())
    live, full = _BestTracker(objective), _BestTracker(objective)
    _descend(live, starts, _normalize_rows)
    _descend_full_batch(full, starts, _normalize_rows)
    assert live.best_v <= full.best_v


# ---------------------------------------------------------------------------
# the minimizer against its per-row bookkeeping, bit for bit


def _normalize_rows_ref(x):
    nrm = np.linalg.norm(x, axis=-1, keepdims=True)
    nrm[nrm < 1e-300] = 1.0
    return x / nrm


class _BestTrackerRef:
    def __init__(self, fbatch):
        self._f = fbatch
        self.best_x = None
        self.best_v = np.inf

    def __call__(self, x):
        v = np.asarray(self._f(x), dtype=float)
        assert v.shape == (x.shape[0],) and np.all(np.isfinite(v))
        i = int(np.argmin(v))
        if v[i] < self.best_v:
            self.best_v = float(v[i])
            self.best_x = x[i].copy()
        return v


def _descend_ref(fb, x0, retract, max_iter=400, fd_step=1e-6,
                 step_min=1e-10, stall=False):
    """Reference: gathers the live rows and scatters them back each step;
    the FD gradient is recomputed only for the rows that moved.  With
    ``stall`` it ends after an iteration whose best value lies within
    1e-12 (relative) of the best 21 iterations before."""
    x = retract(x0.copy())
    fx = fb(x)
    r, d = x.shape
    t = np.full(r, 0.25)
    grad = np.empty((r, d))
    moved = np.ones(r, dtype=bool)
    steps = fd_step * np.eye(d)[:, None, :]
    bests = [fb.best_v]  # after the starts, then after each iteration
    for _ in range(max_iter):
        live = np.flatnonzero(t >= step_min)
        if live.size == 0:
            break
        rows = live[moved[live]]
        if rows.size:
            fd = fb(retract((x[rows][None] + steps).reshape(-1, d)))
            grad[rows] = ((fd.reshape(d, -1) - fx[rows]) / fd_step).T
        xl, fl, tl, gl = x[live], fx[live], t[live], grad[live]
        prop = retract(xl - tl[:, None] * gl)
        fp = fb(prop)
        ok = fp <= fl - 1e-4 * tl * np.einsum("ij,ij->i", gl, gl)
        x[live[ok]] = prop[ok]
        fx[live[ok]] = fp[ok]
        t[live] = np.where(ok, np.minimum(tl * 1.25, 1.0), tl * 0.5)
        moved[live] = ok
        bests.append(fb.best_v)
        if stall and len(bests) > 21 and \
                bests[-22] - bests[-1] <= 1e-12 * abs(bests[-22]):
            break


def _pattern_polish_ref(fb, retract, d, gen, start_scale=1e-2,
                        end_scale=1e-9, stall_redraws=3):
    """Reference: one (d, d) draw and QR per redraw, x ± scale·basis."""
    scale = start_scale
    basis = np.eye(d)
    redraws = 0
    polls = 0
    while scale >= end_scale and polls < 500 * d:
        x = fb.best_x
        cands = retract(np.concatenate([x + scale * basis,
                                        x - scale * basis]))
        before = fb.best_v
        fb(cands)
        polls += 1
        if fb.best_v < before - 1e-13 * abs(before) - 1e-300:
            redraws = 0
            scale = min(scale * 2.0, start_scale)
        elif redraws < stall_redraws:
            basis, _ = np.linalg.qr(gen.standard_normal((d, d)))
            redraws += 1
        else:
            redraws = 0
            scale *= 0.5


def _grassmann_retract(k, n):
    def retract(flat):
        q, r = np.linalg.qr(np.swapaxes(flat.reshape(-1, k, n), 1, 2))
        signs = np.sign(np.einsum("bii->bi", r))
        signs[signs == 0.0] = 1.0
        return np.swapaxes(q * signs[:, None, :], 1, 2).reshape(-1, k * n)
    return retract


def _minimize_ref(objective, shape, starts, retract, vectorized, seed,
                  stall):
    if vectorized:
        def fbatch(flat):
            return objective(flat.reshape(-1, *shape))
    else:
        def fbatch(flat):
            return np.array([float(objective(row.reshape(shape)))
                             for row in flat])
    fb = _BestTrackerRef(fbatch)
    _descend_ref(fb, starts, retract, stall=stall)
    _pattern_polish_ref(fb, retract, starts.shape[1],
                        seed.derive("polish").generator())
    return fb.best_x.reshape(shape), fb.best_v


def _smooth(x):
    return np.cos(3.0 * x[:, 0]) + (x[:, 1:] ** 2).sum(axis=1)


def _kinked(x):
    return np.cos(3.0 * x[:, 0]) + np.abs(x[:, 1:]).sum(axis=1)


def _recorded(f, vectorized):
    """f on flattened points, in the minimizers' calling convention, and
    the list every batch it sees is appended to."""
    batches = []

    def objective(x):
        flat = np.array(x, copy=True).reshape(len(x) if vectorized else 1,
                                              -1)
        batches.append(flat)
        return f(flat) if vectorized else float(f(flat)[0])
    return objective, batches


def _descend_recompute(fb, x0, retract, max_iter=400, fd_step=1e-6,
                       step_min=1e-10, steps_log=None):
    """Reference: the descent that recomputes the FD gradient of every live
    row, moved or not.  Appends (kept, accepted) of each iteration to
    ``steps_log``: the mask of the previous rows still live, and the mask
    of the live rows whose step was accepted."""
    x = retract(x0.copy())
    fx = fb(x)
    d = x.shape[1]
    t = np.full(x.shape[0], 0.25)
    steps = fd_step * np.eye(d)[:, None, :]
    for _ in range(max_iter):
        live = t >= step_min
        if not live.all():
            if not live.any():
                break
            x, fx, t = x[live], fx[live], t[live]
        fd = fb(retract((x[None] + steps).reshape(-1, d))).reshape(d, -1)
        grad = ((fd - fx) / fd_step).T
        prop = retract(x - t[:, None] * grad)
        fp = fb(prop)
        ok = fp <= fx - 1e-4 * t * np.einsum("ij,ij->i", grad, grad)
        x = np.where(ok[:, None], prop, x)
        fx = np.where(ok, fp, fx)
        t = np.where(ok, np.minimum(t * 1.25, 1.0), t * 0.5)
        steps_log.append((live, ok))


@pytest.mark.parametrize("space", [(4,), (5,), (4, 2)],
                         ids=lambda s: "x".join(map(str, s)))
@pytest.mark.parametrize("f", [_smooth, _kinked], ids=["smooth", "kinked"])
def test_gradient_reuse_drops_only_redundant_rows(space, f):
    if len(space) == 1:
        starts = sphere_points(space[0], 12, RngSeed(10).generator())
        retract = _normalize_rows
    else:
        n, k = space
        starts = grassmann_frames(n, k, 12, RngSeed(10).generator())
        starts = starts.reshape(12, k * n)
        retract = _grassmann_retract(k, n)
    d = starts.shape[1]
    got, want, steps_log = _Recorder(f), _Recorder(f), []
    fb_got, fb_want = _BestTracker(got), _BestTracker(want)
    _descend(fb_got, starts, retract)
    _descend_recompute(fb_want, starts, retract, steps_log=steps_log)
    assert len(want.batches) == 1 + 2 * len(steps_log)
    assert np.array_equal(got.batches[0], want.batches[0])
    # walk both batch sequences iteration by iteration: the FD batches lose
    # exactly the rows that did not move, and the proposals stay the same
    moved = np.ones(starts.shape[0], dtype=bool)
    g, reused = 1, 0
    for i, (live, ok) in enumerate(steps_log):
        fd_want, prop_want = want.batches[1 + 2 * i], want.batches[2 + 2 * i]
        moved = moved[live]
        if moved.any():
            kept = fd_want.reshape(d, -1, d)[:, moved].reshape(-1, d)
            assert np.array_equal(got.batches[g], kept)
            g += 1
        reused += int((~moved).sum())
        assert np.array_equal(got.batches[g], prop_want)
        g += 1
        moved = ok
    assert g == len(got.batches) and reused > 0
    assert fb_got.best_v == fb_want.best_v
    assert np.array_equal(fb_got.best_x, fb_want.best_x)


@pytest.mark.parametrize("space", [(3,), (4,), (5,), (4, 2), (5, 2), (5, 3)],
                         ids=lambda s: "x".join(map(str, s)))
@pytest.mark.parametrize("f", [_smooth, _kinked], ids=["smooth", "kinked"])
@pytest.mark.parametrize("vectorized", [True, False])
def test_minimizer_matches_per_row_reference_bit_for_bit(space, f, vectorized):
    seed = RngSeed(9)
    restarts = 6
    got_f, got = _recorded(f, vectorized)
    want_f, want = _recorded(f, vectorized)
    if len(space) == 1:
        n, = space
        x, v = minimize_on_sphere(got_f, n, restarts, seed,
                                  vectorized=vectorized)
        starts = sphere_points(n, restarts, seed.generator())
        x_ref, v_ref = _minimize_ref(want_f, (n,), starts, _normalize_rows_ref,
                                     vectorized, seed, stall=True)
    else:
        n, k = space
        x, v = minimize_on_grassmannian(got_f, n, k, restarts, seed,
                                        vectorized=vectorized)
        starts = grassmann_frames(n, k, restarts, seed.generator())
        x_ref, v_ref = _minimize_ref(want_f, (k, n),
                                     starts.reshape(restarts, k * n),
                                     _grassmann_retract(k, n), vectorized,
                                     seed, stall=False)
    assert len(got) == len(want) > 100
    for a, b in zip(got, want):
        assert a.shape == b.shape and np.array_equal(a, b)
    assert v == v_ref
    assert np.array_equal(x, x_ref)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_sphere_descent_ends_once_its_best_value_stalls(n):
    starts = sphere_points(n, 6, RngSeed(6).generator())

    def run(max_iter, stall):
        rec = _Recorder(lambda x: _smooth(x) + 3.0)  # positive values
        fb = _BestTracker(rec)
        _descend(fb, starts, _normalize_rows, max_iter=max_iter, stall=stall)
        return len(rec.batches), fb.best_v

    calls, value = run(400, True)
    assert calls < run(400, False)[0]
    # a descent capped at i iterations is the first i iterations of the
    # full one: best[i] is the best value after iteration i, and the
    # stalled descent ran the iterations that make as many calls
    best, i = [run(0, False)[1]], 0
    while run(i, False)[0] < calls:
        i += 1
        best.append(run(i, False)[1])
    assert run(i, False) == (calls, value)
    window = DESCENT_STALL_ITERS + 1
    gained = [best[j - window] - best[j] > DESCENT_STALL_REL * best[j - window]
              for j in range(window, i + 1)]
    # it ends on the first iteration whose window gained no more than the
    # threshold, and within DESCENT_STALL_ITERS + 1 iterations of the last
    # iteration that on its own gained more
    assert gained == [True] * (len(gained) - 1) + [False]
    last = max(j for j in range(1, i + 1)
               if best[j - 1] - best[j] > DESCENT_STALL_REL * best[j - 1])
    assert i - last <= window


def test_grassmann_descent_keeps_its_batches_without_the_stall_stop():
    n, k, restarts, seed = 5, 2, 6, RngSeed(9)
    got_f, got = _recorded(_smooth, True)
    minimize_on_grassmannian(got_f, n, k, restarts, seed, vectorized=True)
    starts = grassmann_frames(n, k, restarts, seed.generator())
    batches = {}
    for stall in (False, True):
        want_f, batches[stall] = _recorded(_smooth, True)
        _minimize_ref(want_f, (k, n), starts.reshape(restarts, k * n),
                      _grassmann_retract(k, n), True, seed, stall)
    # the stop would have cut this descent short, and it is not applied
    assert len(batches[True]) < len(batches[False]) == len(got)
    for a, b in zip(got, batches[False]):
        assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# objective errors


def _sphere(objective, **kw):
    return minimize_on_sphere(objective, 3, seed=RngSeed(1), **kw)


def _grassmannian(objective, **kw):
    return minimize_on_grassmannian(objective, 4, 2, seed=RngSeed(1), **kw)


@pytest.mark.parametrize("minimize", [_sphere, _grassmannian])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_batch_raises_naming_its_first_bad_row(minimize, bad):
    seen = []

    def objective(x):
        flat = x.reshape(len(x), -1)
        seen.append(flat.copy())
        v = flat[:, 0].copy()
        v[2] = bad
        v[4] = np.nan
        return v

    with pytest.raises(ObjectiveError) as err:
        minimize(objective, vectorized=True)
    assert str(err.value) == f"objective is not finite at {seen[0][2]!r}"


@pytest.mark.parametrize("minimize", [_sphere, _grassmannian])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_scalar_raises_naming_its_row(minimize, bad):
    seen = []

    def objective(x):
        seen.append(x.ravel().copy())
        return bad if len(seen) == 3 else float(x.ravel()[0])

    with pytest.raises(ObjectiveError) as err:
        minimize(objective)
    assert str(err.value) == f"objective is not finite at {seen[2]!r}"


@pytest.mark.parametrize("minimize", [_sphere, _grassmannian])
@pytest.mark.parametrize("shape", [lambda b: (b + 1,), lambda b: (b, 1),
                                   lambda b: ()], ids=["long", "column",
                                                       "scalar"])
def test_wrong_shape_raises(minimize, shape):
    def objective(x):
        return np.zeros(shape(len(x)))

    with pytest.raises(ObjectiveError, match="objective returned shape"):
        minimize(objective, vectorized=True)
