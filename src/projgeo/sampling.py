"""Seeded random streams, sphere/Grassmannian sampling, and minimization.

Every random number in the library is drawn from a :class:`RngSeed` (a root
seed plus a stream id), so it can be regenerated bit for bit from the pair
alone.  Stream ids for named purposes are derived by hashing label strings
(see :meth:`RngSeed.derive`), which keeps concurrent consumers independent
without global state.

Conventions:
  * directions are unit vectors in R^n, sampled uniformly on S^{n-1} by
    normalizing Gaussians;
  * a k-dimensional subspace is represented by an orthonormal frame with the
    k basis vectors as *rows*, Haar-sampled by QR of a Gaussian matrix with
    the sign of diag(R) fixed (otherwise QR is not Haar).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Estimate",
    "RngSeed",
    "ObjectiveError",
    "sphere_points",
    "grassmann_frames",
    "mc_estimate",
    "minimize_on_sphere",
    "minimize_on_grassmannian",
]

_MASK64 = (1 << 64) - 1

# Minimizer settings (see the notes above _descend).
FD_STEP = 1e-6             # forward-difference step of the descent gradient
STEP_MIN = 1e-10           # a restart retires when its step falls below this
DESCENT_STALL_REL = 1e-12  # a sphere descent ends once its best value has
DESCENT_STALL_ITERS = 20   # gained no more than this (relative) since before
                           # the iteration this many iterations back
POLISH_START_SCALE = 1e-2  # pattern-search scale: first and largest
POLISH_END_SCALE = 1e-9    # the polish stops below this scale
POLISH_STALL_REDRAWS = 3   # random frames tried before the scale halves


class ObjectiveError(ValueError):
    """An objective returned a non-finite value during minimization."""


@dataclass(frozen=True)
class RngSeed:
    """Root seed plus stream id; equal pairs give equal sample sequences."""

    seed: int = 0
    stream: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(
            entropy=(self.seed & _MASK64, self.stream & _MASK64)
        )
        return np.random.Generator(np.random.PCG64(ss))

    def derive(self, *labels) -> "RngSeed":
        """A child seed whose stream id hashes the given labels.

        The hash is a stable digest (not Python's salted ``hash``), so derived
        streams are reproducible across processes and runs.
        """
        text = ":".join(str(lb) for lb in labels)
        digest = hashlib.sha256(text.encode("utf-8")).digest()
        return RngSeed(self.seed, int.from_bytes(digest[:8], "little"))


@dataclass(frozen=True)
class Estimate:
    """A measured value: exact, or a Monte Carlo mean with its standard error."""

    value: float
    stderr: float = 0.0
    n_samples: int = 0

    @staticmethod
    def of(value: float) -> "Estimate":
        return Estimate(float(value))

    @property
    def exact(self) -> bool:
        return self.stderr == 0.0 and self.n_samples == 0

    def scaled(self, factor: float) -> "Estimate":
        f = float(factor)
        return Estimate(self.value * f, abs(f) * self.stderr, self.n_samples)

    def powered(self, expo: float) -> "Estimate":
        value = self.value ** expo
        stderr = 0.0
        if self.stderr and self.value > 0.0:
            stderr = abs(expo) * value * self.stderr / self.value
        return Estimate(value, stderr, self.n_samples)

    def to_dict(self) -> dict:
        return {"value": self.value, "stderr": self.stderr,
                "n_samples": self.n_samples, "exact": self.exact}

    def __float__(self) -> float:
        return self.value


def sphere_points(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """(count, n) array of uniform points on S^{n-1}."""
    if n < 2:
        raise ValueError("ambient dimension must be >= 2")
    if count < 1:
        raise ValueError("count must be >= 1")
    g = rng.standard_normal((count, n))
    nrm = np.linalg.norm(g, axis=1, keepdims=True)
    # Resample exact zeros (probability zero, but cheap to be safe).
    while np.any(nrm == 0.0):
        bad = nrm[:, 0] == 0.0
        g[bad] = rng.standard_normal((int(bad.sum()), n))
        nrm = np.linalg.norm(g, axis=1, keepdims=True)
    return g / nrm


def grassmann_frames(n: int, k: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """(count, k, n) array of Haar-distributed orthonormal frames."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    if count < 1:
        raise ValueError("count must be >= 1")
    g = rng.standard_normal((count, n, k))
    q, r = np.linalg.qr(g)
    signs = np.sign(np.einsum("bii->bi", r))
    signs[signs == 0.0] = 1.0
    return np.swapaxes(q * signs[:, None, :], 1, 2)


def mc_estimate(values) -> Estimate:
    """Mean, standard error (ddof=1; zero for a single sample), and count."""
    v = np.asarray(values, dtype=float).ravel()
    if v.size == 0:
        raise ValueError("cannot estimate from an empty sample")
    if not np.all(np.isfinite(v)):
        raise ValueError("sample contains non-finite values")
    mean = float(v.mean())
    stderr = 0.0 if v.size == 1 else float(v.std(ddof=1) / math.sqrt(v.size))
    return Estimate(mean, stderr, int(v.size))


# ---------------------------------------------------------------------------
# Stochastic minimization on the sphere / Grassmannian.
#
# Multi-start projected (sub)gradient descent, run on the live restarts at
# once as array rows: finite-difference gradients of f∘retract and
# per-restart Armijo step control.  A restart retires when its step drops
# below STEP_MIN and is never evaluated again; a restart whose step was
# rejected keeps its gradient, so the FD stencil runs only on the rows that
# moved.  The best point is then polished by a shrinking pattern search
# (handles kinks, where gradient steps stall at ~sqrt(FD_STEP) accuracy).
# The returned value is the minimum over every point evaluated anywhere in
# the procedure.
#
# A sphere descent also ends once its best value has improved by no more
# than DESCENT_STALL_REL (relative) over the last DESCENT_STALL_ITERS + 1
# iterations; the polish then starts from the best point, as after a full
# descent.  On the n = 3 corpus (seed 0) the stop cuts the sphere objective
# calls from 13,581 to 11,246 and leaves the report's bytes unchanged.
# The Grassmann descent keeps descending to STEP_MIN: with the same stop,
# T-ZON-2's k = 3 minimum on random-zonotope(8,4) at n = 5 rose by 5.5e-4.
#
# With cheap objectives the loop's own numpy calls dominate, so each step is
# a handful of whole-array operations: the descent keeps arrays of the live
# rows only (compacted on the iterations where a row retires), and the
# polish polls a prebuilt signed frame and draws its random frames in
# chunks.  The objective sees the same batches, bit for bit, as with
# per-row bookkeeping; tests/test_sampling.py keeps that reference, and a
# copy of the descent that recomputes every gradient.
# ---------------------------------------------------------------------------


def _normalize_rows(x: np.ndarray) -> np.ndarray:
    # The 2-norm formula np.linalg.norm runs, without its dispatch.
    nrm = np.sqrt(np.add.reduce(x * x, axis=-1, keepdims=True))
    nrm[nrm < 1e-300] = 1.0
    return x / nrm


class _BestTracker:
    """Wraps a batched objective; keeps the best (point, value) ever seen."""

    def __init__(self, fbatch):
        self._f = fbatch
        self.best_x = None
        self.best_v = math.inf

    def __call__(self, x: np.ndarray) -> np.ndarray:
        v = np.asarray(self._f(x), dtype=float)
        if v.shape != (x.shape[0],):
            raise ObjectiveError(
                f"objective returned shape {v.shape}, expected ({x.shape[0]},)"
            )
        if not np.isfinite(v).all():
            i = int(np.flatnonzero(~np.isfinite(v))[0])
            raise ObjectiveError(f"objective is not finite at {x[i]!r}")
        i = v.argmin()
        if v[i] < self.best_v:
            self.best_v = float(v[i])
            self.best_x = x[i].copy()
        return v


def _descend(fb: _BestTracker, x0: np.ndarray, retract,
             max_iter: int = 400, stall: bool = False) -> None:
    """Batched descent of the live restarts; results accumulate inside ``fb``.

    A retired restart (step below STEP_MIN) is dropped from the rows and
    never evaluated again.  A restart whose last step was rejected sits at
    the same x, so it keeps its gradient: the FD stencil runs only on the
    rows that moved, and not at all when none did.  With ``stall`` the
    descent also ends after an iteration that leaves ``fb.best_v`` within
    DESCENT_STALL_REL (relative) of its value before the iteration
    DESCENT_STALL_ITERS earlier, that is after DESCENT_STALL_ITERS + 1
    iterations in a row that together gain no more."""
    x = retract(x0.copy())
    fx = fb(x)
    d = x.shape[1]
    t = np.full(x.shape[0], 0.25)
    grad_t = np.empty((d, x.shape[0]))  # the gradients as columns
    moved = np.ones(x.shape[0], dtype=bool)
    steps = FD_STEP * np.eye(d)[:, None, :]
    history = []  # fb.best_v before each iteration
    for _ in range(max_iter):
        history.append(fb.best_v)
        live = t >= STEP_MIN
        if not live.all():
            if not live.any():
                break
            x, fx, t = x[live], fx[live], t[live]
            grad_t, moved = grad_t[:, live], moved[live]
        # FD gradient of f∘retract: the d perturbed copies x + FD_STEP·e_j
        # of each moved row, stacked coordinate-major into one (d·m, d)
        # batch and one call.
        if moved.any():
            xm = x[moved]
            fd = fb(retract((xm[None] + steps).reshape(-1, d))).reshape(d, -1)
            grad_t[:, moved] = (fd - fx[moved]) / FD_STEP
        grad = grad_t.T
        prop = retract(x - t[:, None] * grad)
        fp = fb(prop)
        ok = fp <= fx - 1e-4 * t * np.einsum("ij,ij->i", grad, grad)
        x = np.where(ok[:, None], prop, x)
        fx = np.where(ok, fp, fx)
        t = np.where(ok, np.minimum(t * 1.25, 1.0), t * 0.5)
        moved = ok
        if stall and len(history) > DESCENT_STALL_ITERS:
            past = history[-1 - DESCENT_STALL_ITERS]
            if past - fb.best_v <= DESCENT_STALL_REL * abs(past):
                break


def _pattern_polish(fb: _BestTracker, retract, d: int,
                    gen: np.random.Generator) -> None:
    """Pattern search around the incumbent best point, with scale adaptation.

    Probes +- scale along an orthonormal frame.  A successful poll expands
    the scale (so shallow valleys are crossed in strides rather than
    ulp-sized steps); a stalled poll redraws a random frame before the scale
    shrinks, because piecewise-linear objectives have conical minima whose
    descent cone can elude any fixed probe set.  The relative improvement
    cutoff keeps kinked minima from creeping downward forever.

    A frame B is kept as the signed stack [B; -B], so a poll is one
    retract(x + scale·signed).  The frames are drawn and orthonormalized in
    chunks of as many as a polish that never improves redraws; a chunk of
    (d, d) draws and a batched QR give the frames of one draw at a time.
    """
    chunk = POLISH_STALL_REDRAWS * math.ceil(
        math.log2(POLISH_START_SCALE / POLISH_END_SCALE))
    eye = np.eye(d)
    signed = np.concatenate([eye, -eye])
    frames, drawn = np.empty((0, 2 * d, d)), 0
    scale = POLISH_START_SCALE
    redraws = 0
    polls = 0
    while scale >= POLISH_END_SCALE and polls < 500 * d:
        before = fb.best_v
        fb(retract(fb.best_x + scale * signed))
        polls += 1
        if fb.best_v < before - 1e-13 * abs(before) - 1e-300:
            redraws = 0
            scale = min(scale * 2.0, POLISH_START_SCALE)
        elif redraws < POLISH_STALL_REDRAWS:
            if drawn == len(frames):
                q, _ = np.linalg.qr(gen.standard_normal((chunk, d, d)))
                frames, drawn = np.concatenate([q, -q], axis=1), 0
            signed = frames[drawn]
            drawn += 1
            redraws += 1
        else:
            redraws = 0
            scale *= 0.5


def _run_minimizer(objective, shape: tuple[int, ...], starts: np.ndarray,
                   retract, vectorized: bool, seed: RngSeed, stall: bool,
                   seed_iters: int | None = None):
    """Descend from the flat ``starts`` rows, then polish the best point.

    ``objective`` sees points reshaped to ``shape`` (one at a time, or as a
    (B, *shape) stack when ``vectorized``).  Returns the best point in that
    shape and its value.  ``stall`` is the descent's stall stop.  With
    ``seed_iters`` the descent stops after at most that many iterations and
    the polish is skipped.
    """
    if vectorized:
        def fbatch(flat):
            return objective(flat.reshape(-1, *shape))
    else:
        def fbatch(flat):
            return np.array([float(objective(row.reshape(shape)))
                             for row in flat])
    fb = _BestTracker(fbatch)
    if seed_iters is not None:
        _descend(fb, starts, retract, max_iter=seed_iters, stall=stall)
        return fb.best_x.reshape(shape), fb.best_v
    _descend(fb, starts, retract, stall=stall)
    _pattern_polish(fb, retract, starts.shape[1],
                    seed.derive("polish").generator())
    return fb.best_x.reshape(shape), fb.best_v


def minimize_on_sphere(objective, n: int, restarts: int | None = None,
                       seed: RngSeed = RngSeed(), *,
                       vectorized: bool = False,
                       seed_iters: int | None = None) -> tuple[np.ndarray, float]:
    """Minimize a function on S^{n-1}.

    ``objective`` maps a unit vector (an (n,) array) to a finite scalar; pass
    ``vectorized=True`` if it instead maps a (B, n) array of unit rows to a
    (B,) array (much faster for array-native objectives).  Returns the best
    unit vector found and its value, which is ≤ the objective at every point
    evaluated during the search.

    The descent ends once its best value has improved by no more than
    DESCENT_STALL_REL (relative) over DESCENT_STALL_ITERS + 1 iterations, or
    when every restart's step has fallen below STEP_MIN; the polish then
    runs from the best point (see the notes above `_normalize_rows`).  The
    Grassmann descent has no such stop, because with it T-ZON-2's k = 3
    minimum on random-zonotope(8,4) at n = 5 ended 5.5e-4 higher.
    ``seed_iters`` caps the descent at that many iterations and skips the
    polish: the result only seeds a caller's own exact search.
    """
    if restarts is None:
        restarts = 8 * n
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    starts = sphere_points(n, restarts, seed.generator())
    return _run_minimizer(objective, (n,), starts, _normalize_rows,
                          vectorized, seed, stall=True, seed_iters=seed_iters)


def minimize_on_grassmannian(objective, n: int, k: int,
                             restarts: int | None = None,
                             seed: RngSeed = RngSeed(), *,
                             vectorized: bool = False) -> tuple[np.ndarray, float]:
    """Minimize a function on the Grassmannian G_{n,k}.

    ``objective`` maps an orthonormal (k, n) frame (basis vectors as rows) to
    a finite scalar; with ``vectorized=True`` it maps a (B, k, n) stack of
    frames to a (B,) array.  Returns the best frame found and its value.
    The descent runs until every restart's step has fallen below STEP_MIN,
    without the sphere descent's stall stop (see the notes above
    `_normalize_rows`).
    """
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    if restarts is None:
        restarts = 8 * n
    if restarts < 1:
        raise ValueError("restarts must be >= 1")

    def retract(flat: np.ndarray) -> np.ndarray:
        mats = flat.reshape(-1, k, n)
        q, r = np.linalg.qr(np.swapaxes(mats, 1, 2))
        signs = np.sign(np.einsum("bii->bi", r))
        signs[signs == 0.0] = 1.0
        frames = np.swapaxes(q * signs[:, None, :], 1, 2)
        return frames.reshape(flat.shape[0], k * n)

    starts = grassmann_frames(n, k, restarts, seed.generator()).reshape(restarts, k * n)
    return _run_minimizer(objective, (k, n), starts, retract, vectorized, seed,
                          stall=False)
