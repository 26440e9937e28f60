"""Span tracing of the projgeo layers, applied from outside the library.

:func:`install` replaces public functions and class methods of the projgeo
modules with wrappers that record a span per call (name, start, end, parent
span, run id) and count the work done at that boundary (rows, frames,
objective evaluations, solver iterations, cache lookups).  Nothing in the
library changes: a function imported by name into another module is
rebound in every projgeo module that holds it, and methods are replaced on
their classes, so every lookup site sees the wrapper.  :meth:`Tracer.undo`
restores the originals.

Spans stay in memory and are written once by :meth:`Tracer.write`.  Layer
self time is a span's duration minus the part covered by its child spans;
inclusive time counts only the outermost span of a name, so a recursive
call is not counted twice.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np


class Tracer:
    """In-memory span recorder with per-name aggregates and counters."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []      # (name, start, end, parent index) per call
        self.stats: dict = {}      # name -> [calls, inclusive s, self s]
        self.counts: Counter = Counter()
        self._stack: list = []     # [span index, time covered by children]
        self._active: Counter = Counter()
        self._undo: list = []

    def wrap(self, name, fn, count=None):
        """``fn`` recording a span per call.

        ``name`` is a string or a callable of the call's positional
        arguments; ``count(args, result)`` runs after a successful call to
        add to the counters.
        """
        spans, stack, stats, active = (self.spans, self._stack, self.stats,
                                       self._active)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            index = len(spans)
            spans.append(None)
            frame = [index, 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            active[label] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                active[label] -= 1
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                row = stats.setdefault(label, [0, 0.0, 0.0])
                row[0] += 1
                if not active[label]:
                    row[1] += duration
                row[2] += duration - frame[1]
                spans[index] = (label, start, end, parent)
            if count is not None:
                count(args, result)
            return result
        return traced

    # -- patching -------------------------------------------------------------

    def rebind(self, module, attr: str, new) -> None:
        """Replace ``module.attr`` in every projgeo module that holds it."""
        original = getattr(module, attr)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("projgeo"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, new)
                    self._undo.append((mod, key, original))

    def replace(self, cls, attr: str, new) -> None:
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, new)

    def undo(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- output ---------------------------------------------------------------

    def layer(self, name: str) -> tuple[int, float, float]:
        """(calls, inclusive s, self s) of one span name, zeros if unseen."""
        calls, incl, excl = self.stats.get(name, (0, 0.0, 0.0))
        return int(calls), float(incl), float(excl)

    def write(self, path: Path) -> None:
        names = sorted({span[0] for span in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[n], start, end, parent]
                for n, start, end, parent in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"run_id": self.run_id,
                                    "clock": "time.perf_counter",
                                    "fields": ["name", "start", "end",
                                               "parent"],
                                    "names": names, "spans": rows}))


def install(tracer: Tracer) -> Tracer:
    """Wrap every traced boundary of the projgeo layers; returns ``tracer``."""
    from projgeo import (bodies, bodyops, checks, polytope, positions,
                         quermass, sampling, suite, zonotope)
    counts = tracer.counts

    def rows(key):
        """Counter of the batch argument's rows (directions or frames)."""
        def count(args, result):
            counts[key] += int(np.shape(np.atleast_2d(args[1]))[0])
        return count

    def function(module, attr, name, count=None, fn=None):
        fn = getattr(module, attr) if fn is None else fn
        tracer.rebind(module, attr, tracer.wrap(name, fn, count))

    def method(cls, attr, name, count=None, fn=None):
        fn = cls.__dict__[attr] if fn is None else fn
        tracer.replace(cls, attr, tracer.wrap(name, fn, count))

    # sampling: the sphere and Grassmann minimizers, counting objective rows
    for attr in ("minimize_on_sphere", "minimize_on_grassmannian"):
        function(sampling, attr, f"sampling.{attr}",
                 fn=_counting_minimizer(getattr(sampling, attr), counts,
                                        f"sampling.{attr}.evals"))

    # polytope
    method(polytope.Polytope, "__init__", "polytope.build")
    # ridges() caches; _build_ridges is the call that does the work
    method(polytope.Polytope, "_build_ridges", "polytope.ridges")
    function(polytope, "inradius", "polytope.inradius")
    for attr in ("shadow_surfaces", "shadow_volumes", "width_batch"):
        method(polytope.Polytope, attr, f"polytope.{attr}",
               rows(f"polytope.{attr}.rows"))

    # zonotope
    for attr in ("shadow_surfaces", "shadow_volumes", "frame_shadow_volumes",
                 "frame_shadow_surfaces", "width_batch"):
        method(zonotope.Zonotope, attr, f"zonotope.{attr}",
               rows(f"zonotope.{attr}.rows"))
    function(zonotope, "projection_body", "zonotope.projection_body")

    # bodyops, bodies, quermass
    function(bodyops, "frame_shadow_panel", "bodyops.frame_shadow_panel",
             rows("bodyops.frame_shadow_panel.frames"))
    function(bodyops, "project_body", "bodyops.project_body")
    method(bodies.BodySpec, "build", "bodies.build")
    function(quermass, "quermassintegral", "quermass.quermassintegral")

    # positions: solver iterations from the returned PositionResult
    def iterations(args, result):
        res = result[0] if isinstance(result, tuple) else result
        counts["positions.iterations"] += int(res.iterations)
    for attr in ("minimal_surface_position", "isotropic_position",
                 "john_position", "lowner_position",
                 "min_mean_width_position"):
        function(positions, attr, f"positions.{attr}", iterations)

    # checks: one span per check id and the cached-panel layer of BodyContext
    function(checks, "run_check", lambda args: f"checks.{args[0].id}")
    ctx_cls = checks.BodyContext
    for attr in ("shadow_quermass_mean", "min_shadow_surface",
                 "min_shadow_volume", "min_shadow_quermass"):
        method(ctx_cls, attr, f"checks.BodyContext.{attr}")
    method(ctx_cls, "positioned", "checks.BodyContext.positioned",
           fn=_counting_positioned(ctx_cls.__dict__["positioned"], counts,
                                   checks.PositionCertificateError))
    tracer.replace(ctx_cls, "_memo",
                   _counting_memo(ctx_cls.__dict__["_memo"], counts))

    # suite: per-body evaluation and the search's scoring call
    function(suite, "_evaluate_body", "suite.body")
    function(suite, "_score", "suite.search.score")
    return tracer


def _counting_minimizer(minimize, counts: Counter, key: str):
    """``minimize`` with its objective counting the rows it evaluates."""
    @functools.wraps(minimize)
    def counted(objective, *args, **kwargs):
        vectorized = kwargs.get("vectorized", False)

        def objective_rows(x):
            counts[key] += int(np.shape(x)[0]) if vectorized else 1
            return objective(x)
        return minimize(objective_rows, *args, **kwargs)
    return counted


def _counting_positioned(positioned, counts: Counter, cert_error):
    """``BodyContext.positioned`` counting residual-certificate rejections."""
    @functools.wraps(positioned)
    def counted(self, kind):
        try:
            return positioned(self, kind)
        except cert_error:
            counts["positions.cert_rejects"] += 1
            raise
    return counted


def _counting_memo(memo, counts: Counter):
    """``BodyContext._memo`` counting lookups and hits (a lookup, no span)."""
    @functools.wraps(memo)
    def counted(self, key, builder):
        counts["checks.memo.lookups"] += 1
        if key in self._cache:
            counts["checks.memo.hits"] += 1
        return memo(self, key, builder)
    return counted
