"""The benchmark's workloads and metric catalog.

Each workload is one unit of work that a fresh process runs end to end; the
driver (``run.py``) repeats units for the requested number of seconds and
reports medians.  The workload seed is the projgeo run seed: it selects the
Monte Carlo draws, minimizer starts and search mutations, while the bodies
stay fixed, so the same seed gives the same inputs and report bytes.

Why each workload exists, and which layer it isolates, is in README.md.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass

# -- workloads ---------------------------------------------------------------


@dataclass(frozen=True)
class SuiteWorkload:
    """``run_suite`` over fixed bodies and check ids."""

    name: str
    why: str
    dim: int
    body_names: tuple | None   # None: the default 14-body corpus
    ids: tuple | None          # None: all 27 checks
    jobs: int

    def run(self, seed: int, jobs: int) -> dict:
        from projgeo import bodies, suite
        if self.body_names is None:
            corpus = bodies.corpus(self.dim)
        else:
            corpus = [bodies.from_name(b, self.dim) for b in self.body_names]
        ids = None if self.ids is None else list(self.ids)
        report = suite.run_suite(corpus, ids=ids, seed=seed, jobs=jobs)
        return suite_outcome(report)


@dataclass(frozen=True)
class SearchWorkload:
    """Independent ``extremizer_search`` runs, timing each scoring call.

    The steps of one search are mutations of one body, so the time of a
    single search depends on the body its seed draws; ``searches``
    searches from derived seeds average that out.
    """

    name: str
    why: str
    dim: int
    check_id: str
    family: str
    searches: int
    budget: int                # mutation steps per search
    jobs: int = 1

    def run(self, seed: int, jobs: int) -> dict:
        from projgeo import suite
        steps_ms: list[float] = []
        scores: list[float] = []
        score = suite._score

        def timed_score(*args, **kwargs):
            start = time.perf_counter()
            value = score(*args, **kwargs)
            steps_ms.append((time.perf_counter() - start) * 1e3)
            scores.append(value)
            return value

        suite._score = timed_score
        try:
            traces = [suite.extremizer_search(self.check_id, self.family,
                                              self.dim, budget=self.budget,
                                              seed=seed * self.searches + k)
                      for k in range(self.searches)]
        finally:
            suite._score = score
        return search_outcome(traces, scores, steps_ms, self.budget)


WORKLOADS = {w.name: w for w in (
    SuiteWorkload(
        "verify-n3",
        "all 27 checks on the 14-body corpus at n=3 with 2 workers: every "
        "layer at small size, ball-approx(500) on the critical path",
        dim=3, body_names=None, ids=None, jobs=2),
    SuiteWorkload(
        "quer-n4",
        "T-QUER-2/3/4 at n=4 on a hull and a zonotope: nested Monte Carlo "
        "shadow quermassintegrals and position solves, no minimizer",
        dim=4, body_names=("random-hull(12,1)", "random-zonotope(7,1)"),
        ids=("T-QUER-2", "T-QUER-3", "T-QUER-4"), jobs=1),
    SearchWorkload(
        "search-hull-n4",
        "20 GHP extremizer searches over random hulls at n=4: a fresh hull "
        "and a cold BodyContext for each of 900 steps, nothing is reused",
        dim=4, check_id="GHP", family="random-hull", searches=20,
        budget=44),
)}

# -- outcomes: what a unit produced, for the correctness gate ----------------

CLASS_SKIP_PREFIX = "body class outside"


def report_sha256(report: dict) -> str:
    """sha256 of the report JSON bytes as ``verify --out`` writes them."""
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


def suite_outcome(report: dict) -> dict:
    summary = report["summary"]
    counts = dict(summary["counts"])
    budget_skips = sum(
        1 for r in report["results"] if r["status"] == "skipped"
        and not r["detail"].get("reason", "").startswith(CLASS_SKIP_PREFIX))
    return {
        "kind": "suite",
        "attempted": int(summary["cells"]),
        "failed": counts.get("fail", 0) + counts.get("error", 0),
        "counts": counts,
        "budget_skips": budget_skips,
        "unverified_cells": (counts.get("fail", 0) + counts.get("error", 0)
                             + counts.get("inconclusive", 0) + budget_skips),
        "ok": bool(summary["ok"]),
        "sha256": report_sha256(report),
    }


def search_outcome(traces: list, scores: list[float], steps_ms: list[float],
                   budget: int) -> dict:
    ratios = [[step.ratio for step in trace] for trace in traces]
    finite = all(math.isfinite(r) for trace in ratios for r in trace)
    monotone = all(b >= a for trace in ratios
                   for a, b in zip(trace, trace[1:]))
    record = json.dumps([[step.to_dict() for step in trace]
                         for trace in traces], sort_keys=True)
    accepted = sum(len(trace) - 1 for trace in traces)
    return {
        "kind": "search",
        "attempted": len(scores),
        "failed": sum(1 for s in scores if s == -math.inf),
        "ok": (finite and monotone
               and len(scores) == len(traces) * (budget + 1)),
        "accept_ratio": accepted / (len(traces) * budget),
        "best_ratios": [trace[-1] for trace in ratios],
        "steps_ms": steps_ms,
        "sha256": hashlib.sha256(record.encode()).hexdigest(),
    }


# -- metrics -----------------------------------------------------------------

END_TO_END = (
    # name, unit, better, bound (share of the parent's median)
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

CHECK_IDS = (
    "GHP", "T-HYPER-1", "T-LOWER-MIN", "T-HYPER-2", "T-HYPER-3", "T-HYPER-4",
    "T-HYPER-5", "T-HYPER-6", "L-ZON-1", "T-ZON-2", "ZON-VOL", "MINPROJ",
    "ALEK", "S-INRADIUS", "T-QUER-1", "T-QUER-2", "T-QUER-3", "T-QUER-4",
    "FGM", "L-HIGHER-1", "T-HIGHER-2", "T-HIGHER-5", "T-HIGHER-6",
    "T-HIGHER-7", "ZON-VOL-ID", "CK-IDENT", "BALL-EQ",
)
POSITION_SOLVERS = ("minimal_surface_position", "isotropic_position",
                    "john_position", "lowner_position",
                    "min_mean_width_position")


def _per_layer() -> tuple:
    out = []

    def span(name, *fields):
        for field in fields:
            unit = {"calls": "count", "s": "s", "self_s": "s"}.get(field,
                                                                  "count")
            out.append((f"{name}.{field}", unit, "lower"))

    for attr in ("minimize_on_sphere", "minimize_on_grassmannian"):
        span(f"sampling.{attr}", "calls", "s", "self_s", "evals")
    span("checks.BodyContext.shadow_quermass_mean", "calls", "s")
    for attr in ("min_shadow_surface", "min_shadow_volume",
                 "min_shadow_quermass", "positioned"):
        span(f"checks.BodyContext.{attr}", "s")
    for check_id in CHECK_IDS:
        span(f"checks.{check_id}", "s")
    out.append(("checks.memo.hit_ratio", "ratio", "higher"))
    out.append(("checks.memo.lookups", "count", "lower"))
    for attr in ("build", "ridges", "inradius"):
        span(f"polytope.{attr}", "calls", "s")
    for attr in ("shadow_surfaces", "shadow_volumes", "width_batch"):
        span(f"polytope.{attr}", "rows", "s")
    for attr in ("shadow_surfaces", "shadow_volumes", "frame_shadow_volumes",
                 "frame_shadow_surfaces", "width_batch"):
        span(f"zonotope.{attr}", "rows", "s")
    span("zonotope.projection_body", "calls", "s")
    span("bodyops.frame_shadow_panel", "frames", "s")
    span("bodyops.project_body", "calls", "s")
    span("bodies.build", "calls", "s")
    span("quermass.quermassintegral", "calls", "s")
    for attr in POSITION_SOLVERS:
        span(f"positions.{attr}", "calls", "s")
    out.append(("positions.iterations", "count", "lower"))
    out.append(("positions.cert_rejects", "count", "lower"))
    out.append(("suite.unverified_cells", "count", "lower"))
    out.append(("suite.body_max_s", "s", "lower"))
    out.append(("suite.body_sum_s", "s", "lower"))
    out.append(("suite.search.accept_ratio", "ratio", "higher"))
    span("suite.search.score", "s")
    out.append(("suite.search.step_p50_ms", "ms", "lower"))
    out.append(("suite.search.step_p90_ms", "ms", "lower"))
    out.append(("trace.overhead_ratio", "ratio", "lower"))
    return tuple(out)


PER_LAYER = _per_layer()

# A metric that is legitimately zero on every workload names the metric that
# proves its wrapper was reached; every other metric witnesses itself.
WITNESS = {"positions.cert_rejects": "checks.BodyContext.positioned.s"}

_SPAN_FIELDS = {"calls": 0, "s": 1, "self_s": 2}


def layer_metrics(tracer) -> dict:
    """Per-layer metric values of one traced unit (no cross-rep metrics)."""
    counts = tracer.counts
    values = {}
    for name, _, _ in PER_LAYER:
        prefix, _, field = name.rpartition(".")
        if field in _SPAN_FIELDS and prefix in tracer.stats:
            values[name] = tracer.layer(prefix)[_SPAN_FIELDS[field]]
        elif field in _SPAN_FIELDS:
            values[name] = 0 if field == "calls" else 0.0
        else:
            values[name] = counts.get(name, 0)
    lookups = counts.get("checks.memo.lookups", 0)
    values["checks.memo.hit_ratio"] = (
        counts.get("checks.memo.hits", 0) / lookups if lookups else 0.0)
    bodies = [end - start for name, start, end, _ in tracer.spans
              if name == "suite.body"]
    values["suite.body_max_s"] = max(bodies, default=0.0)
    values["suite.body_sum_s"] = sum(bodies)
    return values
