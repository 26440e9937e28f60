"""Suite runner and extremizer search.

:func:`run_suite` evaluates the check catalog against a body corpus (the
full cross product of admissible cells), aggregates a summary, and writes a
JSON report plus a CSV table.  :func:`extremizer_search` runs a small (1+1)
evolution strategy that perturbs a parametric body family to push a chosen
check's lhs/rhs ratio as high as it will go — an empirical probe of how
much slack the corresponding bound has, with no claim of optimality.

Reports are deterministic: reruns with the same corpus, ids, and seed
produce byte-identical JSON and CSV independent of ``jobs``, because every
random stream is derived from (seed, body, purpose) rather than drawn from
shared sequential state.  Byte identity also needs the BLAS thread count
pinned (say ``OPENBLAS_NUM_THREADS=1``): a threaded BLAS splits large
products differently per thread count, which moves values by roundoff
(verdicts stay the same).
"""

from __future__ import annotations

import csv
import json
import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import bodies
from .bodies import BodySpec
from .checks import (CHECK_IDS, CHECK_MAP, CHECKS, KUBOTA_WIDTH_PAIRS,
                     BodyContext, CheckResult, SuiteConfig, run_check)
from .sampling import RngSeed

CSV_HEADER = ["id", "body", "n", "lhs", "lhs_err", "rhs", "rhs_err",
              "ratio", "status"]

# How shadow quermassintegrals in the report were estimated (kept in the
# report so a reader can judge the error bars without consulting the source).
SHADOW_QUERMASS_NOTE = (
    "Every mean over directions or subspaces is one quermassintegral of K by "
    "Kubota's recursion E_{F in G(n,k)} W_i(P_F K) = (omega_k/omega_n) "
    "W_{n-k+i}(K): the mean V_j of hyperplane shadows, the mean shadow "
    "surface k (omega_k/omega_n) W_{n-k+1}(K) and p_k. W_p(K) is exact for "
    "zonoids and, for vertex bodies, at p <= 3 and p = n; W_4 of a vertex "
    f"body at n = 5 is one antithetic panel of {KUBOTA_WIDTH_PAIRS} width "
    "pairs. CK-IDENT checks the identities "
    "themselves against Monte Carlo panels. The minimum over xi is exact at "
    "j = n-2 and for zonoids (subset-Gram determinants); for vertex bodies "
    "at j < n-2 it screens and polishes the exact W_p of the hulled shadow. "
    "V_j of a single vertex shadow (FGM) is W_{k-j} of its hull, exact at "
    "k-j <= 3 (every index at n <= 5)."
)


def _evaluate_body(spec: BodySpec, check_specs, cfg: SuiteConfig):
    """All requested checks for one body, sharing one context cache."""
    ctx = BodyContext(spec, cfg)
    return [run_check(cs, ctx) for cs in check_specs]


def _evaluate_job(args):
    """Process-pool entry point: rebuild the body spec and checks."""
    spec_dict, ids, cfg = args
    return _evaluate_body(BodySpec.from_dict(spec_dict),
                          [CHECK_MAP[i] for i in ids], cfg)


def _summarize(results: list[CheckResult]) -> dict:
    counts = {"pass": 0, "fail": 0, "inconclusive": 0, "skipped": 0,
              "error": 0}
    for res in results:
        counts[res.status] = counts.get(res.status, 0) + 1
    summary = {
        "cells": len(results),
        "counts": counts,
        "failures": sorted(f"{r.id}/{r.body}" for r in results
                           if r.status == "fail"),
        "errors": sorted(f"{r.id}/{r.body}" for r in results
                         if r.status == "error"),
    }
    # The reverse bound for minimal projections is conjecturally sharp; the
    # smallest ratio over the corpus is the interesting number, so surface
    # it in the summary (evidence only — no pass/fail semantics).
    floor = [r for r in results
             if r.id == "T-LOWER-MIN" and math.isfinite(r.ratio)]
    if floor:
        tightest = min(floor, key=lambda r: r.ratio)
        summary["min-shadow-floor"] = {"smallest_ratio": tightest.ratio,
                                       "body": tightest.body,
                                       "n": tightest.n}
    return summary


def run_suite(corpus, ids=None, seed: int = 0, out=None, *, jobs: int = 1,
              samples: int = 20_000) -> dict:
    """Evaluate checks x corpus and return (and optionally write) a report.

    ``corpus`` is a list of :class:`BodySpec`; ``ids`` selects catalog
    checks (default: all).  When ``out`` is given the report JSON is
    written there and a CSV table next to it (same stem, ``.csv``).
    ``jobs`` parallelizes over bodies; the report bytes do not depend on
    it.  A cell whose status is ``fail`` or ``error`` marks the suite as
    failed (``summary.ok`` false) — errors are treated as seriously as
    failures because both mean the claim went unverified.
    """
    if ids is None:
        ids = list(CHECK_IDS)
    unknown = [i for i in ids if i not in CHECK_MAP]
    if unknown:
        raise ValueError(f"unknown check ids: {unknown}")
    check_specs = [CHECK_MAP[i] for i in ids]
    cfg = SuiteConfig(samples=samples, seed=seed)

    corpus = list(corpus)
    if jobs > 1:
        # processes, not threads: each body is self-contained and the cell
        # evaluations are interpreter-bound, so threads buy nothing
        mp_ctx = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=jobs, mp_context=mp_ctx) as pool:
            per_body = list(pool.map(
                _evaluate_job,
                [(spec.to_dict(), list(ids), cfg)
                 for spec in corpus]))
    else:
        per_body = [_evaluate_body(spec, check_specs, cfg)
                    for spec in corpus]
    results = [res for group in per_body for res in group]

    summary = _summarize(results)
    summary["ok"] = not summary["failures"] and not summary["errors"]
    report = {
        "config": {
            "seed": seed,
            "samples": samples,
            "ids": list(ids),
            "corpus": [spec.to_dict() for spec in corpus],
        },
        "note": SHADOW_QUERMASS_NOTE,
        "summary": summary,
        "results": [res.to_dict() for res in results],
    }
    if out is not None:
        write_report(report, results, out)
    return report


def write_report(report: dict, results: list[CheckResult], out) -> None:
    out = Path(out)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    with out.with_suffix(".csv").open("w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for res in results:
            writer.writerow(res.csv_row())


# ---------------------------------------------------------------------------
# extremizer search
# ---------------------------------------------------------------------------
#
# A (1+1) evolution strategy over a parametric family of bodies, maximizing
# the lhs/rhs ratio of one catalog check.  Candidate and incumbent are
# scored with common random numbers (the check's streams depend only on the
# run seed and the family's fixed body name), so the comparison is a paired
# one and the usual MC noise mostly cancels.  The step size follows the
# classic success-rate adaptation: grow on acceptance, shrink on rejection.

SEARCH_IDS = ("T-HYPER-1", "T-HYPER-2", "T-ZON-2", "GHP")
SEARCH_FAMILIES = ("random-hull", "random-zonotope", "perturbed-cube")

_GROW = 1.3
_SHRINK = 0.87


@dataclass(frozen=True)
class SearchStep:
    """One accepted state of the search: the body and its ratio."""

    step: int
    ratio: float
    body: BodySpec

    def to_dict(self) -> dict:
        return {"step": self.step, "ratio": self.ratio,
                "body": self.body.to_dict()}


def _zonoid_only(check_id: str) -> bool:
    return CHECK_MAP[check_id].body_classes == ("zonoid",)


def _initial_genome(family: str, check_id: str, n: int,
                    gen: np.random.Generator) -> tuple[np.ndarray, bool]:
    """Starting parameter matrix and whether rows are zonotope generators."""
    if family == "random-zonotope":
        return gen.standard_normal((n + 3, n)), True
    if family == "random-hull":
        if _zonoid_only(check_id):
            raise ValueError(
                f"{check_id} accepts only zonoids; the random-hull family "
                "builds vertex hulls — use random-zonotope or perturbed-cube")
        points = gen.standard_normal((2 * n + 4, n))
        return points - points.mean(axis=0), False
    if family == "perturbed-cube":
        if _zonoid_only(check_id):
            # the cube as a zonotope: n axis segments spanning [-1, 1] each
            return np.eye(n), True
        corners = np.array(
            [[1.0 if (i >> j) & 1 else -1.0 for j in range(n)]
             for i in range(2 ** n)])
        return corners, False
    raise ValueError(f"unknown family {family!r}; "
                     f"choose one of {SEARCH_FAMILIES}")


def _genome_body(genome: np.ndarray, as_generators: bool) -> BodySpec:
    # Constant names on purpose: the check derives its random streams from
    # the body name, so every candidate is scored on the same draws (CRN).
    if as_generators:
        return bodies.from_generators(genome, name="search-zonotope")
    return bodies.from_points(genome - genome.mean(axis=0),
                              name="search-hull")


def _score(check_id: str, spec: BodySpec, cfg: SuiteConfig) -> float:
    result = run_check(CHECK_MAP[check_id], BodyContext(spec, cfg))
    if result.status in ("skipped", "error"):
        return -math.inf
    return result.ratio if math.isfinite(result.ratio) else -math.inf


def extremizer_search(check_id: str, family: str, n: int,
                      budget: int = 150, seed: int = 0, *,
                      samples: int = 4_000) -> list[SearchStep]:
    """Maximize a check's lhs/rhs ratio over a perturbation family.

    Runs ``budget`` mutation steps of a (1+1) evolution strategy and
    returns the elitist best-so-far trace (ratios non-decreasing); the
    first entry is the unperturbed family seed.  Evidence only — a ratio
    near 1 means the family found near-extremizers, not that none better
    exist.
    """
    if check_id not in SEARCH_IDS:
        raise ValueError(f"search supports ids {SEARCH_IDS}, not {check_id!r}")
    if family not in SEARCH_FAMILIES:
        raise ValueError(f"unknown family {family!r}; "
                         f"choose one of {SEARCH_FAMILIES}")
    if budget < 0:
        raise ValueError("budget must be >= 0")
    gen = RngSeed(seed).derive("search", check_id, family).generator()
    cfg = SuiteConfig(samples=samples, seed=seed)

    genome, as_generators = _initial_genome(family, check_id, n, gen)
    spec = _genome_body(genome, as_generators)
    best = _score(check_id, spec, cfg)
    trace = [SearchStep(step=0, ratio=best, body=spec)]

    scale = float(np.sqrt(np.mean(genome ** 2))) or 1.0
    sigma = 0.1 * scale
    for step in range(1, budget + 1):
        candidate = genome + sigma * gen.standard_normal(genome.shape)
        cand_spec = _genome_body(candidate, as_generators)
        ratio = _score(check_id, cand_spec, cfg)
        if ratio > best:
            genome, best = candidate, ratio
            trace.append(SearchStep(step=step, ratio=best, body=cand_spec))
            sigma *= _GROW
        else:
            sigma *= _SHRINK
        sigma = min(max(sigma, 1e-6 * scale), 10.0 * scale)
    return trace
