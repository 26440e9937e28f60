"""Command-line front end.

Subcommands: ``bodies`` (corpus listing / corpus files), ``compute``
(single scalar quantities), ``position`` (classical position solvers),
``verify`` (the full check suite), ``search`` (extremizer search), and
``plot`` (SVG of report ratios).  No environment variables, no network —
behavior depends only on the flags, and identical invocations write
byte-identical files.  All numbers print with 9 significant digits.

Exit codes: 0 success (and, for verify, all cells pass or skip); 1 at
least one verify cell failed or errored; 2 usage or I/O problems.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

import numpy as np

from . import bodies, positions, quermass, suite, svgplot
from .bodies import BodySpec
from .bodyops import to_polytope
from .polytope import circumradius, inradius
from .sampling import Estimate, RngSeed
from .zonotope import Zonotope

MIN_SAMPLES = 4  # two antithetic width pairs: the least error bar


def _g(x: float) -> str:
    return f"{float(x):.9g}"


def _load_body(text: str, dim: int) -> BodySpec:
    path = Path(text)
    if path.suffix == ".json" or path.exists():
        return bodies.read_body(path)
    return bodies.from_name(text, dim)


def _load_corpus(text: str, dim: int) -> list[BodySpec]:
    if text == "default":
        return bodies.corpus(dim)
    entries = json.loads(Path(text).read_text())
    specs = []
    for entry in entries:
        if isinstance(entry, str):
            specs.append(bodies.from_name(entry, dim))
        else:
            specs.append(BodySpec.from_dict(entry))
    return specs


# ---------------------------------------------------------------------------
# subcommands


def _cmd_bodies(args) -> int:
    specs = bodies.corpus(args.dim)
    for spec in specs:
        body = spec.build()
        if isinstance(body, Zonotope):
            size = f"{body.n_generators} generators"
        else:
            size = f"{body.n_vertices} vertices, {body.n_facets} facets"
        print(f"{spec.name:<22} kind={spec.kind:<16} n={spec.dim}  {size}")
    if args.out:
        Path(args.out).write_text(
            json.dumps([s.to_dict() for s in specs], indent=2, sort_keys=True)
            + "\n")
        print(f"corpus written to {args.out}")
    return 0


_QUANTITY_RE = re.compile(r"^(?P<head>[a-z-]+)(?:\((?P<arg>\d+)\))?$")


def _cmd_compute(args) -> int:
    spec = _load_body(args.body, args.dim)
    body = spec.build()
    n = body.dim
    match = _QUANTITY_RE.match(args.quantity.strip())
    if not match:
        raise ValueError(f"cannot parse quantity {args.quantity!r}")
    head, arg = match.group("head"), match.group("arg")
    seed = RngSeed(args.seed).derive("compute", spec.name, args.quantity)

    if head == "volume":
        est = Estimate.of(body.volume())
    elif head == "surface":
        est = Estimate.of(body.surface_area())
    elif head == "inradius":
        radius, _ = inradius(to_polytope(body))
        est = Estimate.of(radius)
    elif head == "circumradius":
        est = Estimate.of(circumradius(to_polytope(body)))
    elif head == "mean-width":
        est = quermass.quermassintegral(body, n - 1, args.samples, seed).scaled(
            1.0 / quermass.omega(n))
    elif head == "vrad":
        est = Estimate.of(quermass.vrad(body))
    elif head == "partial":
        est = Estimate.of(positions.minimal_surface_position(body)[1])
    elif head == "quermass":
        if arg is None:
            raise ValueError("quermass needs a codimension, e.g. quermass(2)")
        est = quermass.quermassintegral(body, int(arg), args.samples, seed)
    elif head == "pk":
        if arg is None:
            raise ValueError("pk needs a shadow dimension, e.g. pk(2)")
        k = int(arg)
        if not 1 <= k <= n:
            raise ValueError(f"pk index must lie in 1..{n}")
        est = quermass.quermassintegral(body, n - k, args.samples, seed).scaled(
            quermass.omega(k) / quermass.omega(n)
            / body.volume() ** (k / float(n)))
    else:
        raise ValueError(f"unknown quantity {args.quantity!r}")

    print(_g(est.value) if est.exact
          else f"{_g(est.value)} ± {_g(est.stderr)}")
    return 0


def _cmd_position(args) -> int:
    spec = _load_body(args.body, args.dim)
    body = spec.build()
    result, extras = positions.solve(
        args.kind, body, RngSeed(args.seed).derive("position", spec.name))

    print(f"body: {spec.name} (n={body.dim})")
    print(f"kind: {args.kind}")
    if result.route:
        print(f"route: {result.route}")
    print(f"converged: {result.converged}")
    print(f"residual: {_g(result.residual)}")
    print(f"iterations: {result.iterations}")
    print(f"objective: {_g(result.objective)}")
    for key, val in extras.items():
        if isinstance(val, list):
            print(f"{key}: " + " ".join(_g(v) for v in val))
        else:
            print(f"{key}: {_g(val)}")
    print("transform:")
    for row in np.atleast_2d(result.transform):
        print("  " + " ".join(_g(v) for v in row))
    if args.out:
        record = {"body": spec.to_dict(), "kind": args.kind,
                  **result.to_dict(), "converged": bool(result.converged),
                  "extras": extras}
        Path(args.out).write_text(
            json.dumps(record, indent=2, sort_keys=True) + "\n")
        print(f"position written to {args.out}")
    return 0


def _cmd_verify(args) -> int:
    corpus = _load_corpus(args.corpus, args.dim)
    ids = args.ids.split(",") if args.ids else None
    report = suite.run_suite(corpus, ids=ids, seed=args.seed, out=args.out,
                             jobs=args.jobs, samples=args.samples)
    summary = report["summary"]
    for res in report["results"]:
        if res["status"] in ("fail", "error", "inconclusive"):
            print(f"{res['status'].upper():<13} {res['id']}/{res['body']} "
                  f"(n={res['n']}) ratio={_g(res['ratio'])}"
                  if res["ratio"] is not None and np.isfinite(res["ratio"])
                  else f"{res['status'].upper():<13} "
                       f"{res['id']}/{res['body']} (n={res['n']})")
    counts = summary["counts"]
    print("cells={cells} pass={p} skipped={s} inconclusive={i} "
          "fail={f} error={e}".format(
              cells=summary["cells"], p=counts["pass"], s=counts["skipped"],
              i=counts["inconclusive"], f=counts["fail"], e=counts["error"]))
    floor = summary.get("min-shadow-floor")
    if floor:
        print(f"smallest minimal-projection floor ratio: "
              f"{_g(floor['smallest_ratio'])} ({floor['body']}, "
              f"n={floor['n']})")
    if args.out:
        print(f"report: {args.out}  table: {Path(args.out).with_suffix('.csv')}")
    return 0 if summary["ok"] else 1


def _cmd_search(args) -> int:
    trace = suite.extremizer_search(args.id, args.family, args.dim,
                                    budget=args.budget, seed=args.seed,
                                    samples=args.samples)
    for step in trace:
        print(f"step {step.step:>4}  ratio {_g(step.ratio)}")
    best = trace[-1]
    print(f"best ratio {_g(best.ratio)} after {args.budget} steps "
          f"({len(trace) - 1} improvements)")
    if args.out:
        record = {
            "config": {"id": args.id, "family": args.family, "n": args.dim,
                       "budget": args.budget, "seed": args.seed,
                       "samples": args.samples},
            "trace": [step.to_dict() for step in trace],
        }
        Path(args.out).write_text(
            json.dumps(record, indent=2, sort_keys=True) + "\n")
        print(f"trace written to {args.out}")
    return 0


def _cmd_plot(args) -> int:
    reports = [json.loads(Path(p).read_text()) for p in args.report]
    svgplot.plot_reports(reports, args.out)
    print(f"plot written to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="projgeo",
        description="Convex-body projection geometry: quantities, classical "
                    "positions, and a verification suite for shadow "
                    "inequalities.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, samples: int | None = 20_000):
        p.add_argument("--dim", type=int, default=3,
                       help="ambient dimension (default 3)")
        p.add_argument("--seed", type=int, default=0,
                       help="master random seed (default 0)")
        if samples is not None:
            p.add_argument("--samples", type=int, default=samples,
                           help=f"Monte Carlo budget, at least {MIN_SAMPLES} "
                                f"(default {samples})")

    p = sub.add_parser("bodies", help="list the default corpus")
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--out", help="write the corpus as a JSON body list")
    p.set_defaults(fn=_cmd_bodies)

    p = sub.add_parser("compute", help="one scalar quantity of one body")
    common(p)
    p.add_argument("--body", required=True,
                   help="body name (cube, cross, simplex, ball-approx(500), "
                        "random-hull(m,seed), random-zonotope(m,seed)) or a "
                        "body JSON file")
    p.add_argument("--quantity", required=True,
                   help="volume | surface | inradius | circumradius | "
                        "mean-width | vrad | quermass(p) | partial | pk(k)")
    p.set_defaults(fn=_cmd_compute)

    p = sub.add_parser("position", help="solve a classical position")
    common(p, samples=None)
    p.add_argument("--body", required=True)
    p.add_argument("--kind", required=True,
                   choices=["min-surface", "isotropic", "john", "lowner",
                            "min-width"])
    p.add_argument("--out", help="write the solved position as JSON")
    p.set_defaults(fn=_cmd_position)

    p = sub.add_parser("verify", help="run the check suite over a corpus")
    common(p)
    p.add_argument("--corpus", default="default",
                   help="'default' or a JSON file with body names/specs")
    p.add_argument("--ids", help="comma-separated check ids (default: all)")
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel bodies (report bytes are unaffected)")
    p.add_argument("--out", help="report JSON path (CSV written next to it)")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("search", help="(1+1)-ES extremizer search")
    common(p, samples=4_000)
    p.add_argument("--id", required=True, choices=list(suite.SEARCH_IDS))
    p.add_argument("--family", required=True,
                   choices=list(suite.SEARCH_FAMILIES))
    p.add_argument("--budget", type=int, default=150,
                   help="mutation steps (default 150)")
    p.add_argument("--out", help="trace JSON path")
    p.set_defaults(fn=_cmd_search)

    p = sub.add_parser("plot", help="SVG of report ratios vs dimension")
    p.add_argument("--report", nargs="+", required=True,
                   help="one or more verify report JSON files")
    p.add_argument("--out", default="ratios.svg")
    p.set_defaults(fn=_cmd_plot)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "samples", MIN_SAMPLES) < MIN_SAMPLES:
            raise ValueError(f"--samples must be at least {MIN_SAMPLES}: two "
                             "antithetic width pairs give the least error bar")
        if getattr(args, "jobs", 1) < 1:
            raise ValueError("--jobs must be at least 1")
        return args.fn(args)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
