"""One repetition of a workload in a fresh process; prints one JSON line.

Started by ``run.py`` with BLAS pinned to one thread and ``src`` on the
path.  Set-up runs from the parent's launch timestamp (the system-wide
monotonic clock) to the first timed call, so it covers interpreter start,
imports and input construction.  CPU time and peak resident set include the
pool workers, which the pool joins before the unit returns.  The result
holds the raw times and the machine speed sampled during the unit
(``speed.py``); the driver normalizes.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN gives the largest child
    peak = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def _versions() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--launched", type=float, required=True,
                        help="time.monotonic() in the parent at launch")
    parser.add_argument("--spans", help="where a traced rep writes its spans")
    args = parser.parse_args(argv)

    from perfbench import spans, speed, workloads
    import projgeo  # noqa: F401  (import cost belongs to set-up)
    workload = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        tracer = spans.install(spans.Tracer(
            f"{args.workload}-seed{args.seed}-pid{os.getpid()}"))

    probe = speed.SpeedProbe()
    setup_s = time.monotonic() - args.launched
    cpu0 = _cpu_s()
    start = time.perf_counter()
    with probe:
        outcome = workload.run(args.seed, args.jobs)
    wall_s = time.perf_counter() - start
    cpu_s = _cpu_s() - cpu0

    result = {"workload": args.workload, "seed": args.seed, "jobs": args.jobs,
              "traced": bool(args.trace), "setup_s": setup_s,
              "wall_s": wall_s, "cpu_s": cpu_s,
              "peak_rss_mb": _peak_rss_mb(), "speed": probe.speed(),
              "speed_samples": len(probe.samples), "outcome": outcome,
              "versions": _versions()}
    if tracer is not None:
        tracer.undo()
        result["layers"] = workloads.layer_metrics(tracer)
        result["spans"] = len(tracer.spans)
        if args.spans:
            tracer.write(Path(args.spans))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
