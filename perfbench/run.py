"""Benchmark driver: run one workload and print its metrics as JSON.

Usage (from the repository root)::

    python3 perfbench/run.py --workload verify-n3 --seed 0 --trace 0

Every repetition of the workload runs in a fresh process with
``OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1``.  With ``--trace 0`` the driver
repeats the workload at its own ``jobs`` while another repetition fits in
``--seconds`` (at least three times) and reports the medians of the
end-to-end metrics.
With ``--trace 1`` it runs the workload serially without tracing, then once
serially with every layer wrapped (``spans.py``), and reports the per-layer
metrics, the tracing overhead against the untraced serial run, and the
search step percentiles.  Every run is gated on correct output.

Times are reported in seconds at nominal machine speed: each repetition
samples the speed of the shared machine while it runs (``speed.py``) and
its raw times are multiplied by that speed.  The raw times stay in the run
record.  The last line of standard output is the result object; the line
before it is the run record (machine, BLAS settings, load, per-repetition
raw times and speeds, verdict counts and report hashes), also written
under ``.perfbench/``.
The driver exits with code 2, printing no result, when the projgeo source
tree is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.workloads import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
MIN_REPS = 3
MAX_REPS = 50
RUN_LIMIT_S = 170.0   # the whole run, so that it ends within 180 s
OUT_DIR = ROOT / ".perfbench"


class RepFailed(RuntimeError):
    """A repetition crashed, timed out or printed no result."""


def _launch(workload: str, seed: int, jobs: int, trace: bool,
            deadline: float, spans: Path | None = None) -> dict:
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    launched = time.monotonic()
    cmd = [sys.executable, "-m", "perfbench.rep", "--workload", workload,
           "--seed", str(seed), "--jobs", str(jobs), "--trace",
           str(int(trace)), "--launched", repr(launched)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(),
                                              1.0))
    except subprocess.TimeoutExpired as exc:
        raise RepFailed(f"{workload} repetition ran past the time limit") \
            from exc
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RepFailed(f"{workload} repetition exited with "
                        f"{proc.returncode}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise RepFailed(f"{workload} repetition printed no result") from exc


def _machine() -> dict:
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "blas_env": dict(BLAS_ENV),
            "loadavg_start": list(os.getloadavg())}


def _gate(reps: list[dict]) -> dict:
    """Correctness of a run: every unit self-consistent, all reports equal."""
    units_ok = all(rep["outcome"]["ok"] for rep in reps)
    hashes = sorted({rep["outcome"]["sha256"] for rep in reps})
    return {"units_ok": units_ok, "deterministic": len(hashes) == 1,
            "sha256": hashes, "correct": units_ok and len(hashes) == 1}


def _terminate(signum, frame):
    # unwinds through _launch, whose finally kills the repetition's group
    raise SystemExit(128 + signum)


def _rep_record(rep: dict) -> dict:
    keep = ("jobs", "traced", "setup_s", "wall_s", "cpu_s", "peak_rss_mb",
            "speed", "speed_samples", "spans")
    row = {k: rep[k] for k in keep if k in rep}
    outcome = {k: v for k, v in rep["outcome"].items() if k != "steps_ms"}
    row["outcome"] = outcome
    return row


def _median(reps: list[dict], key: str) -> float:
    """Median over repetitions; times at nominal machine speed."""
    scale = key != "peak_rss_mb"
    return statistics.median(rep[key] * (rep["speed"] if scale else 1.0)
                             for rep in reps)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "projgeo" / "__init__.py").is_file():
        print(f"perfbench: no projgeo source tree under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    signal.signal(signal.SIGTERM, _terminate)
    workload = WORKLOADS[args.workload]
    begin = time.monotonic()
    deadline = begin + RUN_LIMIT_S
    record = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": _machine()}
    try:
        if args.trace:
            untraced = _launch(workload.name, args.seed, 1, False, deadline)
            spans = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.json"
            traced = _launch(workload.name, args.seed, 1, True, deadline,
                             spans)
            reps = [untraced, traced]
        else:
            reps, durations = [], []
            while len(reps) < MIN_REPS or (
                    len(reps) < MAX_REPS
                    and time.monotonic() - begin
                    + statistics.median(durations) <= args.seconds):
                started = time.monotonic()
                reps.append(_launch(workload.name, args.seed, workload.jobs,
                                    False, deadline))
                durations.append(time.monotonic() - started)
    except RepFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    gate = _gate(reps)
    record["machine"]["loadavg_end"] = list(os.getloadavg())
    record["machine"].update(reps[0]["versions"])
    record["gate"] = gate
    record["reps"] = [_rep_record(rep) for rep in reps]

    if args.trace:
        values = dict(traced["layers"])
        values["trace.overhead_ratio"] = (
            _median([traced], "wall_s") / _median([untraced], "wall_s")
            - 1.0)
        outcome = traced["outcome"]
        values["suite.unverified_cells"] = outcome.get("unverified_cells", 0)
        if outcome["kind"] == "search":
            steps = [ms * untraced["speed"]
                     for ms in untraced["outcome"]["steps_ms"]]
            values["suite.search.step_p50_ms"] = statistics.median(steps)
            values["suite.search.step_p90_ms"] = statistics.quantiles(
                steps, n=10)[-1]
            values["suite.search.accept_ratio"] = outcome["accept_ratio"]
            record["step_samples"] = len(steps)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in PER_LAYER}
    else:
        metrics = {name: {"value": _median(reps, name), "unit": unit}
                   for name, unit, _, _ in END_TO_END}
    record["metrics"] = metrics

    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"record-{workload.name}-seed{args.seed}-trace{args.trace}"
     ".json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record))
    print(json.dumps({
        "correct": gate["correct"],
        "attempted": sum(rep["outcome"]["attempted"] for rep in reps),
        "failed": sum(rep["outcome"]["failed"] for rep in reps),
        "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
