#!/usr/bin/env python3
"""Diff two `projgeo verify` JSON reports cell by cell.

    python3 scripts/compare_reports.py A.json B.json

Cells are matched by (id, body, n) and sub-cases by label, in order among
equal labels, so a sub-case added or dropped leaves the others matched.
Prints:

  * on its first line, the sha256 of each report file, followed by
    "byte-identical" when the two files are equal byte for byte;
  * every cell and sub-case whose status changed (a cell present in only
    one report counts as a status change);
  * every changed cell, with its largest relative lhs/rhs value and
    stderr changes, followed by each lhs/rhs value that moved and its
    signed relative change (B-A)/|A| (positive means the value rose);
  * every cell whose binding sub-case switched (the cell row repeats the
    binding sub-case, so a switch is not a value change), with the
    relative gap between the two sub-cases' ratios in B, which reads
    about 1e-16 when they tie;
  * the largest relative lhs/rhs value change over all sub-cases (the cell
    row stands in only for cells without sub-cases);
  * the largest relative change of a sub-case ratio lhs/rhs, which a
    rescaling of both sides leaves at 0;
  * how many sub-case lhs/rhs values rose and how many dropped, and the
    largest signed rise, so a gate that minima may only drop reads in one
    line;
  * every sub-case whose lhs or rhs stderr widened by more than 1e-12
    relative (a stderr that was 0 and is not any more counts as widened);
  * every sub-case whose lhs or rhs relative error bar stderr/|value|
    widened by more than 1e-12 relative, by the same rule (a side that
    was only rescaled is not listed);
  * every sub-case side whose `exact` flag flipped, in each direction;
  * every position record (`detail.positions.<kind>.position`) whose
    residual changed, per cell and kind (a record present in only one
    report counts as changed);
  * the largest position-record residual of each kind in A and in B, on
    one line, so a solver or certificate change reads at a glance;
  * the largest relative change of a position record's `objective` per
    kind, over the records both reports have, on the next line, so a
    position that moved while its objective did not reads at a glance;
  * every top-level key other than `results` (such as `note`, `config`
    and `summary`) whose value differs or that only one report has.

Exits 1 when any verdict changed, 0 otherwise, also when the reader of
standard output closes it early (`| head`).
"""

import argparse
import hashlib
import io
import json
import math
import os
import sys

STDERR_WIDEN_REL = 1e-12


def _cells(report: dict) -> dict:
    return {(r["id"], r["body"], r["n"]): r for r in report["results"]}


def _cases(cell: dict) -> dict:
    """Sub-cases keyed by (label, occurrence of that label), in report order;
    the cell itself if it has none."""
    cases = cell.get("detail", {}).get("cases")
    if not cases:
        return {("", 0): cell}
    keyed = {}
    for c in cases:
        keyed[(c["label"], sum(k[0] == c["label"] for k in keyed))] = c
    return keyed


def _rel_change(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if math.isnan(a) or math.isnan(b):
        return math.inf
    return abs(b - a) / max(abs(a), abs(b))


def _signed_change(a: float, b: float) -> float:
    """(b - a)/|a|: positive when the value rose, nan when one side is nan."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if math.isnan(a) or math.isnan(b):
        return math.nan
    if a == 0.0:
        return math.copysign(math.inf, b)
    return (b - a) / abs(a)


def _widened(a: float, b: float) -> bool:
    return b - a > STDERR_WIDEN_REL * a if a > 0.0 else b > 0.0


def _rel_err(side: dict) -> float:
    """stderr/|value| of a side: 0 when exact, inf at a value of 0."""
    if side["stderr"] == 0.0:
        return 0.0
    value = abs(side["value"])
    return side["stderr"] / value if value > 0.0 else math.inf


def _name(key) -> str:
    check, body, n = key
    return f"{check} {body} n={n}"


def _records(cell: dict, field: str = "residual") -> dict:
    """The position-record ``field`` of each kind in the cell's detail."""
    kinds = cell.get("detail", {}).get("positions", {})
    return {kind: entry["position"].get(field)
            for kind, entry in kinds.items() if "position" in entry}


def _largest_residuals(cells: dict) -> dict:
    """The largest position-record residual of each kind over the cells."""
    largest = {}
    for cell in cells.values():
        for kind, residual in _records(cell).items():
            if residual is not None:
                largest[kind] = max(largest.get(kind, residual), residual)
    return largest


def compare(a: dict, b: dict, out=sys.stdout) -> int:
    """Print the diff of reports ``a`` and ``b``; return the exit code."""
    cells_a, cells_b = _cells(a), _cells(b)
    status_changes = []
    for key in sorted(cells_a.keys() - cells_b.keys()):
        status_changes.append(f"{_name(key)}: {cells_a[key]['status']} -> (absent)")
    for key in sorted(cells_b.keys() - cells_a.keys()):
        status_changes.append(f"{_name(key)}: (absent) -> {cells_b[key]['status']}")

    sub_changes = []
    changed_cells = []
    switches = []
    widened = []
    rel_widened = []
    flips = {True: [], False: []}  # keyed by the new exact flag
    residuals = []
    objectives = {}  # kind -> largest relative objective change
    worst = (0.0, "none")
    worst_ratio = (0.0, "none")
    rose, dropped = 0, 0
    top_rise = (0.0, "none")
    for key in sorted(cells_a.keys() & cells_b.keys()):
        ca, cb = cells_a[key], cells_b[key]
        if ca["status"] != cb["status"]:
            status_changes.append(f"{_name(key)}: {ca['status']} -> {cb['status']}")
        res_a, res_b = _records(ca), _records(cb)
        for kind in [*res_a, *(k for k in res_b if k not in res_a)]:
            ra, rb = res_a.get(kind, "(absent)"), res_b.get(kind, "(absent)")
            if ra != rb:
                residuals.append(f"{_name(key)} [{kind}]: {ra!r} -> {rb!r}")
        obj_a, obj_b = _records(ca, "objective"), _records(cb, "objective")
        for kind in obj_a.keys() & obj_b.keys():
            if obj_a[kind] is not None and obj_b[kind] is not None:
                objectives[kind] = max(objectives.get(kind, 0.0),
                                       _rel_change(obj_a[kind], obj_b[kind]))
        bind_a = ca.get("detail", {}).get("binding_case")
        bind_b = cb.get("detail", {}).get("binding_case")
        if bind_a != bind_b:
            ratios = {c["label"]: c["ratio"]
                      for c in cb.get("detail", {}).get("cases", [])}
            gap = ""
            if bind_a in ratios and bind_b in ratios:
                gap = (f" (ratio gap "
                       f"{_rel_change(ratios[bind_b], ratios[bind_a]):.2g})")
            switches.append(f"{_name(key)}: {bind_a} -> {bind_b}{gap}")
        cell_worst = 0.0
        sides = []
        subs_a, subs_b = _cases(ca), _cases(cb)
        for sk in [*subs_a, *(k for k in subs_b if k not in subs_a)]:
            sa, sb = subs_a.get(sk), subs_b.get(sk)
            suffix = f" [{sk[0]}]" if sk[0] else ""
            label = _name(key) + suffix
            if sa is None or sb is None or sa["status"] != sb["status"]:
                before = "(absent)" if sa is None else sa["status"]
                after = "(absent)" if sb is None else sb["status"]
                sub_changes.append(f"{label}: {before} -> {after}")
                continue
            sides.append((suffix, sa, sb))
            for side in ("lhs", "rhs"):
                if _widened(sa[side]["stderr"], sb[side]["stderr"]):
                    widened.append(f"{label} {side}: stderr "
                                   f"{sa[side]['stderr']!r} -> {sb[side]['stderr']!r}")
                rel_a, rel_b = _rel_err(sa[side]), _rel_err(sb[side])
                if _widened(rel_a, rel_b):
                    rel_widened.append(f"{label} {side}: stderr/|value| "
                                       f"{rel_a:.6g} -> {rel_b:.6g}")
                if sa[side].get("exact") != sb[side].get("exact"):
                    flips[bool(sb[side].get("exact"))].append(f"{label} {side}")
        cell_worst_se = 0.0
        lines = []
        for suffix, sa, sb in sides:
            ratio_change = _rel_change(sa["ratio"], sb["ratio"])
            if ratio_change > worst_ratio[0]:
                worst_ratio = (ratio_change, f"{_name(key)}{suffix}")
            for side in ("lhs", "rhs"):
                va, vb = sa[side]["value"], sb[side]["value"]
                rel = _rel_change(va, vb)
                if rel > 0.0:
                    signed = _signed_change(va, vb)
                    lines.append(f"    {(suffix + ' ' + side).strip()}: "
                                 f"{va!r} -> {vb!r}, signed relative change "
                                 f"{signed:+.3g}")
                    rose += signed > 0.0
                    dropped += signed < 0.0
                    if signed > top_rise[0]:
                        top_rise = (signed, f"{_name(key)}{suffix} {side}")
                cell_worst = max(cell_worst, rel)
                cell_worst_se = max(cell_worst_se, _rel_change(
                    sa[side]["stderr"], sb[side]["stderr"]))
                if rel > worst[0]:
                    worst = (rel, f"{_name(key)}{suffix} {side}")
        if ca != cb:
            lines.insert(0, f"{_name(key)}: largest relative lhs/rhs value "
                            f"change {cell_worst:.3g}, stderr change "
                            f"{cell_worst_se:.3g}")
            changed_cells.append("\n".join(lines))

    def section(title, lines):
        print(f"{title}: {len(lines)}", file=out)
        for line in lines:
            print(f"  {line}", file=out)

    print(f"cells: {len(cells_a)} in A, {len(cells_b)} in B", file=out)
    section("cell status changes", status_changes)
    section("sub-case status changes", sub_changes)
    section("changed cells", changed_cells)
    section("binding-case switches", switches)
    print(f"largest relative lhs/rhs value change: {worst[0]:.3g} ({worst[1]})",
          file=out)
    print(f"largest relative sub-case ratio change: {worst_ratio[0]:.3g} "
          f"({worst_ratio[1]})", file=out)
    rise = f"{top_rise[0]:+.3g} ({top_rise[1]})" if rose else "none"
    print(f"lhs/rhs values: {rose} rose, {dropped} dropped; largest rise "
          f"{rise}", file=out)
    section(f"sub-cases with stderr widened by more than {STDERR_WIDEN_REL:g} "
            "relative", widened)
    section("sub-cases with relative error bar stderr/|value| widened by "
            f"more than {STDERR_WIDEN_REL:g} relative", rel_widened)
    section("sub-case sides that became exact", flips[True])
    section("sub-case sides that stopped being exact", flips[False])
    section("position-record residuals that changed", residuals)
    large = _largest_residuals(cells_a), _largest_residuals(cells_b)
    kinds = sorted(large[0].keys() | large[1].keys())
    print("largest position-record residual per kind (A -> B): "
          + (", ".join(kind + " " + " -> ".join(
              f"{side[kind]:.3g}" if kind in side else "(absent)"
              for side in large) for kind in kinds) or "none"), file=out)
    print("largest relative position-record objective change per kind: "
          + (", ".join(f"{kind} {objectives[kind]:.3g}"
                       for kind in sorted(objectives)) or "none"), file=out)
    section("top-level keys other than results that differ",
            sorted(k for k in a.keys() | b.keys()
                   if k != "results" and a.get(k) != b.get(k)))
    verdict_changed = bool(status_changes or sub_changes)
    print("verdicts: " + ("CHANGED" if verdict_changed else "unchanged"),
          file=out)
    return 1 if verdict_changed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("a", help="the reference report (JSON)")
    parser.add_argument("b", help="the report to compare with it (JSON)")
    args = parser.parse_args(argv)
    with open(args.a, "rb") as fa, open(args.b, "rb") as fb:
        raw_a, raw_b = fa.read(), fb.read()
    sha_a, sha_b = (hashlib.sha256(raw).hexdigest() for raw in (raw_a, raw_b))
    out = io.StringIO()
    print(f"sha256: A {sha_a}, B {sha_b}"
          + (", byte-identical" if raw_a == raw_b else ""), file=out)
    code = compare(json.loads(raw_a), json.loads(raw_b), out=out)
    try:
        sys.stdout.write(out.getvalue())
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader stopped early (`| head`); point stdout at devnull so
        # the flush at exit does not fail again, and keep the exit code
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
