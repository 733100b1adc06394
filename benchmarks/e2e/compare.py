"""Compare two results files with the bounds fixed in ``BENCHMARK.json``.

Every (workload, end-to-end metric) row gets one verdict:

``regressed``
    the change's median is worse than the parent's by more than the
    metric's allowance, and the spreads are tight enough to say so (or
    every change run is worse than every parent run);
``unresolved``
    a run-to-run IQR is wider than the allowance and the runs do not all
    order the same way, so no verdict is possible;
``gain``
    the change wins at least 9 of 10 of at least ten index-paired runs
    and the medians differ by more than the parent's IQR;
``unchanged``
    otherwise.

A metric's allowance is its bound from ``BENCHMARK.json`` times the
parent's median, or its entry in :data:`ABSOLUTE_FLOOR` when that is
larger.  A higher failure fraction (failed / attempted) on a workload is
always a regression.  Pair runs by alternating parent and change when
the claim is a gain; the pairing here is by run index.

Exit code: 1 when any row regressed, else 3 when any row is unresolved
(the runs cannot show that nothing regressed: repeat them), else 0.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Tuple

from benchmarks.e2e.common import load_contract, quartiles

#: Pairs needed, and the share the change must win, before a gain counts.
MIN_PAIRS = 10
WIN_SHARE = 0.9
#: Changes no larger than this never count as a regression, whatever the
#: relative bound: set-up takes 0.05-0.2 s, where a relative bound alone
#: would flag one slow fork or page-in.  ``BENCHMARK.json`` holds only
#: relative bounds, so the absolute ones live here.
ABSOLUTE_FLOOR = {"setup_s": 0.05}
EXIT_REGRESSED = 1
EXIT_UNRESOLVED = 3


def load_sets(path: str) -> List[List[dict]]:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    return [s["runs"] for s in payload["sets"]]


def _values(runs: List[dict], workload: str, metric: str) -> List[float]:
    return [
        r["result"]["metrics"][metric]["value"]
        for r in runs
        if r["workload"] == workload
        and not r["trace"]
        and r.get("result")
        and metric in r["result"]["metrics"]
    ]


def _fail_frac(runs: List[dict], workload: str) -> float:
    chosen = [r["result"] for r in runs if r["workload"] == workload and r.get("result")]
    attempted = sum(r["attempted"] for r in chosen)
    failed = sum(r["failed"] + (0 if r["correct"] else r["attempted"]) for r in chosen)
    return failed / attempted if attempted else 0.0


def verdict(
    parent: List[float],
    change: List[float],
    bound: float,
    lower_is_better: bool,
    floor: float = 0.0,
) -> Tuple[str, float]:
    """(verdict, how much worse the change's median is, as a share)."""
    sign = 1.0 if lower_is_better else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    allowance = max(bound * abs(p_med), floor)
    worse_by = sign * (c_med - p_med)
    better = lambda a, b: sign * (a - b) < 0  # noqa: E731 - a reads better than b
    all_better = all(better(c, p) for c in change for p in parent)
    all_worse = all(better(p, c) for c in change for p in parent)
    wide = max(p_q3 - p_q1, c_q3 - c_q1) > allowance
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if better(c, p))
    share = worse_by / abs(p_med) if p_med else 0.0
    if len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs) and abs(c_med - p_med) > p_q3 - p_q1:
        return "gain", share
    if worse_by > allowance and (not wide or all_worse):
        return "regressed", share
    if wide and not (all_better or all_worse):
        return "unresolved", share
    return "unchanged", share


def compare(parent_runs: List[dict], change_runs: List[dict]) -> List[dict]:
    contract = load_contract()
    workloads = [w["name"] for w in contract["workloads"]]
    rows = []
    for workload in workloads:
        for metric in contract["end_to_end"]:
            parent = _values(parent_runs, workload, metric["name"])
            change = _values(change_runs, workload, metric["name"])
            if not parent or not change:
                continue
            status, worse = verdict(
                parent,
                change,
                metric["bound"],
                metric["better"] == "lower",
                ABSOLUTE_FLOOR.get(metric["name"], 0.0),
            )
            rows.append(
                {
                    "workload": workload,
                    "metric": metric["name"],
                    "unit": metric["unit"],
                    "parent": quartiles(parent),
                    "change": quartiles(change),
                    "n": (len(parent), len(change)),
                    "worse_by": worse,
                    "bound": metric["bound"],
                    "verdict": status,
                }
            )
        parent_fail = _fail_frac(parent_runs, workload)
        change_fail = _fail_frac(change_runs, workload)
        if change_fail > parent_fail:
            rows.append(
                {
                    "workload": workload,
                    "metric": "fail_frac",
                    "unit": "ratio",
                    "parent": [parent_fail] * 3,
                    "change": [change_fail] * 3,
                    "n": (0, 0),
                    "worse_by": change_fail - parent_fail,
                    "bound": 0.0,
                    "verdict": "regressed",
                }
            )
    return rows


def render(rows: List[dict]) -> str:
    lines = [
        f"{'workload':<15} {'metric':<12} {'parent median [q1, q3]':>34} "
        f"{'change median [q1, q3]':>34} {'worse':>7} {'bound':>6}  verdict"
    ]
    for row in rows:
        p, c = row["parent"], row["change"]
        lines.append(
            f"{row['workload']:<15} {row['metric']:<12} "
            f"{p[1]:>11.5g} [{p[0]:>9.5g}, {p[2]:>9.5g}] "
            f"{c[1]:>11.5g} [{c[0]:>9.5g}, {c[2]:>9.5g}] "
            f"{row['worse_by']:>7.1%} {row['bound']:>6.0%}  {row['verdict']}"
        )
    return "\n".join(lines)


def code_delta(parent_path: str, change_path: str) -> str:
    """Net lines per package between two results files, when both have them."""
    parent = json.loads(Path(parent_path).read_text(encoding="utf-8")).get("code") or {}
    change = json.loads(Path(change_path).read_text(encoding="utf-8")).get("code") or {}
    if not parent or not change:
        return ""
    lines = ["net lines per package:"]
    for package in sorted(set(parent) | set(change)):
        before = parent.get(package, {}).get("loc", 0)
        after = change.get(package, {}).get("loc", 0)
        if before != after:
            lines.append(f"  {package:<10} {before:>6} -> {after:>6} ({after - before:+d})")
    if len(lines) == 1:
        lines.append("  (no change)")
    return "\n".join(lines)


def main(files: List[str]) -> int:
    """``compare PARENT CHANGE``; or one file holding two sets of the same
    code, compared in both directions (the agreement check)."""
    if len(files) == 1:
        sets = load_sets(files[0])
        if len(sets) < 2:
            raise SystemExit("a single results file needs at least two sets to compare")
        pairs = [("set A -> set B", sets[0], sets[1]), ("set B -> set A", sets[1], sets[0])]
        extra = ""
    elif len(files) == 2:
        parent_runs = [r for s in load_sets(files[0]) for r in s]
        change_runs = [r for s in load_sets(files[1]) for r in s]
        pairs = [("parent -> change", parent_runs, change_runs)]
        extra = code_delta(files[0], files[1])
    else:
        raise SystemExit("compare takes PARENT.json CHANGE.json, or one file with two sets")
    regressed = unresolved = 0
    for title, parent_runs, change_runs in pairs:
        rows = compare(parent_runs, change_runs)
        print(title)
        print(render(rows))
        verdicts = [r["verdict"] for r in rows]
        print(
            f"{len(rows)} rows, {verdicts.count('regressed')} regressed, "
            f"{verdicts.count('unresolved')} unresolved\n"
        )
        regressed += verdicts.count("regressed")
        unresolved += verdicts.count("unresolved")
    if extra:
        print(extra)
    if regressed:
        return EXIT_REGRESSED
    return EXIT_UNRESOLVED if unresolved else 0
