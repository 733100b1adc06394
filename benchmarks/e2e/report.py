"""Printed tables, model predictions and code measures for results files."""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List

from benchmarks.e2e.common import ROOT

#: Open-loop load for the predicted deployment latency (per route).
PREDICTION_REQUESTS = 20_000
PREDICTION_RATES = {"shap": 150.0, "ai_pipeline": 50.0}


def run_summary(final: dict, detail: dict) -> str:
    """What one run measured, for a human reading the log."""
    lines = [
        f"{detail['workload']}  seed={detail['seed']}  seconds={detail['seconds']}"
        f"  trace={int(detail['trace'])}  correct={final['correct']}"
        f"  attempted={final['attempted']}  failed={final['failed']}"
    ]
    info = detail.get("info", {})
    for flag, meaning in (
        ("sustainable", "open-loop p99 above the 250 ms limit: the rate is unsustainable"),
        ("generator_valid", "driver p99 lateness above 5 ms: the open loop measures the generator"),
    ):
        if info.get(flag) is False:
            lines.append(f"  WARNING: {meaning}")
    if detail["trace"]:
        lines.append(span_table(info.get("spans", [])))
        if "inside_run" in info:
            lines.append(f"  inside run(): {info['inside_run']}")
        layers = detail.get("layers", {})
        standalone = [k for k in sorted(layers) if k.endswith("_eps")]
        if standalone:
            lines.append("  events/s, each layer alone vs composed:")
            lines.extend(f"    {k:<34} {layers[k]:>14,.0f}" for k in standalone)
        # every measured layer value, including the per-call times that
        # BENCHMARK.json leaves out because bypassing workloads have none
        lines.append("  per-layer values (bypassed layers omitted):")
        lines.extend(
            f"    {name:<42} {value:>16.6g}"
            for name, value in sorted(layers.items())
            if value != 0.0
        )
    else:
        raw = detail.get("raw", {})
        lines.append(f"  {'metric':<40} {'reference-host':>16} {'raw':>16}")
        lines.extend(
            f"  {name:<40} {entry['value']:>16.6g} {raw.get(name, entry['value']):>16.6g} {entry['unit']}"
            for name, entry in final["metrics"].items()
        )
    slowness = detail.get("slowness")
    if slowness:
        lines.append(
            f"  host slowness: median {slowness['median']:.3f} over {slowness['samples']} samples"
        )
    return "\n".join(lines)


def span_table(rows: List[dict]) -> str:
    header = (
        f"  {'span':<28} {'calls':>8} {'busy_s':>9} {'self_s':>9} "
        f"{'share':>7} {'p50_ms':>9} {'p99_ms':>9}"
    )
    lines = [header]
    for row in sorted(rows, key=lambda r: -r["self_s"]):
        lines.append(
            f"  {row['span']:<28} {row['calls']:>8} {row['busy_s']:>9.3f} "
            f"{row['self_s']:>9.3f} {row['share']:>7.1%} {row['p50_ms']:>9.3f} "
            f"{row['p99_ms']:>9.3f}"
        )
    return "\n".join(lines)


def set_table(summary: Dict[str, Dict[str, dict]], contract: dict) -> str:
    """Median [q1, q3] and spread per (workload, end-to-end metric)."""
    units = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    lines = [f"  {'workload':<15} {'metric':<12} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'n':>3}"]
    for workload, metrics in summary.items():
        for metric in units:
            if metric not in metrics:
                continue
            s = metrics[metric]
            lines.append(
                f"  {workload:<15} {metric:<12} {s['median']:>12.5g} {s['q1']:>12.5g} "
                f"{s['q3']:>12.5g} {s['spread']:>7.1%} {s['n']:>3}  {units[metric]}"
            )
        overhead = metrics.get("measured_tracing_overhead")
        if overhead:
            lines.append(f"  {workload:<15} traced ops/s is {overhead['value']:.1%} below the untraced median")
    return "\n".join(lines)


def layer_table(runs: List[dict]) -> str:
    lines = []
    for record in runs:
        if record["trace"] and record.get("detail", {}).get("layers"):
            lines.append(f"{record['workload']} (traced):")
            for name, value in sorted(record["detail"]["layers"].items()):
                if value != 0.0:
                    lines.append(f"    {name:<42} {value:>14.6g}")
    return "\n".join(lines)


# -- predictions ------------------------------------------------------------------


def predictions(layers: Dict[str, float]) -> Dict[str, object]:
    """Simulated deployment p95 from measured per-row kernel costs.

    ``layers`` is the serve-unique traced run's per-layer table.  The
    paper deployment is run twice at the same open-loop rates: once with
    its published service-time medians and once with the measured
    per-row SHAP and predict costs.  These are model predictions, not
    measurements.
    """
    from repro.gateway import CapacityRunner, build_paper_deployment
    from repro.gateway.arrivals import PoissonArrivalGroup

    shap_rate = layers.get("xai.shap.rows_per_s", 0.0)
    predict_rate = layers.get("ml.predict.rows_per_s", 0.0)
    if not (shap_rate and predict_rate):
        return {}
    shap_s, predict_s = 1.0 / shap_rate, 1.0 / predict_rate
    overrides = {"shap": {"tabular": shap_s}, "ai_pipeline": {"tabular": predict_s}}
    out: Dict[str, object] = {
        "measured_cost_ms": {"shap": shap_s * 1e3, "ai_pipeline": predict_s * 1e3},
        "rates_rps": dict(PREDICTION_RATES),
    }
    for label, service_times in (("paper_medians", None), ("measured_costs", overrides)):
        sim, gateway = build_paper_deployment(seed=0, service_time_overrides=service_times)
        runner = CapacityRunner(sim, gateway, seed=0)
        for route, rate in PREDICTION_RATES.items():
            runner.add_open_loop(
                PoissonArrivalGroup(route, rate_rps=rate, n_requests=PREDICTION_REQUESTS)
            )
        report = runner.run()
        out[label] = {
            route: {"prediction_p95_ms": sub.p95_response_ms}
            for route, sub in report.per_route.items()
        }
    return out


def prediction_text(pred: Dict[str, object]) -> str:
    if not pred:
        return "  (no serve-unique traced run: no prediction)"
    lines = []
    for route in PREDICTION_RATES:
        lines.append(
            f"  {route:<12} measured cost {pred['measured_cost_ms'][route]:8.3f} ms/row  "
            f"-> prediction p95 {pred['measured_costs'][route]['prediction_p95_ms']:9.2f} ms  "
            f"(paper medians: prediction p95 "
            f"{pred['paper_medians'][route]['prediction_p95_ms']:9.2f} ms)"
        )
    return "\n".join(lines)


# -- code measures ------------------------------------------------------------------

_BRANCHES = (ast.If, ast.For, ast.AsyncFor, ast.While, ast.IfExp, ast.ExceptHandler, ast.match_case)
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def cyclomatic(function: ast.AST) -> int:
    """McCabe complexity of one function, nested scopes excluded."""
    score = 1
    stack = list(ast.iter_child_nodes(function))
    while stack:
        node = stack.pop()
        if isinstance(node, _SCOPES):
            continue
        if isinstance(node, _BRANCHES):
            score += 1
        elif isinstance(node, ast.BoolOp):
            score += len(node.values) - 1
        elif isinstance(node, ast.comprehension):
            score += 1 + len(node.ifs)
        stack.extend(ast.iter_child_nodes(node))
    return score


def code_measures(src: Path = ROOT / "src" / "repro") -> Dict[str, dict]:
    """Per package: lines, functions, cyclomatic complexity, fan-in/out.

    Fan-in counts the other packages whose functions call into this one
    and fan-out the packages this one calls, both over the
    :mod:`repro.analysis` call graph.  Top-level modules are ``(top)``.
    """
    from repro.analysis import SymbolTable, build_call_graph, summarize_module

    packages: Dict[str, dict] = {}
    summaries = []
    for path in sorted(src.rglob("*.py")):
        relpath = path.relative_to(src).as_posix()
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source)
        summaries.append(summarize_module(relpath, tree, source))
        package = relpath.split("/")[0] if "/" in relpath else "(top)"
        entry = packages.setdefault(
            package, {"files": 0, "loc": 0, "functions": 0, "cc_total": 0, "cc_max": 0}
        )
        entry["files"] += 1
        entry["loc"] += sum(1 for line in source.splitlines() if line.strip())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                cc = cyclomatic(node)
                entry["functions"] += 1
                entry["cc_total"] += cc
                entry["cc_max"] = max(entry["cc_max"], cc)
    graph = build_call_graph(SymbolTable(summaries))
    package_of = {s.module: s.package or "(top)" for s in summaries}
    calls_into: Dict[str, set] = {p: set() for p in packages}
    calls_out: Dict[str, set] = {p: set() for p in packages}
    for caller, callees in graph.edges.items():
        source_pkg = package_of.get(caller.split("::", 1)[0])
        for callee in callees:
            target_pkg = package_of.get(callee.split("::", 1)[0])
            if source_pkg and target_pkg and target_pkg != source_pkg:
                calls_out[source_pkg].add(target_pkg)
                calls_into[target_pkg].add(source_pkg)
    for package, entry in packages.items():
        entry["cc_mean"] = entry["cc_total"] / entry["functions"] if entry["functions"] else 0.0
        entry["fan_in"] = len(calls_into[package])
        entry["fan_out"] = len(calls_out[package])
    return dict(sorted(packages.items()))


def code_text(code: Dict[str, dict]) -> str:
    lines = [f"  {'package':<10} {'files':>5} {'loc':>6} {'funcs':>6} {'cc_mean':>7} {'cc_max':>6} {'fan_in':>6} {'fan_out':>7}"]
    for package, e in code.items():
        lines.append(
            f"  {package:<10} {e['files']:>5} {e['loc']:>6} {e['functions']:>6} "
            f"{e['cc_mean']:>7.2f} {e['cc_max']:>6} {e['fan_in']:>6} {e['fan_out']:>7}"
        )
    total = sum(e["loc"] for e in code.values())
    lines.append(f"  total lines: {total}")
    return "\n".join(lines)
