"""Command-line interface: quick access to the reproduction's experiments.

``python -m repro <command>`` runs compact versions of the paper's
experiments without writing any code — useful for smoke-checking an
install and for demos.  The full experiment regeneration lives in
``benchmarks/`` (see EXPERIMENTS.md); these commands trade sweep size for
seconds-scale runtimes.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

import repro


def _cmd_version(args: argparse.Namespace) -> int:
    print(f"repro {repro.__version__} — SPATIAL architecture reproduction")
    return 0


def _cmd_taxonomy(args: argparse.Namespace) -> int:
    from repro.attacks.taxonomy import ATTACK_TAXONOMY
    from repro.attacks.vulnerabilities import PIPELINE_VULNERABILITIES

    print("Fig. 1 — attack classes per AI algorithm:")
    for entry in ATTACK_TAXONOMY:
        attacks = ", ".join(sorted(a.value for a in entry.attacks))
        print(f"  {entry.algorithm:24s} {attacks}")
    print("\nFig. 3 — pipeline vulnerabilities (stage: name [CIA]):")
    for v in PIPELINE_VULNERABILITIES:
        cia = "/".join(sorted(p.value[0].upper() for p in v.compromises))
        print(f"  {v.stage.value:18s} {v.name:26s} [{cia}]")
    return 0


def _cmd_baselines(args: argparse.Namespace) -> int:
    from repro.datasets import generate_unimib_like, to_binary_fall_task
    from repro.ml import (
        DecisionTreeClassifier,
        DNNClassifier,
        LogisticRegressionClassifier,
        MLPClassifier,
        RandomForestClassifier,
        StandardScaler,
        train_test_split,
    )

    print(f"use case 1 baselines on {args.samples} synthetic samples "
          "(paper: LR 0.73, DT 0.90, RF/MLP/DNN 0.97)")
    dataset = generate_unimib_like(n_samples=args.samples, seed=args.seed)
    X, y = to_binary_fall_task(dataset)
    X_train, X_test, y_train, y_test = train_test_split(
        X, y, test_size=0.25, seed=args.seed
    )
    scaler = StandardScaler().fit(X_train)
    X_train, X_test = scaler.transform(X_train), scaler.transform(X_test)
    models = {
        "LR": LogisticRegressionClassifier(n_epochs=30, seed=0),
        "DT": DecisionTreeClassifier(max_depth=14, seed=0),
        "RF": RandomForestClassifier(n_estimators=30, max_depth=14, seed=0),
        "MLP": MLPClassifier(hidden_layers=(64, 32), n_epochs=40, seed=0),
        "DNN": DNNClassifier(n_epochs=40, seed=0),
    }
    for name, model in models.items():
        accuracy = model.fit(X_train, y_train).score(X_test, y_test)
        print(f"  {name:4s} accuracy={accuracy:.3f}")
    return 0


def _cmd_poison(args: argparse.Namespace) -> int:
    from repro.attacks import RandomLabelFlippingAttack
    from repro.datasets import generate_unimib_like, to_binary_fall_task
    from repro.ml import RandomForestClassifier, StandardScaler, train_test_split

    dataset = generate_unimib_like(n_samples=args.samples, seed=args.seed)
    X, y = to_binary_fall_task(dataset)
    X_train, X_test, y_train, y_test = train_test_split(
        X, y, test_size=0.25, seed=args.seed
    )
    scaler = StandardScaler().fit(X_train)
    X_train, X_test = scaler.transform(X_train), scaler.transform(X_test)
    print("Fig. 6 (compact): RF accuracy vs label-flip rate")
    for rate in (0.0, 0.1, 0.3, 0.5):
        result = RandomLabelFlippingAttack(rate=rate, seed=0).apply(
            X_train, y_train
        )
        model = RandomForestClassifier(
            n_estimators=20, max_depth=12, seed=0
        ).fit(result.X, result.y)
        print(f"  p={rate:4.0%}  accuracy={model.score(X_test, y_test):.3f}")
    return 0


def _serving_policy_from_args(args: argparse.Namespace):
    """Build a ServingPolicy when any serving flag was given, else None."""
    from repro.serving import ServingPolicy

    flags = (args.batch_window, args.max_batch, args.cache_size,
             args.shed_depth, args.pool_workers)
    if all(value is None for value in flags):
        return None
    defaults = ServingPolicy()
    return ServingPolicy(
        max_batch=(
            args.max_batch if args.max_batch is not None
            else defaults.max_batch
        ),
        batch_window=(
            args.batch_window / 1000.0 if args.batch_window is not None
            else defaults.batch_window
        ),
        cache_size=args.cache_size if args.cache_size is not None else 0,
        shed_depth=args.shed_depth if args.shed_depth is not None else 0,
        pool_workers=(
            args.pool_workers if args.pool_workers is not None else 0
        ),
    )


def _add_serving_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--batch-window", type=float, default=None, metavar="MS",
        help="micro-batch flush deadline in milliseconds "
             "(enables the serving layer)",
    )
    parser.add_argument(
        "--max-batch", type=int, default=None, metavar="N",
        help="micro-batch size trigger (enables the serving layer)",
    )
    parser.add_argument(
        "--cache-size", type=int, default=None, metavar="N",
        help="explanation-cache capacity, 0 disables "
             "(enables the serving layer)",
    )
    parser.add_argument(
        "--shed-depth", type=int, default=None, metavar="N",
        help="admission-control queue depth per service, 0 disables "
             "(enables the serving layer)",
    )
    parser.add_argument(
        "--pool-workers", type=int, default=None, metavar="N",
        help="kernel-pool workers per station: flushed batches run on "
             "the pool tier instead of station workers, 0 keeps them "
             "inline (enables the serving layer)",
    )


def _print_serving_summary(summary: dict) -> None:
    from repro.core.dashboard import AIDashboard

    rows = AIDashboard._serving_rows(summary)
    if not rows:
        return
    print("  serving layer:")
    for row in rows:
        line = (
            f"    {row['route']:>12}  {row['batches']:>6} batches "
            f"(mean {row['mean_batch']:4.1f} rows)"
        )
        if row["cache_hits"] or row["cache_misses"]:
            line += f"  cache hit-rate {row['cache_hit_rate']:.1%}"
        if row["shed_rows"]:
            line += f"  shed {row['shed_rows']}"
        print(line)
    for row in AIDashboard._pool_rows(summary):
        line = (
            f"    {row['route']:>12}  pool x{row['workers']} "
            f"(fan-out {row['mean_fan_out']:4.1f}, "
            f"peak {row['peak_inflight']})"
        )
        if row["crashes"]:
            line += (
                f"  crashes {row['crashes']} "
                f"(resubmitted {row['resubmitted']})"
            )
        print(line)
    totals = summary.get("_totals")
    if totals:
        print(
            "    totals: "
            + ", ".join(f"{key}={value}" for key, value in totals.items())
        )


def _cmd_capacity(args: argparse.Namespace) -> int:
    import time as _time

    from repro.gateway import ThreadGroup, build_paper_deployment
    from repro.gateway.arrivals import PoissonArrivalGroup
    from repro.gateway.capacity import CapacityRunner

    sim, gateway = build_paper_deployment(seed=args.seed)
    if args.route not in gateway.routes:
        print(f"unknown route {args.route!r}; available: {gateway.routes}",
              file=sys.stderr)
        return 2
    serving = _serving_policy_from_args(args)
    runner = CapacityRunner(
        sim,
        gateway,
        retain_records=not args.no_retain,
        seed=args.seed,
        serving=serving,
    )
    if args.open_loop is not None:
        runner.add_open_loop(
            PoissonArrivalGroup(
                route=args.route,
                rate_rps=args.open_loop,
                n_requests=args.requests,
                payload=args.payload,
            )
        )
        shape = f"open-loop rate={args.open_loop:g}rps requests={args.requests}"
    else:
        runner.add_thread_group(
            ThreadGroup(
                route=args.route,
                n_threads=args.threads,
                rampup_seconds=1.0,
                iterations=args.iterations,
                payload=args.payload,
            )
        )
        shape = f"threads={args.threads} iterations={args.iterations}"
    started = _time.perf_counter()
    report = runner.run()
    elapsed = _time.perf_counter() - started
    print(f"capacity test: route={args.route} {shape} "
          f"payload={args.payload}{' (ring)' if args.no_retain else ''}")
    print("  " + report.render_text())
    if serving is not None:
        _print_serving_summary(runner.serving_summary())
    print(f"  {sim.processed_events} events in {elapsed:.3f}s wall "
          f"({sim.processed_events / elapsed:,.0f} events/s), "
          f"log capacity {runner.log.capacity} rows"
          + (f", {runner.log.recycled} recycled" if args.no_retain else ""))
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    import time as _time

    from repro.cluster import (
        AutoscalePolicy,
        ClusterAutoscaler,
        ClusterRunner,
        ClusterTopology,
        FaultPlan,
        paper_route_specs,
    )
    from repro.gateway.arrivals import PoissonArrivalGroup
    from repro.gateway.loadgen import ThreadGroup
    from repro.gateway.simulation import Simulator
    from repro.telemetry import TumblingWindowAggregator

    specs = paper_route_specs()
    known = [spec.route for spec in specs]
    routes = [r.strip() for r in args.routes.split(",") if r.strip()]
    unknown = [r for r in routes if r not in known]
    if unknown:
        print(f"unknown routes {unknown}; available: {known}", file=sys.stderr)
        return 2
    sim = Simulator()
    topology = ClusterTopology(
        sim,
        specs,
        n_nodes=args.nodes,
        replication=args.replication,
        seed=args.seed,
    )
    plan = None
    if args.fault_plan:
        try:
            plan = FaultPlan.parse(args.fault_plan)
        except ValueError as exc:
            print(f"bad --fault-plan: {exc}", file=sys.stderr)
            return 2
        off_cluster = set(plan.nodes()) - set(topology.node_ids())
        if off_cluster:
            print(
                f"--fault-plan names unknown nodes {sorted(off_cluster)}; "
                f"cluster has {topology.node_ids()}",
                file=sys.stderr,
            )
            return 2
    serving = _serving_policy_from_args(args)
    runner = ClusterRunner(
        topology,
        retain_records=not args.no_retain,
        seed=args.seed,
        trace_every=args.trace_every,
        serving=serving,
    )
    per_route = max(1, args.requests // len(routes))
    if args.open_loop is not None:
        for route in routes:
            runner.add_open_loop(
                PoissonArrivalGroup(
                    route=route,
                    rate_rps=args.open_loop / len(routes),
                    n_requests=per_route,
                )
            )
        shape = f"open-loop rate={args.open_loop:g}rps requests={args.requests}"
    else:
        iterations = max(1, per_route // args.threads)
        for route in routes:
            runner.add_thread_group(
                ThreadGroup(
                    route=route,
                    n_threads=args.threads,
                    rampup_seconds=1.0,
                    iterations=iterations,
                )
            )
        shape = f"threads={args.threads}x{len(routes)} iterations={iterations}"
    if plan is not None:
        runner.apply_fault_plan(plan)
    scaler = None
    if args.autoscale:
        scaler = ClusterAutoscaler(
            runner,
            TumblingWindowAggregator(window_seconds=1.0),
            AutoscalePolicy(min_nodes=args.nodes, max_nodes=4 * args.nodes),
        )
        scaler.start()
    started = _time.perf_counter()
    report = runner.run()
    elapsed = _time.perf_counter() - started
    ring = " (ring)" if args.no_retain else ""
    print(
        f"cluster run: nodes={args.nodes} replication={args.replication} "
        f"routes={','.join(routes)} {shape}{ring}"
    )
    print("  " + report.render_text())
    print("  per-node rollup:")
    for node_id, node_report in runner.summary_by_node(
        report.duration_seconds
    ).items():
        print(
            f"    {node_id:>8}  {node_report.n_requests:>8} req  "
            f"{node_report.n_errors:>6} err  "
            f"p95 {node_report.p95_response_ms:8.2f}ms"
        )
    if serving is not None:
        _print_serving_summary(runner.serving_summary())
    ledger = runner.conservation()
    print(
        "  failover ledger: "
        + ", ".join(f"{key}={value}" for key, value in ledger.items())
    )
    if runner.trace_every:
        print(
            f"  traces: {len(runner.collector.traces())} collected, "
            f"{runner.cross_node_traces} cross-node"
        )
    if scaler is not None:
        for decision in scaler.decisions:
            print(
                f"  autoscale @{decision.at:.2f}s {decision.action} "
                f"{decision.node_id} (pressure {decision.pressure:.1f})"
            )
    print(
        f"  {sim.processed_events} events in {elapsed:.3f}s wall "
        f"({sim.processed_events / elapsed:,.0f} events/s), "
        f"log capacity {runner.log.capacity} rows"
        + (f", {runner.log.recycled} recycled" if args.no_retain else "")
    )
    return 0


def _cmd_dashboard_demo(args: argparse.Namespace) -> int:
    from repro.core import (
        AIDashboard,
        AlertRule,
        ContinuousMonitor,
        DataQualitySensor,
        ModelContext,
        PerformanceSensor,
        SensorRegistry,
    )
    from repro.datasets import generate_unimib_like, to_binary_fall_task
    from repro.ml import RandomForestClassifier, StandardScaler
    from repro.ml.pipeline import AIPipeline

    dataset = generate_unimib_like(n_samples=args.samples, seed=args.seed)
    X, y = to_binary_fall_task(dataset)
    X = StandardScaler().fit_transform(X)
    pipeline = AIPipeline(
        data_provider=lambda: (X, y),
        model_factory=lambda: RandomForestClassifier(
            n_estimators=15, max_depth=12, seed=0
        ),
        seed=args.seed,
    )
    registry = SensorRegistry()
    registry.register(PerformanceSensor())
    registry.register(DataQualitySensor())
    dashboard = AIDashboard()
    dashboard.add_rule(AlertRule(sensor="performance", threshold=0.9))
    monitor = ContinuousMonitor(
        registry,
        dashboard,
        lambda: ModelContext(
            model=pipeline.context.model,
            X_train=pipeline.context.X_train,
            y_train=pipeline.context.y_train,
            X_test=pipeline.context.X_test,
            y_test=pipeline.context.y_test,
            model_version=pipeline.context.model_version,
        ),
    )
    pipeline.run()
    monitor.on_model_update()
    monitor.run(2)
    print(dashboard.render_text())
    score = dashboard.trust_panel()
    print(f"\naggregate trust score: {score.value:.3f}")
    return 0


def _cmd_telemetry(args: argparse.Namespace) -> int:
    """Replay/inspect a telemetry WAL: rollups, worst sensors, health."""
    import json
    import os

    from repro.telemetry import (
        TelemetryQuery,
        WalCorruptionError,
        trailing_windows,
    )
    from repro.telemetry.rollup import merge_window_stats
    from repro.telemetry.wal import segment_paths

    if args.last is not None and args.last <= 0:
        print("--last must be a positive number of seconds", file=sys.stderr)
        return 2
    segments = segment_paths(args.wal)
    if not segments:
        print(f"no WAL segments under {args.wal!r}", file=sys.stderr)
        return 2
    cold = TelemetryQuery(wal_dir=args.wal)
    try:
        rollups = cold.rebuild_rollups(
            window_seconds=args.window, cascades=()
        )
    except ValueError as exc:
        print(f"invalid rollup parameters: {exc}", file=sys.stderr)
        return 2
    except WalCorruptionError as exc:
        print(f"WAL is damaged mid-stream: {exc}", file=sys.stderr)
        return 2
    query = TelemetryQuery(rollups=rollups, wal_dir=args.wal)
    sources = rollups.sources
    if args.source:
        wanted = set(args.source)
        unknown = sorted(wanted - set(sources))
        if unknown:
            print(
                f"unknown source(s): {', '.join(unknown)} "
                f"(have: {', '.join(sources)})",
                file=sys.stderr,
            )
            return 2
        sources = [name for name in sources if name in wanted]

    def windows_for(name: str):
        windows = rollups.windows(source=name)
        if args.last is not None:
            windows = trailing_windows(windows, args.last)
        return windows

    def totals_for(name: str):
        windows = windows_for(name)
        if not windows:
            return None
        merged = merge_window_stats(
            windows, windows[0].window_start, args.window
        )
        return {
            "count": float(merged.count),
            "mean": merged.mean,
            "min": merged.min,
            "max": merged.max,
        }

    def worst_sources():
        # rank only the sources (and trailing range) the flags selected
        ranked = sorted(
            (
                (name, totals["mean"])
                for name in sources
                if (totals := totals_for(name)) is not None
            ),
            key=lambda pair: pair[1],
        )
        return ranked[: args.top]

    cache_sources = [name for name in sources if name.startswith("cache:")]

    def cache_series():
        # per-window hit-rate samples for each cache:<route> source
        return {
            name: [
                {"t": w.window_start, "hit_rate": w.mean, "count": w.count}
                for w in windows_for(name)
            ]
            for name in cache_sources
        }

    if args.json:
        payload = {
            "segments": len(segments),
            "events": rollups.ingested,
            "window_seconds": args.window,
            "last_seconds": args.last,
            "sources": {
                name: totals
                for name in sources
                if (totals := totals_for(name)) is not None
            },
            "worst": worst_sources(),
        }
        if cache_sources:
            payload["cache_hit_rate"] = cache_series()
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    total_bytes = sum(os.path.getsize(p) for p in segments)
    print(
        f"WAL {args.wal}: {len(segments)} segment(s), "
        f"{total_bytes} bytes, {rollups.ingested} events, "
        f"watermark t={rollups.watermark:.3f}s"
    )
    scope = (
        f", trailing {args.last:g}s" if args.last is not None else ""
    )
    print(f"\nper-source rollups ({args.window:g}s windows{scope}):")
    header = (
        f"  {'source':<24} {'count':>7} {'mean':>8} {'min':>8} "
        f"{'max':>8} {'p50':>8} {'p95':>8}"
    )
    print(header)
    for name in sources:
        windows = windows_for(name)
        totals = totals_for(name)
        if totals is None:
            continue
        p50 = sum(w.p50 * w.count for w in windows) / totals["count"]
        p95 = sum(w.p95 * w.count for w in windows) / totals["count"]
        print(
            f"  {name:<24} {int(totals['count']):>7} {totals['mean']:>8.3f} "
            f"{totals['min']:>8.3f} {totals['max']:>8.3f} "
            f"{p50:>8.3f} {p95:>8.3f}"
        )
    if cache_sources:
        print("\nexplanation-cache hit-rate series:")
        for name, samples in cache_series().items():
            trail = " ".join(
                f"{s['t']:g}s={s['hit_rate']:.2f}" for s in samples[-8:]
            )
            print(f"  {name:<24} {trail}")
    ranked = worst_sources()
    if ranked:
        print(f"\nworst sources (lowest mean, top {args.top}):")
        for name, score in ranked:
            print(f"  {name:<24} {score:.3f}")
    if args.tail:
        print(f"\nlast {args.tail} event(s):")
        selected = sources if args.source else None
        events = query.events(sources=selected)[-args.tail :]
        for event in events:
            print(
                f"  t={event.timestamp:<10.3f} {event.kind:<16} "
                f"{event.source:<24} value={event.value:.4f}"
            )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Traced capacity run: waterfalls, critical paths, span histograms."""
    import json

    from repro.trace_scenario import run_traced_scenario
    from repro.tracing import (
        critical_path,
        latency_summary,
        render_critical_path,
        render_latency_table,
        render_waterfall,
    )

    try:
        result = run_traced_scenario(
            route=args.route,
            n_threads=args.threads,
            iterations=args.iterations,
            seed=args.seed,
            payload=args.payload,
            window_seconds=args.window,
            probe_sensors=not args.no_probe,
        )
    except KeyError as exc:
        print(f"trace scenario failed: {exc}", file=sys.stderr)
        return 2
    trees = result.traces()
    if not trees:
        print("no traces recorded", file=sys.stderr)
        return 2
    slowest = max(trees, key=lambda t: t.duration)
    resolution = result.slowest_window_resolution()
    views = (
        {"waterfall", "critical-path", "histogram", "exemplars"}
        if args.view == "all"
        else {args.view}
    )

    if args.json:
        payload = {
            "route": result.route,
            "n_traces": len(trees),
            "report": {
                "samples": result.report.n_requests,
                "errors": result.report.n_errors,
                "avg_response_ms": result.report.avg_response_ms,
                "p95_response_ms": result.report.p95_response_ms,
                "throughput_rps": result.report.throughput_rps,
            },
            "slowest_trace": {
                "trace_id": slowest.trace_id,
                "duration_ms": slowest.duration * 1000.0,
                "critical_path": [
                    {"span": seg.span.name, "ms": seg.seconds * 1000.0}
                    for seg in critical_path(slowest)
                ],
            },
            "span_latency": [
                s.to_dict() for s in latency_summary(result.collector.all_spans())
            ],
            "slowest_window": None
            if resolution is None
            else {
                "window_start": resolution.window.window_start,
                "window_seconds": resolution.window.window_seconds,
                "mean": resolution.window.mean,
                "trace_ids": resolution.trace_ids,
                "resolved": resolution.resolved,
            },
            "collector": result.collector.stats(),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0

    print(
        f"traced capacity run: route={result.route} threads={args.threads} "
        f"iterations={args.iterations} payload={args.payload}"
    )
    print("  " + result.report.render_text())
    print(
        f"  {len(trees)} trace(s) recorded, "
        f"{result.tracer.ended} span(s), 0 open"
        if result.tracer.active_spans == 0
        else f"  WARNING: {result.tracer.active_spans} span(s) still open"
    )
    if "waterfall" in views:
        print(f"\nslowest trace ({slowest.duration * 1000.0:.2f}ms):")
        print(render_waterfall(slowest))
    if "critical-path" in views:
        print()
        print(render_critical_path(critical_path(slowest)))
    if "histogram" in views:
        print("\nper-span latency across all traces:")
        print(render_latency_table(latency_summary(result.collector.all_spans())))
    if "exemplars" in views and resolution is not None:
        print("\nslowest rollup window → exemplar traces:")
        print(resolution.render_text())
    return 0


def _cmd_slo(args: argparse.Namespace) -> int:
    """SLO incident drill: burn-rate alerts, budgets, incident narratives."""
    import json

    from repro.core.narrator import Audience
    from repro.slo import load_definitions
    from repro.slo_scenario import run_incident_drill

    definitions = None
    if args.definitions:
        try:
            definitions = load_definitions(args.definitions)
        except (OSError, KeyError, TypeError, ValueError) as exc:
            print(f"bad SLO definitions file: {exc}", file=sys.stderr)
            return 2
    audience = Audience(args.audience.replace("-", "_"))
    result = run_incident_drill(
        route=args.route,
        seed=args.seed,
        duration=args.duration,
        fault_at=args.fault_at,
        fault_duration=args.fault_duration,
        slow_factor=args.slow_factor,
        wal_dir=args.wal,
        definitions=definitions,
    )
    primary = result.primary_incident

    if args.json:
        payload = {
            "route": result.route,
            "faulted_node": result.faulted_node,
            "fault_at": result.fault_at,
            "requests": result.report.n_requests,
            "errors": result.report.n_errors,
            "alerts": [
                {
                    "slo": a.slo,
                    "source": a.source,
                    "rule": a.rule,
                    "severity": a.severity,
                    "state": a.state,
                    "timestamp": a.timestamp,
                    "short_burn": a.short_burn,
                    "long_burn": a.long_burn,
                    "factor": a.factor,
                }
                for a in result.alerts
            ],
            "incidents": [i.to_dict() for i in result.incidents],
            "status": [
                {
                    "slo": s.slo,
                    "source": s.source,
                    "objective": s.objective,
                    "target": s.target,
                    "budget_remaining": s.budget_remaining,
                    "short_burn": s.short_burn,
                    "long_burn": s.long_burn,
                    "firing": list(s.firing_rules),
                }
                for s in result.evaluator.status()
            ],
            "report": None
            if primary is None
            else result.incident_report(audience),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0

    print(
        f"incident drill: route={result.route} seed={args.seed} "
        f"fault=slow x{args.slow_factor:g} on {result.faulted_node} "
        f"at t={result.fault_at:g}s"
    )
    print(
        f"  {result.report.n_requests} request(s), "
        f"{result.report.n_errors} error(s), "
        f"{len(result.alerts)} alert edge(s), "
        f"{len(result.incidents)} incident(s)"
    )
    if args.watch:
        print("\nalert stream:")
        for alert in result.alerts:
            print(f"  t={alert.timestamp:7.1f}s  {alert.describe()}")
    print()
    print(result.dashboard().render_text())
    if args.report:
        print()
        if primary is None:
            print("no node-attributed incident to report on")
        else:
            print(f"incident report ({audience.value} audience):")
            print(result.incident_report(audience))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    """Static analysis: AST + flow rules, call graph, layering contract."""
    import json
    from pathlib import Path

    from repro.analysis import all_project_rules, all_rules, run_analysis

    if args.list_rules:
        for spec in all_rules():
            print(f"  {spec.rule_id:<22} [{spec.severity}] {spec.description}")
        for spec in all_project_rules():
            print(
                f"  {spec.rule_id:<22} [{spec.severity}] "
                f"(whole-program) {spec.description}"
            )
        return 0
    try:
        report = run_analysis(
            root=Path(args.root) if args.root else None,
            rules=args.rule or None,
            baseline=Path(args.baseline) if args.baseline else None,
            contracts=not args.no_contracts,
            changed=args.changed,
            jobs=args.jobs,
            cache_path=Path(args.cache) if args.cache else None,
            strict_baseline=args.strict_baseline,
        )
    except (FileNotFoundError, KeyError, ValueError) as exc:
        print(f"lint failed: {exc}", file=sys.stderr)
        return 2
    if args.graph == "dot":
        print(report.context.graph.to_dot())
        return 0
    if args.explain:
        print(report.render_explanations(args.explain))
        return report.exit_code
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render_text())
    return report.exit_code


def _cmd_model_card(args: argparse.Namespace) -> int:
    from repro.core import AlertRule, SpatialSystem
    from repro.datasets import generate_unimib_like, to_binary_fall_task
    from repro.ml import RandomForestClassifier, StandardScaler
    from repro.ml.pipeline import AIPipeline

    dataset = generate_unimib_like(n_samples=args.samples, seed=args.seed)
    X, y = to_binary_fall_task(dataset)
    X = StandardScaler().fit_transform(X)
    pipeline = AIPipeline(
        data_provider=lambda: (X, y),
        model_factory=lambda: RandomForestClassifier(
            n_estimators=15, max_depth=12, seed=0
        ),
        seed=args.seed,
    )
    spatial = SpatialSystem.attach(
        pipeline, rules=[AlertRule(sensor="performance", threshold=0.85)]
    )
    spatial.run_pipeline()
    print(
        spatial.model_card(
            model_name="fall-detection-demo",
            intended_use="Demo artifact produced by `python -m repro model-card`.",
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SPATIAL architecture reproduction — quick experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("version", help="print the package version").set_defaults(
        func=_cmd_version
    )
    sub.add_parser(
        "taxonomy", help="print the Fig. 1/Fig. 3 registries"
    ).set_defaults(func=_cmd_taxonomy)

    baselines = sub.add_parser(
        "baselines", help="use-case-1 model baselines (compact)"
    )
    baselines.add_argument("--samples", type=int, default=2000)
    baselines.add_argument("--seed", type=int, default=0)
    baselines.set_defaults(func=_cmd_baselines)

    poison = sub.add_parser(
        "poison", help="compact Fig. 6 label-flipping sweep on the RF"
    )
    poison.add_argument("--samples", type=int, default=2000)
    poison.add_argument("--seed", type=int, default=0)
    poison.set_defaults(func=_cmd_poison)

    capacity = sub.add_parser(
        "capacity", help="one capacity-load run on the simulated deployment"
    )
    capacity.add_argument("--route", default="shap")
    capacity.add_argument("--threads", type=int, default=100)
    capacity.add_argument("--iterations", type=int, default=20)
    capacity.add_argument("--payload", default="tabular")
    capacity.add_argument("--seed", type=int, default=1)
    capacity.add_argument(
        "--open-loop",
        type=float,
        default=None,
        metavar="RATE",
        help="drive a Poisson open-loop arrival process at RATE "
        "requests/second instead of closed-loop threads",
    )
    capacity.add_argument(
        "--requests",
        type=int,
        default=10_000,
        help="total requests for --open-loop runs",
    )
    capacity.add_argument(
        "--no-retain",
        action="store_true",
        help="ring mode: recycle completed rows (memory bounded by "
        "in-flight count, enables million-request runs)",
    )
    _add_serving_flags(capacity)
    capacity.set_defaults(func=_cmd_capacity)

    cluster = sub.add_parser(
        "cluster",
        help="a sharded multi-node capacity run with failure injection",
    )
    cluster.add_argument("--nodes", type=int, default=8)
    cluster.add_argument(
        "--replication",
        type=int,
        default=2,
        help="preference-list length per route (1 primary + replicas)",
    )
    cluster.add_argument(
        "--fault-plan",
        default="",
        metavar="SPEC",
        help="comma-separated fault events: crash:node@t[:restart_t], "
        "partition:node@t:duration, slow:node@t:duration:factor, "
        "poolcrash:node@t",
    )
    cluster.add_argument(
        "--requests",
        type=int,
        default=100_000,
        help="total requests across all routes",
    )
    cluster.add_argument(
        "--open-loop",
        type=float,
        default=None,
        metavar="RATE",
        help="aggregate Poisson arrival rate (requests/second) split "
        "across routes; omit for closed-loop threads",
    )
    cluster.add_argument(
        "--routes",
        default="shap,lime,ai_pipeline",
        help="comma-separated route mix",
    )
    cluster.add_argument("--threads", type=int, default=100)
    cluster.add_argument("--seed", type=int, default=1)
    cluster.add_argument("--trace-every", type=int, default=0)
    cluster.add_argument(
        "--no-retain",
        action="store_true",
        help="ring mode: recycle completed rows for million-request runs",
    )
    cluster.add_argument(
        "--autoscale",
        action="store_true",
        help="enable the rollup-pressure autoscaler",
    )
    _add_serving_flags(cluster)
    cluster.set_defaults(func=_cmd_cluster)

    demo = sub.add_parser(
        "dashboard-demo", help="train, instrument, monitor, render the dashboard"
    )
    demo.add_argument("--samples", type=int, default=1500)
    demo.add_argument("--seed", type=int, default=0)
    demo.set_defaults(func=_cmd_dashboard_demo)

    card = sub.add_parser(
        "model-card", help="generate a model card for a demo pipeline"
    )
    card.add_argument("--samples", type=int, default=1200)
    card.add_argument("--seed", type=int, default=0)
    card.set_defaults(func=_cmd_model_card)

    telemetry = sub.add_parser(
        "telemetry", help="replay and inspect a telemetry WAL directory"
    )
    telemetry.add_argument(
        "--wal", required=True, help="WAL segment directory to replay"
    )
    telemetry.add_argument(
        "--window", type=float, default=1.0, help="rollup window seconds"
    )
    telemetry.add_argument(
        "--top", type=int, default=5, help="worst-source ranking size"
    )
    telemetry.add_argument(
        "--tail", type=int, default=0, help="also print the last N events"
    )
    telemetry.add_argument(
        "--last",
        type=float,
        default=None,
        metavar="SECONDS",
        help="restrict rollups to the trailing window before the stream end",
    )
    telemetry.add_argument(
        "--source",
        action="append",
        metavar="NAME",
        help="restrict output to this source (repeatable; default: all)",
    )
    telemetry.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    telemetry.set_defaults(func=_cmd_telemetry)

    trace = sub.add_parser(
        "trace",
        help="traced capacity run: waterfall, critical path, span histograms",
    )
    trace.add_argument("--route", default="shap")
    trace.add_argument("--threads", type=int, default=8)
    trace.add_argument("--iterations", type=int, default=3)
    trace.add_argument("--payload", default="tabular")
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument(
        "--window", type=float, default=0.25, help="rollup window seconds"
    )
    trace.add_argument(
        "--view",
        choices=["all", "waterfall", "critical-path", "histogram", "exemplars"],
        default="all",
    )
    trace.add_argument(
        "--no-probe",
        action="store_true",
        help="skip the per-request sensor probe",
    )
    trace.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    trace.set_defaults(func=_cmd_trace)

    slo = sub.add_parser(
        "slo",
        help="SLO incident drill: burn-rate alerts, budgets, narratives",
    )
    slo.add_argument(
        "--definitions",
        default=None,
        metavar="PATH",
        help="JSON SLO definitions file (default: built-in drill set)",
    )
    slo.add_argument("--route", default="shap")
    slo.add_argument("--seed", type=int, default=21)
    slo.add_argument(
        "--duration", type=float, default=120.0, help="drill horizon seconds"
    )
    slo.add_argument(
        "--fault-at",
        type=float,
        default=40.0,
        help="when the slow-node fault starts",
    )
    slo.add_argument(
        "--fault-duration",
        type=float,
        default=45.0,
        help="how long the fault lasts",
    )
    slo.add_argument(
        "--slow-factor",
        type=float,
        default=6.0,
        help="service-time multiplier on the faulted node",
    )
    slo.add_argument(
        "--wal",
        default=None,
        metavar="DIR",
        help="also persist the drill's telemetry to this WAL directory",
    )
    slo.add_argument(
        "--watch",
        action="store_true",
        help="print the chronological alert edge stream",
    )
    slo.add_argument(
        "--report",
        action="store_true",
        help="print the generated incident narrative",
    )
    slo.add_argument(
        "--audience",
        choices=["end-user", "developer", "auditor"],
        default="developer",
        help="narrative audience for --report",
    )
    slo.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    slo.set_defaults(func=_cmd_slo)

    lint = sub.add_parser(
        "lint",
        help="static analysis: AST rules + import layering contract",
    )
    lint.add_argument(
        "--root",
        default=None,
        help="tree to analyze (default: the installed repro package)",
    )
    lint.add_argument(
        "--baseline",
        default=None,
        help="suppression file (default: auto-discover lint-baseline.json)",
    )
    lint.add_argument(
        "--rule",
        action="append",
        metavar="RULE_ID",
        help="run only this rule (repeatable; default: all)",
    )
    lint.add_argument(
        "--no-contracts",
        action="store_true",
        help="skip the import-graph layering/cycle checks",
    )
    lint.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue"
    )
    lint.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    lint.add_argument(
        "--changed",
        action="store_true",
        help="incremental: re-analyze only modules whose content hash "
        "(or a transitive importee's) moved since the cached run",
    )
    lint.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="fan the per-module phase across N worker processes",
    )
    lint.add_argument(
        "--cache",
        default=None,
        metavar="PATH",
        help="incremental cache file (default: .lint-cache.json beside "
        "the baseline)",
    )
    lint.add_argument(
        "--strict-baseline",
        action="store_true",
        help="fail the run when baseline entries no longer match anything",
    )
    lint.add_argument(
        "--graph",
        choices=["dot"],
        default=None,
        help="print the whole-program call graph instead of findings",
    )
    lint.add_argument(
        "--explain",
        default=None,
        metavar="RULE_ID",
        help="show the cross-module call chain behind each finding of "
        "this rule",
    )
    lint.set_defaults(func=_cmd_lint)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
