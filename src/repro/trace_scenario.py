"""The traced capacity-load scenario behind ``python -m repro trace``.

One function, :func:`run_traced_scenario`, wires the whole observability
story end to end on the Fig. 8(a) deployment:

* a :class:`~repro.tracing.Tracer` clocked by the simulator's virtual
  ``now`` and draining into a bounded :class:`~repro.tracing.TraceCollector`;
* the paper deployment with :data:`~repro.gateway.cluster
  .PAPER_STAGE_PROFILES` stage weights, so every traced request breaks
  down into gateway legs, service queue/process spans and pipeline-stage
  spans;
* an optional *sensor probe* on the loaded route: each completed request
  polls a real sensor registry (data-quality + performance over a small
  trained model) inside the request's trace — §IV's "sensors across the
  pipeline", attached to serving;
* a telemetry pipeline receiving the load generator's per-response
  events, each stamped with its trace's exemplar labels, so the slowest
  rollup window resolves back to the recorded traces inside it.

The CLI renders the result; the end-to-end test asserts its invariants
(rooted trees, critical path == trace duration, exemplar resolution).
This module lives at the repo root — the unrestricted application layer —
because it composes ``gateway``, ``core``, ``telemetry`` and ``tracing``,
which no single package below the root may do.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.core.registry import SensorRegistry
from repro.core.sensors import (
    DataQualitySensor,
    ModelContext,
    PerformanceSensor,
)
from repro.gateway.cluster import build_paper_deployment
from repro.gateway.loadgen import LoadGenerator, SummaryReport, ThreadGroup
from repro.ml.linear import LogisticRegressionClassifier
from repro.ml.preprocessing import train_test_split
from repro.telemetry.events import TelemetryEvent
from repro.telemetry.pipeline import TelemetryPipeline
from repro.telemetry.rollup import WindowStat
from repro.tracing import (
    ExemplarResolution,
    TraceCollector,
    Tracer,
    TraceTree,
    resolve_window,
    slowest_windows,
)

__all__ = ["GATEWAY_TOPIC", "TraceScenarioResult", "run_traced_scenario"]

GATEWAY_TOPIC = "gateway"


def _model_context(seed: int) -> ModelContext:
    """A small trained classifier for the request-time sensor probes."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(96, 5))
    w = rng.normal(size=5)
    y = (X @ w > 0.0).astype(int)
    X_train, X_test, y_train, y_test = train_test_split(
        X, y, test_size=0.25, seed=seed
    )
    model = LogisticRegressionClassifier(seed=seed)
    model.fit(X_train, y_train)
    return ModelContext(
        model=model,
        X_train=X_train,
        y_train=y_train,
        X_test=X_test,
        y_test=y_test,
        model_version=1,
    )


@dataclass
class TraceScenarioResult:
    """Everything a view (CLI, test, notebook) needs from one traced run."""

    report: SummaryReport
    tracer: Tracer
    collector: TraceCollector
    telemetry: TelemetryPipeline
    route: str
    #: Raw gateway events in publish order (tapped off the bus); the
    #: exemplar-resolution input.
    events: List[TelemetryEvent] = field(default_factory=list)

    def traces(self) -> List[TraceTree]:
        """Rooted trace trees, eviction order (oldest first)."""
        return self.collector.traces()

    def route_windows(self) -> List[WindowStat]:
        """Closed base-level rollup windows for the loaded route."""
        return self.telemetry.rollups.windows(source=self.route)

    def slowest_window_resolution(
        self, max_traces: int = 8
    ) -> Optional[ExemplarResolution]:
        """Drill the slowest rollup window down to its recorded traces."""
        windows = slowest_windows(self.route_windows(), k=1)
        if not windows:
            return None
        return resolve_window(
            windows[0], self.events, self.collector, max_traces=max_traces
        )


def run_traced_scenario(
    route: str = "shap",
    n_threads: int = 8,
    iterations: int = 3,
    seed: int = 0,
    payload: str = "tabular",
    window_seconds: float = 0.25,
    probe_sensors: bool = True,
    max_traces: int = 4096,
) -> TraceScenarioResult:
    """Run one traced capacity-load experiment on the paper deployment.

    Closed-loop ``n_threads`` virtual users × ``iterations`` requests
    against ``route``, tracing on.  Returns the report plus the collector,
    telemetry pipeline and tapped event stream for analysis.
    """
    collector = TraceCollector(max_traces=max_traces)
    clock_box = {}
    tracer = Tracer(
        clock=lambda: clock_box["sim"].now, collector=collector, seed=seed
    )
    sim, gateway = build_paper_deployment(seed=seed, tracer=tracer)
    clock_box["sim"] = sim

    if probe_sensors:
        registry = SensorRegistry()
        registry.register(DataQualitySensor())
        registry.register(PerformanceSensor())
        context = _model_context(seed)

        def probe(probe_tracer, span, record) -> None:
            registry.poll_spans(context, tracer=probe_tracer, parent=span)

        gateway.service(route).probe = probe

    telemetry = TelemetryPipeline(window_seconds=window_seconds)
    telemetry.start()
    events: List[TelemetryEvent] = []
    telemetry.bus.subscribe(
        "trace-scenario-tap",
        topics=GATEWAY_TOPIC,
        capacity=1 << 16,
        callback=events.extend,
    )

    generator = LoadGenerator(
        sim, gateway, telemetry=telemetry, topic=GATEWAY_TOPIC
    )
    generator.add_thread_group(
        ThreadGroup(
            route=route,
            n_threads=n_threads,
            iterations=iterations,
            payload=payload,
        )
    )
    report = generator.run()
    telemetry.flush()
    return TraceScenarioResult(
        report=report,
        tracer=tracer,
        collector=collector,
        telemetry=telemetry,
        route=route,
        events=events,
    )
