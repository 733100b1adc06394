"""The deterministic incident drill behind ``python -m repro slo``.

One function, :func:`run_incident_drill`, closes the monitoring loop the
SLO engine exists for, end to end on a seeded cluster:

* a sharded cluster run (:class:`~repro.cluster.ClusterRunner`) with
  per-request response/availability telemetry (``response_every=1``) and
  full tracing, so every published latency event carries exemplar labels;
* an injected slow-node fault (:class:`~repro.cluster.FaultPlan`) on the
  loaded route's ring *primary* — the node every healthy dispatch lands
  on, so the regression is attributable to exactly one node;
* a synthetic sensor feed whose value degrades while the fault is active,
  giving the incident engine correlated cross-source evidence;
* the SLO stack from :mod:`repro.slo`: drill-scaled multi-window
  burn-rate rules over the per-node rollup sources, and an incident
  engine diffing breach-window critical paths against the pre-fault
  baseline.

Everything is a function of the seed and the drill parameters: the
simulator clock drives all timestamps, trace/span ids are seeded
splitmix64, and evidence lists are sorted — so the generated incident
reports are byte-stable and golden-file testable.

This module lives at the repo root — the unrestricted application layer —
because it composes ``cluster``, ``slo``, ``core`` and ``telemetry``,
which no single package below the root may do.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.cluster import ClusterRunner, ClusterTopology, FaultPlan, RouteSpec
from repro.core.dashboard import AIDashboard
from repro.core.narrator import Audience, narrate_incident
from repro.gateway.loadgen import SummaryReport, ThreadGroup
from repro.gateway.simulation import Simulator
from repro.slo import (
    SLO_TOPIC,
    BurnRateAlert,
    Incident,
    IncidentEngine,
    SLODefinition,
    SLOEvaluator,
    drill_definitions,
)
from repro.telemetry.events import KIND_SENSOR_READING, TelemetryEvent
from repro.telemetry.pipeline import SENSOR_TOPIC, TelemetryPipeline

__all__ = ["CLUSTER_TOPIC", "IncidentDrillResult", "run_incident_drill"]

CLUSTER_TOPIC = "cluster"

#: Synthetic sensor levels for the correlated-evidence feed: ``healthy``
#: clears the drill's sensor floor, ``degraded`` sits below it while the
#: fault is active.  Drill colour, not SLO policy (the thresholds that
#: define breach live in ``repro.slo.definitions``).
_SENSOR_HEALTHY = 0.92
_SENSOR_DEGRADED = 0.55
_SENSOR_PERIOD = 0.5


@dataclass
class IncidentDrillResult:
    """Everything a view (CLI, test, notebook) needs from one drill."""

    report: SummaryReport
    runner: ClusterRunner
    pipeline: TelemetryPipeline
    evaluator: SLOEvaluator
    engine: IncidentEngine
    route: str
    faulted_node: str
    fault_at: float
    #: Every bus event in publish order (the tap feeding exemplar
    #: resolution and evidence correlation).
    events: List[TelemetryEvent] = field(default_factory=list)

    @property
    def alerts(self) -> List[BurnRateAlert]:
        return self.evaluator.alerts

    @property
    def incidents(self) -> List[Incident]:
        return self.engine.incidents

    @property
    def primary_incident(self) -> Optional[Incident]:
        """The headline incident: the first node-attributed *page* (the
        fast burn-rate pair firing on the faulted node), falling back to
        any node-attributed breach."""
        attributed = [
            incident
            for incident in self.engine.incidents
            if incident.suspect_node is not None
        ]
        for incident in attributed:
            if incident.severity == "page":
                return incident
        return attributed[0] if attributed else None

    def incident_report(self, audience: Audience) -> str:
        incident = self.primary_incident
        if incident is None:
            raise RuntimeError("the drill produced no node-attributed incident")
        return narrate_incident(incident, audience)

    def dashboard(self) -> AIDashboard:
        """A dashboard wired to the drill's SLO feed (for the CLI view)."""
        board = AIDashboard()
        board.set_slo_provider(
            self.evaluator.status,
            lambda: (
                None
                if self.engine.last_incident is None
                else self.engine.last_incident.incident_id
            ),
        )
        return board


def run_incident_drill(
    route: str = "shap",
    seed: int = 21,
    n_nodes: int = 6,
    replication: int = 2,
    n_threads: int = 8,
    think_time: float = 0.2,
    duration: float = 120.0,
    fault_at: float = 40.0,
    fault_duration: float = 45.0,
    slow_factor: float = 6.0,
    window_seconds: float = 1.0,
    wal_dir=None,
    definitions: Optional[List[SLODefinition]] = None,
) -> IncidentDrillResult:
    """Run one seeded slow-node incident drill and return the full stack.

    The fault lands on the route's ring primary (where every healthy
    dispatch goes), so the per-node latency objective breaches on exactly
    that node; the burn-rate evaluator pages within its fast window pair
    and the incident engine assembles the evidence bundle live, inside
    the same simulated run.
    """
    pipeline = TelemetryPipeline(
        wal_dir=wal_dir,
        window_seconds=window_seconds,
        cascades=(),
        auto_pump_every=256,
    )
    # The tap must be registered before start(): bus subscriptions drain
    # in insertion order, so when the rollup drain finalises a window and
    # the evaluator fires, this list already holds every event up to the
    # current batch — exemplar resolution inside the alert callback sees
    # a complete stream.
    events: List[TelemetryEvent] = []
    pipeline.bus.subscribe(
        "slo-drill-tap", capacity=1 << 17, callback=events.extend
    )
    pipeline.start()

    sim = Simulator()
    topology = ClusterTopology(
        sim,
        [RouteSpec(route=route, concurrency=4)],
        n_nodes=n_nodes,
        replication=replication,
        seed=seed,
    )
    runner = ClusterRunner(
        topology,
        seed=seed,
        trace_every=1,
        response_every=1,
        telemetry=pipeline,
        topic=CLUSTER_TOPIC,
        max_traces=1 << 14,
    )

    slo_definitions = (
        drill_definitions(route) if definitions is None else definitions
    )
    evaluator = SLOEvaluator(
        slo_definitions,
        emit=lambda event: pipeline.publish(SLO_TOPIC, event),
    )
    evaluator.attach(pipeline.rollups)
    engine = IncidentEngine(
        runner.collector,
        events,
        baseline_until=fault_at,
        evaluator=evaluator,
    )
    engine.attach(evaluator)

    # the fault hits the dispatch primary: the node every request lands
    # on while the cluster is healthy, hence the one the per-node SLO
    # series degrades for
    faulted_node = topology.ring.preference(route, replication)[0]
    plan = FaultPlan().add_slow(
        faulted_node, fault_at, fault_duration, slow_factor
    )
    runner.apply_fault_plan(plan)

    fault_end = fault_at + fault_duration

    def emit_sensor() -> None:
        now = sim.now
        degraded = fault_at <= now < fault_end
        pipeline.publish(
            SENSOR_TOPIC,
            TelemetryEvent(
                source="performance",
                value=_SENSOR_DEGRADED if degraded else _SENSOR_HEALTHY,
                timestamp=now,
                kind=KIND_SENSOR_READING,
                labels={"property": "accuracy", "model_version": "1"},
            ),
        )
        if now + _SENSOR_PERIOD <= duration:
            sim.schedule(_SENSOR_PERIOD, emit_sensor)

    sim.schedule(0.0, emit_sensor)

    # closed-loop load sized well past the horizon; run(until=...) cuts it
    iterations = max(1, int(duration / max(think_time, 0.02)) * 2)
    runner.add_thread_group(
        ThreadGroup(
            route=route,
            n_threads=n_threads,
            rampup_seconds=2.0,
            iterations=iterations,
            think_time=think_time,
        )
    )
    report = runner.run(until=duration)
    # Two flushes, deliberately: the first finalises the remaining rollup
    # windows and pumps the alert events they fire into the tap and the
    # WAL; the second finalises the rollup windows those events opened.
    pipeline.flush()
    pipeline.flush()
    return IncidentDrillResult(
        report=report,
        runner=runner,
        pipeline=pipeline,
        evaluator=evaluator,
        engine=engine,
        route=route,
        faulted_node=faulted_node,
        fault_at=fault_at,
        events=events,
    )
