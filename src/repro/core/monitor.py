"""Continuous monitoring: periodic sensor polling onto the telemetry bus.

§V: monitoring "consists in requesting micro-service functionality
periodically.  For instance, every time an AI model is updated or there is a
change in any step of the construction of the model."  The monitor models
exactly those two triggers: scheduled rounds and model-update events.

Readings no longer land in the dashboard directly.  Each round publishes
:class:`~repro.telemetry.events.TelemetryEvent`\\ s onto a
:class:`~repro.telemetry.bus.TelemetryBus`; the dashboard is just one
subscriber among peers (WAL writer, rollup aggregator, alert fan-outs),
which is what decouples the observation path from any single consumer —
a slow dashboard can drop frames without stalling sensor polling.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Union

from repro.core.dashboard import AIDashboard
from repro.core.registry import SensorRegistry
from repro.core.sensors import ModelContext, SensorReading
from repro.telemetry.bus import TelemetryBus
from repro.telemetry.events import TelemetryEvent
from repro.telemetry.pipeline import SENSOR_TOPIC, TelemetryPipeline
from repro.tracing import NULL_TRACER


@dataclass
class MonitorRound:
    """Record of one polling round: why it ran and what it measured."""

    index: int
    trigger: str  # "scheduled" | "model_update"
    readings: List[SensorReading] = field(default_factory=list)
    #: Wall-clock cost of the whole round (poll + publish + pump).
    duration_ms: float = 0.0
    #: Per-sensor wall-clock measurement cost, sensor name → milliseconds.
    timings: Dict[str, float] = field(default_factory=dict)
    #: Names of sensors whose measurement raised this round.
    errors: List[str] = field(default_factory=list)
    #: Trace id of the round span (``None`` when tracing is off).
    trace_id: Optional[str] = None


class ContinuousMonitor:
    """Drives the sensor registry on a schedule and on model updates.

    Parameters
    ----------
    registry / dashboard:
        The application's sensors and the operator surface.  The dashboard
        is subscribed to the bus (bounded queue, ``drop_oldest``) rather
        than written to directly; pass ``None`` to run dashboard-less with
        other subscribers consuming the stream.
    context_provider:
        Zero-argument callable returning the current :class:`ModelContext`;
        called at every round so the monitor always measures live state.
    telemetry:
        Where readings are published: a :class:`TelemetryPipeline` (full
        bus → WAL → rollup stack), a bare :class:`TelemetryBus`, or
        ``None`` for a private in-memory bus.  A not-yet-started pipeline
        is started on first use.
    topic:
        Bus topic readings are published on.
    dashboard_queue_capacity:
        Bound on the dashboard subscription's queue; overflow drops the
        oldest frames (counted on the bus) instead of blocking polling.
    tracer:
        Span factory (defaults to the no-op tracer).  With a recording
        tracer each round becomes a ``monitor.round`` span with one
        ``sensor.poll`` child per sensor, and every published event
        carries its sensor span's exemplar labels.
    """

    def __init__(
        self,
        registry: SensorRegistry,
        dashboard: Optional[AIDashboard],
        context_provider: Callable[[], ModelContext],
        telemetry: Optional[Union[TelemetryPipeline, TelemetryBus]] = None,
        topic: str = SENSOR_TOPIC,
        dashboard_queue_capacity: int = 65536,
        tracer=NULL_TRACER,
    ) -> None:
        self.registry = registry
        self.dashboard = dashboard
        self.context_provider = context_provider
        self.topic = topic
        self.tracer = tracer
        self.rounds: List[MonitorRound] = []
        self._last_model_version: Optional[int] = None
        if telemetry is None:
            telemetry = TelemetryBus()
        if isinstance(telemetry, TelemetryPipeline) and not telemetry.started:
            telemetry.start()
        self.telemetry = telemetry
        #: The underlying bus (== ``telemetry`` when a bare bus was given).
        self.bus: TelemetryBus = getattr(telemetry, "bus", telemetry)
        if dashboard is not None:
            self._subscribe_dashboard(dashboard, dashboard_queue_capacity)

    def _subscribe_dashboard(
        self, dashboard: AIDashboard, capacity: int
    ) -> None:
        def deliver(events: Deque[TelemetryEvent]) -> None:
            # pop each event once the dashboard holds it, so a raising
            # add_reading leaves the rest queued (see Subscription)
            while events:
                dashboard.add_reading(SensorReading.from_event(events[0]))
                events.popleft()

        name = "dashboard"
        suffix = 1
        while True:
            try:
                self.bus.subscribe(
                    name,
                    topics=self.topic,
                    capacity=capacity,
                    policy="drop_oldest",
                    callback=deliver,
                )
                return
            except ValueError:  # shared bus, name taken by another monitor
                suffix += 1
                name = f"dashboard-{suffix}"

    def poll_once(self, trigger: str = "scheduled") -> MonitorRound:
        """Run one monitoring round: poll all sensors, publish to the bus.

        Each sensor is measured in its own span with wall-clock timing and
        error isolation (see :meth:`SensorRegistry.poll_spans`); the
        published events carry per-sensor ``elapsed_ms`` and their span's
        exemplar labels, so a slow or failing round is attributable to a
        specific sensor rather than just "the round was slow".
        """
        round_started = time.perf_counter()
        round_span = self.tracer.start_span("monitor.round")
        if round_span.is_recording:
            round_span.set_attribute("trigger", trigger)
            round_span.set_attribute("round", float(len(self.rounds)))
        context = self.context_provider()
        polled = self.registry.poll_spans(
            context, tracer=self.tracer, parent=round_span
        )
        record = MonitorRound(index=len(self.rounds), trigger=trigger)
        for item in polled:
            record.readings.append(item.reading)
            record.timings[item.reading.sensor] = item.elapsed_ms
            if item.reading.error:
                record.errors.append(item.reading.sensor)
            event = TelemetryEvent.from_reading(item.reading)
            event.attrs["elapsed_ms"] = item.elapsed_ms
            if item.span.is_recording:
                event.with_trace(item.span.trace_id, item.span.span_id)
            self.telemetry.publish(self.topic, event)
        # deliver synchronously so dashboards/rollups are current when the
        # round returns; production loops may instead pump on their own
        # cadence for batching
        self.telemetry.pump()
        record.duration_ms = (time.perf_counter() - round_started) * 1000.0
        if round_span.is_recording:
            record.trace_id = round_span.trace_id
            round_span.set_attribute("n_sensors", float(len(polled)))
            round_span.set_attribute("duration_ms", record.duration_ms)
            if record.errors:
                round_span.record_error(
                    "sensor errors: " + ", ".join(record.errors)
                )
        round_span.end()
        self.rounds.append(record)
        self._last_model_version = context.model_version
        return record

    def run(self, n_rounds: int) -> List[MonitorRound]:
        """Run a fixed number of scheduled rounds (simulated periodicity)."""
        if n_rounds < 0:
            raise ValueError("n_rounds must be non-negative")
        return [self.poll_once("scheduled") for __ in range(n_rounds)]

    def on_model_update(self) -> Optional[MonitorRound]:
        """Poll if (and only if) the model version changed since last round.

        This is the paper's "every time an AI model is updated" trigger;
        call it after pipeline runs.  Returns ``None`` when nothing changed.
        Any change counts — a version *decrease* (operator rollback) is as
        much a new model as an increase.
        """
        context = self.context_provider()
        if context.model_version == self._last_model_version:
            return None
        return self.poll_once("model_update")

    @property
    def n_rounds(self) -> int:
        return len(self.rounds)
