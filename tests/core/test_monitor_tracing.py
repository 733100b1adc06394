"""Tracing + per-sensor attribution in monitoring rounds (ISSUE satellite).

Every round must account for its own latency sensor-by-sensor: a
``monitor.round`` span with one ``sensor.poll`` child per sensor,
wall-clock ``timings`` on the round record, error flags when a sensor
raises, and exemplar labels on every published event.
"""

import pytest

from repro.core.monitor import ContinuousMonitor
from repro.core.registry import PolledReading, SensorRegistry
from repro.core.sensors import (
    AISensor,
    DataQualitySensor,
    ModelContext,
    PerformanceSensor,
)
from repro.telemetry.events import SPAN_ID_LABEL, TRACE_ID_LABEL
from repro.tracing import STATUS_ERROR, TraceCollector, Tracer
from repro.trust.properties import TrustProperty


class BrokenSensor(AISensor):
    """Always raises: exercises the fault-isolation + error-span path."""

    property = TrustProperty.ROBUSTNESS

    def __init__(self):
        super().__init__(name="broken", clock=lambda: 0.0)

    def measure(self, context):
        raise RuntimeError("probe offline")


@pytest.fixture()
def traced_monitor(trained_mlp, blobs):
    X, y = blobs
    registry = SensorRegistry()
    registry.register(PerformanceSensor(clock=lambda: 0.0))
    registry.register(DataQualitySensor(clock=lambda: 0.0))

    def provider():
        return ModelContext(
            model=trained_mlp,
            X_train=X,
            y_train=y,
            X_test=X[:40],
            y_test=y[:40],
            model_version=1,
        )

    collector = TraceCollector()
    clock = {"now": 0.0}
    tracer = Tracer(clock=lambda: clock["now"], collector=collector, seed=0)
    monitor = ContinuousMonitor(
        registry, None, provider, tracer=tracer
    )
    return monitor, registry, tracer, collector


class TestRoundSpans:
    def test_round_span_with_one_child_per_sensor(self, traced_monitor):
        monitor, _, tracer, collector = traced_monitor
        record = monitor.poll_once()
        assert record.trace_id is not None
        tree = collector.get(record.trace_id)
        assert tree.root.name == "monitor.round"
        polls = tree.children(tree.root)
        assert [s.name for s in polls] == ["sensor.poll", "sensor.poll"]
        assert {s.attributes["sensor"] for s in polls} == {
            "performance",
            "data_quality",
        }
        assert tree.root.attributes["trigger"] == "scheduled"
        assert tree.root.attributes["n_sensors"] == 2.0
        assert tracer.active_spans == 0

    def test_per_sensor_timings_recorded(self, traced_monitor):
        monitor, _, _, collector = traced_monitor
        record = monitor.poll_once()
        assert set(record.timings) == {"performance", "data_quality"}
        assert all(t >= 0.0 for t in record.timings.values())
        assert record.duration_ms >= max(record.timings.values())
        tree = collector.get(record.trace_id)
        for span in tree.children(tree.root):
            assert span.attributes["elapsed_ms"] >= 0.0
        assert tree.root.attributes["duration_ms"] == record.duration_ms

    def test_each_round_is_its_own_trace(self, traced_monitor):
        monitor, _, _, collector = traced_monitor
        first, second = monitor.run(2)
        assert first.trace_id != second.trace_id
        assert collector.get(second.trace_id).root.attributes["round"] == 1.0

    def test_events_carry_sensor_span_exemplars(self, traced_monitor):
        monitor, _, _, collector = traced_monitor
        seen = []
        monitor.bus.subscribe("tap", callback=seen.extend)
        record = monitor.poll_once()
        monitor.telemetry.pump()
        assert len(seen) == 2
        tree = collector.get(record.trace_id)
        poll_span_ids = {
            s.span_id for s in tree.children(tree.root)
        }
        for event in seen:
            assert event.labels[TRACE_ID_LABEL] == record.trace_id
            assert event.labels[SPAN_ID_LABEL] in poll_span_ids
            assert event.attrs["elapsed_ms"] == record.timings[event.source]


class TestSensorErrors:
    def test_raising_sensor_flags_round_and_span(self, traced_monitor):
        monitor, registry, tracer, collector = traced_monitor
        registry.register(BrokenSensor())
        record = monitor.poll_once()
        assert record.errors == ["broken"]
        assert len(record.readings) == 3  # fault-isolated: round completes
        assert "broken" in record.timings
        tree = collector.get(record.trace_id)
        assert tree.root.status == STATUS_ERROR
        assert "broken" in tree.root.status_message
        failed = next(
            s
            for s in tree.children(tree.root)
            if s.attributes["sensor"] == "broken"
        )
        assert failed.status == STATUS_ERROR
        assert "RuntimeError" in failed.status_message
        assert tracer.active_spans == 0

    def test_healthy_round_has_no_errors(self, traced_monitor):
        monitor, _, _, collector = traced_monitor
        record = monitor.poll_once()
        assert record.errors == []
        assert collector.get(record.trace_id).ok


class TestUntracedRounds:
    def test_default_monitor_still_times_sensors(self, trained_mlp, blobs):
        X, y = blobs
        registry = SensorRegistry()
        registry.register(DataQualitySensor(clock=lambda: 0.0))

        def provider():
            return ModelContext(model=trained_mlp, X_train=X, y_train=y)

        monitor = ContinuousMonitor(registry, None, provider)
        record = monitor.poll_once()
        assert record.trace_id is None
        assert set(record.timings) == {"data_quality"}
        assert record.duration_ms > 0.0

    def test_poll_spans_returns_envelopes_untraced(self, trained_mlp, blobs):
        X, y = blobs
        registry = SensorRegistry()
        registry.register(DataQualitySensor(clock=lambda: 0.0))
        context = ModelContext(model=trained_mlp, X_train=X, y_train=y)
        [polled] = registry.poll_spans(context)
        assert isinstance(polled, PolledReading)
        assert polled.reading.sensor == "data_quality"
        assert not polled.span.is_recording
        assert polled.elapsed_ms >= 0.0
