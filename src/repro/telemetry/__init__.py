"""Streaming telemetry: bus, durable WAL, windowed rollups, queries.

The production-scale monitoring layer between sensors and the dashboard
(ROADMAP north star): readings become :class:`TelemetryEvent`\\ s on a
pub/sub :class:`TelemetryBus` with bounded queues and explicit
backpressure; a :class:`WriteAheadLog` makes the stream durable and
replayable after crashes; a :class:`TumblingWindowAggregator` keeps
bounded-memory rollups; :class:`TelemetryQuery` answers time-range /
filter / top-k questions over both tiers; :class:`TelemetryPipeline`
wires the standard stack.
"""

from repro.telemetry.bus import (
    BackpressureError,
    Subscription,
    TelemetryBus,
)
from repro.telemetry.events import (
    KIND_LOAD_SUMMARY,
    KIND_POOL,
    KIND_RESPONSE,
    KIND_SENSOR_READING,
    KIND_SERVING,
    KIND_UTILIZATION,
    NODE_ID_LABEL,
    SPAN_ID_LABEL,
    TRACE_ID_LABEL,
    TelemetryEvent,
)
from repro.telemetry.pipeline import SENSOR_TOPIC, TelemetryPipeline
from repro.telemetry.query import (
    TelemetryQuery,
    trailing_windows,
    window_range,
)
from repro.telemetry.rollup import (
    TumblingWindowAggregator,
    WindowStat,
    merge_window_stats,
)
from repro.telemetry.wal import WalCorruptionError, WriteAheadLog, replay

__all__ = [
    "BackpressureError",
    "KIND_LOAD_SUMMARY",
    "KIND_POOL",
    "KIND_RESPONSE",
    "KIND_SENSOR_READING",
    "KIND_SERVING",
    "KIND_UTILIZATION",
    "NODE_ID_LABEL",
    "SENSOR_TOPIC",
    "SPAN_ID_LABEL",
    "Subscription",
    "TRACE_ID_LABEL",
    "TelemetryBus",
    "TelemetryEvent",
    "TelemetryPipeline",
    "TelemetryQuery",
    "TumblingWindowAggregator",
    "WalCorruptionError",
    "WindowStat",
    "WriteAheadLog",
    "merge_window_stats",
    "replay",
    "trailing_windows",
    "window_range",
]
