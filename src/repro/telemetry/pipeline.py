"""TelemetryPipeline: bus → WAL writer → rollup aggregator, pre-wired.

The standard collection → transport → aggregation → query stack from the
AI-observability literature, assembled as one object with a lifecycle:

* producers call :meth:`publish` (or hand the pipeline's bus to the
  continuous monitor / gateway listeners);
* a ``wal`` subscription persists every event (``policy="error"`` — the
  durable tier must be lossless, so overflow fails loudly rather than
  silently dropping audit records);
* a ``rollup`` subscription feeds the tumbling-window aggregator
  (``drop_oldest`` — the hot tier prefers freshness under pressure);
* :meth:`query` serves both tiers; :meth:`stats` snapshots every counter.

Delivery is explicit: :meth:`pump` drains subscriber queues, handing
each consumer its whole queue as one batch (the WAL writes a batch with
one ``write`` per segment; the aggregator buckets it in one call).
Producers on a hot path publish and move on; whoever owns the loop
decides when consumption happens (every round, every N events, or on
:meth:`flush`).
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Sequence, Union

from repro.telemetry.bus import TelemetryBus
from repro.telemetry.events import TelemetryEvent
from repro.telemetry.query import TelemetryQuery
from repro.telemetry.rollup import TumblingWindowAggregator
from repro.telemetry.wal import WriteAheadLog

#: Default topic the continuous monitor publishes sensor readings on.
SENSOR_TOPIC = "sensors"

#: Queue bound of the ``wal`` and ``rollup`` subscriptions.
QUEUE_CAPACITY = 65536


class TelemetryPipeline:
    """Owns the bus, the durable WAL and the hot rollup store.

    Parameters
    ----------
    wal_dir:
        Segment directory for the durable tier; ``None`` runs the
        pipeline memory-only (no persistence, e.g. in simulations).
    window_seconds / cascades:
        Rollup configuration (see :class:`TumblingWindowAggregator`).
    auto_pump_every:
        When set, :meth:`publish` drains subscriber queues every N
        published events, so callers that never call :meth:`pump` still
        bound queue occupancy.
    """

    def __init__(
        self,
        wal_dir: Optional[Union[str, os.PathLike]] = None,
        window_seconds: float = 1.0,
        cascades: Sequence[float] = (10.0, 60.0),
        max_segment_bytes: int = 1 << 20,
        auto_pump_every: Optional[int] = None,
    ) -> None:
        if auto_pump_every is not None and auto_pump_every < 1:
            raise ValueError("auto_pump_every must be >= 1")
        self.bus = TelemetryBus()
        self.rollups = TumblingWindowAggregator(
            window_seconds=window_seconds, cascades=cascades
        )
        self.wal: Optional[WriteAheadLog] = None
        self._wal_dir = None if wal_dir is None else os.fspath(wal_dir)
        self._max_segment_bytes = max_segment_bytes
        self._auto_pump_every = auto_pump_every
        self._published_since_pump = 0
        self._started = False
        self._closed = False

    # -- lifecycle ---------------------------------------------------------------

    @property
    def started(self) -> bool:
        return self._started

    @property
    def closed(self) -> bool:
        return self._closed

    def start(self) -> "TelemetryPipeline":
        """Open the WAL and attach the standard subscriptions, whose
        callbacks take each drained batch whole
        (:meth:`WriteAheadLog.append_many`,
        :meth:`TumblingWindowAggregator.ingest_many`)."""
        if self._started:
            raise RuntimeError("pipeline already started")
        if self._closed:
            raise RuntimeError("pipeline is closed")
        if self._wal_dir is not None:
            self.wal = WriteAheadLog(
                self._wal_dir, max_segment_bytes=self._max_segment_bytes
            )
            self.bus.subscribe(
                "wal",
                capacity=QUEUE_CAPACITY,
                policy="error",
                callback=self.wal.append_many,
            )
        self.bus.subscribe(
            "rollup",
            capacity=QUEUE_CAPACITY,
            policy="drop_oldest",
            callback=self.rollups.ingest_many,
        )
        self._started = True
        return self

    def publish(self, topic: str, event: TelemetryEvent) -> int:
        """Producer entry point; see :meth:`TelemetryBus.publish`."""
        if not self._started:
            if self._closed:
                raise RuntimeError("pipeline is closed")
            raise RuntimeError("pipeline not started (call start())")
        landed = self.bus.publish(topic, event)
        self._published_since_pump += 1
        if (
            self._auto_pump_every is not None
            and self._published_since_pump >= self._auto_pump_every
        ):
            self.pump()
        return landed

    def pump(self) -> int:
        """Drain subscriber queues into the WAL / rollups / any sinks."""
        self._published_since_pump = 0
        return self.bus.pump()

    def flush(self) -> None:
        """Pump, finalise still-open rollup windows, pump what their hooks
        published (an SLO evaluator's alert edges), and persist."""
        self.pump()
        self.rollups.flush()
        self.pump()
        if self.wal is not None:
            self.wal.flush()

    def close(self) -> None:
        """Flush as :meth:`flush` does and release the WAL; the pipeline
        stops accepting events."""
        if self._closed:
            return
        if self._started:
            self.pump()
            self.rollups.flush()
            self.pump()
        if self.wal is not None:
            self.wal.close()
        self._closed = True
        self._started = False

    def __enter__(self) -> "TelemetryPipeline":
        if not self._started:
            self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- read side ---------------------------------------------------------------

    def query(self) -> TelemetryQuery:
        """Query façade over this pipeline's hot and cold tiers."""
        return TelemetryQuery(rollups=self.rollups, wal_dir=self._wal_dir)

    def stats(self) -> Dict[str, object]:
        """One snapshot across every layer (the pipeline's health panel)."""
        return {
            "bus": self.bus.stats(),
            "wal": None if self.wal is None else self.wal.stats(),
            "rollup": self.rollups.stats(),
        }
