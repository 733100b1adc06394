"""Reference write path: the per-event bodies the batched ones replaced,
kept as oracles for ``test_write_batches.py``.

``encode`` formats all six envelope fields of every event (no head
cache); ``ReferenceWal.append`` writes one line per ``write`` call;
``ReferenceAggregator.ingest`` buckets one event per call, and its
``ingest_many`` loops over it.  ``ReferenceBus`` matches every
subscription against every published event's topic and hands each
callback one event at a time, putting the failing event and those after
it back in the queue when a callback raises.  ``ReferencePipeline`` wires
the three together as :class:`TelemetryPipeline` wires the shipped ones.
"""

import zlib
from collections import deque
from itertools import islice
from math import floor

from repro.telemetry.bus import Subscription, TelemetryBus, TopicCounters
from repro.telemetry.pipeline import QUEUE_CAPACITY, TelemetryPipeline
from repro.telemetry.rollup import TumblingWindowAggregator
from repro.telemetry.wal import WriteAheadLog, _mapping, _scalar


def encode(event):
    """One WAL line: ``_canonical(event.to_json_dict())`` plus its CRC."""
    payload = (
        f'{{"attrs":{_mapping(event.attrs)},"kind":{_scalar(event.kind)},'
        f'"labels":{_mapping(event.labels)},"source":{_scalar(event.source)},'
        f'"timestamp":{_scalar(event.timestamp)},'
        f'"value":{_scalar(event.value)}}}'
    ).encode()
    return b'{"crc": %d, "event": %b}\n' % (zlib.crc32(payload), payload)


class ReferenceWal(WriteAheadLog):
    def append(self, event):
        """Write one event record, rotating the segment when full."""
        if self._handle is None:
            raise RuntimeError("WAL is closed")
        line = encode(event)
        self._handle.write(line)
        self._segment_bytes += len(line)
        self.appended += 1
        if self._segment_bytes >= self.max_segment_bytes:
            self._segment_index += 1
            self._open_segment()

    def append_many(self, events):
        for event in events:
            self.append(event)


class ReferenceAggregator(TumblingWindowAggregator):
    def ingest(self, event):
        """Bucket one event; advances the watermark and finalises windows."""
        timestamp = event.timestamp
        size = self.window_sizes[0]
        start = floor(timestamp / size) * size
        if start + size <= self.watermark:
            self.late_events += 1
            return
        key = (event.source, start)
        values = self._open[0].get(key)
        if values is None:
            self._open[0][key] = [event.value]
        else:
            values.append(event.value)
        self.ingested += 1
        if timestamp > self.watermark:
            self.watermark = timestamp
            bucket = floor(timestamp / size)
            if bucket != self._horizon_bucket:
                self._horizon_bucket = bucket
                self._finalize_ripe(timestamp)

    def ingest_many(self, events):
        for event in events:
            self.ingest(event)


class ReferenceSubscription(Subscription):
    def poll(self, max_events=None):
        """Drain up to ``max_events``, calling the callback per event."""
        queue = self._queue
        if max_events is None or max_events >= len(queue):
            self._queue = deque()
            batch = queue
        else:
            batch = deque(queue.popleft() for __ in range(max_events))
        callback = self.callback
        if callback is not None:
            done = 0
            try:
                for event in batch:
                    callback(event)
                    done += 1
            except BaseException:
                undelivered = deque(islice(batch, done, None))
                undelivered.extend(self._queue)
                self._queue = undelivered
                self.delivered += done
                raise
        self.delivered += len(batch)
        return batch


class ReferenceBus(TelemetryBus):
    def subscribe(
        self, name, topics="*", capacity=4096, policy="drop_oldest", callback=None
    ):
        if name in self._subscriptions:
            raise ValueError(f"subscription {name!r} already exists")
        if isinstance(topics, str):
            topics = (topics,)
        subscription = ReferenceSubscription(name, topics, capacity, policy, callback)
        self._subscriptions[name] = subscription
        return subscription

    def unsubscribe(self, name):
        if name not in self._subscriptions:
            raise KeyError(f"unknown subscription {name!r}")
        del self._subscriptions[name]

    def publish(self, topic, event):
        counters = self._topic_counters.get(topic)
        if counters is None:
            counters = self._topic_counters[topic] = TopicCounters()
        counters.published += 1
        landed = 0
        for subscription in self._subscriptions.values():
            if not subscription.matches(topic):
                continue
            if subscription._offer(event):
                counters.delivered += 1
                landed += 1
            else:
                counters.dropped += 1
        return landed

    def pump(self, max_events=None):
        delivered = 0
        for subscription in self._subscriptions.values():
            if subscription.callback is None:
                continue
            delivered += len(subscription.poll(max_events))
        return delivered


class ReferencePipeline(TelemetryPipeline):
    """The pipeline over the reference bus, WAL and aggregator, with
    per-event ``wal`` and ``rollup`` callbacks."""

    def __init__(self, wal_dir=None, window_seconds=1.0, cascades=(10.0, 60.0),
                 max_segment_bytes=1 << 20, auto_pump_every=None):
        super().__init__(wal_dir, window_seconds, cascades, max_segment_bytes,
                         auto_pump_every)
        self.bus = ReferenceBus()
        self.rollups = ReferenceAggregator(
            window_seconds=window_seconds, cascades=cascades
        )

    def start(self):
        if self._started:
            raise RuntimeError("pipeline already started")
        if self._wal_dir is not None:
            self.wal = ReferenceWal(
                self._wal_dir, max_segment_bytes=self._max_segment_bytes
            )
            self.bus.subscribe(
                "wal", capacity=QUEUE_CAPACITY, policy="error",
                callback=self.wal.append,
            )
        self.bus.subscribe(
            "rollup", capacity=QUEUE_CAPACITY, policy="drop_oldest",
            callback=self.rollups.ingest,
        )
        self._started = True
        return self
