"""The batched write path against the per-event one it replaced.

Hypothesis streams go through a :class:`TelemetryPipeline` (batch
hand-off, ``WriteAheadLog.append_many``, ``ingest_many``) and through the
per-event :class:`reference_writes.ReferencePipeline`, under the same
calls.  Every call must end the same way (or raise the same exception
type), and the WAL segments, the finalised windows at every level, the
alert edges, a tap subscription's events and every bus, WAL and rollup
counter must come out equal.
"""

import math
import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.slo import (
    OBJECTIVE_AVAILABILITY,
    SLO_TOPIC,
    BurnRateRule,
    SLODefinition,
    SLOEvaluator,
)
from repro.telemetry import TelemetryEvent, TelemetryPipeline, replay
from repro.telemetry import wal as wal_module
from repro.telemetry.wal import WriteAheadLog

from tests.telemetry.reference_writes import (
    ReferencePipeline,
    ReferenceWal,
    encode,
)

TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from('"\\/\x00\x1f\x7f\n é中\U0001f600'),
        st.characters(),
    ),
    max_size=6,
)
SOURCES = st.one_of(st.sampled_from(["ok", "lat", "lat@node-1"]), TEXT)
KINDS = st.one_of(
    st.sampled_from(["response", "serving"]), TEXT, st.sampled_from([1, True, 1.0])
)
VALUES = st.one_of(
    st.floats(),
    st.sampled_from([0.0, 1.0, math.nan, math.inf, -math.inf, -0.0]),
    st.floats(allow_nan=False).map(np.float64),
    st.integers(-(2**70), 2**70),
    st.booleans(),
)
ATTRS = st.one_of(st.just({}), st.dictionaries(TEXT, VALUES, max_size=2))
LABELS = st.one_of(st.just({}), st.dictionaries(TEXT, TEXT, max_size=2))
#: How far behind the stream's clock an event is stamped: mostly on
#: time, some reordered within a window, some behind the watermark.
LAG = st.one_of(
    st.just(0.0),
    st.floats(0.0, 0.6),
    st.floats(1.5, 6.0),
)
#: A timestamp that is not a finite float: an int, a bool, a float
#: subclass, or one the rollup cannot bucket (it raises, and the bus
#: keeps that event queued).
ODD_TIME = st.sampled_from([3, True, np.float64(2.25), math.nan, math.inf])


@st.composite
def calls(draw):
    """A stream of publish / pump / flush calls on one clock."""
    out = []
    clock = 0.0
    for __ in range(draw(st.integers(1, 60))):
        kind = draw(st.sampled_from(["publish"] * 12 + ["pump", "flush"]))
        if kind != "publish":
            out.append((kind,))
            continue
        clock += draw(st.floats(0.0, 0.8))
        timestamp = max(0.0, clock - draw(LAG))
        if draw(st.integers(0, 40)) == 0:
            timestamp = draw(ODD_TIME)
        source = draw(SOURCES)
        value = draw(st.sampled_from([0.0, 1.0])) if source == "ok" else draw(VALUES)
        event = TelemetryEvent(
            source=source,
            value=value,
            timestamp=timestamp,
            kind=draw(KINDS),
            attrs=draw(ATTRS),
            labels=draw(LABELS),
        )
        out.append(("publish", draw(st.sampled_from(["gateway", "sensors"])), event))
    return out


def bits(stat):
    return (
        stat.source, stat.count, stat.exact_percentiles,
        *(struct.pack("<d", x) for x in (
            stat.window_start, stat.window_seconds, stat.mean,
            stat.min, stat.max, stat.p50, stat.p95,
        )),
    )


def read_segments(wal):
    out = []
    for path in wal.segments:
        with open(path, "rb") as fh:
            out.append((os.path.basename(path), fh.read()))
    return out


def drive(pipeline_type, directory, script, max_segment_bytes, auto_pump_every):
    pipe = pipeline_type(
        wal_dir=os.path.join(directory, "wal"),
        window_seconds=0.5,
        cascades=(1.0, 3.0),
        max_segment_bytes=max_segment_bytes,
        auto_pump_every=auto_pump_every,
    )
    tapped = []
    # a batch callback extends; the reference calls it once per event
    tap = tapped.append if pipeline_type is ReferencePipeline else tapped.extend
    pipe.bus.subscribe("tap", topics="gateway", capacity=1 << 12, callback=tap)
    pipe.start()
    evaluator = SLOEvaluator(
        [SLODefinition(
            "avail", "ok", OBJECTIVE_AVAILABILITY, target=0.9,
            burn_rules=(BurnRateRule("fast", 1.0, 4.0, 2.0),),
        )],
        emit=lambda event: pipe.publish(SLO_TOPIC, event),
    )
    evaluator.attach(pipe.rollups)
    finalised = []
    for level in range(3):
        pipe.rollups.on_finalize(
            lambda stat, level=level: finalised.append((level, bits(stat))),
            level=level,
        )
    outcomes = []
    for call in script + [("close",)]:
        try:
            if call[0] == "publish":
                pipe.publish(call[1], call[2])
            else:
                getattr(pipe, call[0])()
            outcomes.append(None)
        except Exception as exc:  # compared, not swallowed
            outcomes.append(type(exc))
    pipe.wal.close()  # a raising close() leaves the WAL open
    closed = [
        (level, source, [bits(stat) for stat in series])
        for level, per_source in enumerate(pipe.rollups._closed)
        for source, series in sorted(per_source.items())
    ]
    return {
        "outcomes": outcomes,
        "segments": read_segments(pipe.wal),
        "finalised": finalised,
        "closed": closed,
        "alerts": [repr(a.to_event()) for a in evaluator.alerts],
        "tapped": tapped,
        "bus": pipe.bus.stats(),
        "appended": pipe.wal.appended,
        "rollup": (pipe.rollups.ingested, pipe.rollups.late_events),
    }


class TestBatchedEqualsPerEvent:
    @settings(max_examples=150, deadline=None)
    @given(
        script=calls(),
        max_segment_bytes=st.integers(1, 1500),
        auto_pump_every=st.one_of(st.none(), st.integers(1, 12)),
    )
    def test_pipeline_outputs_equal_the_per_event_path(
        self, script, max_segment_bytes, auto_pump_every
    ):
        with tempfile.TemporaryDirectory() as batched_dir, \
                tempfile.TemporaryDirectory() as reference_dir:
            batched = drive(TelemetryPipeline, batched_dir, script,
                            max_segment_bytes, auto_pump_every)
            reference = drive(ReferencePipeline, reference_dir, script,
                              max_segment_bytes, auto_pump_every)
        assert batched == reference

    @settings(max_examples=100, deadline=None)
    @given(
        events=st.lists(
            st.builds(
                TelemetryEvent, source=SOURCES, value=VALUES, timestamp=VALUES,
                kind=KINDS, attrs=ATTRS, labels=LABELS,
            ),
            max_size=40,
        ),
        max_segment_bytes=st.integers(1, 1500),
        full_at=st.integers(0, 40),
        cuts=st.lists(st.integers(0, 40), max_size=4),
    )
    def test_append_many_writes_the_per_event_bytes(
        self, events, max_segment_bytes, full_at, cuts
    ):
        """Any split of a stream into batches, each followed by a single
        :meth:`WriteAheadLog.append`, writes the per-event bytes, rotating
        after the same lines (also when a line fills a segment to exactly
        ``max_segment_bytes``)."""
        exact = sum(len(encode(e)) for e in events[:full_at])
        if exact and full_at < len(events):
            max_segment_bytes = exact
        bounds = sorted({0, len(events), *(c for c in cuts if c < len(events))})
        with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
            with WriteAheadLog(a, max_segment_bytes=max_segment_bytes) as wal:
                for lo, hi in zip(bounds, bounds[1:]):
                    wal.append_many(events[lo : hi - 1])
                    wal.append(events[hi - 1])
            with ReferenceWal(b, max_segment_bytes=max_segment_bytes) as ref:
                for event in events:
                    ref.append(event)
            assert wal.appended == ref.appended == len(events)
            assert read_segments(wal) == read_segments(ref)


class TestFailuresPopWhatWasConsumed:
    def test_wal_writes_the_events_before_an_unencodable_one(self, tmp_path):
        events = [TelemetryEvent("s", float(i), float(i)) for i in range(5)]
        bad = TelemetryEvent("s", object(), 2.5)
        pipe = TelemetryPipeline(wal_dir=tmp_path / "wal").start()
        for event in events[:3] + [bad] + events[3:]:
            pipe.publish("t", event)
        with pytest.raises(TypeError):
            pipe.pump()
        counters = pipe.bus.stats()["subscriptions"]["wal"]
        assert (counters["delivered"], counters["backlog"]) == (3, 3)
        assert pipe.wal.appended == 3
        pipe.wal.flush()
        assert list(replay(tmp_path / "wal")) == events[:3]

    def test_rollup_keeps_the_events_from_an_unbucketable_one(self):
        events = [TelemetryEvent("s", 1.0, t) for t in (0.5, 1.5, math.nan, 2.5)]
        pipe = TelemetryPipeline().start()
        for event in events:
            pipe.publish("t", event)
        with pytest.raises(ValueError):
            pipe.pump()
        counters = pipe.bus.stats()["subscriptions"]["rollup"]
        assert (counters["delivered"], counters["backlog"]) == (2, 2)
        assert (pipe.rollups.ingested, pipe.rollups.watermark) == (2, 1.5)


class TestHeadCache:
    def test_cache_is_bounded_and_keeps_the_bytes(self, tmp_path, monkeypatch):
        monkeypatch.setattr(wal_module, "HEAD_CACHE_SIZE", 2)
        events = [
            TelemetryEvent(source=f"s{i % 5}", value=float(i), timestamp=i / 3)
            for i in range(20)
        ]
        with WriteAheadLog(tmp_path / "wal") as wal:
            wal.append_many(events)
            assert len(wal._heads) == 2
        with open(wal.segments[0], "rb") as fh:
            assert fh.read() == b"".join(map(encode, events))

    def test_equal_keys_of_other_types_get_their_own_text(self, tmp_path):
        """``1``, ``True`` and ``1.0`` are equal dict keys but three kinds."""
        events = [
            TelemetryEvent(source="s", value=0.5, timestamp=0.0, kind=kind)
            for kind in ("1", 1, True, 1.0, "1")
        ]
        with WriteAheadLog(tmp_path / "wal") as wal:
            wal.append_many(events)
            assert list(wal._heads) == [("1", "s")]
        with open(wal.segments[0], "rb") as fh:
            assert fh.read() == b"".join(map(encode, events))
