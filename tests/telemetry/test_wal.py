"""Tests for the write-ahead log: durability, rotation, recovery."""

import json
import math
import os
import tempfile
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.telemetry import (
    TelemetryEvent,
    WalCorruptionError,
    WriteAheadLog,
    replay,
)


def make_events(n, source="s"):
    return [
        TelemetryEvent(
            source=source,
            value=float(i) / 10.0,
            timestamp=float(i),
            attrs={"round": float(i)},
            labels={"property": "accuracy"},
        )
        for i in range(n)
    ]


class TestRoundTrip:
    def test_append_then_replay_preserves_everything(self, tmp_path):
        events = make_events(25)
        with WriteAheadLog(tmp_path / "wal") as wal:
            for event in events:
                wal.append(event)
        back = list(replay(tmp_path / "wal"))
        assert back == events

    def test_replay_filters(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal") as wal:
            for event in make_events(10, source="a"):
                wal.append(event)
            for event in make_events(10, source="b"):
                wal.append(event)
        only_b = list(replay(tmp_path / "wal", sources=["b"]))
        assert {e.source for e in only_b} == {"b"}
        bounded = list(replay(tmp_path / "wal", start=3.0, end=7.0))
        assert all(3.0 <= e.timestamp < 7.0 for e in bounded)
        assert len(bounded) == 8  # 4 per source

    def test_replay_empty_dir_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            list(replay(tmp_path / "nothing"))

    def test_reopen_appends_after_existing_records(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal") as wal:
            wal.append(make_events(1)[0])
        with WriteAheadLog(tmp_path / "wal") as wal:
            wal.append(make_events(2)[1])
        assert len(list(replay(tmp_path / "wal"))) == 2


class TestRotation:
    def test_segments_rotate_at_size_threshold(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal", max_segment_bytes=500)
        for event in make_events(50):
            wal.append(event)
        wal.close()
        assert len(wal.segments) > 1
        # order is preserved across the segment boundary
        back = list(replay(tmp_path / "wal"))
        assert [e.timestamp for e in back] == [float(i) for i in range(50)]

    def test_rotated_segments_stay_bounded(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal", max_segment_bytes=500)
        for event in make_events(50):
            wal.append(event)
        wal.close()
        # every closed segment stopped within one record of the threshold
        for path in wal.segments[:-1]:
            assert os.path.getsize(path) < 800


class TestCrashRecovery:
    def _write_then_tear(self, tmp_path, n=10, tear_bytes=20):
        wal = WriteAheadLog(tmp_path / "wal")
        for event in make_events(n):
            wal.append(event)
        wal.close()
        tail = wal.segments[-1]
        with open(tail, "rb+") as fh:
            fh.truncate(os.path.getsize(tail) - tear_bytes)
        return tmp_path / "wal"

    def test_replay_tolerates_torn_tail(self, tmp_path):
        wal_dir = self._write_then_tear(tmp_path)
        back = list(replay(wal_dir))
        assert len(back) == 9  # last record torn off mid-line

    def test_reopen_heals_torn_tail_and_appends(self, tmp_path):
        wal_dir = self._write_then_tear(tmp_path)
        wal = WriteAheadLog(wal_dir)
        assert wal.recovered_truncated_records == 1
        wal.append(make_events(1)[0])
        wal.close()
        back = list(replay(wal_dir))
        assert len(back) == 10  # 9 intact + 1 fresh; no damaged remnants

    def test_bitflip_in_tail_record_detected(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        for event in make_events(5):
            wal.append(event)
        wal.close()
        tail = wal.segments[-1]
        lines = open(tail, "r", encoding="utf-8").readlines()
        lines[-1] = lines[-1].replace('"value":0.4', '"value":0.9')
        with open(tail, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
        assert len(list(replay(tmp_path / "wal"))) == 4  # CRC catches it

    def test_mid_stream_corruption_raises(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        for event in make_events(5):
            wal.append(event)
        wal.close()
        tail = wal.segments[-1]
        lines = open(tail, "r", encoding="utf-8").readlines()
        lines[1] = "garbage\n"
        with open(tail, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
        with pytest.raises(WalCorruptionError):
            list(replay(tmp_path / "wal"))


class TestLifecycle:
    def test_append_after_close_raises(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        wal.close()
        with pytest.raises(RuntimeError):
            wal.append(make_events(1)[0])

    def test_stats_shape(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal", max_segment_bytes=400)
        for event in make_events(20):
            wal.append(event)
        stats = wal.stats()
        assert stats["appended"] == 20
        assert stats["segments"] >= 2
        assert stats["recovered_truncated_records"] == 0
        wal.close()

    def test_invalid_segment_size_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            WriteAheadLog(tmp_path / "wal", max_segment_bytes=0)


# -- byte identity with the json.dumps writer -----------------------------


def dumps_line(event):
    """A WAL line as the ``json.dumps`` writer produced it (the oracle)."""
    payload = json.dumps(
        event.to_json_dict(), sort_keys=True, separators=(",", ":")
    )
    crc = zlib.crc32(payload.encode("utf-8"))
    return f'{{"crc": {crc}, "event": {payload}}}\n'.encode("utf-8")


def dumps_segments(events, max_segment_bytes):
    """Segment contents under the same rotation rule, from oracle lines."""
    segments, current = [], b""
    for event in events:
        current += dumps_line(event)
        if len(current) >= max_segment_bytes:
            segments.append(current)
            current = b""
    segments.append(current)  # the segment opened after the last rotation
    return segments


def written_segments(events, max_segment_bytes):
    with tempfile.TemporaryDirectory() as directory:
        with WriteAheadLog(directory, max_segment_bytes=max_segment_bytes) as wal:
            for event in events:
                wal.append(event)
        segments = []
        for path in wal.segments:
            with open(path, "rb") as fh:
                segments.append(fh.read())
        return segments


TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from('"\\/\x00\x08\x1f\x7f\n\t\u2028\ud83d\u00e9\u4e2d\U0001f600'),
        st.characters(),
    ),
    max_size=12,
)
NUMBERS = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324]),
    st.floats().map(np.float64),
    st.integers(-(2**70), 2**70),
    st.booleans(),
)
EVENTS = st.builds(
    TelemetryEvent,
    source=TEXT,
    value=NUMBERS,
    timestamp=NUMBERS,
    kind=TEXT,
    # None is no valid mapping, but json.dumps wrote it as null
    attrs=st.one_of(st.dictionaries(TEXT, NUMBERS, max_size=3), st.none()),
    labels=st.one_of(st.dictionaries(TEXT, TEXT, max_size=3), st.none()),
)


class TestJsonDumpsIdentity:
    @settings(max_examples=100, deadline=None)
    @given(
        events=st.lists(EVENTS, min_size=1, max_size=6),
        max_segment_bytes=st.integers(1, 800),
    )
    @example(events=make_events(30), max_segment_bytes=500)
    def test_segments_equal_the_json_dumps_writer(self, events, max_segment_bytes):
        """Every line, and every rotation offset, is what ``json.dumps``
        wrote; every event also replays."""
        assert written_segments(events, max_segment_bytes) == dumps_segments(
            events, max_segment_bytes
        )

    @pytest.mark.parametrize(
        "event",
        [
            TelemetryEvent(source="s", value=object(), timestamp=0.0),
            TelemetryEvent(source="s", value=1.0, timestamp=np.int64(3)),
            TelemetryEvent(source=b"s", value=1.0, timestamp=0.0),
            TelemetryEvent(source="s", value=1.0, timestamp=0.0, attrs={"k": {1.0}}),
            TelemetryEvent(source="s", value=1.0, timestamp=0.0, attrs={1: 1.0, "a": 2.0}),
            TelemetryEvent(source="s", value=1.0, timestamp=0.0, labels={"k": b"v"}),
        ],
    )
    def test_unserialisable_event_raises_type_error(self, tmp_path, event):
        with pytest.raises(TypeError):
            dumps_line(event)
        good = make_events(1)[0]
        with WriteAheadLog(tmp_path / "wal") as wal:
            with pytest.raises(TypeError):
                wal.append(event)
            wal.append(good)
            assert wal.appended == 1
        with open(wal.segments[0], "rb") as fh:
            assert fh.read() == dumps_line(good)
