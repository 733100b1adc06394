"""Tests for the query engine over hot rollups and cold WAL."""

import pytest

from repro.telemetry import (
    TelemetryEvent,
    TelemetryQuery,
    TumblingWindowAggregator,
    WriteAheadLog,
)


def make_stream(n=60, sources=("good", "bad")):
    """Interleaved two-source stream; 'bad' is consistently worse."""
    events = []
    for i in range(n):
        t = i * 0.5
        events.append(
            TelemetryEvent(source="good", value=0.9 + 0.001 * i, timestamp=t)
        )
        events.append(
            TelemetryEvent(source="bad", value=0.3 - 0.001 * i, timestamp=t)
        )
    return [e for e in events if e.source in sources]


@pytest.fixture()
def hot():
    agg = TumblingWindowAggregator(window_seconds=1.0, cascades=(10.0,))
    agg.ingest_many(make_stream())
    agg.flush()
    return TelemetryQuery(rollups=agg)


@pytest.fixture()
def cold(tmp_path):
    with WriteAheadLog(tmp_path / "wal") as wal:
        for event in make_stream():
            wal.append(event)
    return TelemetryQuery(wal_dir=tmp_path / "wal")


class TestConstruction:
    def test_needs_some_tier(self):
        with pytest.raises(ValueError):
            TelemetryQuery()

    def test_hot_only_rejects_event_queries(self, hot):
        with pytest.raises(RuntimeError):
            hot.events()

    def test_cold_only_rejects_window_queries(self, cold):
        with pytest.raises(RuntimeError):
            cold.windows()


class TestHotQueries:
    def test_windows_source_and_time_filters(self, hot):
        subset = hot.windows(sources=["good"], start=5.0, end=10.0)
        assert {w.source for w in subset} == {"good"}
        assert all(5.0 <= w.window_start < 10.0 for w in subset)

    def test_top_k_worst_lowest(self, hot):
        ranking = hot.top_k(2)
        assert [name for name, __ in ranking] == ["bad", "good"]
        assert ranking[0][1] < ranking[1][1]

    def test_top_k_worst_highest_for_latencies(self, hot):
        ranking = hot.top_k(1, worst="highest")
        assert ranking[0][0] == "good"

    def test_top_k_respects_k(self, hot):
        assert len(hot.top_k(1)) == 1

    def test_top_k_validation(self, hot):
        with pytest.raises(ValueError):
            hot.top_k(0)
        with pytest.raises(ValueError):
            hot.top_k(1, metric="nope")
        with pytest.raises(ValueError):
            hot.top_k(1, worst="sideways")


class TestColdQueries:
    def test_events_in_append_order(self, cold):
        events = cold.events()
        assert len(events) == 120
        assert events == sorted(events, key=lambda e: e.timestamp)

    def test_events_filters_and_limit(self, cold):
        subset = cold.events(sources=["bad"], start=5.0, end=20.0, limit=7)
        assert len(subset) == 7
        assert all(e.source == "bad" for e in subset)
        assert all(5.0 <= e.timestamp < 20.0 for e in subset)

    def test_rebuild_rollups_equals_live_aggregation(self, cold, hot):
        rebuilt = cold.rebuild_rollups(window_seconds=1.0, cascades=(10.0,))
        for source in ("good", "bad"):
            assert rebuilt.totals(source) == hot.rollups.totals(source)


class TestWindowFilters:
    """The time-range/trailing helpers under the burn-rate evaluator."""

    def windows(self, hot):
        return hot.rollups.windows(source="good")

    def test_window_range_uses_overlap_not_containment(self, hot):
        from repro.telemetry import window_range

        # [2.5, 4.5) clips windows [2,3) and [4,5) partially: both kept
        kept = window_range(self.windows(hot), start=2.5, end=4.5)
        assert [w.window_start for w in kept] == [2.0, 3.0, 4.0]

    def test_window_range_bounds_are_half_open(self, hot):
        from repro.telemetry import window_range

        kept = window_range(self.windows(hot), start=2.0, end=4.0)
        assert [w.window_start for w in kept] == [2.0, 3.0]

    def test_window_range_open_ends(self, hot):
        from repro.telemetry import window_range

        windows = self.windows(hot)
        assert window_range(windows) == windows
        assert window_range(windows, start=28.0) == windows[-2:]
        assert window_range(windows, end=2.0) == windows[:2]

    def test_window_range_rejects_empty_ranges(self, hot):
        from repro.telemetry import window_range

        with pytest.raises(ValueError, match="empty range"):
            window_range(self.windows(hot), start=5.0, end=5.0)

    def test_trailing_defaults_to_the_newest_window_end(self, hot):
        from repro.telemetry import trailing_windows

        kept = trailing_windows(self.windows(hot), 3.0)
        # newest end is 30.0 -> [27, 30)
        assert [w.window_start for w in kept] == [27.0, 28.0, 29.0]

    def test_trailing_at_an_explicit_instant(self, hot):
        from repro.telemetry import trailing_windows

        kept = trailing_windows(self.windows(hot), 2.0, at=10.5)
        # [8.5, 10.5) overlaps [8,9), [9,10), [10,11)
        assert [w.window_start for w in kept] == [8.0, 9.0, 10.0]

    def test_trailing_rejects_nonpositive_lookback(self, hot):
        from repro.telemetry import trailing_windows

        with pytest.raises(ValueError, match="positive"):
            trailing_windows(self.windows(hot), 0.0)

    def test_trailing_over_no_windows_is_empty(self):
        from repro.telemetry import trailing_windows

        assert trailing_windows([], 5.0) == []
