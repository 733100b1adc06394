"""Tests for tumbling-window rollups and cascading downsampling."""

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.telemetry import TelemetryEvent, TumblingWindowAggregator
from tests.telemetry.reference_reads import reference_windows


def stream(values_by_time, source="s"):
    return [
        TelemetryEvent(source=source, value=v, timestamp=t)
        for t, v in values_by_time
    ]


class TestWindowing:
    def test_window_stats_are_exact(self):
        agg = TumblingWindowAggregator(window_seconds=1.0, cascades=())
        values = [0.2, 0.8, 0.5, 0.9]
        agg.ingest_many(stream([(0.1 + 0.2 * i, v) for i, v in enumerate(values)]))
        agg.flush()
        (window,) = agg.windows(source="s")
        assert window.count == 4
        assert window.mean == pytest.approx(np.mean(values))
        assert window.min == 0.2
        assert window.max == 0.9
        assert window.p50 == pytest.approx(np.percentile(values, 50))
        assert window.p95 == pytest.approx(np.percentile(values, 95))
        assert window.exact_percentiles

    def test_windows_tumble_on_boundaries(self):
        agg = TumblingWindowAggregator(window_seconds=1.0, cascades=())
        agg.ingest_many(stream([(0.5, 1.0), (1.5, 2.0), (2.5, 3.0)]))
        agg.flush()
        windows = agg.windows(source="s")
        assert [w.window_start for w in windows] == [0.0, 1.0, 2.0]
        assert all(w.count == 1 for w in windows)

    def test_sources_isolated(self):
        agg = TumblingWindowAggregator(window_seconds=1.0, cascades=())
        agg.ingest_many(stream([(0.1, 0.1)], source="a"))
        agg.ingest_many(stream([(0.2, 0.9)], source="b"))
        agg.flush()
        assert agg.sources == ["a", "b"]
        assert agg.windows(source="a")[0].mean == pytest.approx(0.1)
        assert agg.windows(source="b")[0].mean == pytest.approx(0.9)

    def test_windows_finalise_only_past_watermark(self):
        agg = TumblingWindowAggregator(window_seconds=1.0, cascades=())
        agg.ingest_many(stream([(0.5, 1.0)]))
        assert agg.windows(source="s") == []  # window [0,1) still open
        agg.ingest_many(stream([(1.1, 2.0)]))
        assert len(agg.windows(source="s")) == 1  # watermark crossed 1.0


class TestCascade:
    def test_cascade_counts_and_means_exact(self):
        agg = TumblingWindowAggregator(window_seconds=1.0, cascades=(10.0,))
        events = stream([(i * 0.1, float(i % 7)) for i in range(250)])
        agg.ingest_many(events)
        agg.flush()
        level1 = agg.windows(source="s", level=1)
        assert sum(w.count for w in level1) == 250
        first = level1[0]
        in_range = [e.value for e in events if 0 <= e.timestamp < 10.0]
        assert first.count == len(in_range)
        assert first.mean == pytest.approx(np.mean(in_range))
        assert first.min == min(in_range)
        assert first.max == max(in_range)
        assert not first.exact_percentiles

    def test_cascade_requires_integer_multiples(self):
        with pytest.raises(ValueError):
            TumblingWindowAggregator(window_seconds=1.0, cascades=(2.5,))
        with pytest.raises(ValueError):
            TumblingWindowAggregator(window_seconds=2.0, cascades=(1.0,))

    def test_three_levels(self):
        agg = TumblingWindowAggregator(
            window_seconds=1.0, cascades=(10.0, 60.0)
        )
        agg.ingest_many(
            stream([(float(i), 0.5) for i in range(130)])
        )
        agg.flush()
        assert len(agg.windows(source="s", level=2)) == 3  # 0, 60, 120


class TestBoundedMemory:
    def test_retention_evicts_oldest_windows(self):
        agg = TumblingWindowAggregator(
            window_seconds=1.0, cascades=(), retention=5
        )
        agg.ingest_many(stream([(float(i) + 0.5, 1.0) for i in range(50)]))
        agg.flush()
        windows = agg.windows(source="s")
        assert len(windows) == 5
        assert windows[0].window_start == 45.0  # only the newest survive

    def test_late_events_are_counted_not_applied(self):
        agg = TumblingWindowAggregator(window_seconds=1.0, cascades=())
        agg.ingest_many(stream([(0.5, 1.0), (5.0, 1.0)]))
        before = agg.windows(source="s")[0].count
        agg.ingest(TelemetryEvent(source="s", value=9.9, timestamp=0.6))
        assert agg.late_events == 1
        assert agg.windows(source="s")[0].count == before

    def test_a_window_behind_the_newest_is_counted_late(self):
        # 90 * 0.7 opens window 90 at 62.99999999999999, but window 89
        # ends at 62.3 + 0.7 == 63.0: after a flush, an event at 62.5 is
        # ahead of the watermark and opens a window behind the newest
        agg = TumblingWindowAggregator(window_seconds=0.7, cascades=())
        agg.ingest(TelemetryEvent(source="ok:shap", value=1.0, timestamp=90 * 0.7))
        agg.flush()
        agg.ingest(TelemetryEvent(source="ok:shap", value=2.0, timestamp=62.5))
        agg.flush()
        series = agg._closed[0]["ok:shap"]
        assert [w.window_start for w in series] == [62.99999999999999]
        assert (agg.ingested, agg.late_events) == (1, 1)
        got = agg.windows(source="ok:shap", start=62.0)
        want = reference_windows(agg, "ok:shap", 0, 62.0)
        assert [id(w) for w in got] == [id(w) for w in want]


class TestQueriesAndStats:
    def test_time_bounded_windows(self):
        agg = TumblingWindowAggregator(window_seconds=1.0, cascades=())
        agg.ingest_many(stream([(float(i) + 0.5, 1.0) for i in range(10)]))
        agg.flush()
        bounded = agg.windows(source="s", start=3.0, end=6.0)
        assert [w.window_start for w in bounded] == [3.0, 4.0, 5.0]

    def test_totals_match_raw_stream(self):
        agg = TumblingWindowAggregator(window_seconds=1.0, cascades=())
        values = [float(i % 11) / 10 for i in range(500)]
        agg.ingest_many(
            stream([(i * 0.01, v) for i, v in enumerate(values)])
        )
        agg.flush()
        totals = agg.totals("s")
        assert totals["count"] == 500
        assert totals["mean"] == pytest.approx(np.mean(values))
        assert totals["min"] == min(values)
        assert totals["max"] == max(values)

    def test_totals_unknown_source_raises(self):
        agg = TumblingWindowAggregator()
        with pytest.raises(KeyError):
            agg.totals("ghost")

    def test_invalid_level_raises(self):
        agg = TumblingWindowAggregator(cascades=())
        with pytest.raises(ValueError):
            agg.windows(level=1)

    def test_stats_counters(self):
        agg = TumblingWindowAggregator(window_seconds=1.0, cascades=(10.0,))
        agg.ingest_many(stream([(float(i), 0.5) for i in range(25)]))
        snapshot = agg.stats()
        assert snapshot["ingested"] == 25
        assert snapshot["watermark"] == 24.0
        assert snapshot["open_windows"] >= 1
        agg.flush()
        assert agg.stats()["open_windows"] == 0


# -- level-0 statistics against numpy -------------------------------------


def numpy_window(values):
    """The reference level-0 statistics: numpy over the float64 values."""
    arr = np.asarray(values, dtype=np.float64)
    with np.errstate(all="ignore"):
        return {
            "mean": float(arr.mean()),
            "min": float(arr.min()),
            "max": float(arr.max()),
            "p50": float(np.percentile(arr, 50)),
            "p95": float(np.percentile(arr, 95)),
        }


def level0_window(values):
    agg = TumblingWindowAggregator(window_seconds=1.0, cascades=())
    n = len(values)
    agg.ingest_many(
        [
            TelemetryEvent(source="s", value=v, timestamp=i / n)
            for i, v in enumerate(values)
        ]
    )
    agg.flush()
    (window,) = agg.windows(source="s")
    return window


def bits(x):
    return "nan" if x != x else struct.pack("<d", x)


def has_signed_zero(values, sign):
    return any(v == 0 and math.copysign(1.0, v) == sign for v in values)


def assert_matches_numpy(values):
    window = level0_window(values)
    expected = numpy_window(values)
    assert window.count == len(values)
    assert window.exact_percentiles
    # numpy's select leaves the order of equal zeros open, so with both
    # -0.0 and +0.0 in the window a zero statistic's sign may differ
    both_zeros = has_signed_zero(values, -1.0) and has_signed_zero(values, 1.0)
    for field, want in expected.items():
        got = getattr(window, field)
        assert type(got) is float, field
        if both_zeros and field != "mean" and got == 0 and want == 0:
            continue
        assert bits(got) == bits(want), (field, got, want)


FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
SCALARS = st.one_of(
    FLOATS,
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324]),
    st.integers(-(2**63), 2**63 - 1),
    st.booleans(),
)


class TestLevelZeroMatchesNumpy:
    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(SCALARS, min_size=1, max_size=40))
    @example(values=[1, 2, 3])  # ints only
    @example(values=[2**62, 2**62, 2**62, 1])  # summed as float64, not int64
    @example(values=[True, False, True])  # bools only
    @example(values=[math.inf])  # numpy's lerp turns a lone inf into NaN
    @example(values=[-math.inf, math.inf])
    @example(values=[0.0, -0.0, 0.0])
    @example(values=[1.0, math.nan, 2.0])
    @example(values=[2**53 + 1, 2.0**53, 1.5])
    def test_small_windows(self, values):
        assert_matches_numpy(values)

    @settings(max_examples=60, deadline=None)
    @given(
        size=st.one_of(
            st.sampled_from([1, 7, 8, 9, 128, 129, 8193]),
            st.integers(1, 600),
        ),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1e-310, 1e-3, 1.0, 250.0, 1e300]),
        specials=st.lists(SCALARS, max_size=6),
    )
    @example(size=8193, seed=1, scale=1e300, specials=[])
    @example(size=129, seed=2, scale=1.0, specials=[math.nan])
    def test_pairwise_sum_sizes(self, size, seed, scale, specials):
        """Sizes across numpy's pairwise-sum branches (< 8, one 128-block,
        recursion, more than one 8,192-element buffer)."""
        rng = np.random.default_rng(seed)
        values = (rng.lognormal(0.0, 2.0, size) * scale).tolist()
        for position, value in zip(rng.integers(0, size, len(specials)), specials):
            values[position] = value
        assert_matches_numpy(values)
