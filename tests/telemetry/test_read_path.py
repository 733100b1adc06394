"""The bisecting rollup reads against the linear scans they replaced.

``TumblingWindowAggregator.windows`` bisects each time-sorted series and
``TelemetryQuery.top_k`` sums each source's range on its own; both must
return exactly what the scans in ``reference_reads`` return: the same
window objects in the same order, and the same scores, bit for bit, in
the same tie order.  Streams are random: reordered events, events behind
the watermark, allowed lateness, mid-stream flushes (which can reopen a
closed window and leave a series unsorted), short and long retention,
tied scores and every cascade level.
"""

import math
import random
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry import TelemetryEvent, TelemetryQuery, TumblingWindowAggregator
from tests.telemetry.reference_reads import reference_top_k, reference_windows

SOURCES = ["a", "b", "c", "d"]
#: (level-0 window, cascades): three levels, binary-inexact sizes, one level
CONFIGS = [(1.0, (2.0, 6.0)), (0.5, (1.5, 3.0)), (1.0, ())]
METRICS = ["mean", "min", "max", "p50", "p95"]

BOUNDS = st.one_of(
    st.none(),
    st.integers(-3, 90).map(float),  # on the window grid
    st.floats(-5.0, 95.0),
    st.just(math.nan),
)


@st.composite
def stores(draw):
    """A store fed a seeded random stream: mostly in order, some events
    reordered or behind the watermark, values that often tie, and
    flush() calls mid-stream."""
    window, cascades = draw(st.sampled_from(CONFIGS))
    agg = TumblingWindowAggregator(
        window_seconds=window,
        cascades=cascades,
        retention=draw(st.one_of(st.integers(1, 50), st.just(4096))),
        allowed_lateness=draw(st.sampled_from([0.0, 0.75, 3.0])),
    )
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    flush_share = draw(st.sampled_from([0.0, 0.02, 0.1]))
    now = 0.0
    for __ in range(draw(st.integers(0, 400))):
        now += rng.uniform(0.0, 0.4)
        roll = rng.random()
        if roll < 0.8:
            behind = 0.0
        elif roll < 0.95:
            behind = rng.uniform(0.0, 1.0)  # reordered
        else:
            behind = rng.uniform(2.0, 12.0)  # behind the watermark
        roll = rng.random()
        if roll < 0.5:
            value = rng.choice([0.0, 1.0])  # windows of one value tie
        elif roll < 0.98:
            value = rng.uniform(-100.0, 100.0)
        else:
            value = rng.choice([math.inf, -math.inf, math.nan])
        agg.ingest(
            TelemetryEvent(
                source=rng.choice(SOURCES), value=value, timestamp=now - behind
            )
        )
        if rng.random() < flush_share:
            agg.flush()
    if draw(st.booleans()):
        agg.flush()
    return agg


def bits(x):
    return struct.pack("<d", x)


def same_ranking(got, want):
    return [(n, bits(s)) for n, s in got] == [(n, bits(s)) for n, s in want]


def assert_unmarked_series_sorted(agg):
    for level, per_source in enumerate(agg._closed):
        for name, series in per_source.items():
            if name not in agg._unordered[level]:
                starts = [stat.window_start for stat in series]
                assert starts == sorted(starts), (level, name)


class TestWindowsMatchTheScan:
    @settings(max_examples=150, deadline=None)
    @given(agg=stores(), ranges=st.lists(st.tuples(BOUNDS, BOUNDS), max_size=4))
    def test_every_source_level_and_range(self, agg, ranges):
        assert_unmarked_series_sorted(agg)
        query = TelemetryQuery(rollups=agg)
        for level in range(agg.levels):
            for start, end in [(None, None)] + ranges:
                for source in [None, *SOURCES, "ghost"]:
                    got = agg.windows(source=source, level=level, start=start, end=end)
                    want = reference_windows(agg, source, level, start, end)
                    assert [id(s) for s in got] == [id(s) for s in want]
                    if source is not None:
                        got = query.windows(
                            sources=[source], level=level, start=start, end=end
                        )
                        assert [id(s) for s in got] == [id(s) for s in want]
                got = query.windows(sources=SOURCES, level=level, start=start, end=end)
                want = reference_windows(agg, None, level, start, end)
                assert [id(s) for s in got] == [id(s) for s in want]


class TestTopKMatchesTheScan:
    @settings(max_examples=150, deadline=None)
    @given(
        agg=stores(),
        ranges=st.lists(st.tuples(BOUNDS, BOUNDS), max_size=3),
        k=st.integers(1, 6),
    )
    def test_scores_and_tie_order(self, agg, ranges, k):
        query = TelemetryQuery(rollups=agg)
        for level in range(agg.levels):
            for start, end in [(None, None)] + ranges:
                for metric in METRICS:
                    for worst in ("lowest", "highest"):
                        got = query.top_k(k, level, start, end, metric, worst)
                        want = reference_top_k(agg, k, level, start, end, metric, worst)
                        assert same_ranking(got, want)

    def test_tied_scores_rank_by_first_window_then_name(self):
        agg = TumblingWindowAggregator(window_seconds=1.0, cascades=())
        for source, t in [("c", 0.5), ("d", 0.2), ("b", 1.5), ("a", 1.6)]:
            agg.ingest(TelemetryEvent(source=source, value=1.0, timestamp=t))
        agg.flush()
        ranking = TelemetryQuery(rollups=agg).top_k(4, metric="p95")
        assert ranking == [("c", 1.0), ("d", 1.0), ("a", 1.0), ("b", 1.0)]
        assert same_ranking(ranking, reference_top_k(agg, 4, metric="p95"))


class TestReopenedWindow:
    """flush() closes every open window; with allowed lateness an event
    can then reopen one older than the series' tail."""

    def build(self):
        agg = TumblingWindowAggregator(
            window_seconds=1.0, cascades=(2.0,), allowed_lateness=2.0
        )
        for t in (0.5, 1.5, 2.5):
            agg.ingest(TelemetryEvent(source="s", value=t, timestamp=t))
        agg.flush()  # closes windows 0, 1 and 2
        # window 1 ends at 2.0, within the 2 s lateness of the 2.5 watermark
        agg.ingest(TelemetryEvent(source="s", value=9.0, timestamp=1.2))
        agg.ingest(TelemetryEvent(source="s", value=1.0, timestamp=10.0))
        agg.flush()
        return agg

    def test_the_series_is_marked_and_reads_stay_sorted(self):
        agg = self.build()
        assert [w.window_start for w in agg._closed[0]["s"]] == [0.0, 1.0, 2.0, 1.0, 10.0]
        assert [w.window_start for w in agg._closed[1]["s"]] == [0.0, 2.0, 0.0, 10.0]
        assert agg._unordered == [{"s"}, {"s"}]
        windows = agg.windows(source="s")
        assert [(w.window_start, w.mean) for w in windows] == [
            (0.0, 0.5),
            (1.0, 1.5),
            (1.0, 9.0),
            (2.0, 2.5),
            (10.0, 1.0),
        ]
        middle = agg.windows(source="s", start=1.0, end=2.0)
        assert [w.mean for w in middle] == [1.5, 9.0]

    def test_reads_match_the_scan(self):
        agg = self.build()
        query = TelemetryQuery(rollups=agg)
        for level in range(agg.levels):
            for start, end in [(None, None), (1.0, None), (None, 2.0), (0.5, 3.0)]:
                got = agg.windows(source="s", level=level, start=start, end=end)
                want = reference_windows(agg, "s", level, start, end)
                assert [id(w) for w in got] == [id(w) for w in want]
                for metric in METRICS:
                    assert same_ranking(
                        query.top_k(1, level, start, end, metric),
                        reference_top_k(agg, 1, level, start, end, metric),
                    )


class TestRangeCorners:
    def stream_store(self):
        agg = TumblingWindowAggregator(window_seconds=1.0, cascades=(10.0,))
        for i in range(400):
            agg.ingest(TelemetryEvent(source=f"s{i % 2}", value=float(i), timestamp=i / 4))
        agg.flush()
        return agg

    def test_empty_and_inverted_ranges(self):
        agg = self.stream_store()
        assert agg.windows(source="s0", start=50.0, end=50.0) == []
        assert agg.windows(source="s0", start=60.0, end=40.0) == []
        assert agg.windows(source="s0", start=1000.0) == []
        assert agg.windows(source="s0", end=-1.0) == []
        assert agg.windows(source="ghost", start=0.0, end=10.0) == []

    def test_a_nan_bound_filters_nothing(self):
        agg = self.stream_store()
        everything = agg.windows(source="s1")
        assert len(everything) == 100
        assert agg.windows(source="s1", start=math.nan) == everything
        assert agg.windows(source="s1", end=math.nan) == everything

    def test_ranges_near_either_end(self):
        agg = self.stream_store()
        for start, end in [(0.0, 3.0), (2.0, 5.0), (95.0, None), (40.0, 60.0)]:
            got = agg.windows(source="s0", start=start, end=end)
            assert got == reference_windows(agg, "s0", 0, start, end)
            assert got and got[0].window_start == start
