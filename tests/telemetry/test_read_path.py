"""The bisecting rollup reads against the linear scans they replaced.

``TumblingWindowAggregator.windows`` bisects each time-sorted series and
``TelemetryQuery.top_k`` scores each source's range from the rollup's
row blocks; both must return exactly what the scans and the loop in
``reference_reads`` return: the same window objects in the same order,
and the same scores, bit for bit, in the same tie order.  Streams are
random: reordered events, events behind the watermark, timestamps on
window boundaries, mid-stream flushes (which, at window sizes that are
not powers of two, can open a window behind its series' newest), short
and long retention, tied scores, non-finite and negative-zero values,
every cascade level, and reads interleaved with ingest so the blocks
sync in steps.  Every series stays in window-start order, and every
event delivered is either ingested or counted late.
"""

import math
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry import TelemetryEvent, TelemetryQuery, TumblingWindowAggregator
from repro.telemetry.rollup import BLOCK_FIELDS
from tests.telemetry.reference_reads import (
    loop_top_k,
    reference_top_k,
    reference_windows,
)

SOURCES = ["a", "b", "c", "d"]
#: (level-0 window, cascades): three levels, binary-inexact sizes, one
#: level, and sizes that are not powers of two, where a window's end can
#: round past the next window's start
CONFIGS = [
    (1.0, (2.0, 6.0)),
    (0.5, (1.5, 3.0)),
    (1.0, ()),
    (0.7, (2.1,)),
    (0.3, (0.9, 2.7)),
    (1.1, ()),
    (0.1, (1.0,)),
]
#: the sizes that are not powers of two
UNEVEN = CONFIGS[3:]
METRICS = ["mean", "min", "max", "p50", "p95"]

BOUNDS = st.one_of(
    st.none(),
    st.integers(-3, 90).map(float),  # on the window grid
    st.floats(-5.0, 95.0),
    st.just(math.nan),
)


def on_grid(rng, t, window, grid_share):
    """``t``, or with probability ``grid_share`` the window boundary
    nearest it."""
    return round(t / window) * window if rng.random() < grid_share else t


@st.composite
def stores(draw):
    """A store fed a seeded random stream: mostly in order, some events
    reordered or behind the watermark, some on window boundaries, values
    that often tie, and flush() calls mid-stream."""
    window, cascades = draw(st.sampled_from(CONFIGS))
    agg = TumblingWindowAggregator(
        window_seconds=window,
        cascades=cascades,
        retention=draw(st.one_of(st.integers(1, 50), st.just(4096))),
    )
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    flush_share = draw(st.sampled_from([0.0, 0.02, 0.1, 0.3]))
    grid_share = draw(st.sampled_from([0.0, 0.1, 0.5]))
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
        timestamp = on_grid(rng, now - behind, window, grid_share)
        roll = rng.random()
        if roll < 0.5:
            value = rng.choice([0.0, 1.0])  # windows of one value tie
        elif roll < 0.98:
            value = rng.uniform(-100.0, 100.0)
        else:
            value = rng.choice([math.inf, -math.inf, math.nan])
        agg.ingest(
            TelemetryEvent(source=rng.choice(SOURCES), value=value, timestamp=timestamp)
        )
        if rng.random() < flush_share:
            agg.flush()
    if draw(st.booleans()):
        agg.flush()
    return agg


def bits(x):
    return struct.pack("<d", x)


def random_value(rng):
    """Values that often tie, and now and then a non-finite or -0.0."""
    roll = rng.random()
    if roll < 0.45:
        return rng.choice([0.0, 1.0])  # windows of one value tie
    if roll < 0.5:
        return -0.0
    if roll < 0.97:
        return rng.uniform(-100.0, 100.0)
    return rng.choice([math.inf, -math.inf, math.nan])


def same_ranking(got, want):
    return [(n, bits(s)) for n, s in got] == [(n, bits(s)) for n, s in want]


def assert_series_sorted(agg):
    for level, per_source in enumerate(agg._closed):
        for name, series in per_source.items():
            starts = [stat.window_start for stat in series]
            assert starts == sorted(starts), (level, name)


class TestSeriesOrder:
    """A mid-stream flush() at an uneven window size can open a window
    behind its series' newest: the newest event sits on a boundary whose
    window the flush closes, and the window before it ends past that
    boundary.  The rollup counts such a window's events late."""

    @settings(max_examples=200, deadline=None)
    @given(
        config=st.sampled_from(UNEVEN),
        first=st.integers(0, 400),  # the first event's window index
        n_events=st.integers(0, 120),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_series_sorted_and_every_event_counted(
        self, config, first, n_events, seed
    ):
        window, cascades = config
        agg = TumblingWindowAggregator(window_seconds=window, cascades=cascades)
        rng = random.Random(seed)
        index = first
        for __ in range(n_events):
            index = max(0, index + rng.choice([-1, 0, 1, 2]))
            offset = rng.choice([0.0, 0.5])  # on the window's start or inside
            agg.ingest(
                TelemetryEvent(
                    source=rng.choice(SOURCES[:2]),
                    value=float(index),
                    timestamp=(index + offset) * window,
                )
            )
            if rng.random() < 0.5:
                agg.flush()
        agg.flush()
        assert_series_sorted(agg)
        assert agg.ingested + agg.late_events == n_events
        for level in range(agg.levels):
            for source in [None, *SOURCES[:2]]:
                got = agg.windows(source=source, level=level, start=first * window)
                want = reference_windows(agg, source, level, first * window)
                assert [id(s) for s in got] == [id(s) for s in want]


class TestWindowsMatchTheScan:
    @settings(max_examples=150, deadline=None)
    @given(agg=stores(), ranges=st.lists(st.tuples(BOUNDS, BOUNDS), max_size=4))
    def test_every_source_level_and_range(self, agg, ranges):
        assert_series_sorted(agg)
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


def assert_blocks_in_sync(agg, level):
    """After a ``top_k`` at ``level``: each series has a block whose last
    rows are its deque's windows, field for field, in at most twice as
    many rows."""
    width = len(BLOCK_FIELDS)
    blocks = agg._blocks[level]
    for name, series in agg._closed[level].items():
        data = blocks[name].data
        rows = len(data) // width
        assert len(data) == rows * width
        assert len(series) <= rows <= 2 * len(series), (name, rows, len(series))
        want = [float(getattr(stat, f)) for stat in series for f in BLOCK_FIELDS]
        got = data[(rows - len(series)) * width :]
        assert [bits(x) for x in got] == [bits(x) for x in want], name


def random_range(rng, now):
    """A trailing, random, empty, inverted, NaN or open range."""
    return rng.choice(
        [
            (None, None),
            (now - rng.uniform(0.0, 30.0), now),
            (now - rng.uniform(0.0, 30.0), None),
            (rng.uniform(-5.0, now + 5.0), rng.uniform(-5.0, now + 5.0)),
            (now - 3.0, now - 3.0),
            (now, now - 10.0),
            (math.nan, now),
            (now - 8.0, math.nan),
        ]
    )


class TestColumnScoring:
    """``top_k`` scores row blocks synced on read; the loop it replaced
    (``loop_top_k``) is the oracle."""

    @settings(max_examples=120, deadline=None)
    @given(
        window_and_cascades=st.sampled_from(CONFIGS),
        retention=st.sampled_from([1, 2, 50]),
        flush_share=st.sampled_from([0.0, 0.02, 0.1, 0.3]),
        grid_share=st.sampled_from([0.0, 0.1, 0.5]),
        read_share=st.sampled_from([0.02, 0.1, 0.4]),
        n_events=st.integers(0, 300),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_reads_interleaved_with_ingest(
        self, window_and_cascades, retention, flush_share, grid_share,
        read_share, n_events, seed,
    ):
        window, cascades = window_and_cascades
        agg = TumblingWindowAggregator(
            window_seconds=window, cascades=cascades, retention=retention
        )
        query = TelemetryQuery(rollups=agg)
        rng = random.Random(seed)
        now = 0.0
        for __ in range(n_events):
            now += rng.uniform(0.0, 0.4)
            if rng.random() < 0.2:
                behind = rng.uniform(0.0, 1.0)  # reordered
            elif rng.random() < 0.05:
                behind = rng.uniform(2.0, 12.0)  # behind the watermark
            else:
                behind = 0.0
            agg.ingest(
                TelemetryEvent(
                    source=rng.choice(SOURCES),
                    value=random_value(rng),
                    timestamp=on_grid(rng, now - behind, window, grid_share),
                )
            )
            if rng.random() < flush_share:
                agg.flush()
            if rng.random() < read_share:
                level = rng.randrange(agg.levels)
                start, end = random_range(rng, now)
                worst = rng.choice(["lowest", "highest"])
                for metric in METRICS:
                    args = (rng.randint(1, 5), level, start, end, metric, worst)
                    assert same_ranking(query.top_k(*args), loop_top_k(agg, *args))
                assert_blocks_in_sync(agg, level)
        assert_series_sorted(agg)
        assert agg.ingested + agg.late_events == n_events

    @pytest.mark.parametrize("retention", [1, 2, 50])
    def test_more_than_retention_windows_between_reads(self, retention):
        agg = TumblingWindowAggregator(
            window_seconds=1.0, cascades=(2.0, 6.0), retention=retention
        )
        query = TelemetryQuery(rollups=agg)
        t = 0.0
        for burst in (3, retention + 7, 1, 0, 2 * retention + 1):
            for __ in range(burst):
                for source in SOURCES[:3]:
                    agg.ingest(
                        TelemetryEvent(source=source, value=t % 7.0, timestamp=t)
                    )
                t += 1.0
            for level in range(agg.levels):
                for metric in METRICS:
                    args = (3, level, t - 5.0, None, metric, "highest")
                    assert same_ranking(query.top_k(*args), loop_top_k(agg, *args))
                assert_blocks_in_sync(agg, level)

    def test_non_finite_and_negative_zero_windows(self):
        agg = TumblingWindowAggregator(window_seconds=1.0, cascades=())
        streams = {
            "negzero": [-0.0, -0.0, -0.0],
            "mixed-zero": [-0.0, 0.0, -0.0],
            "nan": [1.0, math.nan, 2.0],
            "inf": [1.0, math.inf, 2.0],
            "-inf": [-math.inf, 1.0, 2.0],
            "both-inf": [math.inf, 1.0, -math.inf],
            "huge": [1e308, 1e308, 1e308],
        }
        for i in range(3):
            for t in (i + 0.5, i + 0.6):
                for name, values in streams.items():
                    agg.ingest(TelemetryEvent(source=name, value=values[i], timestamp=t))
        agg.flush()
        assert agg.late_events == 0
        query = TelemetryQuery(rollups=agg)
        for metric in METRICS:
            for worst in ("lowest", "highest"):
                args = (len(streams), 0, None, None, metric, worst)
                got = query.top_k(*args)
                assert same_ranking(got, loop_top_k(agg, *args))
                assert same_ranking(got, reference_top_k(agg, *args))
        scores = dict(query.top_k(len(streams)))
        assert bits(scores["negzero"]) == bits(0.0)  # 0.0 + -0.0 is +0.0
        assert math.isnan(scores["nan"]) and math.isnan(scores["both-inf"])
        assert scores["inf"] == math.inf and scores["-inf"] == -math.inf
        assert scores["huge"] == math.inf  # 1e308 * 2 overflows, as in the loop

    def test_empty_inverted_and_nan_ranges(self):
        agg = TestRangeCorners().stream_store()
        query = TelemetryQuery(rollups=agg)
        for start, end in [(50.0, 50.0), (60.0, 40.0), (1000.0, None), (None, -1.0)]:
            assert query.top_k(2, start=start, end=end) == []
            assert agg.window_rows("s0", 0, start, end)[0] is None
        everything = query.top_k(2)
        assert same_ranking(query.top_k(2, start=math.nan), everything)
        assert same_ranking(query.top_k(2, end=math.nan), everything)
        assert same_ranking(query.top_k(2, start=math.nan, end=math.nan), everything)
        assert agg.window_rows("ghost")[0] is None

    def test_rows_are_copies_that_outlive_the_read(self):
        agg = TumblingWindowAggregator(window_seconds=1.0, cascades=())
        for i in range(10):
            agg.ingest(TelemetryEvent(source="s", value=float(i), timestamp=i + 0.5))
        first, rows = agg.window_rows("s", start=2.0)
        assert first == 2.0
        assert rows.tolist() == [
            [float(getattr(w, f)) for f in BLOCK_FIELDS]
            for w in agg.windows(source="s", start=2.0)
        ]
        held = rows.copy()
        # more windows finalise and the block grows while ``rows`` lives
        for i in range(10, 200):
            agg.ingest(TelemetryEvent(source="s", value=float(i), timestamp=i + 0.5))
        assert agg.window_rows("s", start=150.0)[0] == 150.0
        assert (rows == held).all()
