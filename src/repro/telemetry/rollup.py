"""Tumbling-window rollups with cascading downsampling.

The hot query path never touches raw events: the aggregator buckets each
source's events into tumbling windows (default 1 s), finalises a window
once the stream's watermark passes its end, keeps each source's windows
in start order, and cascades finalised windows into coarser levels (e.g.
1 s → 10 s → 60 s).  Each level keeps only a bounded number of finalised
windows, so hot memory stays O(sources × levels × retention) no matter
how long the stream runs.

count/mean/min/max combine exactly across the cascade.  Percentiles do
not: level 0 computes p50/p95 exactly from the window's raw values;
higher levels estimate them as the count-weighted mean of their children's
percentiles — a standard downsampling compromise, flagged via
``WindowStat.exact_percentiles``.

Level-0 statistics are numpy's — ``ndarray.mean`` and the default
``linear`` method of ``numpy.percentile`` over the values as float64 —
computed at a few microseconds per window.  The mean is
``np.add.reduce`` of the values divided by their count, which is what
``ndarray.mean`` computes (numpy's pairwise summation, in arrival order).
min/max/p50/p95 come from one ``sorted()`` of the values, with numpy's
percentile interpolation replayed operation for operation in Python
floats (:func:`_percentile`).  A window holding a NaN reports NaN for all
five, as numpy does (which NaN bits is left open: numpy's own min and max
return the data's NaN or a fresh one depending on where it sits).  The
results are bitwise equal to numpy's with one exception: when a window
holds both -0.0 and +0.0 and the min, max, p50 or p95 is a zero, its sign
may differ from numpy's, because numpy's partition does not fix the order
of equal zeros.  The two still compare equal.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from itertools import chain, islice
from math import floor, inf
from operator import attrgetter
from typing import Callable, Deque, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.telemetry.bus import consume
from repro.telemetry.events import TelemetryEvent


@dataclass(slots=True)
class WindowStat:
    """Finalised aggregate of one source over one tumbling window."""

    source: str
    window_start: float
    window_seconds: float
    count: int
    mean: float
    min: float
    max: float
    p50: float
    p95: float
    exact_percentiles: bool = True

    @property
    def window_end(self) -> float:
        return self.window_start + self.window_seconds

    def merge_key(self) -> Tuple[str, float]:
        return (self.source, self.window_start)


def merge_window_stats(
    stats: Sequence[WindowStat],
    window_start: float,
    window_seconds: float,
) -> WindowStat:
    """Combine child windows of one source into a coarser parent window.

    Exact for count/mean/min/max; percentile fields are count-weighted
    means of the children's percentiles (marked inexact).
    """
    if not stats:
        raise ValueError("cannot merge zero windows")
    total = sum(s.count for s in stats)
    return WindowStat(
        source=stats[0].source,
        window_start=window_start,
        window_seconds=window_seconds,
        count=total,
        mean=sum(s.mean * s.count for s in stats) / total,
        min=min(s.min for s in stats),
        max=max(s.max for s in stats),
        p50=sum(s.p50 * s.count for s in stats) / total,
        p95=sum(s.p95 * s.count for s in stats) / total,
        exact_percentiles=False,
    )


#: ``numpy.percentile``'s ``q / 100`` for the two recorded percentiles.
_P50 = 50 / 100
_P95 = 95 / 100


def _percentile(ordered: List[float], q: float) -> float:
    """numpy's ``linear`` percentile of sorted, NaN-free values.

    The steps of ``numpy.percentile`` for one scalar ``q``: the virtual
    index is ``(n - 1) * q``; an index at or past the last element (a
    one-value window) reads the last element with gamma ``index + 1``,
    as numpy's bounds fix-up does, so a lone ``inf`` gives NaN there
    too; the two neighbours are then interpolated by numpy's ``_lerp``.
    """
    last = len(ordered) - 1
    index = last * q
    if index >= last:
        below = above = last
        gamma = index + 1
    else:
        below = floor(index)
        above = below + 1
        gamma = index - below
    a = float(ordered[below])
    b = float(ordered[above])
    diff = b - a
    if gamma >= 0.5:
        return b - diff * (1 - gamma)
    return a + diff * gamma


def _level0_stat(
    source: str, start: float, size: float, values: List[float]
) -> WindowStat:
    """Exact statistics of one level-0 window's raw values."""
    count = len(values)
    mean = float(np.add.reduce(np.asarray(values, dtype=np.float64))) / count
    if mean != mean and any(v != v for v in values):
        # a NaN poisons every statistic, as in numpy (a NaN mean alone
        # may also come from +inf and -inf, which leave the others alone)
        return WindowStat(source, start, size, count, mean, mean, mean, mean, mean)
    ordered = sorted(values)
    return WindowStat(
        source=source,
        window_start=start,
        window_seconds=size,
        count=count,
        mean=mean,
        min=float(ordered[0]),
        max=float(ordered[-1]),
        p50=_percentile(ordered, _P50),
        p95=_percentile(ordered, _P95),
    )


_window_start_of = attrgetter("window_start")
_start_then_source = attrgetter("window_start", "source")


def _bounds(
    series: Deque[WindowStat], start: Optional[float], end: Optional[float]
) -> Tuple[int, int]:
    """The index range ``[lo, hi)`` of a time-sorted series' windows with
    ``start <= window_start < end``; ``hi <= lo`` when there are none.

    Two bisects, so the cost is logarithmic in the series.  A NaN bound
    filters nothing.
    """
    lo = 0
    hi = len(series)
    if start is not None and start == start:
        lo = bisect_left(series, start, key=_window_start_of)
    if end is not None and end == end:
        hi = bisect_left(series, end, lo, key=_window_start_of)
    return lo, hi


def _time_range(
    series: Deque[WindowStat], start: Optional[float], end: Optional[float]
) -> List[WindowStat]:
    """The windows of a time-sorted series with ``start <= window_start <
    end``, in series order.

    The slice :func:`_bounds` finds is copied from the deque's nearer end
    (an ``islice`` from the left walks every window before it), so a
    trailing range costs its own length however long the series is.
    """
    lo, hi = _bounds(series, start, end)
    if hi <= lo:
        return []
    n = len(series)
    if hi <= n - lo:
        return list(islice(series, lo, hi))
    out = list(islice(reversed(series), n - hi, n - lo))
    out.reverse()
    return out


#: The columns of a series block, one float64 row per window.
BLOCK_FIELDS = ("count", "mean", "min", "max", "p50", "p95")
_WIDTH = len(BLOCK_FIELDS)
_block_row = attrgetter(*BLOCK_FIELDS)


def _rows(stats: Sequence[WindowStat]) -> array:
    """The windows' ``BLOCK_FIELDS`` as float64 rows, flattened."""
    return array("d", chain.from_iterable(map(_block_row, stats)))


class _Block:
    """A series' windows as float64 rows of ``BLOCK_FIELDS``.

    The block is synced on read, not on write: :meth:`sync` appends the
    rows of the windows finalised since the previous sync, found by
    walking the deque back from its tail to the window last synced.  If
    that window has been evicted, more than the deque holds arrived and
    the block is rebuilt from the whole deque.  The block's last
    ``len(series)`` rows are the deque's windows, and it is trimmed to
    them once it holds twice as many.  Only slice copies of ``data`` are
    handed out: while a buffer view of an ``array`` lives, resizing it
    raises ``BufferError``.
    """

    __slots__ = ("data", "tail")

    def __init__(self) -> None:
        self.data = array("d")
        self.tail: Optional[WindowStat] = None

    def sync(self, series: Deque[WindowStat]) -> int:
        """Bring the block level with ``series``; returns the row of
        ``series[0]``."""
        data = self.data
        n = len(series)
        if series[-1] is not self.tail:
            fresh = []
            for stat in reversed(series):
                if stat is self.tail:
                    break
                fresh.append(stat)
            else:
                del data[:]
            fresh.reverse()
            data.extend(_rows(fresh))
            self.tail = series[-1]
            rows = len(data) // _WIDTH
            if rows > 2 * n:
                del data[: (rows - n) * _WIDTH]
        return len(data) // _WIDTH - n


class TumblingWindowAggregator:
    """Multi-level tumbling-window rollup store.

    Parameters
    ----------
    window_seconds:
        Level-0 window size.
    cascades:
        Additional window sizes, each an integer multiple of the previous
        level (``(10.0, 60.0)`` with a 1 s base gives 1 s/10 s/60 s levels).
    retention:
        Finalised windows kept per (level, source); older ones are evicted
        so memory stays bounded.  The WAL remains the source of truth for
        anything older.

    Each series stays in window-start order: an event whose window ended
    at or before the watermark, or whose window would finalise behind its
    series' newest (see :meth:`_finalize`), counts in ``late_events``.
    """

    def __init__(
        self,
        window_seconds: float = 1.0,
        cascades: Sequence[float] = (10.0, 60.0),
        retention: int = 4096,
    ) -> None:
        if window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        if retention < 1:
            raise ValueError("retention must be >= 1")
        sizes = [float(window_seconds)] + [float(c) for c in cascades]
        for prev, size in zip(sizes, sizes[1:]):
            ratio = size / prev
            if size <= prev or abs(ratio - round(ratio)) > 1e-9:
                raise ValueError(
                    "each cascade level must be an integer multiple of the "
                    f"previous ({prev} -> {size} is not)"
                )
        self.window_sizes = sizes
        self.retention = retention
        self.watermark = -inf
        self.ingested = 0
        self.late_events = 0
        self._horizon_bucket = -inf  # last level-0 bucket finalisation ran at
        # per level: open buckets keyed (source, window_start) — raw
        # event values at level 0, finalised child windows above — and
        # finalised deques keyed source, each in window-start order
        self._open: List[Dict[Tuple[str, float], list]] = [{} for __ in sizes]
        self._closed: List[Dict[str, Deque[WindowStat]]] = [{} for __ in sizes]
        #: per level: the row blocks of the series, keyed source, created
        #: and synced by ``window_rows``
        self._blocks: List[Dict[str, _Block]] = [{} for __ in sizes]
        #: level -> callbacks fired once per finalised window.  Empty for
        #: an unsubscribed aggregator, so the hot ingest path never pays
        #: for the feature (the check in ``_finalize`` is one truthiness
        #: test per *window*, not per event).
        self._finalize_hooks: Dict[int, List[Callable[[WindowStat], None]]] = {}

    # -- subscriptions -----------------------------------------------------------

    def on_finalize(
        self, callback: Callable[[WindowStat], None], level: int = 0
    ) -> None:
        """Call ``callback(stat)`` for every window finalised at ``level``.

        This is the incremental-consumption hook the SLO burn-rate
        evaluator attaches to: subscribers see each window exactly once,
        in finalisation order, the moment the watermark closes it — no
        polling, no re-reading of the retention deques.  Callbacks run
        synchronously inside :meth:`ingest_many`/:meth:`flush`; they must
        not mutate the aggregator.
        """
        self._check_level(level)
        self._finalize_hooks.setdefault(level, []).append(callback)

    # -- ingest -----------------------------------------------------------------

    def _window_start(self, timestamp: float, level: int) -> float:
        size = self.window_sizes[level]
        return floor(timestamp / size) * size

    def ingest(self, event: TelemetryEvent) -> None:
        """Bucket one event: :meth:`ingest_many` of one event."""
        self.ingest_many((event,))

    def ingest_many(self, events: Iterable[TelemetryEvent]) -> None:
        """Bucket events in order; advances the watermark and finalises
        windows as it crosses level-0 boundaries.

        This is the ``rollup`` subscription's bus callback.  If an event
        raises (a non-finite timestamp, or a finalise hook), the events
        before it are popped off a deque batch (:func:`~repro.telemetry.
        bus.consume`) and the error re-raised.  A hook may publish into a
        pipeline that pumps this aggregator again, so the watermark is
        re-read after every finalisation.
        """
        size = self.window_sizes[0]
        open_buckets = self._open[0]
        watermark = self.watermark
        done = 0
        try:
            for done, event in enumerate(events):
                timestamp = event.timestamp
                bucket = floor(timestamp / size)
                start = bucket * size
                if start + size <= watermark:
                    self.late_events += 1
                    continue
                key = (event.source, start)
                values = open_buckets.get(key)
                if values is None:
                    open_buckets[key] = [event.value]
                else:
                    values.append(event.value)
                self.ingested += 1
                if timestamp > watermark:
                    self.watermark = watermark = timestamp
                    # window ends all fall on level-0 boundaries, so
                    # ripeness can only change when the watermark crosses
                    # one — skip the open-window scan otherwise
                    if bucket != self._horizon_bucket:
                        self._horizon_bucket = bucket
                        self._finalize_ripe(timestamp)
                        watermark = self.watermark
        except BaseException:
            consume(events, done)
            raise

    # -- window finalisation -----------------------------------------------------

    def _finalize_ripe(self, horizon: float) -> None:
        """Close every open window that ends at or before ``horizon``."""
        for level in range(len(self.window_sizes)):
            size = self.window_sizes[level]
            ripe = [
                key for key in self._open[level] if key[1] + size <= horizon
            ]
            for key in sorted(ripe, key=lambda k: k[1]):
                self._finalize(level, key)

    def _finalize(self, level: int, key: Tuple[str, float]) -> None:
        """Close one open window, or drop it if it starts before its
        series' newest window.

        Only a mid-stream :meth:`flush` makes such a window: it closes
        windows ending past the watermark, and where ``start + size``
        rounds above the next window's start (sizes that are not powers
        of two), a later event can open the window before a flushed one.
        A dropped window is not appended, cascaded or handed to the
        hooks; at level 0 its events move from ``ingested`` to
        ``late_events``.  A window with the newest one's start is
        appended.
        """
        source, start = key
        bucket = self._open[level].pop(key)
        series = self._closed[level].get(source)
        if series is None:
            series = self._closed[level][source] = deque(maxlen=self.retention)
        elif start < series[-1].window_start:
            if level == 0:
                self.ingested -= len(bucket)
                self.late_events += len(bucket)
            return
        size = self.window_sizes[level]
        if level == 0:
            stat = _level0_stat(source, start, size, bucket)
        else:
            stat = merge_window_stats(bucket, start, size)
        series.append(stat)
        if self._finalize_hooks:
            for hook in self._finalize_hooks.get(level, ()):
                hook(stat)
        if level + 1 < len(self.window_sizes):
            parent_start = self._window_start(start, level + 1)
            self._open[level + 1].setdefault((source, parent_start), []).append(
                stat
            )

    def flush(self) -> None:
        """Finalise everything still open (end of stream / clean shutdown)."""
        self._finalize_ripe(inf)

    # -- queries ----------------------------------------------------------------

    @property
    def levels(self) -> int:
        return len(self.window_sizes)

    @property
    def sources(self) -> List[str]:
        names = set()
        for per_source in self._closed:
            names.update(per_source)
        return sorted(names)

    def windows(
        self,
        source: Optional[str] = None,
        level: int = 0,
        start: Optional[float] = None,
        end: Optional[float] = None,
    ) -> List[WindowStat]:
        """Finalised windows at one level, oldest first, optionally bounded
        to ``[start, end)`` by window start time.

        Ties on window start go by source, then finalisation order.  Each
        series is in start order (see :meth:`_finalize`), so it is
        bisected and a read costs the windows it returns, not the ones
        retained; an all-source read merges the series by start.
        """
        self._check_level(level)
        per_source = self._closed[level]
        if source is not None:
            series = per_source.get(source)
            if series is None:
                return []
            return _time_range(series, start, end)
        out: List[WindowStat] = []
        for name in sorted(per_source):
            out.extend(_time_range(per_source[name], start, end))
        out.sort(key=_start_then_source)
        return out

    def window_rows(
        self,
        source: str,
        level: int = 0,
        start: Optional[float] = None,
        end: Optional[float] = None,
    ) -> Tuple[Optional[float], np.ndarray]:
        """One source's windows in ``[start, end)`` as an ``(n, 6)``
        float64 array, one row of ``BLOCK_FIELDS`` per window, oldest
        first, with the first window's start (``None`` when ``n`` is 0).

        The rows are a copy the caller may keep, taken from the series'
        block, synced first (see ``_Block``).  An unknown source has no
        rows.
        """
        self._check_level(level)
        series = self._closed[level].get(source)
        if series is None:
            first, rows = None, array("d")
        else:
            block = self._blocks[level].get(source)
            if block is None:
                block = self._blocks[level][source] = _Block()
            base = block.sync(series)
            lo, hi = _bounds(series, start, end)
            first = series[lo].window_start if lo < hi else None
            rows = block.data[(base + lo) * _WIDTH : (base + hi) * _WIDTH]
        return first, np.frombuffer(rows).reshape(-1, _WIDTH)

    def _check_level(self, level: int) -> None:
        if not 0 <= level < len(self.window_sizes):
            raise ValueError(
                f"level must be in [0, {len(self.window_sizes)}), got {level}"
            )

    def totals(self, source: str, level: int = 0) -> Dict[str, float]:
        """Whole-retention aggregate for one source (exact fields only)."""
        stats = self.windows(source=source, level=level)
        if not stats:
            raise KeyError(f"no finalised windows for source {source!r}")
        merged = merge_window_stats(
            stats, stats[0].window_start, self.window_sizes[level]
        )
        return {
            "count": float(merged.count),
            "mean": merged.mean,
            "min": merged.min,
            "max": merged.max,
        }

    def stats(self) -> Dict[str, float]:
        """Snapshot counters for the pipeline's ``stats()`` panel."""
        return {
            "ingested": self.ingested,
            "late_events": self.late_events,
            "watermark": self.watermark,
            "open_windows": sum(len(level) for level in self._open),
            "closed_windows": sum(
                len(series)
                for level in self._closed
                for series in level.values()
            ),
        }
