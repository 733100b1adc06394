"""Query engine over hot rollups and the cold WAL.

Two storage tiers, one façade: recent, pre-aggregated windows live in the
:class:`~repro.telemetry.rollup.TumblingWindowAggregator` (cheap, bounded
memory); the full event history lives in the WAL on disk (complete, but a
sequential scan).  :class:`TelemetryQuery` routes window queries to the
hot tier and raw-event queries to the cold tier, and layers worst-sensor
ranking on top — the primitives the dashboard's long-horizon panels need.
Coarser windows are the rollup's cascade levels (``windows(level=...)``).
"""

from __future__ import annotations

import os
from operator import itemgetter
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.telemetry.events import TelemetryEvent
from repro.telemetry.rollup import BLOCK_FIELDS, TumblingWindowAggregator, WindowStat
from repro.telemetry.wal import replay


def window_range(
    stats: Sequence[WindowStat],
    start: Optional[float] = None,
    end: Optional[float] = None,
) -> List[WindowStat]:
    """Windows overlapping ``[start, end)``, input order preserved.

    Overlap semantics (not containment): a window is kept when any part
    of its interval intersects the range, which is what both dashboards
    ("show me 10:00–10:05") and the burn-rate evaluator (trailing
    lookback windows rarely align with rollup boundaries) need.
    """
    if start is not None and end is not None and end <= start:
        raise ValueError(f"empty range [{start}, {end})")
    out = []
    for stat in stats:
        if start is not None and stat.window_end <= start:
            continue
        if end is not None and stat.window_start >= end:
            continue
        out.append(stat)
    return out


def trailing_windows(
    stats: Sequence[WindowStat],
    seconds: float,
    at: Optional[float] = None,
) -> List[WindowStat]:
    """The windows covering the trailing ``seconds`` before ``at``.

    ``at`` defaults to the newest window end in ``stats`` ("now" for a
    finalised stream).  This is the lookback primitive under the
    multi-window burn-rate evaluator: a 5 m/1 h window pair is two
    ``trailing_windows`` calls over the same finalised series.
    """
    if seconds <= 0:
        raise ValueError("seconds must be positive")
    if not stats:
        return []
    if at is None:
        at = max(stat.window_end for stat in stats)
    return window_range(stats, start=at - seconds, end=at)


class TelemetryQuery:
    """Unified query surface over a rollup store and/or a WAL directory.

    Either tier is optional: a live pipeline queries both, a post-mortem
    audit may have only the WAL.
    """

    def __init__(
        self,
        rollups: Optional[TumblingWindowAggregator] = None,
        wal_dir: Optional[Union[str, os.PathLike]] = None,
    ) -> None:
        if rollups is None and wal_dir is None:
            raise ValueError("need at least one of rollups / wal_dir")
        self.rollups = rollups
        self.wal_dir = None if wal_dir is None else os.fspath(wal_dir)

    # -- hot tier ---------------------------------------------------------------

    def windows(
        self,
        sources: Optional[Sequence[str]] = None,
        level: int = 0,
        start: Optional[float] = None,
        end: Optional[float] = None,
    ) -> List[WindowStat]:
        """Finalised windows at one cascade level, optionally time-bounded,
        ordered by ``(window_start, source)``."""
        if self.rollups is None:
            raise RuntimeError("no hot rollup tier attached")
        names = (
            list(sources) if sources is not None else self.rollups.sources
        )
        if len(names) == 1:
            # one source's windows already come in (window_start) order
            stats = self.rollups.windows(
                source=names[0], level=level, start=start, end=end
            )
        else:
            stats = []
            for name in names:
                stats.extend(
                    self.rollups.windows(
                        source=name, level=level, start=start, end=end
                    )
                )
            stats.sort(key=lambda s: (s.window_start, s.source))
        return stats

    def top_k(
        self,
        k: int,
        level: int = 0,
        start: Optional[float] = None,
        end: Optional[float] = None,
        metric: str = "mean",
        worst: str = "lowest",
    ) -> List[Tuple[str, float]]:
        """The k worst sources over a time range.

        ``metric`` picks the window field to rank on; ``worst="lowest"``
        treats small values as bad (trust values, where 1.0 is healthy),
        ``"highest"`` treats large values as bad (latencies).  Windows are
        count-weighted so a source's score is its true per-event mean over
        the range, summed in window order.  Tied scores rank by the
        source's first window in the range, then by name.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        if metric not in {"mean", "min", "max", "p50", "p95"}:
            raise ValueError(f"unknown metric {metric!r}")
        if worst not in {"lowest", "highest"}:
            raise ValueError("worst must be 'lowest' or 'highest'")
        if self.rollups is None:
            raise RuntimeError("no hot rollup tier attached")
        column = BLOCK_FIELDS.index(metric)
        scored: List[Tuple[float, str, float]] = []
        # The loop ``score += value * count; weight += count`` over the
        # windows in order, from 0.0: ``np.add.accumulate`` over ``[0.0,
        # p1, ..., pn]`` makes those additions in that order, so its last
        # element is the loop's sum, bit for bit (pairwise
        # ``np.add.reduce`` or ``math.fsum`` would round differently).
        # inf - inf, or a product past the float range, is NaN or inf
        # here as in the loop: no warning.
        with np.errstate(over="ignore", invalid="ignore"):
            for name in self.rollups.sources:
                first, rows = self.rollups.window_rows(name, level, start, end)
                if first is None:
                    continue
                terms = np.zeros((2, len(rows) + 1))
                counts = rows[:, 0]
                np.multiply(rows[:, column], counts, out=terms[0, 1:])
                terms[1, 1:] = counts
                score, weight = np.add.accumulate(terms, axis=1)[:, -1].tolist()
                scored.append((first, name, score / weight))
        # names come sorted, so a stable sort on the first window start
        # gives the (first window, name) tie order
        scored.sort(key=itemgetter(0))
        ranked = sorted(
            ((name, score) for __, name, score in scored),
            key=itemgetter(1),
            reverse=(worst == "highest"),
        )
        return ranked[:k]

    # -- cold tier ---------------------------------------------------------------

    def events(
        self,
        sources: Optional[Sequence[str]] = None,
        start: Optional[float] = None,
        end: Optional[float] = None,
        limit: Optional[int] = None,
    ) -> List[TelemetryEvent]:
        """Raw events from the WAL, append order, filtered server-side."""
        if self.wal_dir is None:
            raise RuntimeError("no cold WAL tier attached")
        out: List[TelemetryEvent] = []
        for event in replay(
            self.wal_dir,
            start=start,
            end=end,
            sources=None if sources is None else list(sources),
        ):
            out.append(event)
            if limit is not None and len(out) >= limit:
                break
        return out

    def rebuild_rollups(
        self,
        window_seconds: float = 1.0,
        cascades: Sequence[float] = (10.0, 60.0),
    ) -> TumblingWindowAggregator:
        """Replay the cold tier into a fresh hot tier (crash recovery).

        This is the restart path: a process that lost its in-memory
        rollups streams the WAL back through a new aggregator and serves
        hot queries again, with identical exact statistics.  The replay
        streams through one :meth:`~TumblingWindowAggregator.ingest_many`
        call, so no event list is built.
        """
        if self.wal_dir is None:
            raise RuntimeError("no cold WAL tier attached")
        aggregator = TumblingWindowAggregator(
            window_seconds=window_seconds, cascades=cascades
        )
        aggregator.ingest_many(replay(self.wal_dir))
        aggregator.flush()
        return aggregator
