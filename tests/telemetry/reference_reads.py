"""Reference reads over a rollup store: the linear scans the shipped reads
replaced, kept as oracles for ``test_read_path.py``.

``reference_windows`` filters every retained window of each source and
sorts the result; ``reference_top_k`` ranks sources from the full sorted
window list of every source, as ``TelemetryQuery.top_k`` did before it
summed each source's range on its own; ``loop_top_k`` sums each source's
range in a Python loop, as ``TelemetryQuery.top_k`` did before it scored
the rollup's row blocks.
"""

from collections import defaultdict
from operator import attrgetter, itemgetter


def reference_windows(agg, source=None, level=0, start=None, end=None):
    """``TumblingWindowAggregator.windows`` as a scan of every window."""
    if not 0 <= level < len(agg.window_sizes):
        raise ValueError(
            f"level must be in [0, {len(agg.window_sizes)}), got {level}"
        )
    per_source = agg._closed[level]
    sources = [source] if source is not None else sorted(per_source)
    out = []
    for name in sources:
        for stat in per_source.get(name, ()):
            if start is not None and stat.window_start < start:
                continue
            if end is not None and stat.window_start >= end:
                continue
            out.append(stat)
    out.sort(key=lambda s: (s.window_start, s.source))
    return out


def reference_top_k(
    agg, k, level=0, start=None, end=None, metric="mean", worst="lowest"
):
    """``TelemetryQuery.top_k`` over one sorted list of every window."""
    stats = []
    for name in agg.sources:
        stats.extend(
            reference_windows(agg, source=name, level=level, start=start, end=end)
        )
    stats.sort(key=lambda s: (s.window_start, s.source))
    weight = defaultdict(float)
    score = defaultdict(float)
    for stat in stats:
        score[stat.source] += getattr(stat, metric) * stat.count
        weight[stat.source] += stat.count
    ranked = sorted(
        ((name, score[name] / weight[name]) for name in score),
        key=lambda pair: pair[1],
        reverse=(worst == "highest"),
    )
    return ranked[:k]


def loop_top_k(
    agg, k, level=0, start=None, end=None, metric="mean", worst="lowest"
):
    """``TelemetryQuery.top_k`` as a per-window loop over each source's
    ``windows(source=...)`` range."""
    value_of = attrgetter(metric)
    scored = []
    for name in agg.sources:
        stats = agg.windows(source=name, level=level, start=start, end=end)
        if not stats:
            continue
        score = weight = 0.0
        for stat in stats:
            score += value_of(stat) * stat.count
            weight += stat.count
        scored.append((stats[0].window_start, name, score / weight))
    scored.sort(key=itemgetter(0))
    ranked = sorted(
        ((name, score) for __, name, score in scored),
        key=itemgetter(1),
        reverse=(worst == "highest"),
    )
    return ranked[:k]
