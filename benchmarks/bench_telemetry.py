"""Telemetry subsystem bench: bus, WAL and rollup throughput at 100k events.

The acceptance floor: the monitoring stream must sustain at least
50 000 events/s through bus + rollups, or it cannot keep up with the
paper's capacity experiments (Fig. 8 drives thousands of responses per
simulated second and every one becomes a telemetry event).  WAL write
and replay rates, the production pipeline with a WAL directory (bus →
WAL → rollups) and query latency are reported alongside, in events/s
and µs/event, so regressions in any tier show up in the same table.

A read-scaling gate keeps operator reads costing the range they show:
the query half of a ``monitor-ingest`` read over the trailing 300 s may
take at most 1.5x as long on a store holding 4,000 s of history as on
one holding 300 s.

A ``top_k`` gate keeps the ranking scored from the rollup's row blocks:
over 12 series x 300 windows, the per-window loop it replaced
(``tests/telemetry/reference_reads.loop_top_k``) must take at least 2.5x
as long per window in range, both timed alternately in one process.
One window per series finalises between reads, so each column read
syncs the blocks a step, as between ``monitor-ingest`` reads.
"""

import itertools
import statistics
import time

import pytest

from repro.telemetry import (
    TelemetryBus,
    TelemetryEvent,
    TelemetryPipeline,
    TelemetryQuery,
    TumblingWindowAggregator,
    WriteAheadLog,
    replay,
)
from tests.telemetry.reference_reads import loop_top_k

N_EVENTS = 100_000
SUSTAINED_FLOOR = 50_000  # events/s through bus + rollups
READ_HISTORIES_S = (300, 4000)  # both within the default 4,096 retention
READ_RANGE_S = 300.0
READ_ROUNDS = 21
READS_PER_ROUND = 10
READ_SCALING_CEILING = 1.5  # long-history median / short-history median
TOP_K_SERIES = 12
TOP_K_WINDOWS = 300
TOP_K_SPEEDUP_FLOOR = 2.5  # loop median / column median, one sync step a read


@pytest.fixture(scope="module")
def event_stream():
    """100k events: 8 sources, ~100 events/simulated second."""
    return [
        TelemetryEvent(
            source=f"sensor-{i % 8}",
            value=(i % 100) / 100.0,
            timestamp=i * 0.01,
        )
        for i in range(N_EVENTS)
    ]


def rate(n, seconds):
    return n / seconds if seconds > 0 else float("inf")


@pytest.fixture(scope="module")
def throughput(event_stream, tmp_path_factory, figure_printer):
    """Run every tier once over the stream and report one table."""
    results = {}

    bus = TelemetryBus()
    sink = []
    bus.subscribe("sink", topics="t", capacity=N_EVENTS, callback=sink.extend)
    start = time.perf_counter()
    for event in event_stream:
        bus.publish("t", event)
    bus.pump()
    results["bus_publish"] = rate(N_EVENTS, time.perf_counter() - start)
    assert len(sink) == N_EVENTS

    pipe = TelemetryPipeline(auto_pump_every=1024).start()
    start = time.perf_counter()
    for event in event_stream:
        pipe.publish("t", event)
    pipe.flush()
    results["bus_rollups"] = rate(N_EVENTS, time.perf_counter() - start)
    assert pipe.rollups.ingested == N_EVENTS
    pipe.close()

    pipe = TelemetryPipeline(
        wal_dir=tmp_path_factory.mktemp("bench-pipeline-wal"),
        auto_pump_every=1024,
    ).start()
    start = time.perf_counter()
    for event in event_stream:
        pipe.publish("t", event)
    pipe.flush()
    results["bus_wal_rollups"] = rate(N_EVENTS, time.perf_counter() - start)
    assert pipe.wal.appended == pipe.rollups.ingested == N_EVENTS
    pipe.close()

    wal_dir = tmp_path_factory.mktemp("bench-wal")
    start = time.perf_counter()
    with WriteAheadLog(wal_dir) as wal:
        for event in event_stream:
            wal.append(event)
    results["wal_write"] = rate(N_EVENTS, time.perf_counter() - start)

    start = time.perf_counter()
    replayed = sum(1 for __ in replay(wal_dir))
    results["wal_replay"] = rate(replayed, time.perf_counter() - start)
    assert replayed == N_EVENTS

    figure_printer(
        f"Telemetry throughput at {N_EVENTS} events",
        ["tier", "events/s", "us/event"],
        [(name, value, 1e6 / value) for name, value in results.items()],
    )
    return results


@pytest.fixture(scope="module")
def loaded_rollups(event_stream):
    agg = TumblingWindowAggregator(window_seconds=1.0, cascades=(10.0, 60.0))
    agg.ingest_many(event_stream)
    agg.flush()
    return agg


def bench_bus_alone_is_not_the_bottleneck(check, throughput):
    def verify():
        assert throughput["bus_publish"] > throughput["bus_rollups"]

    check(verify)


def bench_sustained_rate_meets_floor(check, throughput):
    """The acceptance criterion: ≥ 50k events/s through bus + rollups."""

    def verify():
        assert throughput["bus_rollups"] >= SUSTAINED_FLOOR

    check(verify)


def bench_wal_keeps_up_with_the_floor(check, throughput):
    def verify():
        assert throughput["wal_write"] >= SUSTAINED_FLOOR

    check(verify)


def bench_replay_recovers_full_stream(check, throughput):
    def verify():
        assert throughput["wal_replay"] > 0

    check(verify)


def bench_top_k_query_latency(benchmark, loaded_rollups):
    query = TelemetryQuery(rollups=loaded_rollups)
    ranking = benchmark(lambda: query.top_k(5))
    assert len(ranking) == 5


def bench_window_range_query_latency(benchmark, loaded_rollups):
    query = TelemetryQuery(rollups=loaded_rollups)
    subset = benchmark(lambda: query.windows(start=100.0, end=200.0))
    assert subset


def bench_rollup_memory_stays_bounded(check, loaded_rollups):
    """Retention caps mean 100k events cannot pin 100k windows."""

    def verify():
        stats = loaded_rollups.stats()
        retained = stats["open_windows"] + stats["closed_windows"]
        assert retained < N_EVENTS / 10

    check(verify)


def history_rollups(seconds):
    """A store like ``loaded_rollups`` holding ``seconds`` of history:
    8 sources, 10 events per source per 1 s window."""
    agg = TumblingWindowAggregator(window_seconds=1.0, cascades=(10.0, 60.0))
    for i in range(seconds * 80):
        agg.ingest(
            TelemetryEvent(
                source=f"sensor-{i % 8}", value=(i % 100) / 100.0, timestamp=i / 80
            )
        )
    agg.flush()
    return agg


def operator_query(query, now):
    """The query half of a ``monitor-ingest`` operator read."""
    query.windows(sources=["sensor-0"], start=now - READ_RANGE_S)
    query.top_k(3, start=now - READ_RANGE_S, end=now, metric="p95", worst="highest")


def bench_read_cost_follows_range_not_history(check, figure_printer):
    """A trailing read's cost must not grow with the history retained."""
    stores = [
        (seconds, TelemetryQuery(rollups=history_rollups(seconds)))
        for seconds in READ_HISTORIES_S
    ]
    timings = {seconds: [] for seconds in READ_HISTORIES_S}
    for __ in range(READ_ROUNDS):  # alternate, so host drift hits both
        for seconds, query in stores:
            start = time.perf_counter()
            for __ in range(READS_PER_ROUND):
                operator_query(query, float(seconds))
            timings[seconds].append(
                (time.perf_counter() - start) / READS_PER_ROUND
            )
    medians = {s: statistics.median(t) * 1e3 for s, t in timings.items()}
    short, long = (medians[s] for s in READ_HISTORIES_S)
    figure_printer(
        f"Operator read over the trailing {READ_RANGE_S:.0f} s",
        ["history s", "median ms"],
        [(f"{s}", m) for s, m in medians.items()],
    )

    def verify():
        assert long <= READ_SCALING_CEILING * short, (
            f"read on {READ_HISTORIES_S[1]} s of history took {long:.3f} ms, "
            f"{long / short:.2f}x the {short:.3f} ms on "
            f"{READ_HISTORIES_S[0]} s (ceiling {READ_SCALING_CEILING}x)"
        )

    check(verify)


def bench_top_k_columns_beat_the_loop(check, figure_printer):
    """``top_k`` from synced row blocks against the per-window loop."""
    agg = TumblingWindowAggregator(window_seconds=1.0, cascades=(10.0, 60.0))
    per_second = TOP_K_SERIES * 10
    events = (
        TelemetryEvent(
            source=f"sensor-{i % TOP_K_SERIES}",
            value=(i % 97) / 10.0,
            timestamp=i / per_second,
        )
        for i in itertools.count()
    )
    # windows [0, TOP_K_WINDOWS) finalise; the next second stays open
    agg.ingest_many(list(itertools.islice(events, (TOP_K_WINDOWS + 1) * per_second)))
    query = TelemetryQuery(rollups=agg)
    in_range = TOP_K_SERIES * TOP_K_WINDOWS
    timings = {"columns": [], "loop": []}
    for __ in range(READ_ROUNDS):
        spent = dict.fromkeys(timings, 0.0)
        for __ in range(READS_PER_ROUND):
            now = agg.watermark // 1.0
            args = (3, 0, now - TOP_K_WINDOWS, now, "p95", "highest")
            assert sum(
                len(agg.windows(source=n, start=args[2], end=now)) for n in agg.sources
            ) == in_range
            # alternate, so host drift hits both; each column read syncs
            # the window every series finalised since the last read, as
            # between monitor-ingest reads
            for name, read in (
                ("columns", lambda: query.top_k(*args)),
                ("loop", lambda: loop_top_k(agg, *args)),
            ):
                start = time.perf_counter()
                ranked = read()
                spent[name] += time.perf_counter() - start
                assert ranked == loop_top_k(agg, *args)
            agg.ingest_many(list(itertools.islice(events, per_second)))
        for name, seconds in spent.items():
            timings[name].append(seconds / READS_PER_ROUND)
    us_per_window = {
        name: statistics.median(t) / in_range * 1e6 for name, t in timings.items()
    }
    ratio = us_per_window["loop"] / us_per_window["columns"]
    figure_printer(
        f"top_k over {TOP_K_SERIES} series x {TOP_K_WINDOWS} windows",
        ["scoring", "us/window"],
        list(us_per_window.items()),
    )

    def verify():
        assert ratio >= TOP_K_SPEEDUP_FLOOR, (
            f"the loop took {ratio:.2f}x the column scoring per window "
            f"(floor {TOP_K_SPEEDUP_FLOOR}x)"
        )

    check(verify)
