"""Telemetry subsystem bench: bus, WAL and rollup throughput at 100k events.

The acceptance floor: the monitoring stream must sustain at least
50 000 events/s through bus + rollups, or it cannot keep up with the
paper's capacity experiments (Fig. 8 drives thousands of responses per
simulated second and every one becomes a telemetry event).  WAL write
and replay rates, the production pipeline with a WAL directory (bus →
WAL → rollups) and query latency are reported alongside, in events/s
and µs/event, so regressions in any tier show up in the same table.
"""

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

N_EVENTS = 100_000
SUSTAINED_FLOOR = 50_000  # events/s through bus + rollups


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
    bus.subscribe("sink", topics="t", capacity=N_EVENTS, callback=sink.append)
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
