"""Capacity-at-scale speedups: columnar pipeline vs the record path.

This bench gates the million-request capacity runner's four contracts:

* a 200k-request Fig. 8 closed-loop replay through
  :class:`~repro.gateway.capacity.CapacityRunner` must beat the seed
  record path by ``CAPACITY_SPEEDUP_FLOOR``.  The baseline is the
  preserved seed implementation
  (:class:`~benchmarks.reference_loadgen.ReferenceLoadGenerator` — closure
  chains through the seed gateway and station, per-request record
  retention, re-filtering summary), mirroring
  how ``bench_inference.py`` measures against the pre-vectorization SHAP
  loop;
* the allocation-free event loop must sustain at least
  ``EVENTS_PER_SECOND_FLOOR`` simulator events per second on a
  near-capacity open-loop workload (best of three passes);
* the streaming quantile sketch must agree with the exact oracle
  (:meth:`~repro.gateway.loadgen.SummaryReport.from_records` over the
  replay's completed records) to within ``SKETCH_REL_ERROR_CEIL`` at
  p50/p95/p99 on the replay's retained log;
* a 1M-request open-loop run in ring mode must finish with the record
  log's capacity unchanged (memory bounded by in-flight count, not run
  length) while still publishing telemetry summaries and trace-linked
  latency exemplars.

``PYTHONPATH=src python -m benchmarks.bench_capacity_scale``, run from
the repository root, writes the measured numbers to
``BENCH_capacity.json`` as the committed baseline.
"""

import gc
import json
import time
from pathlib import Path

import pytest

from repro.gateway import SummaryReport, ThreadGroup, build_paper_deployment
from repro.gateway.arrivals import PoissonArrivalGroup
from repro.gateway.capacity import CapacityRunner
from repro.telemetry import KIND_LOAD_SUMMARY, KIND_RESPONSE, TelemetryBus
from repro.tracing import TraceCollector, Tracer

from benchmarks.reference_loadgen import ReferenceLoadGenerator

#: Floors/ceilings the committed baseline and live measurements must
#: clear.  Measured values carry real headroom (replay speedup lands
#: well above 4x; throughput ~15% above the floor on the reference
#: machine) so only a genuine regression trips them.
CAPACITY_SPEEDUP_FLOOR = 4.0
EVENTS_PER_SECOND_FLOOR = 300_000.0
SKETCH_REL_ERROR_CEIL = 0.01

#: Wall-clock budget for the whole measurement pass; dominated by the
#: deliberately slow record-path replay.
MEASUREMENT_BUDGET_S = 300.0

#: Fig. 8 replay at 200k requests: the paper's 100-thread SHAP scenario
#: scaled up in iterations, plus a LIME image route for a second
#: service-time distribution.
REPLAY_GROUPS = (
    ThreadGroup(
        "shap", n_threads=100, rampup_seconds=1.0, iterations=1500
    ),
    ThreadGroup(
        "lime",
        n_threads=50,
        rampup_seconds=1.0,
        iterations=1000,
        payload="image",
    ),
)
REPLAY_REQUESTS = sum(g.n_threads * g.iterations for g in REPLAY_GROUPS)

_BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_capacity.json"


def _record_replay():
    sim, gateway = build_paper_deployment(seed=5)
    generator = ReferenceLoadGenerator(sim, gateway)
    for group in REPLAY_GROUPS:
        generator.add_thread_group(group)
    gc.collect()
    start = time.perf_counter()
    report = generator.run()
    return time.perf_counter() - start, report


def _columnar_replay():
    sim, gateway = build_paper_deployment(seed=5)
    runner = CapacityRunner(sim, gateway, retain_records=True, seed=5)
    for group in REPLAY_GROUPS:
        runner.add_thread_group(group)
    gc.collect()
    start = time.perf_counter()
    report = runner.run()
    return time.perf_counter() - start, report, runner


def _replay_pair(n=3):
    """Best-of-``n`` for both replay paths, passes interleaved.

    Alternating the two paths exposes them to the same clock-frequency
    drift (the first-measured path would otherwise soak up the cold-CPU
    boost window and skew the ratio).  Only the first pass's report and
    runner are retained: the record report drags ~400k timeline tuples
    behind it, and keeping three of those alive makes every later
    full GC pass — charged to whichever path happens to be running —
    scan them.  Each pass starts from a freshly collected heap
    (``gc.collect()`` before the clock starts) but runs with the
    collector *enabled*: the record path's closure cycles are real cost
    the seed implementation pays in production, so they stay on the
    clock.
    """
    record_times, columnar_times = [], []
    record_report = columnar_report = runner = None
    for __ in range(n):
        elapsed, report = _record_replay()
        record_times.append(elapsed)
        if record_report is None:
            record_report = report
        del report
        elapsed, report, run = _columnar_replay()
        columnar_times.append(elapsed)
        if columnar_report is None:
            columnar_report, runner = report, run
        del report, run
    return (
        (min(record_times), record_report),
        (min(columnar_times), columnar_report, runner),
    )


def _throughput_pass():
    """Events/s on a near-capacity open-loop workload (one pass)."""
    sim, gateway = build_paper_deployment(seed=2)
    runner = CapacityRunner(sim, gateway, retain_records=False, seed=2)
    runner.add_open_loop(
        PoissonArrivalGroup("shap", rate_rps=400.0, n_requests=200_000)
    )
    start = time.perf_counter()
    runner.run()
    elapsed = time.perf_counter() - start
    return sim.processed_events / elapsed


def _million_request_run():
    """1M open-loop requests in ring mode with tracing + telemetry on."""
    collector = TraceCollector()
    bus = TelemetryBus()
    received = []
    bus.subscribe("bench", "gateway", callback=received.extend)
    sim, gateway = build_paper_deployment(seed=9)
    # the tracer's clock is the simulator built one line up, so it is
    # attached after construction rather than through the factory
    gateway.tracer = Tracer(lambda: sim.now, collector=collector, seed=9)
    runner = CapacityRunner(
        sim,
        gateway,
        retain_records=False,
        seed=9,
        trace_every=5000,
        telemetry=bus,
    )
    runner.add_open_loop(
        PoissonArrivalGroup("shap", rate_rps=4000.0, n_requests=875_000)
    )
    runner.add_open_loop(
        PoissonArrivalGroup(
            "lime", rate_rps=500.0, n_requests=125_000, payload="image"
        )
    )
    capacity_before = runner.log.capacity
    start = time.perf_counter()
    report = runner.run()
    elapsed = time.perf_counter() - start
    exemplars = runner.exemplar_events()
    recorded_traces = {t.trace_id for t in collector.traces()}
    return {
        "million_requests": report.n_requests,
        "million_seconds": elapsed,
        "million_events": sim.processed_events,
        "million_capacity_before": capacity_before,
        "million_capacity_after": runner.log.capacity,
        "million_rows_recycled": runner.log.recycled,
        "million_summary_events": sum(
            1 for e in received if e.kind == KIND_LOAD_SUMMARY
        ),
        "million_exemplars": len(exemplars),
        "million_exemplars_trace_linked": all(
            e.kind == KIND_RESPONSE
            and e.trace_id is not None
            and e.trace_id in recorded_traces
            for e in exemplars
        ),
    }


def measure_all():
    """Run every measurement once; returns the figures the asserts gate."""
    started = time.perf_counter()
    results = {}

    # -- 200k-request Fig. 8 replay: record path vs columnar path ---------
    # interleaved best-of-3 so one noisy pass or clock drift cannot skew
    # the ratio
    (record_s, record_report), (columnar_s, columnar_report, runner) = (
        _replay_pair(3)
    )
    results["replay_requests"] = REPLAY_REQUESTS
    results["replay_record_s"] = record_s
    results["replay_columnar_s"] = columnar_s
    results["replay_speedup"] = record_s / columnar_s
    results["replay_counts_equal"] = bool(
        columnar_report.n_requests == record_report.n_requests
        == REPLAY_REQUESTS
        and columnar_report.n_errors == record_report.n_errors
    )

    # -- sketch vs exact oracle on the replay's retained log --------------
    oracle = SummaryReport.from_records(
        [r for r in runner.log.records() if r.end > 0.0],
        columnar_report.duration_seconds,
    )
    for q, field in (
        (50, "median_response_ms"),
        (95, "p95_response_ms"),
        (99, "p99_response_ms"),
    ):
        exact = getattr(oracle, field)
        approx = getattr(columnar_report, field)
        results[f"sketch_p{q}_rel_error"] = abs(approx - exact) / exact
    results["sketch_max_rel_error"] = max(
        results[f"sketch_p{q}_rel_error"] for q in (50, 95, 99)
    )

    # -- event-loop throughput: best of three near-capacity passes --------
    results["events_per_second"] = max(_throughput_pass() for __ in range(3))

    # -- 1M-request open-loop run: flat memory + bounded observability ----
    results.update(_million_request_run())

    results["measurement_seconds"] = time.perf_counter() - started
    return results


@pytest.fixture(scope="module")
def measurements(figure_printer):
    results = measure_all()
    figure_printer(
        "capacity at scale: measured figures",
        ["metric", "value"],
        [
            ("replay record path (s)", results["replay_record_s"]),
            ("replay columnar path (s)", results["replay_columnar_s"]),
            ("replay speedup", results["replay_speedup"]),
            ("events/second", results["events_per_second"]),
            ("sketch max rel error", results["sketch_max_rel_error"]),
            ("1M-run seconds", results["million_seconds"]),
            ("1M-run rows recycled", results["million_rows_recycled"]),
        ],
    )
    return results


def bench_columnar_replay_speedup(check, measurements):
    """200k-request Fig. 8 replay: columnar >=4x over the record path."""

    def verify():
        assert measurements["replay_counts_equal"]
        assert measurements["replay_speedup"] >= CAPACITY_SPEEDUP_FLOOR, (
            f"capacity replay speedup {measurements['replay_speedup']:.2f}x "
            f"below the {CAPACITY_SPEEDUP_FLOOR}x floor"
        )

    check(verify)


def bench_event_loop_throughput_floor(check, measurements):
    """Allocation-free loop sustains >=300k events/s near capacity."""

    def verify():
        eps = measurements["events_per_second"]
        assert eps >= EVENTS_PER_SECOND_FLOOR, (
            f"simulator sustained {eps:,.0f} events/s, below the "
            f"{EVENTS_PER_SECOND_FLOOR:,.0f} floor"
        )

    check(verify)


def bench_sketch_matches_exact_oracle(check, measurements):
    """Streaming percentiles within 1% of the vectorized exact oracle."""

    def verify():
        assert measurements["sketch_max_rel_error"] <= SKETCH_REL_ERROR_CEIL

    check(verify)


def bench_million_request_memory_is_flat(check, measurements):
    """Ring mode: 1M requests never grow the log beyond its seed capacity."""

    def verify():
        assert measurements["million_requests"] == 1_000_000
        assert (
            measurements["million_capacity_after"]
            == measurements["million_capacity_before"]
        )
        assert measurements["million_rows_recycled"] > 900_000

    check(verify)


def bench_million_request_run_stays_observable(check, measurements):
    """The bounded run still emits summaries and trace-linked exemplars."""

    def verify():
        assert measurements["million_summary_events"] >= 1
        assert measurements["million_exemplars"] >= 1
        assert measurements["million_exemplars_trace_linked"]

    check(verify)


def bench_measurement_under_budget(check, measurements):
    """Whole pass stays interactive (wall-clock-budget pattern)."""

    def verify():
        elapsed = measurements["measurement_seconds"]
        assert elapsed < MEASUREMENT_BUDGET_S, (
            f"capacity measurements took {elapsed:.1f}s, "
            f"budget {MEASUREMENT_BUDGET_S}s"
        )

    check(verify)


def bench_matches_committed_baseline(check, measurements):
    """Committed BENCH_capacity.json must still clear the same floors.

    Only the floors are asserted (exact timings are machine-dependent)
    so the JSON cannot drift out of contract.
    """

    def verify():
        if not _BASELINE_PATH.exists():
            return
        baseline = json.loads(_BASELINE_PATH.read_text())
        assert baseline["replay_speedup"] >= CAPACITY_SPEEDUP_FLOOR
        assert baseline["events_per_second"] >= EVENTS_PER_SECOND_FLOOR
        assert baseline["sketch_max_rel_error"] <= SKETCH_REL_ERROR_CEIL
        assert baseline["replay_counts_equal"] is True
        assert (
            baseline["million_capacity_after"]
            == baseline["million_capacity_before"]
        )
        assert baseline["million_exemplars_trace_linked"] is True

    check(verify)


if __name__ == "__main__":
    figures = measure_all()
    _BASELINE_PATH.write_text(json.dumps(figures, indent=2) + "\n")
    for key, value in figures.items():
        print(f"{key:32s} {value}")
