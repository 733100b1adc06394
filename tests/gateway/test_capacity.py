"""Tests for the columnar capacity runner and its streaming summaries."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gateway.arrivals import PoissonArrivalGroup
from repro.gateway.capacity import ARRIVAL_CHUNK, CapacityRunner
from repro.gateway.cluster import build_paper_deployment
from repro.gateway.gateway import APIGateway
from repro.gateway.loadgen import LoadGenerator, SummaryReport, ThreadGroup
from repro.gateway.services import Machine, MicroService, ServiceTimeModel
from repro.gateway.simulation import Simulator
from repro.telemetry import KIND_LOAD_SUMMARY, KIND_RESPONSE, TelemetryBus
from repro.tracing import TraceCollector, Tracer

#: Sketch tolerance with slack for the 0.5% default relative accuracy.
SKETCH_REL = 0.011


def simple_deployment(
    base=0.05, concurrency=2, queue_capacity=50, jitter=0.0, seed=0,
    overhead=0.002,
):
    sim = Simulator()
    gateway = APIGateway(sim, overhead_seconds=overhead)
    gateway.register(
        MicroService(
            name="svc",
            machine=Machine("host", vcpus=4, ram_gb=4),
            service_time=ServiceTimeModel(
                {"tabular": base}, jitter=jitter, seed=seed
            ),
            concurrency=concurrency,
            queue_capacity=queue_capacity,
        )
    )
    return sim, gateway


class TestClosedLoopEquivalence:
    """With jitter=0 the columnar path must reproduce the record path
    exactly: identical queueing dynamics, counts and response times."""

    GROUPS = [
        ThreadGroup("shap", n_threads=40, rampup_seconds=1.0, iterations=25),
        ThreadGroup("impact", n_threads=10, rampup_seconds=1.0, iterations=3),
        ThreadGroup(
            "lime",
            n_threads=20,
            rampup_seconds=0.5,
            iterations=15,
            payload="image",
            think_time=0.01,
        ),
    ]

    @pytest.fixture(scope="class")
    def reports(self):
        sim, gateway = build_paper_deployment(seed=3, jitter=0.0)
        generator = LoadGenerator(sim, gateway)
        for group in self.GROUPS:
            generator.add_thread_group(group)
        record_report = generator.run()

        sim, gateway = build_paper_deployment(seed=3, jitter=0.0)
        runner = CapacityRunner(
            sim, gateway, retain_records=True, seed=3, series_slots=100_000
        )
        for group in self.GROUPS:
            runner.add_thread_group(group)
        columnar_report = runner.run()
        return record_report, columnar_report, runner

    def test_counts_match_exactly(self, reports):
        record, columnar, __ = reports
        assert columnar.n_requests == record.n_requests
        assert columnar.n_errors == record.n_errors
        assert columnar.error_rate == record.error_rate

    def test_latency_statistics_match(self, reports):
        record, columnar, __ = reports
        assert columnar.avg_response_ms == pytest.approx(
            record.avg_response_ms, rel=1e-9
        )
        for field in (
            "median_response_ms",
            "p95_response_ms",
            "p99_response_ms",
        ):
            assert getattr(columnar, field) == pytest.approx(
                getattr(record, field), rel=SKETCH_REL
            )
        assert columnar.max_response_ms == pytest.approx(
            record.max_response_ms, rel=1e-9
        )

    def test_per_route_breakdown_matches(self, reports):
        record, columnar, __ = reports
        assert set(columnar.per_route) == set(record.per_route)
        for route, expected in record.per_route.items():
            got = columnar.per_route[route]
            assert got.n_requests == expected.n_requests
            assert got.n_errors == expected.n_errors
            assert got.avg_response_ms == pytest.approx(
                expected.avg_response_ms, rel=1e-9
            )

    def test_timeline_matches_with_uncapped_reservoir(self, reports):
        record, columnar, __ = reports
        assert len(columnar.timeline) == len(record.timeline)
        for (end_a, ms_a), (end_b, ms_b) in zip(
            columnar.timeline, record.timeline
        ):
            assert end_a == pytest.approx(end_b, abs=1e-12)
            assert ms_a == pytest.approx(ms_b, abs=1e-9)

    def test_retained_log_oracle_agrees(self, reports):
        __, columnar, runner = reports
        oracle = SummaryReport.from_records(
            [r for r in runner.log.records() if r.end > 0.0],
            columnar.duration_seconds,
        )
        assert oracle.n_requests == columnar.n_requests
        assert oracle.n_errors == columnar.n_errors
        assert columnar.p95_response_ms == pytest.approx(
            oracle.p95_response_ms, rel=SKETCH_REL
        )

    def test_records_view_equals_loadgen_semantics(self, reports):
        __, __, runner = reports
        records = runner.records()
        assert len(records) == runner.log.size
        ok = [r for r in records if r.success]
        assert all(r.end >= r.start >= r.arrival for r in ok)


class TestOpenLoop:
    def test_all_requests_complete(self):
        sim, gateway = simple_deployment(base=0.01, concurrency=4)
        runner = CapacityRunner(sim, gateway, retain_records=True, seed=0)
        runner.add_open_loop(
            PoissonArrivalGroup("svc", rate_rps=200.0, n_requests=5000)
        )
        report = runner.run()
        assert report.n_requests == 5000
        assert runner.log.appended == 5000

    def test_under_capacity_throughput_tracks_rate(self):
        sim, gateway = simple_deployment(base=0.01, concurrency=8)
        runner = CapacityRunner(sim, gateway, retain_records=True, seed=1)
        runner.add_open_loop(
            PoissonArrivalGroup("svc", rate_rps=100.0, n_requests=20_000)
        )
        report = runner.run()
        assert report.n_errors == 0
        assert report.throughput_rps == pytest.approx(100.0, rel=0.05)

    def test_over_capacity_rejects_with_503(self):
        sim, gateway = simple_deployment(
            base=0.1, concurrency=1, queue_capacity=5
        )
        runner = CapacityRunner(sim, gateway, retain_records=True, seed=2)
        runner.add_open_loop(
            PoissonArrivalGroup("svc", rate_rps=500.0, n_requests=2000)
        )
        report = runner.run()
        assert report.n_errors > 0
        errors = [r for r in runner.records() if not r.success]
        assert all(r.error == "queue full (503)" for r in errors)
        # rejects cost exactly the two gateway legs
        assert all(
            r.response_time == pytest.approx(0.004) for r in errors
        )

    def test_ring_mode_memory_stays_flat(self):
        sim, gateway = simple_deployment(base=0.005, concurrency=4)
        runner = CapacityRunner(
            sim, gateway, retain_records=False, seed=3, initial_capacity=1024
        )
        runner.add_open_loop(
            PoissonArrivalGroup("svc", rate_rps=300.0, n_requests=100_000)
        )
        report = runner.run()
        assert report.n_requests == 100_000
        # memory is bounded by in-flight count, not run length
        assert runner.log.capacity == 1024
        assert runner.log.recycled > 90_000

    def test_ring_mode_refuses_records(self):
        sim, gateway = simple_deployment()
        runner = CapacityRunner(sim, gateway, retain_records=False, seed=0)
        runner.add_open_loop(
            PoissonArrivalGroup("svc", rate_rps=100.0, n_requests=10)
        )
        runner.run()
        with pytest.raises(ValueError):
            runner.records()

    def test_unknown_route_raises_at_bind(self):
        sim, gateway = simple_deployment()
        runner = CapacityRunner(sim, gateway, seed=0)
        with pytest.raises(KeyError):
            runner.add_open_loop(
                PoissonArrivalGroup("nope", rate_rps=1.0, n_requests=1)
            )

    @pytest.mark.parametrize("traced", [False, True])
    def test_heap_holds_only_pending_work(self, traced):
        # an in-flight row has at most one event (its completion), each
        # open-loop group one future arrival, and the sampler its own
        sim, gateway = simple_deployment(base=0.01, concurrency=4)
        if traced:
            gateway.tracer = Tracer(
                clock=lambda: sim.now,
                collector=TraceCollector(max_traces=8),
                seed=0,
            )
        runner = CapacityRunner(sim, gateway, seed=4, trace_every=50)
        groups = [
            PoissonArrivalGroup("svc", rate_rps=150.0, n_requests=20_000),
            PoissonArrivalGroup(
                "svc", rate_rps=100.0, n_requests=9000, start_at=3.0
            ),
        ]
        assert groups[0].n_requests > 2 * ARRIVAL_CHUNK
        for group in groups:
            runner.add_open_loop(group)
        excess = []

        def sample():
            excess.append(
                sim.pending_events - runner.in_flight - len(groups) - 1
            )
            if sim.now < 130.0:
                sim.schedule(0.05, sample)

        sim.schedule(0.0, sample)
        report = runner.run()
        assert report.n_requests == 29_000
        assert len(excess) > 2000
        assert max(excess) <= 0

    def test_group_starting_in_the_past_raises(self):
        sim, gateway = simple_deployment()
        runner = CapacityRunner(sim, gateway, seed=0)
        sim.schedule(5.0, lambda: None)
        sim.run(until=1.0)
        with pytest.raises(ValueError, match="into the past"):
            runner.add_open_loop(
                PoissonArrivalGroup("svc", rate_rps=100.0, n_requests=10)
            )


class TestDeterminism:
    def _run(self, seed, n_requests):
        sim, gateway = build_paper_deployment(seed=7)
        runner = CapacityRunner(sim, gateway, retain_records=False, seed=seed)
        runner.add_open_loop(
            PoissonArrivalGroup("shap", rate_rps=4000.0, n_requests=n_requests)
        )
        runner.add_open_loop(
            PoissonArrivalGroup(
                "lime", rate_rps=500.0, n_requests=n_requests // 8,
                payload="image",
            )
        )
        return runner.run()

    def test_same_seed_million_request_runs_identical(self):
        # the full SummaryReport dataclass compares per-route breakdowns,
        # timelines and every statistic — bit-identical reproduction
        first = self._run(seed=11, n_requests=1_000_000)
        second = self._run(seed=11, n_requests=1_000_000)
        assert first == second
        assert first.n_requests == 1_000_000 + 125_000

    def test_different_seed_differs(self):
        first = self._run(seed=1, n_requests=5000)
        second = self._run(seed=2, n_requests=5000)
        assert first != second


class TestTracingAndTelemetry:
    def test_trace_sampled_requests_produce_exemplars(self):
        collector = TraceCollector()
        sim = Simulator()
        tracer = Tracer(lambda: sim.now, collector=collector, seed=0)
        gateway = APIGateway(sim, overhead_seconds=0.002, tracer=tracer)
        gateway.register(
            MicroService(
                name="svc",
                machine=Machine("host", vcpus=4, ram_gb=4),
                service_time=ServiceTimeModel({"tabular": 0.05}, jitter=0.0),
                concurrency=2,
            )
        )
        runner = CapacityRunner(
            sim, gateway, retain_records=True, seed=0, trace_every=10
        )
        runner.add_thread_group(
            ThreadGroup("svc", n_threads=5, rampup_seconds=0.1, iterations=20)
        )
        report = runner.run()
        assert report.n_requests == 100
        traced = [
            stats for stats in runner.route_stats.values()
            if stats.exemplars.offered
        ]
        assert traced, "trace-sampled requests must offer exemplars"
        assert sum(s.exemplars.offered for s in traced) == 10
        events = runner.exemplar_events()
        assert events
        assert all(e.kind == KIND_RESPONSE for e in events)
        assert all(e.trace_id is not None for e in events)
        recorded = {tree.root.context.trace_id for tree in collector.traces()}
        assert {e.trace_id for e in events} <= recorded

    def test_summary_events_published_to_telemetry(self):
        bus = TelemetryBus()
        received = []
        bus.subscribe("probe", "gateway", callback=received.extend)
        sim, gateway = simple_deployment(base=0.01)
        runner = CapacityRunner(
            sim, gateway, retain_records=False, seed=0, telemetry=bus
        )
        runner.add_open_loop(
            PoissonArrivalGroup("svc", rate_rps=50.0, n_requests=500)
        )
        report = runner.run()
        summaries = [e for e in received if e.kind == KIND_LOAD_SUMMARY]
        assert summaries
        assert summaries[0].value == pytest.approx(report.avg_response_ms)
        # the columnar path never publishes per-request events
        responses = [e for e in received if e.kind == KIND_RESPONSE]
        assert len(responses) <= runner.exemplar_slots * len(runner.route_stats)

    def test_trace_every_is_ignored_without_a_recording_tracer(self):
        """Under the default NullTracer nothing is sampled: the runner
        never counts a send for sampling, and the run equals the
        ``trace_every=0`` run."""
        reports = []
        for trace_every in (0, 1, 7):
            sim, gateway = simple_deployment(jitter=0.2)
            runner = CapacityRunner(
                sim, gateway, seed=0, trace_every=trace_every
            )
            runner.add_thread_group(
                ThreadGroup("svc", n_threads=5, rampup_seconds=0.1,
                            iterations=20)
            )
            runner.add_open_loop(
                PoissonArrivalGroup("svc", rate_rps=50.0, n_requests=100)
            )
            reports.append(runner.run())
            assert not runner.tracing
            assert runner.sent == 0
        assert reports[1] == reports[0] and reports[2] == reports[0]

    def test_invalid_trace_every(self):
        sim, gateway = simple_deployment()
        with pytest.raises(ValueError):
            CapacityRunner(sim, gateway, trace_every=-1)


class TestSketchOracleProperty:
    """Property: across random thread-group mixes the streaming summary
    matches the record-based oracle — counts exactly, percentiles within
    the sketch tolerance."""

    @settings(max_examples=12, deadline=None)
    @given(
        groups=st.lists(
            st.tuples(
                st.sampled_from(["shap", "lime"]),
                st.integers(min_value=1, max_value=15),  # threads
                st.integers(min_value=1, max_value=8),  # iterations
                st.floats(min_value=0.0, max_value=1.0),  # rampup
            ),
            min_size=1,
            max_size=4,
        ),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_summary_matches_oracle(self, groups, seed):
        sim = Simulator()
        gateway = APIGateway(sim, overhead_seconds=0.001)
        for name in ("shap", "lime"):
            gateway.register(
                MicroService(
                    name=name,
                    machine=Machine("host", vcpus=2, ram_gb=4),
                    service_time=ServiceTimeModel(
                        {"tabular": 0.02}, jitter=0.2, seed=seed
                    ),
                    concurrency=2,
                    queue_capacity=3,  # small: force queue-full errors
                )
            )
        runner = CapacityRunner(
            sim, gateway, retain_records=True, seed=seed,
            series_slots=10_000,
        )
        for route, threads, iterations, rampup in groups:
            runner.add_thread_group(
                ThreadGroup(
                    route,
                    n_threads=threads,
                    rampup_seconds=rampup,
                    iterations=iterations,
                )
            )
        report = runner.run()
        oracle = SummaryReport.from_records(
            [r for r in runner.log.records() if r.end > 0.0],
            report.duration_seconds,
        )
        assert report.n_requests == oracle.n_requests
        assert report.n_errors == oracle.n_errors
        assert report.error_rate == oracle.error_rate
        if report.n_requests > report.n_errors:
            assert report.avg_response_ms == pytest.approx(
                oracle.avg_response_ms, rel=1e-6
            )
            assert report.max_response_ms == pytest.approx(
                oracle.max_response_ms, rel=1e-9
            )
            # the sketch guarantee is rank-based while np.percentile
            # interpolates, so check against the bracketing order stats
            n = runner.log.size
            done = runner.log.end[:n] > 0.0
            okay = done & runner.log.ok[:n]
            times = (
                runner.log.end[:n][okay] - runner.log.arrival[:n][okay]
            ) * 1000.0
            for q, field in (
                (0.5, "median_response_ms"),
                (0.95, "p95_response_ms"),
                (0.99, "p99_response_ms"),
            ):
                lo = float(np.quantile(times, q, method="lower"))
                hi = float(np.quantile(times, q, method="higher"))
                got = getattr(report, field)
                assert lo * (1 - SKETCH_REL) - 1e-9 <= got
                assert got <= hi * (1 + SKETCH_REL) + 1e-9
        assert set(report.per_route) == set(oracle.per_route)
        for route, expected in oracle.per_route.items():
            assert report.per_route[route].n_requests == expected.n_requests
            assert report.per_route[route].n_errors == expected.n_errors
