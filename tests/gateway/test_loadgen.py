"""Tests for the JMeter-equivalent load generator and summary report."""

import numpy as np
import pytest

from repro.gateway.gateway import APIGateway
from repro.gateway.loadgen import LoadGenerator, SummaryReport, ThreadGroup
from repro.gateway.services import (
    Machine,
    MicroService,
    RequestRecord,
    Request,
    ServiceTimeModel,
)
from repro.gateway.simulation import Simulator
from repro.telemetry import (
    KIND_LOAD_SUMMARY,
    KIND_RESPONSE,
    TelemetryBus,
)


def simple_deployment(base=0.1, concurrency=2, seed=0):
    sim = Simulator()
    gateway = APIGateway(sim, overhead_seconds=0.0)
    gateway.register(
        MicroService(
            name="svc",
            machine=Machine("host", vcpus=4, ram_gb=4),
            service_time=ServiceTimeModel({"tabular": base}, jitter=0.0, seed=seed),
            concurrency=concurrency,
        )
    )
    return sim, gateway


class TestThreadGroup:
    def test_valid(self):
        tg = ThreadGroup(route="svc", n_threads=5)
        assert tg.iterations == 1

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            ThreadGroup(route="svc", n_threads=0)
        with pytest.raises(ValueError):
            ThreadGroup(route="svc", n_threads=1, iterations=0)
        with pytest.raises(ValueError):
            ThreadGroup(route="svc", n_threads=1, rampup_seconds=-1)


class TestLoadGenerator:
    def test_every_request_gets_a_response(self):
        sim, gateway = simple_deployment()
        gen = LoadGenerator(sim, gateway)
        gen.add_thread_group(ThreadGroup(route="svc", n_threads=5, iterations=3))
        report = gen.run()
        assert report.n_requests == 15
        assert report.n_errors == 0

    def test_closed_loop_waits_for_response(self):
        """One thread, two iterations, 1s service → second request starts
        after the first response."""
        sim, gateway = simple_deployment(base=1.0, concurrency=1)
        gen = LoadGenerator(sim, gateway)
        gen.add_thread_group(ThreadGroup(route="svc", n_threads=1, iterations=2))
        report = gen.run()
        assert report.duration_seconds == pytest.approx(2.0)

    def test_think_time_spaces_requests(self):
        sim, gateway = simple_deployment(base=1.0, concurrency=1)
        gen = LoadGenerator(sim, gateway)
        gen.add_thread_group(
            ThreadGroup(route="svc", n_threads=1, iterations=2, think_time=3.0)
        )
        report = gen.run()
        assert report.duration_seconds == pytest.approx(5.0)

    def test_rampup_staggers_starts(self):
        sim, gateway = simple_deployment(base=0.001, concurrency=10)
        gen = LoadGenerator(sim, gateway)
        gen.add_thread_group(
            ThreadGroup(route="svc", n_threads=10, rampup_seconds=10.0)
        )
        report = gen.run()
        # last thread starts at 9s
        assert report.duration_seconds == pytest.approx(9.001, abs=0.01)

    def test_multiple_groups(self):
        sim, gateway = simple_deployment()
        gen = LoadGenerator(sim, gateway)
        gen.add_thread_group(ThreadGroup(route="svc", n_threads=2))
        gen.add_thread_group(ThreadGroup(route="svc", n_threads=3))
        report = gen.run()
        assert report.n_requests == 5


class TestActiveThreadsListener:
    def test_one_entry_per_response(self):
        sim, gateway = simple_deployment()
        gen = LoadGenerator(sim, gateway)
        gen.add_thread_group(ThreadGroup(route="svc", n_threads=6, iterations=2))
        gen.run()
        assert len(gen.active_threads) == 12

    def test_single_user_always_one_active(self):
        sim, gateway = simple_deployment()
        gen = LoadGenerator(sim, gateway)
        gen.add_thread_group(ThreadGroup(route="svc", n_threads=1, iterations=4))
        gen.run()
        assert all(active == 1 for active, __ in gen.active_threads)

    def test_burst_reaches_full_concurrency(self):
        sim, gateway = simple_deployment(base=1.0, concurrency=1)
        gen = LoadGenerator(sim, gateway)
        gen.add_thread_group(
            ThreadGroup(route="svc", n_threads=8, rampup_seconds=0.0)
        )
        gen.run()
        assert max(active for active, __ in gen.active_threads) == 8

    def test_response_time_grows_with_active_threads(self):
        """The Fig. 8(b) listener premise: more active threads on a
        saturated service → longer responses."""
        sim, gateway = simple_deployment(base=0.5, concurrency=1)
        gen = LoadGenerator(sim, gateway)
        gen.add_thread_group(
            ThreadGroup(route="svc", n_threads=6, rampup_seconds=0.0)
        )
        gen.run()
        # responses come back FIFO; each waited one service slot longer
        times = [ms for __, ms in gen.active_threads]
        assert times == sorted(times)


class TestSummaryReport:
    def test_empty_records(self):
        report = SummaryReport.from_records([], duration=1.0)
        assert report.n_requests == 0
        assert report.error_rate == 0.0

    def test_statistics(self):
        records = []
        for i, rt in enumerate((0.1, 0.2, 0.3)):
            rec = RequestRecord(
                request=Request(i, "svc"), arrival=0.0, start=0.0, end=rt
            )
            records.append(rec)
        report = SummaryReport.from_records(records, duration=1.0)
        assert report.avg_response_ms == pytest.approx(200.0)
        assert report.median_response_ms == pytest.approx(200.0)
        assert report.max_response_ms == pytest.approx(300.0)
        assert report.throughput_rps == 3.0

    def test_error_rate(self):
        ok = RequestRecord(request=Request(1, "svc"), arrival=0.0, end=0.1)
        bad = RequestRecord(
            request=Request(2, "svc"), arrival=0.0, end=0.0, success=False
        )
        report = SummaryReport.from_records([ok, bad], duration=1.0)
        assert report.error_rate == 0.5

    def test_all_errors_reports_zero_stats_not_fabricated_sample(self):
        # regression: the seed path fabricated times_ms = [0.0] when every
        # record failed, reporting avg/median/p95 "latencies" of a sample
        # that never existed
        records = [
            RequestRecord(
                request=Request(i, "svc"),
                arrival=0.0,
                end=0.0,
                success=False,
                error="queue full (503)",
            )
            for i in range(4)
        ]
        report = SummaryReport.from_records(records, duration=2.0)
        assert report.n_requests == 4
        assert report.n_errors == 4
        assert report.error_rate == 1.0
        assert report.avg_response_ms == 0.0
        assert report.median_response_ms == 0.0
        assert report.p95_response_ms == 0.0
        assert report.p99_response_ms == 0.0
        assert report.max_response_ms == 0.0
        assert report.throughput_rps == 0.0  # no *successful* samples
        assert report.timeline == []
        assert np.isfinite(report.avg_response_ms)

    def test_all_errors_single_route_within_mixed_report(self):
        records = [
            RequestRecord(request=Request(1, "good"), arrival=0.0, end=0.1),
            RequestRecord(
                request=Request(2, "bad"), arrival=0.0, end=0.0, success=False
            ),
        ]
        report = SummaryReport.from_records(records, duration=1.0)
        bad = report.per_route["bad"]
        assert bad.n_errors == bad.n_requests == 1
        assert bad.avg_response_ms == 0.0
        assert report.per_route["good"].error_rate == 0.0

    def test_grouped_pass_matches_per_route_refiltering(self):
        # the single grouped pass must agree with the seed's
        # filter-per-route behaviour on every per-route statistic
        rng = np.random.default_rng(7)
        records = []
        for i in range(300):
            route = ("a", "b", "c")[i % 3]
            rt = float(rng.uniform(0.01, 0.5))
            records.append(
                RequestRecord(
                    request=Request(i, route),
                    arrival=0.0,
                    end=rt,
                    success=bool(rng.random() > 0.1),
                )
            )
        report = SummaryReport.from_records(records, duration=5.0)
        for route in ("a", "b", "c"):
            subset = [r for r in records if r.request.route == route]
            expected = SummaryReport.from_records(subset, duration=5.0)
            got = report.per_route[route]
            assert got.n_requests == expected.n_requests
            assert got.n_errors == expected.n_errors
            assert got.avg_response_ms == pytest.approx(
                expected.avg_response_ms
            )
            assert got.p95_response_ms == pytest.approx(
                expected.p95_response_ms
            )
            assert got.timeline == expected.timeline

    def test_per_route_breakdown(self):
        records = [
            RequestRecord(request=Request(1, "a"), arrival=0.0, end=0.1),
            RequestRecord(request=Request(2, "b"), arrival=0.0, end=0.3),
        ]
        report = SummaryReport.from_records(records, duration=1.0)
        assert set(report.per_route) == {"a", "b"}
        assert report.per_route["b"].avg_response_ms == pytest.approx(300.0)

    def test_timeline_sorted(self):
        records = [
            RequestRecord(request=Request(1, "a"), arrival=0.0, end=0.5),
            RequestRecord(request=Request(2, "a"), arrival=0.0, end=0.2),
        ]
        report = SummaryReport.from_records(records, duration=1.0)
        times = [t for t, __ in report.timeline]
        assert times == sorted(times)

    def test_render_text(self):
        report = SummaryReport.from_records(
            [RequestRecord(request=Request(1, "a"), arrival=0.0, end=0.25)],
            duration=1.0,
        )
        text = report.render_text()
        assert "avg=250.0ms" in text
        assert "err=0.0%" in text


class TestLoadTelemetry:
    def run_with_bus(self, iterations=2, n_threads=3):
        sim, gateway = simple_deployment()
        bus = TelemetryBus()
        spy = bus.subscribe("spy", topics="gateway")
        gen = LoadGenerator(sim, gateway, telemetry=bus)
        gen.add_thread_group(
            ThreadGroup(route="svc", n_threads=n_threads, iterations=iterations)
        )
        report = gen.run()
        return report, spy.poll()

    def test_one_response_event_per_request(self):
        report, events = self.run_with_bus(iterations=2, n_threads=3)
        responses = [e for e in events if e.kind == KIND_RESPONSE]
        assert len(responses) == report.n_requests == 6
        assert all(e.source == "svc" for e in responses)
        assert all(e.attrs["success"] == 1.0 for e in responses)

    def test_response_events_carry_listener_series(self):
        """The Fig. 8(b) listener data rides on the bus: per-response
        active-thread counts and wait times."""
        __, events = self.run_with_bus(iterations=1, n_threads=4)
        responses = [e for e in events if e.kind == KIND_RESPONSE]
        assert all("active_threads" in e.attrs for e in responses)
        assert all("wait_ms" in e.attrs for e in responses)

    def test_summary_event_appended_after_run(self):
        report, events = self.run_with_bus()
        summaries = [e for e in events if e.kind == KIND_LOAD_SUMMARY]
        assert len(summaries) == 1
        summary = summaries[0]
        assert summary.source == "loadtest"
        assert summary.value == pytest.approx(report.avg_response_ms)
        assert summary.attrs["throughput_rps"] == pytest.approx(
            report.throughput_rps
        )
        assert summary.timestamp == pytest.approx(report.duration_seconds)

    def test_no_telemetry_means_no_publication(self):
        sim, gateway = simple_deployment()
        gen = LoadGenerator(sim, gateway)
        gen.add_thread_group(ThreadGroup(route="svc", n_threads=2))
        gen.run()  # must not raise without a telemetry target


class TestSummaryReportToEvents:
    def make_multiroute_report(self):
        records = [
            RequestRecord(request=Request(1, "a"), arrival=0.0, end=0.1),
            RequestRecord(request=Request(2, "b"), arrival=0.0, end=0.3),
        ]
        return SummaryReport.from_records(records, duration=1.0)

    def test_per_route_sub_events(self):
        events = self.make_multiroute_report().to_events()
        assert [e.source for e in events] == [
            "loadtest",
            "loadtest.a",
            "loadtest.b",
        ]
        assert all(e.kind == KIND_LOAD_SUMMARY for e in events)
        by_source = {e.source: e for e in events}
        assert by_source["loadtest.b"].value == pytest.approx(300.0)

    def test_explicit_timestamp_propagates(self):
        events = self.make_multiroute_report().to_events(timestamp=42.0)
        assert all(e.timestamp == 42.0 for e in events)

    def test_attrs_cover_the_report(self):
        event = self.make_multiroute_report().to_events()[0]
        for key in (
            "n_requests",
            "p95_response_ms",
            "throughput_rps",
            "error_rate",
        ):
            assert key in event.attrs
