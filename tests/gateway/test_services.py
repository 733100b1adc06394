"""Tests for machines, service-time models and micro-service queueing.

Requests reach a station as rows; the queueing tests send them through
an :class:`APIGateway` with zero routing overhead, so a record's times
are the station's own, and read the finished records off the gateway.
"""

import numpy as np
import pytest

from repro.gateway.gateway import APIGateway
from repro.gateway.services import (
    Machine,
    MicroService,
    Request,
    ServiceTimeModel,
)
from repro.gateway.simulation import Simulator


def make_service(concurrency=2, base=1.0, queue_capacity=10, jitter=0.0):
    return MicroService(
        name="svc",
        machine=Machine("host", vcpus=4, ram_gb=4),
        service_time=ServiceTimeModel({"tabular": base}, jitter=jitter, seed=0),
        concurrency=concurrency,
        queue_capacity=queue_capacity,
    )


def zero_overhead_gateway(service):
    """A fresh simulator and a gateway adding no routing time."""
    sim = Simulator()
    gateway = APIGateway(sim, overhead_seconds=0.0)
    gateway.register(service)
    return sim, gateway


class TestMachine:
    def test_valid(self):
        m = Machine("host", vcpus=4, ram_gb=8)
        assert not m.gpu

    def test_invalid_specs_raise(self):
        with pytest.raises(ValueError):
            Machine("host", vcpus=0, ram_gb=8)


class TestServiceTimeModel:
    def test_deterministic_without_jitter(self):
        model = ServiceTimeModel({"tabular": 0.5}, jitter=0.0)
        assert model.sample_batch("tabular", 1)[0] == 0.5

    def test_jitter_spreads_samples(self):
        model = ServiceTimeModel({"tabular": 1.0}, jitter=0.3, seed=0)
        samples = model.sample_batch("tabular", 50)
        assert np.std(samples) > 0.0
        assert all(s > 0 for s in samples)

    def test_unknown_payload_raises(self):
        model = ServiceTimeModel({"tabular": 0.5})
        with pytest.raises(KeyError):
            model.sample_batch("image", 1)

    def test_supports(self):
        model = ServiceTimeModel({"image": 0.5})
        assert model.supports("image")
        assert not model.supports("tabular")

    def test_invalid_config_raises(self):
        with pytest.raises(ValueError):
            ServiceTimeModel({})
        with pytest.raises(ValueError):
            ServiceTimeModel({"tabular": -1.0})
        with pytest.raises(ValueError):
            ServiceTimeModel({"tabular": 1.0}, jitter=-0.5)


class TestMicroServiceQueueing:
    def run_requests(self, service, n, spacing=0.0):
        sim, gateway = zero_overhead_gateway(service)
        done = []
        for i in range(n):
            req = Request(request_id=i, route="svc")
            sim.schedule(
                i * spacing,
                (lambda r: lambda: gateway.dispatch(r, done.append))(req),
            )
        sim.run()
        return done

    def test_parallel_within_concurrency(self):
        service = make_service(concurrency=2, base=1.0)
        done = self.run_requests(service, 2)
        assert all(r.response_time == pytest.approx(1.0) for r in done)

    def test_third_request_waits(self):
        service = make_service(concurrency=2, base=1.0)
        done = self.run_requests(service, 3)
        waits = sorted(r.wait_time for r in done)
        assert waits[:2] == [0.0, 0.0]
        assert waits[2] == pytest.approx(1.0)

    def test_fifo_order(self):
        service = make_service(concurrency=1, base=1.0)
        done = self.run_requests(service, 3, spacing=0.1)
        ids = [r.request.request_id for r in done]
        assert ids == [0, 1, 2]

    def test_queue_overflow_rejects(self):
        service = make_service(concurrency=1, base=1.0, queue_capacity=1)
        done = self.run_requests(service, 5)
        failures = [r for r in done if not r.success]
        assert len(failures) == 3
        assert service.rejected == 3
        assert all("503" in r.error for r in failures)

    def test_rejected_requests_have_zero_response_time(self):
        service = make_service(concurrency=1, base=1.0, queue_capacity=0)
        done = self.run_requests(service, 2)
        failed = [r for r in done if not r.success][0]
        assert failed.response_time == 0.0

    def test_unsupported_payload_fails_fast(self):
        service = make_service()
        sim, gateway = zero_overhead_gateway(service)
        done = []
        req = Request(request_id=1, route="svc", payload="image")
        sim.schedule(0.0, lambda: gateway.dispatch(req, done.append))
        sim.run()
        assert not done[0].success
        assert "unsupported payload" in done[0].error

    def test_queue_drains_after_busy_period(self):
        service = make_service(concurrency=1, base=0.5, queue_capacity=100)
        done = self.run_requests(service, 10)
        assert len(done) == 10
        assert service.queue_length == 0
        assert service.busy_workers == 0

    def test_peak_queue_tracked(self):
        service = make_service(concurrency=1, base=1.0, queue_capacity=100)
        self.run_requests(service, 5)
        assert service.peak_queue_length == 4

    def test_closed_loop_steady_state_response(self):
        """N closed-loop users on c workers: avg response ≈ N * s / c —
        the law the Fig. 8(c) calibration relies on."""
        service = make_service(concurrency=4, base=0.01, queue_capacity=1000)
        sim, gateway = zero_overhead_gateway(service)
        responses = []

        def make_user(remaining):
            def send():
                req = Request(request_id=remaining, route="svc")

                def on_done(record):
                    responses.append(record.response_time)
                    if remaining > 1:
                        make_user(remaining - 1)()

                gateway.dispatch(req, on_done)

            return send

        n_users, iters = 40, 50
        for u in range(n_users):
            sim.schedule(u * 0.001, make_user(iters))
        sim.run()
        expected = n_users * 0.01 / 4
        # sample the middle of the run: full ramp-up done, no wind-down yet
        mid = responses[len(responses) // 4 : len(responses) // 2]
        assert np.mean(mid) == pytest.approx(expected, rel=0.15)

    def test_invalid_concurrency(self):
        with pytest.raises(ValueError):
            make_service(concurrency=0)

    def test_invalid_queue_capacity(self):
        with pytest.raises(ValueError):
            make_service(queue_capacity=-1)

    def test_busy_seconds_accumulate(self):
        service = make_service(concurrency=2, base=1.0)
        self.run_requests(service, 4)
        assert service.busy_seconds == pytest.approx(4.0)

    def test_utilization_full_when_saturated(self):
        service = make_service(concurrency=2, base=1.0)
        self.run_requests(service, 4)  # 4 × 1 s on 2 workers → 2 s elapsed
        assert service.utilization(elapsed_seconds=2.0) == pytest.approx(1.0)

    def test_utilization_partial(self):
        service = make_service(concurrency=4, base=1.0)
        self.run_requests(service, 2)  # 2 busy workers of 4 for 1 s
        assert service.utilization(elapsed_seconds=1.0) == pytest.approx(0.5)

    def test_utilization_invalid_window_raises(self):
        with pytest.raises(ValueError):
            make_service().utilization(0.0)

    def test_concurrency_defaults_to_vcpus(self):
        service = MicroService(
            name="svc",
            machine=Machine("host", vcpus=6, ram_gb=4),
            service_time=ServiceTimeModel({"tabular": 0.1}),
        )
        assert service.concurrency == 6


class TestUtilizationTelemetry:
    def test_utilization_event_snapshot(self):
        service = make_service(concurrency=2, base=1.0)
        TestMicroServiceQueueing().run_requests(service, 4)
        event = service.utilization_event(elapsed_seconds=2.0)
        assert event.source == "svc"
        assert event.kind == "utilization"
        assert event.value == pytest.approx(1.0)
        assert event.attrs["concurrency"] == 2.0
        assert event.attrs["completed"] == 4.0
        assert event.attrs["rejected"] == 0.0
        assert event.attrs["queue_length"] == 0.0

    def test_event_tracks_rejections(self):
        service = make_service(concurrency=1, base=1.0, queue_capacity=1)
        TestMicroServiceQueueing().run_requests(service, 5)
        event = service.utilization_event(elapsed_seconds=2.0)
        assert event.attrs["rejected"] == 3.0
        assert event.attrs["peak_queue_length"] == 1.0

    def test_emit_utilization_publishes_to_bus(self):
        from repro.telemetry import TelemetryBus

        service = make_service(concurrency=2, base=1.0)
        TestMicroServiceQueueing().run_requests(service, 2)
        bus = TelemetryBus()
        spy = bus.subscribe("spy", topics="services")
        service.emit_utilization(bus, elapsed_seconds=1.0)
        events = spy.poll()
        assert len(events) == 1
        assert events[0].source == "svc"
        assert events[0].value == pytest.approx(1.0)

    def test_invalid_window_raises_before_building_event(self):
        with pytest.raises(ValueError):
            make_service().utilization_event(0.0)


class TestDequeDrainOrder:
    """set_concurrency and worker handoff must preserve FIFO arrival order
    now that the waiting room is a deque (of row ints and parked serving
    batches)."""

    def test_set_concurrency_drains_fifo(self):
        service = make_service(concurrency=1, base=1.0, queue_capacity=100)
        sim, gateway = zero_overhead_gateway(service)
        started = []

        for i in range(6):
            gateway.dispatch(Request(request_id=i, route="svc"), lambda r: None)
        sim.run(until=0.0)  # the zero-leg submits land
        # one running, five queued; record the order processing starts
        # (a fresh gateway log numbers its rows in dispatch order)
        original_start = service._start_row

        def tracking_start(row):
            started.append(row)
            return original_start(row)

        service._start_row = tracking_start
        service.set_concurrency(4, sim)
        assert started == [1, 2, 3]  # strictly from the queue head
        sim.run()
        ends = [r.request.request_id for r in gateway.records]
        assert sorted(ends) == list(range(6))

    def test_shrink_lowers_cap_without_eviction(self):
        service = make_service(concurrency=4, base=1.0, queue_capacity=100)
        sim, gateway = zero_overhead_gateway(service)
        for i in range(8):
            gateway.dispatch(Request(request_id=i, route="svc"), lambda r: None)
        sim.run(until=0.0)
        assert service.busy_workers == 4
        service.set_concurrency(1, sim)
        assert service.busy_workers == 4  # in-flight finish; pool drains down
        sim.run()
        assert len(gateway.records) == 8
        assert service.busy_workers == 0

    #: 4 workers, 12 one-second jobs, cap lowered to 1 at t=0: the four
    #: running jobs end at t=1 and retire three workers; the last one
    #: then serves the backlog one job per second until t=9.
    SHRINK_ENDS = [1.0] * 4 + [float(t) for t in range(2, 10)]
    SHRINK_BUSY = [3, 2, 1] + [1] * 8 + [0]

    def test_shrink_with_backlog_retires_workers_row_path(self):
        from repro.gateway.records import RecordLog

        service = make_service(concurrency=4, base=1.0, queue_capacity=100)
        sim = Simulator()
        log = RecordLog(initial_capacity=16, retain=True)
        ends, busy = [], []

        def sink(svc, row, ok):
            ends.append(sim.now)
            busy.append(svc.busy_workers)

        service.use_columnar(log, sim, sink)
        route_id = log.intern_route("svc")
        payload_id = log.intern_payload("tabular")
        for _ in range(12):
            service.submit_row(log.append(route_id, payload_id, 0.0))
        service.set_concurrency(1, sim)
        sim.run()
        assert ends == self.SHRINK_ENDS
        assert busy == self.SHRINK_BUSY

    def test_shrink_with_backlog_retires_workers_record_path(self):
        service = make_service(concurrency=4, base=1.0, queue_capacity=100)
        sim, gateway = zero_overhead_gateway(service)
        ends, busy = [], []

        def done(tracer, span, record):
            # the probe fires as the station finishes a request, after
            # the worker hand-off and before the response leg
            ends.append(record.end)
            busy.append(service.busy_workers)

        service.probe = done
        for i in range(12):
            gateway.dispatch(Request(request_id=i, route="svc"), lambda r: None)
        sim.run(until=0.0)
        service.set_concurrency(1, sim)
        sim.run()
        assert ends == self.SHRINK_ENDS
        assert busy == self.SHRINK_BUSY

    def test_set_concurrency_growth_starts_queued_rows(self):
        from repro.gateway.records import RecordLog

        service = make_service(concurrency=1, base=1.0, queue_capacity=100)
        sim = Simulator()
        log = RecordLog(initial_capacity=8, retain=True)
        done = []
        service.use_columnar(log, sim, lambda svc, row, ok: done.append(row))
        route_id = log.intern_route("svc")
        payload_id = log.intern_payload("tabular")
        rows = [log.append(route_id, payload_id, 0.0) for _ in range(5)]
        for row in rows:
            service.submit_row(row)
        assert service.queue_length == 4
        service.set_concurrency(5, sim)
        assert service.queue_length == 0
        assert service.busy_workers == 5
        sim.run()
        assert done == rows
