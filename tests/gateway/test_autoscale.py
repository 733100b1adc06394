"""Tests for the autoscaling controller (§V dynamic capacity)."""

import pytest

from repro.gateway import (
    LoadGenerator,
    Machine,
    MicroService,
    ServiceTimeModel,
    ThreadGroup,
    build_paper_deployment,
)
from repro.gateway.autoscale import Autoscaler, AutoscalerPolicy
from repro.gateway.gateway import APIGateway
from repro.gateway.simulation import Simulator


def slow_service(concurrency=1):
    return MicroService(
        name="svc",
        machine=Machine("host", vcpus=4, ram_gb=4),
        service_time=ServiceTimeModel({"tabular": 1.0}, jitter=0.0),
        concurrency=concurrency,
    )


class TestAutoscalerPolicy:
    def test_invalid_bounds_raise(self):
        with pytest.raises(ValueError):
            AutoscalerPolicy(min_workers=0)
        with pytest.raises(ValueError):
            AutoscalerPolicy(min_workers=5, max_workers=2)
        with pytest.raises(ValueError):
            AutoscalerPolicy(scale_up_ratio=0.0)


class TestSetConcurrency:
    def test_growth_drains_queue(self):
        sim = Simulator()
        gateway = APIGateway(sim, overhead_seconds=0.0)
        service = slow_service(concurrency=1)
        gateway.register(service)
        done = []
        from repro.gateway.services import Request

        for i in range(4):
            req = Request(i, "svc")
            sim.schedule(0.0, (lambda r: lambda: gateway.dispatch(r, done.append))(req))
        sim.run(until=0.5)
        assert service.queue_length == 3
        service.set_concurrency(4, sim)
        assert service.queue_length == 0
        assert service.busy_workers == 4
        sim.run()
        assert len(done) == 4

    def test_invalid_target_raises(self):
        with pytest.raises(ValueError):
            slow_service().set_concurrency(0, Simulator())


class TestAutoscaler:
    def run_with_scaler(self, policy, n_threads=12, horizon=60.0):
        sim = Simulator()
        gateway = APIGateway(sim, overhead_seconds=0.0)
        service = slow_service(concurrency=1)
        gateway.register(service)
        scaler = Autoscaler(sim, interval_seconds=0.5, policy=policy)
        scaler.watch(service)
        scaler.start(horizon_seconds=horizon)
        generator = LoadGenerator(sim, gateway)
        generator.add_thread_group(
            ThreadGroup(route="svc", n_threads=n_threads, iterations=2)
        )
        report = generator.run()
        return report, scaler, service

    def test_scales_up_under_pressure(self):
        __, scaler, service = self.run_with_scaler(
            AutoscalerPolicy(min_workers=1, max_workers=8)
        )
        ups = [e for e in scaler.events if e.to_workers > e.from_workers]
        assert ups, "queue pressure must trigger scale-ups"

    def test_scales_back_down_when_idle(self):
        __, scaler, service = self.run_with_scaler(
            AutoscalerPolicy(min_workers=1, max_workers=8)
        )
        assert service.concurrency == 1, "idle pool must shrink to the floor"

    def test_respects_max_workers(self):
        __, scaler, __ = self.run_with_scaler(
            AutoscalerPolicy(min_workers=1, max_workers=3), n_threads=20
        )
        assert all(e.to_workers <= 3 for e in scaler.events)

    def test_latency_improves_vs_static(self):
        static, __, __ = self.run_with_scaler(
            AutoscalerPolicy(min_workers=1, max_workers=1)
        )
        scaled, __, __ = self.run_with_scaler(
            AutoscalerPolicy(min_workers=1, max_workers=8)
        )
        assert scaled.avg_response_ms < static.avg_response_ms

    def test_scale_history_filtered(self):
        __, scaler, __ = self.run_with_scaler(
            AutoscalerPolicy(min_workers=1, max_workers=8)
        )
        assert all(e.service == "svc" for e in scaler.scale_history("svc"))
        assert scaler.scale_history("other") == []

    def test_double_start_raises(self):
        sim = Simulator()
        scaler = Autoscaler(sim)
        scaler.start(horizon_seconds=10.0)
        with pytest.raises(RuntimeError):
            scaler.start(horizon_seconds=10.0)

    def test_invalid_interval_raises(self):
        with pytest.raises(ValueError):
            Autoscaler(Simulator(), interval_seconds=0.0)

    def test_on_paper_deployment_image_lime(self):
        """Autoscaling the LIME host cuts the Fig. 8(d) latency."""
        sim, gateway = build_paper_deployment(seed=1)
        lime = gateway._routes["lime"]
        scaler = Autoscaler(
            sim,
            interval_seconds=1.0,
            policy=AutoscalerPolicy(min_workers=4, max_workers=16),
        )
        scaler.watch(lime)
        scaler.start(horizon_seconds=120.0)
        generator = LoadGenerator(sim, gateway)
        generator.add_thread_group(
            ThreadGroup(
                route="lime", n_threads=20, iterations=3, payload="image"
            )
        )
        scaled = generator.run().avg_response_ms

        sim2, gateway2 = build_paper_deployment(seed=1)
        generator2 = LoadGenerator(sim2, gateway2)
        generator2.add_thread_group(
            ThreadGroup(
                route="lime", n_threads=20, iterations=3, payload="image"
            )
        )
        static = generator2.run().avg_response_ms
        assert scaled < static
