"""Tests for the rate-limiting gateway plugin."""

import pytest

from repro.gateway import (
    AdmittingGateway,
    APIGateway,
    LoadGenerator,
    Machine,
    MicroService,
    RateLimitRule,
    RateLimitedGateway,
    Request,
    ServiceTimeModel,
    ThreadGroup,
)
from repro.gateway.simulation import Simulator


def make_setup(max_requests=3, window=1.0):
    sim = Simulator()
    inner = APIGateway(sim, overhead_seconds=0.0)
    inner.register(
        MicroService(
            name="svc",
            machine=Machine("host", vcpus=8, ram_gb=4),
            service_time=ServiceTimeModel({"tabular": 0.01}, jitter=0.0),
        )
    )
    limited = RateLimitedGateway(
        inner, rules={"svc": RateLimitRule(max_requests, window)}
    )
    return sim, limited


class TestRateLimitRule:
    def test_invalid_params_raise(self):
        with pytest.raises(ValueError):
            RateLimitRule(max_requests=0)
        with pytest.raises(ValueError):
            RateLimitRule(max_requests=5, window_seconds=0.0)


class TestRateLimitedGateway:
    def test_within_budget_passes(self):
        sim, gateway = make_setup(max_requests=5)
        results = []
        for i in range(3):
            gateway.dispatch(Request(i, "svc"), results.append)
        sim.run()
        assert all(r.success for r in results)
        assert gateway.rejected == 0

    def test_burst_over_budget_rejected(self):
        sim, gateway = make_setup(max_requests=3)
        results = []
        for i in range(10):
            gateway.dispatch(Request(i, "svc"), results.append)
        sim.run()
        failures = [r for r in results if not r.success]
        assert len(failures) == 7
        assert all("429" in r.error for r in failures)
        assert gateway.rejected == 7

    def test_window_slides(self):
        sim, gateway = make_setup(max_requests=2, window=1.0)
        results = []

        def burst(start_id):
            def fire():
                for i in range(2):
                    gateway.dispatch(Request(start_id + i, "svc"), results.append)

            return fire

        sim.schedule(0.0, burst(0))
        sim.schedule(2.0, burst(10))  # new window: budget refreshed
        sim.run()
        assert all(r.success for r in results)

    def test_unlimited_routes_unaffected(self):
        sim = Simulator()
        inner = APIGateway(sim, overhead_seconds=0.0)
        inner.register(
            MicroService(
                name="svc",
                machine=Machine("host", vcpus=4, ram_gb=4),
                service_time=ServiceTimeModel({"tabular": 0.01}, jitter=0.0),
            )
        )
        gateway = RateLimitedGateway(inner)  # no rules
        results = []
        for i in range(50):
            gateway.dispatch(Request(i, "svc"), results.append)
        sim.run()
        assert all(r.success for r in results)

    def test_set_rule_later(self):
        sim, gateway = make_setup(max_requests=100)
        gateway.set_rule("svc", RateLimitRule(max_requests=1))
        results = []
        gateway.dispatch(Request(1, "svc"), results.append)
        gateway.dispatch(Request(2, "svc"), results.append)
        sim.run()
        assert sum(1 for r in results if not r.success) == 1

    def test_works_with_load_generator(self):
        """The limiter plugs into the JMeter harness; error rate appears."""
        sim, gateway = make_setup(max_requests=5, window=10.0)
        generator = LoadGenerator(sim, gateway)
        generator.add_thread_group(
            ThreadGroup(route="svc", n_threads=20, rampup_seconds=0.1)
        )
        report = generator.run()
        assert report.n_requests == 20
        assert report.n_errors == 15
        assert report.error_rate == pytest.approx(0.75)

    def test_rejections_recorded_at_gateway(self):
        sim, gateway = make_setup(max_requests=1)
        results = []
        gateway.dispatch(Request(1, "svc"), results.append)
        gateway.dispatch(Request(2, "svc"), results.append)
        sim.run()
        assert len(gateway.gateway.records) == 2


class TestStackedWithAdmission:
    """The limiter and the admission wrapper stack in either order: each
    answers its own rejections on the base gateway, and every request is
    recorded there exactly once."""

    N_THREADS = 12
    ITERATIONS = 4

    @pytest.mark.parametrize("limiter_outside", [True, False])
    def test_load_through_the_stack(self, limiter_outside):
        sim = Simulator()
        base = APIGateway(sim, overhead_seconds=0.001)
        base.register(
            MicroService(
                name="svc",
                machine=Machine("host", vcpus=2, ram_gb=4),
                service_time=ServiceTimeModel({"tabular": 0.02}, jitter=0.0),
            )
        )
        rules = {"svc": RateLimitRule(5, 0.05)}
        if limiter_outside:
            admission = AdmittingGateway(base, shed_depth=4)
            limiter = front = RateLimitedGateway(admission, rules)
        else:
            limiter = RateLimitedGateway(base, rules)
            admission = front = AdmittingGateway(limiter, shed_depth=4)
        generator = LoadGenerator(sim, front)
        generator.add_thread_group(
            ThreadGroup(
                route="svc",
                n_threads=self.N_THREADS,
                rampup_seconds=0.0,
                iterations=self.ITERATIONS,
            )
        )
        report = generator.run()
        sent = self.N_THREADS * self.ITERATIONS
        assert report.n_requests == sent
        assert limiter.rejected > 0 and admission.shed > 0
        errors = [r.error for r in generator.responses if not r.success]
        assert errors.count("429 rate limited") == limiter.rejected
        shed = [e for e in errors if e.startswith("503 shed")]
        assert len(shed) == admission.shed
        assert len(errors) == limiter.rejected + admission.shed
        # every request recorded exactly once, on the base gateway
        assert sorted(id(r.request) for r in base.records) == sorted(
            id(r.request) for r in generator.responses
        )
        assert len(base.records) == sent
        assert admission.in_flight("svc") == 0
