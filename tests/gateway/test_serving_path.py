"""Serving path through the gateway tier: batching, cache gate, shedding.

Covers the columnar integration (``CapacityRunner`` with a
``ServingPolicy``: micro-batched stations, the simulated Zipf cache
gate, typed shed errors) and the record-path ``AdmittingGateway``
wrapper (priority-aware load shedding ahead of the rate limiter).
"""

import pytest

from repro.gateway import (
    APIGateway,
    AdmittingGateway,
    CapacityRunner,
    Machine,
    MicroService,
    PoissonArrivalGroup,
    RateLimitRule,
    RateLimitedGateway,
    Request,
    ServiceTimeModel,
    build_paper_deployment,
)
from repro.gateway.simulation import Simulator
from repro.serving import (
    PRIORITY_BATCH,
    PRIORITY_INTERACTIVE,
    ServingPolicy,
    is_shed_error,
)


def _capacity_run(policy, rate_rps=300.0, n_requests=600, seed=3):
    sim, gateway = build_paper_deployment(seed=seed)
    runner = CapacityRunner(sim, gateway, serving=policy, seed=seed)
    runner.add_open_loop(
        PoissonArrivalGroup(
            route="shap", rate_rps=rate_rps, n_requests=n_requests
        )
    )
    report = runner.run()
    return runner, report


class TestCapacityBatching:
    def test_high_rate_flushes_by_size(self):
        runner, report = _capacity_run(
            ServingPolicy(max_batch=4, batch_window=0.050), rate_rps=800.0
        )
        stats = runner.serving_summary()["shap"]
        assert report.n_errors == 0
        assert stats["by_size"] > 0
        assert stats["rows_batched"] == 600
        assert stats["mean_batch"] > 1.0
        assert stats["peak_batch"] <= 4

    def test_low_rate_flushes_by_deadline(self):
        runner, report = _capacity_run(
            ServingPolicy(max_batch=64, batch_window=0.002), rate_rps=50.0
        )
        stats = runner.serving_summary()["shap"]
        assert report.n_errors == 0
        assert stats["by_deadline"] > 0
        # nothing is lost between the triggers: every row served
        assert stats["rows_batched"] == 600
        assert report.n_requests == 600

    def test_batched_run_completes_same_workload_as_classic(self):
        __, batched = _capacity_run(
            ServingPolicy(max_batch=8, batch_window=0.004)
        )
        __, classic = _capacity_run(None)
        assert batched.n_requests == classic.n_requests == 600
        assert batched.n_errors == classic.n_errors == 0

    def test_serving_events_published(self):
        runner, report = _capacity_run(
            ServingPolicy(max_batch=8, batch_window=0.004, cache_size=32)
        )
        events = runner.serving_events(report.duration_seconds)
        sources = {event.source for event in events}
        assert "serving:shap" in sources
        assert "cache:shap" in sources


class TestCapacityCacheGate:
    def test_zipf_replay_hits_the_gate(self):
        runner, report = _capacity_run(
            ServingPolicy(max_batch=8, batch_window=0.004, cache_size=64)
        )
        stats = runner.serving_summary()["shap"]
        assert report.n_errors == 0
        assert stats["cache"]["hits"] > 0
        assert 0.0 < stats["cache_hit_rate"] < 1.0
        # cache hits complete at the gateway: fewer rows reach batches
        assert stats["rows_batched"] + stats["cache"]["hits"] == 600

    def test_gate_is_seeded_per_route(self):
        first, __ = _capacity_run(
            ServingPolicy(max_batch=8, batch_window=0.004, cache_size=64)
        )
        second, __ = _capacity_run(
            ServingPolicy(max_batch=8, batch_window=0.004, cache_size=64)
        )
        assert (
            first.serving_summary()["shap"]["cache"]
            == second.serving_summary()["shap"]["cache"]
        )


class TestCapacityShedding:
    def test_overload_sheds_typed_503s(self):
        runner, report = _capacity_run(
            ServingPolicy(max_batch=4, batch_window=0.002, shed_depth=4),
            rate_rps=2000.0,
            n_requests=1000,
        )
        stats = runner.serving_summary()["shap"]
        assert stats["shed_rows"] > 0
        assert report.n_errors == stats["shed_rows"]
        log = runner.log
        shed_codes = {
            int(log.v_error_codes[row])
            for row in range(report.n_requests)
            if log.v_error_codes[row]
        }
        assert shed_codes  # at least one shed error interned
        for code in shed_codes:
            assert is_shed_error(log.error_message(code))
        events = runner.serving_events(report.duration_seconds)
        assert any(e.source == "shed:shap" for e in events)


def _record_setup(shed_depth, priority_of=None, service_ms=50.0):
    sim = Simulator()
    gateway = APIGateway(sim, overhead_seconds=0.0)
    gateway.register(
        MicroService(
            name="svc",
            machine=Machine("host", vcpus=1, ram_gb=4),
            service_time=ServiceTimeModel(
                {"tabular": service_ms / 1000.0}, jitter=0.0
            ),
            concurrency=1,
        )
    )
    admitting = AdmittingGateway(
        gateway, shed_depth=shed_depth, priority_of=priority_of
    )
    return sim, admitting


class TestAdmittingGateway:
    def test_under_depth_everything_admitted(self):
        sim, gateway = _record_setup(shed_depth=8)
        results = []
        for i in range(4):
            gateway.dispatch(Request(i, "svc"), results.append)
        sim.run()
        assert all(r.success for r in results)
        assert gateway.shed == 0
        assert gateway.in_flight("svc") == 0

    def test_burst_over_depth_sheds_typed(self):
        sim, gateway = _record_setup(shed_depth=3)
        results = []
        for i in range(10):
            gateway.dispatch(Request(i, "svc"), results.append)
        sim.run()
        failures = [r for r in results if not r.success]
        assert len(failures) == 7
        assert gateway.shed == 7
        assert gateway.shed_by_route == {"svc": 7}
        for record in failures:
            assert is_shed_error(record.error)
        assert gateway.in_flight("svc") == 0

    def test_batch_priority_sheds_at_half_depth(self):
        def priority_of(request):
            # tag priority by id range: >= 100 is interactive traffic
            return (
                PRIORITY_INTERACTIVE
                if request.request_id >= 100
                else PRIORITY_BATCH
            )

        sim, gateway = _record_setup(shed_depth=4, priority_of=priority_of)
        batch_results, vip_results = [], []
        for i in range(4):
            gateway.dispatch(Request(i, "svc"), batch_results.append)
        for i in range(2):
            gateway.dispatch(Request(100 + i, "svc"), vip_results.append)
        sim.run()
        # batch traffic saturates at depth 2 (= shed_depth // 2)...
        shed_batch = [r for r in batch_results if not r.success]
        assert len(shed_batch) == 2
        # ...while interactive still fits under the full depth of 4
        assert all(r.success for r in vip_results)

    def test_composes_with_rate_limiter(self):
        sim = Simulator()
        gateway = APIGateway(sim, overhead_seconds=0.0)
        gateway.register(
            MicroService(
                name="svc",
                machine=Machine("host", vcpus=8, ram_gb=4),
                service_time=ServiceTimeModel({"tabular": 0.01}, jitter=0.0),
            )
        )
        limited = RateLimitedGateway(
            gateway, rules={"svc": RateLimitRule(100, 1.0)}
        )
        admitting = AdmittingGateway(limited, shed_depth=2)
        results = []
        for i in range(5):
            admitting.dispatch(Request(i, "svc"), results.append)
        sim.run()
        # base-gateway resolution worked through the limiter wrapper
        assert admitting.shed == 3
        assert len(gateway.records) == 5

    def test_shed_depth_validated(self):
        sim, gateway = _record_setup(shed_depth=1)
        with pytest.raises(ValueError):
            AdmittingGateway(gateway, shed_depth=0)
