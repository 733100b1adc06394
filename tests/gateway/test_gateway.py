"""Tests for the API gateway routing and overhead accounting."""

import pytest

from repro.gateway.gateway import APIGateway
from repro.gateway.services import (
    Machine,
    MicroService,
    Request,
    ServiceTimeModel,
)
from repro.gateway.simulation import Simulator


@pytest.fixture()
def setup():
    sim = Simulator()
    gateway = APIGateway(sim, overhead_seconds=0.01)
    service = MicroService(
        name="shap",
        machine=Machine("host", vcpus=2, ram_gb=4),
        service_time=ServiceTimeModel({"tabular": 0.5}, jitter=0.0),
    )
    gateway.register(service)
    return sim, gateway, service


class TestRouting:
    def test_successful_dispatch(self, setup):
        sim, gateway, __ = setup
        results = []
        gateway.dispatch(Request(1, "shap"), results.append)
        sim.run()
        assert len(results) == 1
        record = results[0]
        assert record.success
        # 0.01 in + 0.5 service + 0.01 out
        assert record.response_time == pytest.approx(0.52)

    def test_unknown_route_404(self, setup):
        sim, gateway, __ = setup
        results = []
        gateway.dispatch(
            Request(1, "nope"), lambda r: results.append((sim.now, r))
        )
        sim.run()
        [(answered, record)] = results
        assert not record.success
        assert "404" in record.error
        # answered one routing leg after dispatch, and the record says so
        assert record.end == answered
        assert record.response_time == pytest.approx(gateway.overhead_seconds)

    def test_records_collected(self, setup):
        sim, gateway, __ = setup
        for i in range(3):
            gateway.dispatch(Request(i, "shap"), lambda r: None)
        sim.run()
        assert len(gateway.records) == 3

    def test_register_duplicate_raises(self, setup):
        __, gateway, service = setup
        with pytest.raises(ValueError):
            gateway.register(service)

    def test_unregister_then_404(self, setup):
        sim, gateway, __ = setup
        gateway.unregister("shap")
        results = []
        gateway.dispatch(Request(1, "shap"), results.append)
        sim.run()
        assert not results[0].success

    def test_unregister_unknown_raises(self, setup):
        __, gateway, __ = setup
        with pytest.raises(KeyError):
            gateway.unregister("ghost")

    def test_routes_listed(self, setup):
        __, gateway, __ = setup
        assert gateway.routes == ["shap"]

    def test_negative_overhead_raises(self):
        with pytest.raises(ValueError):
            APIGateway(Simulator(), overhead_seconds=-0.1)

    def test_zero_overhead_supported(self):
        sim = Simulator()
        gateway = APIGateway(sim, overhead_seconds=0.0)
        service = MicroService(
            name="svc",
            machine=Machine("host", vcpus=1, ram_gb=1),
            service_time=ServiceTimeModel({"tabular": 1.0}, jitter=0.0),
        )
        gateway.register(service)
        results = []
        gateway.dispatch(Request(1, "svc"), results.append)
        sim.run()
        assert results[0].response_time == pytest.approx(1.0)


class TestRunnerBoundStations:
    def test_dispatch_to_a_runner_bound_station_raises(self):
        from repro.gateway import CapacityRunner, StationBoundError
        from repro.gateway.cluster import build_paper_deployment

        sim, gateway = build_paper_deployment(seed=0)
        runner = CapacityRunner(sim, gateway)
        runner.bind("shap")
        with pytest.raises(StationBoundError, match="'shap'"):
            gateway.dispatch(Request(1, "shap"), lambda record: None)
        # a route no runner drives still dispatches on the gateway's log
        results = []
        gateway.dispatch(Request(2, "lime"), results.append)
        sim.run()
        assert [r.success for r in results] == [True]
