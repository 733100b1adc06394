"""Simulated pool tier: capacity/cluster wiring, poolcrash faults, panel.

With ``ServingPolicy(pool_workers=N)`` the discrete-event stations hand
flushed batches to N simulated pool workers instead of occupying their
own service slots; ``poolcrash:node@t`` fault events kill one worker
(instant restart + resubmission of its oldest in-flight batch) and the
cluster conservation ledger must still reconcile to zero lost requests
with no double-counted telemetry.
"""

import json

import pytest

from repro.cluster import (
    FAULT_POOL_CRASH,
    ClusterRunner,
    ClusterTopology,
    FaultPlan,
)
from repro.cluster.topology import RouteSpec
from repro.core import AIDashboard
from repro.gateway import (
    CapacityRunner,
    PoissonArrivalGroup,
    build_paper_deployment,
)
from repro.gateway.simulation import Simulator
from repro.serving import ServingPolicy
from repro.telemetry import KIND_POOL


def _capacity_run(policy, rate_rps=600.0, n_requests=400, seed=3):
    sim, gateway = build_paper_deployment(seed=seed)
    runner = CapacityRunner(sim, gateway, serving=policy, seed=seed)
    runner.add_open_loop(
        PoissonArrivalGroup(
            route="shap", rate_rps=rate_rps, n_requests=n_requests
        )
    )
    report = runner.run()
    return runner, report


def _cluster(policy, n_nodes=3, replication=3, seed=3):
    topology = ClusterTopology(
        Simulator(),
        [RouteSpec("shap", concurrency=1)],
        n_nodes=n_nodes,
        replication=replication,
        seed=seed,
    )
    runner = ClusterRunner(topology, seed=seed, serving=policy)
    return topology, runner


def _pool_policy(**overrides):
    defaults = dict(max_batch=4, batch_window=0.002, pool_workers=2)
    defaults.update(overrides)
    return ServingPolicy(**defaults)


class TestCapacityPool:
    def test_pooled_run_completes_and_publishes_counters(self):
        runner, report = _capacity_run(_pool_policy(pool_workers=4))
        assert report.n_errors == 0
        stats = runner.serving_summary()["shap"]
        pool = stats["pool"]
        assert pool["workers"] == 4
        assert pool["batches"] > 0
        # pooled batches keep the serving counters comparable: every
        # batched row went through the pool, none counted twice
        assert pool["rows"] == stats["rows_batched"]
        assert pool["batches"] == stats["batches"]
        assert pool["crashes"] == 0

    def test_pool_events_on_telemetry_stride(self):
        runner, report = _capacity_run(_pool_policy())
        events = runner.serving_events(report.duration_seconds)
        pool_events = [e for e in events if e.source == "pool:shap"]
        assert pool_events
        for event in pool_events:
            assert event.kind == KIND_POOL
            assert event.attrs["workers"] == 2.0
        assert pool_events[-1].attrs["rows"] > 0

    def test_workers_zero_disables_the_tier(self):
        runner, report = _capacity_run(_pool_policy(pool_workers=0))
        assert report.n_errors == 0
        stats = runner.serving_summary()["shap"]
        assert "pool" not in stats
        events = runner.serving_events(report.duration_seconds)
        assert not [e for e in events if e.source.startswith("pool:")]

    def test_pooled_and_inline_serve_identical_workloads(self):
        __, pooled = _capacity_run(_pool_policy(pool_workers=4))
        __, inline = _capacity_run(_pool_policy(pool_workers=0))
        assert pooled.n_requests == inline.n_requests == 400
        assert pooled.n_errors == inline.n_errors == 0


class TestPolicyValidation:
    def test_pool_fields_validated(self):
        with pytest.raises(ValueError):
            ServingPolicy(pool_workers=-1)


class TestFaultGrammar:
    def test_poolcrash_parses(self):
        plan = FaultPlan.parse("poolcrash:node-1@0.25")
        [event] = plan.events
        assert event.kind == FAULT_POOL_CRASH
        assert event.node_id == "node-1"
        assert event.at == 0.25

    def test_poolcrash_rejects_extra_times(self):
        with pytest.raises(ValueError):
            FaultPlan.parse("poolcrash:node-1@0.1:0.2")


class TestClusterPoolCrash:
    def test_crashes_resubmit_and_conserve(self):
        topology, runner = _cluster(_pool_policy())
        # crash the ring-preferred primary: that is where the load lands
        primary = topology.ring.preference("shap", 3)[0]
        runner.add_open_loop(
            PoissonArrivalGroup("shap", rate_rps=2000.0, n_requests=1000)
        )
        plan = FaultPlan()
        for at in (0.1, 0.15, 0.2):
            plan.add_pool_crash(primary, at)
        runner.apply_fault_plan(plan)
        report = runner.run()
        cons = runner.conservation()
        assert report.n_errors == 0
        assert cons["appended"] == cons["observed"] == 1000
        assert cons["in_flight"] == 0
        assert cons["pool_worker_crashes"] == 3
        # saturating load keeps batches in flight at the crash points,
        # so at least one actually redispatched work
        assert cons["pool_redispatched"] > 0
        summary = runner.serving_summary()["shap"]
        resubmitted = sum(
            n["pool"]["resubmitted"]
            for n in summary["nodes"].values()
            if "pool" in n
        )
        assert resubmitted == cons["pool_redispatched"]

    def test_node_crash_loses_pool_work_to_failover(self):
        topology, runner = _cluster(_pool_policy(), replication=2)
        primary = topology.ring.preference("shap", 2)[0]
        runner.add_open_loop(
            PoissonArrivalGroup("shap", rate_rps=800.0, n_requests=400)
        )
        runner.apply_fault_plan(FaultPlan().add_crash(primary, 0.25))
        runner.run()
        cons = runner.conservation()
        assert cons["appended"] == cons["observed"] == 400
        assert cons["in_flight"] == 0
        assert cons["lost_in_flight"] > 0  # pooled work died with the node
        assert cons["failovers"] >= cons["lost_in_flight"]

    def test_pool_events_are_node_qualified(self):
        __, runner = _cluster(_pool_policy())
        runner.add_open_loop(
            PoissonArrivalGroup("shap", rate_rps=500.0, n_requests=300)
        )
        runner.run()
        events = runner.serving_events(runner.sim.now)
        pool_events = [
            e for e in events if e.source.startswith("pool:")
        ]
        assert pool_events
        for event in pool_events:
            assert "@node-" in event.source
            assert event.node_id is not None
            assert event.kind == KIND_POOL


class TestDashboardPoolPanel:
    CAPACITY_SHAPE = {
        "shap": {
            "batches": 5,
            "rows_batched": 20,
            "mean_batch": 4.0,
            "shed_rows": 0,
            "pool": {
                "workers": 4,
                "batches": 5,
                "rows": 20,
                "crashes": 1,
                "restarts": 1,
                "resubmitted": 3,
                "peak_inflight": 2,
            },
        },
        "predict": {"batches": 2, "rows_batched": 4, "shed_rows": 0},
    }
    CLUSTER_SHAPE = {
        "shap": {
            "nodes": {
                "node-0": {
                    "batches": 3,
                    "rows_batched": 12,
                    "pool": {
                        "workers": 2,
                        "batches": 3,
                        "rows": 12,
                        "crashes": 0,
                        "restarts": 0,
                        "resubmitted": 0,
                        "peak_inflight": 2,
                    },
                },
                "node-1": {
                    "batches": 2,
                    "rows_batched": 8,
                    "pool": {
                        "workers": 2,
                        "batches": 2,
                        "rows": 8,
                        "crashes": 1,
                        "restarts": 1,
                        "resubmitted": 4,
                        "peak_inflight": 3,
                    },
                },
            }
        },
    }

    def test_capacity_shape_rows(self):
        [row] = AIDashboard._pool_rows(self.CAPACITY_SHAPE)
        assert row["route"] == "shap"  # predict has no pool: no row
        assert row["workers"] == 4
        assert row["mean_fan_out"] == 4.0
        assert row["crashes"] == 1 and row["resubmitted"] == 3

    def test_cluster_shape_aggregates_nodes(self):
        [row] = AIDashboard._pool_rows(self.CLUSTER_SHAPE)
        assert row["workers"] == 4  # summed across nodes
        assert row["batches"] == 5 and row["rows"] == 20
        assert row["peak_inflight"] == 3  # max, not sum
        assert row["crashes"] == 1 and row["resubmitted"] == 4

    def test_render_text_emits_pool_lines(self):
        dash = AIDashboard()
        dash.set_serving_provider(lambda: self.CAPACITY_SHAPE)
        text = dash.render_text()
        pool_lines = [
            line for line in text.splitlines() if line.startswith("POOL")
        ]
        assert len(pool_lines) == 1
        assert "workers  4" in pool_lines[0]
        assert "crashes 1 (resubmitted 3)" in pool_lines[0]

    def test_to_json_carries_pool_panel(self):
        dash = AIDashboard()
        dash.set_serving_provider(lambda: self.CLUSTER_SHAPE)
        payload = json.loads(dash.to_json())
        [row] = payload["serving"]["pool"]
        assert row["route"] == "shap"
        assert row["workers"] == 4
