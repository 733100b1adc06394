"""Per-node serving: batched stations, cluster shedding, WAL attribution.

The cluster variant of the serving layer runs one micro-batcher per
(node, route) station and a cluster-level cache gate per route.  The
regression that matters most rides at the end: shed requests publish
``shed:<route>`` markers on the availability stride, and those markers
must survive bus → WAL → replay → rollup so
:func:`repro.slo.attribute_unavailability` can split "deliberately
shed" from "failed" offline.
"""

import pytest

from repro.cluster import ClusterRunner, ClusterTopology, FaultPlan
from repro.cluster.topology import RouteSpec
from repro.gateway.arrivals import PoissonArrivalGroup
from repro.gateway.loadgen import ThreadGroup
from repro.gateway.simulation import Simulator
from repro.serving import ServingPolicy, is_shed_error
from repro.slo import attribute_unavailability
from repro.telemetry import (
    TelemetryPipeline,
    TumblingWindowAggregator,
    replay,
)


def _cluster(policy, n_nodes=4, replication=2, seed=3, **kwargs):
    topology = ClusterTopology(
        Simulator(),
        [RouteSpec("shap", concurrency=2)],
        n_nodes=n_nodes,
        replication=replication,
        seed=seed,
    )
    runner = ClusterRunner(topology, seed=seed, serving=policy, **kwargs)
    return topology, runner


class TestPerNodeBatching:
    def test_healthy_run_conserves_and_batches(self):
        __, runner = _cluster(ServingPolicy(max_batch=4, batch_window=0.005))
        runner.add_thread_group(
            ThreadGroup("shap", 20, rampup_seconds=0.2, iterations=10)
        )
        report = runner.run()
        cons = runner.conservation()
        assert cons["appended"] == cons["observed"] == 200
        assert cons["in_flight"] == 0
        assert cons["final_failures"] == 0
        assert report.n_errors == 0
        stats = runner.serving_summary()["shap"]
        served = {
            node_id: node
            for node_id, node in stats["nodes"].items()
            if node["batches"] > 0
        }
        assert served  # at least one station actually fused work
        assert sum(n["rows_batched"] for n in served.values()) == 200
        assert all(n["mean_batch"] >= 1.0 for n in served.values())

    def test_cache_gate_short_circuits_at_dispatch(self):
        __, runner = _cluster(
            ServingPolicy(max_batch=4, batch_window=0.005, cache_size=64)
        )
        runner.add_open_loop(
            PoissonArrivalGroup("shap", rate_rps=300.0, n_requests=400)
        )
        runner.run()
        cons = runner.conservation()
        assert cons["observed"] == 400
        assert cons["cache_hits"] > 0
        summary = runner.serving_summary()
        assert summary["_totals"]["cache_hits"] == cons["cache_hits"]
        hit_counter = summary["shap"]["cache"]["hits"]
        assert hit_counter == cons["cache_hits"]
        batched = sum(
            n["rows_batched"] for n in summary["shap"]["nodes"].values()
        )
        assert batched + cons["cache_hits"] == 400

    def test_serving_events_are_node_qualified(self):
        __, runner = _cluster(
            ServingPolicy(max_batch=4, batch_window=0.005, cache_size=32)
        )
        runner.add_thread_group(
            ThreadGroup("shap", 10, rampup_seconds=0.2, iterations=5)
        )
        runner.run()
        events = runner.serving_events(runner.sim.now)
        serving = [e for e in events if e.source.startswith("serving:")]
        assert serving
        for event in serving:
            assert "@node-" in event.source
            assert event.node_id is not None
        assert any(e.source == "cache:shap" for e in events)


class TestClusterShedding:
    def test_shed_is_final_and_typed(self):
        __, runner = _cluster(
            ServingPolicy(max_batch=4, batch_window=0.002, shed_depth=2),
            retain_records=True,
        )
        runner.add_open_loop(
            PoissonArrivalGroup("shap", rate_rps=3000.0, n_requests=600)
        )
        report = runner.run()
        cons = runner.conservation()
        assert cons["shed_requests"] > 0
        # shedding is deliberate refusal, not failure to be retried:
        # every shed lands as a final failure with zero failovers for it
        assert report.n_errors == cons["shed_requests"]
        assert cons["observed"] == 600
        assert cons["in_flight"] == 0
        log = runner.log
        shed_messages = {
            log.error_message(int(log.v_error_codes[row]))
            for row in range(600)
            if log.v_error_codes[row]
        }
        assert shed_messages
        for message in shed_messages:
            assert is_shed_error(message)
            assert " at node-" in message  # node-qualified end to end

    def test_crash_mid_batch_conserves(self):
        topology, runner = _cluster(
            ServingPolicy(max_batch=4, batch_window=0.005)
        )
        primary = topology.ring.preference("shap", 2)[0]
        runner.add_open_loop(
            PoissonArrivalGroup("shap", rate_rps=400.0, n_requests=400)
        )
        runner.apply_fault_plan(FaultPlan().add_crash(primary, 0.25))
        runner.run()
        cons = runner.conservation()
        assert cons["appended"] == cons["observed"] == 400
        assert cons["in_flight"] == 0
        assert cons["lost_in_flight"] > 0  # the crash really hit batches
        assert cons["failovers"] >= cons["lost_in_flight"]

    def test_failover_goes_through_the_replica_batcher(self):
        # a retried row is one more request to the replica: it joins the
        # micro-batcher and faces admission control like any other
        policy = ServingPolicy(max_batch=4, batch_window=0.004, shed_depth=8)
        topology, runner = _cluster(policy, n_nodes=3)
        primary, replica = topology.ring.preference("shap", 2)
        runner.add_open_loop(
            PoissonArrivalGroup("shap", rate_rps=600.0, n_requests=1800)
        )
        runner.apply_fault_plan(FaultPlan().add_crash(primary, 1.0))
        runner.run()
        cons = runner.conservation()
        assert cons["failovers"] > 0
        assert cons["appended"] == cons["observed"] == 1800
        station = topology.nodes[replica].services["shap"]
        assert station.completed_rows > 0
        assert station.completed_rows == station.rows_batched


class TestShedAttributionSurvivesReplay:
    def test_wal_replay_separates_shed_from_failed(self, tmp_path):
        wal_dir = str(tmp_path / "wal")
        pipeline = TelemetryPipeline(
            wal_dir=wal_dir, window_seconds=1.0, auto_pump_every=256
        )
        pipeline.start()
        __, runner = _cluster(
            ServingPolicy(max_batch=4, batch_window=0.005, shed_depth=3),
            telemetry=pipeline,
            response_every=1,
        )
        runner.add_open_loop(
            PoissonArrivalGroup("shap", rate_rps=2000.0, n_requests=800)
        )
        report = runner.run()
        pipeline.flush()
        pipeline.flush()
        assert runner.shed_requests > 0
        assert report.n_errors == runner.shed_requests

        # cold path: WAL -> replay -> rollup -> attribution
        aggregator = TumblingWindowAggregator(window_seconds=1.0, cascades=())
        aggregator.ingest_many(list(replay(wal_dir)))
        aggregator.flush()
        attributions = attribute_unavailability(aggregator.windows())
        shap = [a for a in attributions if a.route == "shap"]
        assert shap
        total_shed = sum(a.shed for a in shap)
        total_failures = sum(a.failures for a in shap)
        # every unavailability tick is attributed to deliberate shedding
        assert total_shed == runner.shed_requests
        assert total_failures == total_shed
        assert all(a.failed == 0 for a in shap)
        assert any(a.shed_fraction == 1.0 for a in shap if a.failures)

    def test_shed_total_snapshot_does_not_double_count(self, tmp_path):
        """The cumulative ``shed_total:`` source must stay out of the
        window join — only stride markers drive attribution."""
        wal_dir = str(tmp_path / "wal")
        pipeline = TelemetryPipeline(
            wal_dir=wal_dir, window_seconds=1.0, auto_pump_every=256
        )
        pipeline.start()
        __, runner = _cluster(
            ServingPolicy(max_batch=4, batch_window=0.005, shed_depth=3),
            telemetry=pipeline,
            response_every=1,
        )
        runner.add_open_loop(
            PoissonArrivalGroup("shap", rate_rps=2000.0, n_requests=800)
        )
        runner.run()
        pipeline.flush()
        pipeline.flush()
        events = list(replay(wal_dir))
        snapshots = [
            e for e in events if e.source.startswith("shed_total:")
        ]
        assert snapshots  # the end-of-run cumulative was published...
        assert snapshots[-1].value == float(runner.shed_requests)
        # ...but attribution's window sum still matches exactly
        aggregator = TumblingWindowAggregator(window_seconds=1.0, cascades=())
        aggregator.ingest_many(events)
        aggregator.flush()
        attributions = attribute_unavailability(aggregator.windows())
        assert (
            sum(a.shed for a in attributions if a.route == "shap")
            == runner.shed_requests
        )
