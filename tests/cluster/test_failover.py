"""Deterministic failover: crash a primary mid-request, lose nothing.

The satellite acceptance criterion: under a seeded run, crashing the
primary node while requests are in flight must (a) lose zero events in
the rollups — every appended row is observed exactly once — and (b)
surface every failure as a typed, interned error.  No silent drops.
"""

import pytest

from repro.cluster.faults import FaultPlan
from repro.cluster.runner import ClusterRunner
from repro.cluster.topology import ClusterTopology, RouteSpec
from repro.gateway.arrivals import PoissonArrivalGroup
from repro.gateway.loadgen import ThreadGroup
from repro.gateway.simulation import Simulator
from repro.serving import ServingPolicy

#: The only error messages allowed to *finalise* a request; transient
#: crash/partition losses must always be retried, never surfaced.
FINAL_ERRORS = {
    "no live replica (503)",
    "failover retries exhausted (503)",
}


def _cluster(n_nodes=3, replication=2, seed=5, **kwargs):
    topology = ClusterTopology(
        Simulator(),
        [RouteSpec("shap", concurrency=2, queue_capacity=64)],
        n_nodes=n_nodes,
        replication=replication,
        seed=seed,
    )
    return topology, ClusterRunner(
        topology, retain_records=True, seed=seed, **kwargs
    )


def _saturate(runner, threads=40, iterations=25):
    runner.add_thread_group(
        ThreadGroup("shap", threads, rampup_seconds=0.1, iterations=iterations)
    )


def test_crash_primary_mid_request_loses_zero_events():
    topology, runner = _cluster()
    primary = topology.ring.preference("shap", 2)[0]
    _saturate(runner)
    runner.apply_fault_plan(FaultPlan().add_crash(primary, 0.3))
    report = runner.run()
    cons = runner.conservation()
    # the crash definitely caught work in flight...
    assert cons["lost_in_flight"] > 0
    assert cons["failovers"] > 0
    assert cons["stale_completions"] > 0
    # ...and the ledger still balances: zero loss, nothing in flight
    assert cons["observed"] == cons["appended"] == 1000
    assert cons["in_flight"] == 0
    assert report.n_requests == 1000
    # the replica absorbed everything: no request had to finalise failed
    assert cons["final_failures"] == report.n_errors


def test_every_row_is_answered_or_typed_failed():
    topology, runner = _cluster(n_nodes=2, replication=2, max_attempts=2)
    primary = topology.ring.preference("shap", 2)[0]
    _saturate(runner)
    # crash the primary and never restart: half the capacity vanishes
    runner.apply_fault_plan(FaultPlan().add_crash(primary, 0.2))
    runner.run()
    for record in runner.records():
        if record.success:
            assert record.end > 0 and record.error == ""
        else:
            assert record.error in FINAL_ERRORS  # typed, never silent
    assert runner.conservation()["observed"] == runner.log.appended


def test_crashing_every_replica_gives_typed_no_replica_failures():
    topology, runner = _cluster(n_nodes=2, replication=2)
    _saturate(runner, threads=10, iterations=10)
    plan = FaultPlan()
    for node_id in topology.node_ids():
        plan.add_crash(node_id, 0.25)
    runner.apply_fault_plan(plan)
    runner.run()
    cons = runner.conservation()
    assert cons["observed"] == cons["appended"] == 100
    assert cons["final_failures"] > 0
    failed = [r for r in runner.records() if not r.success]
    assert failed
    assert {r.error for r in failed} <= FINAL_ERRORS


def test_restart_rejoins_without_rebalancing():
    topology, runner = _cluster()
    primary = topology.ring.preference("shap", 2)[0]
    version = topology.membership_version
    _saturate(runner)
    runner.apply_fault_plan(
        FaultPlan().add_crash(primary, 0.2, restart_at=0.4)
    )
    runner.run()
    # crash/restart is a fault, not a membership change: the ring never
    # moved a key and the restarted node serves again
    assert topology.membership_version == version
    assert primary in topology.ring
    assert topology.nodes[primary].serving
    assert topology.nodes[primary].restarts == 1
    assert runner.conservation()["observed"] == runner.log.appended


def test_partitioned_responses_are_retried_not_dropped():
    topology, runner = _cluster()
    primary = topology.ring.preference("shap", 2)[0]
    _saturate(runner)
    runner.apply_fault_plan(FaultPlan().add_partition(primary, 0.2, 0.3))
    runner.run()
    cons = runner.conservation()
    assert cons["lost_responses"] > 0  # completions caught behind the cut
    assert cons["failovers"] >= cons["lost_responses"]
    assert cons["observed"] == cons["appended"] == 1000
    assert cons["in_flight"] == 0


def test_failover_run_is_deterministic_under_a_seed():
    ledgers = []
    for _ in range(2):
        topology, runner = _cluster(seed=17)
        primary = topology.ring.preference("shap", 2)[0]
        _saturate(runner)
        runner.apply_fault_plan(
            FaultPlan()
            .add_crash(primary, 0.3, restart_at=0.8)
            .add_partition(topology.ring.preference("shap", 2)[1], 1.0, 0.2)
        )
        runner.run()
        ledgers.append(runner.conservation())
    assert ledgers[0] == ledgers[1]


def test_queue_overflow_fails_over_to_the_replica():
    topology, runner = _cluster(n_nodes=2, replication=2)
    # shrink the primary's queue so overflow rejections are guaranteed
    primary = topology.ring.preference("shap", 2)[0]
    service = topology.nodes[primary].services["shap"]
    service.queue_capacity = 2
    _saturate(runner, threads=30, iterations=10)
    runner.run()
    cons = runner.conservation()
    assert service.rejected > 0
    assert cons["failovers"] > 0
    assert cons["observed"] == cons["appended"] == 300
    # rejections either landed on the replica or finalised typed — the
    # rejection count is fully accounted for, nothing vanished
    assert cons["failovers"] + cons["final_failures"] >= service.rejected


@pytest.mark.parametrize(
    "policy", [None, ServingPolicy(max_batch=4, batch_window=0.005)]
)
def test_unsupported_payload_is_a_final_typed_failure(policy):
    """A payload the route cannot serve fails typed, once, with no retry:
    every replica runs the route's one RouteSpec, so failing over would
    only fail again.  The run completes instead of raising."""
    __, runner = _cluster(trace_every=4, serving=policy)
    runner.add_open_loop(
        PoissonArrivalGroup("shap", rate_rps=200.0, n_requests=50)
    )
    runner.add_open_loop(
        PoissonArrivalGroup(
            "shap", rate_rps=100.0, n_requests=20, payload="image"
        )
    )
    runner.add_thread_group(
        ThreadGroup(
            "shap", 2, rampup_seconds=0.0, iterations=5, payload="image"
        )
    )
    report = runner.run()
    cons = runner.conservation()
    assert cons["appended"] == cons["observed"] == 80
    assert cons["in_flight"] == 0
    assert cons["failovers"] == 0
    assert cons["final_failures"] == report.n_errors == 30
    failed = [r for r in runner.records() if not r.success]
    assert {r.request.payload for r in failed} == {"image"}
    assert {r.error for r in failed} == {"unsupported payload 'image'"}
    # traced unsupported requests end in one failover span naming the cause
    errors = {
        span.status_message
        for span in runner.collector.all_spans()
        if span.name == "cluster.failover"
    }
    assert errors == {"unsupported payload 'image'"}
