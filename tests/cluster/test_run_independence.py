"""What a seeded run simulates does not depend on how it is observed.

Retain mode numbers log rows 0..n, while ring mode recycles them, a
telemetry target turns on per-response publishing, and ``trace_every``
traces every Nth request under a recording tracer.  None of them may
move a simulated latency.  With the same seed, every combination must
give the same :class:`SummaryReport` (timeline and per-route reports
included) and the same ledger, on both runners, in classic, serving and
pool modes, with crashes.  Node crashes hand their rows back in
service-start order, so the failover order cannot follow the row
numbers.
"""

import pytest

from repro.cluster import ClusterRunner, ClusterTopology, FaultPlan, RouteSpec
from repro.gateway import CapacityRunner, build_paper_deployment
from repro.gateway.arrivals import PoissonArrivalGroup
from repro.gateway.loadgen import ThreadGroup
from repro.gateway.simulation import Simulator
from repro.serving import ServingPolicy
from repro.telemetry import TelemetryBus
from repro.tracing import TraceCollector, Tracer

MODES = {
    "classic": None,
    "serving": ServingPolicy(
        max_batch=4,
        batch_window=0.003,
        shed_depth=30,
        cache_size=32,
        cache_items=256,
    ),
    "pool": ServingPolicy(
        max_batch=4, batch_window=0.003, shed_depth=30, pool_workers=2
    ),
}

#: (retain_records, telemetry on, trace_every) — the first is the
#: reference run, untraced.
VARIANTS = [
    (retain, telemetry, trace_every)
    for trace_every in (0, 1, 7, 25)
    for retain, telemetry in [
        (True, False), (False, False), (True, True), (False, True)
    ]
]


def _cluster_run(mode, seed, retain, telemetry, trace_every):
    topology = ClusterTopology(
        Simulator(),
        [
            RouteSpec("shap", concurrency=2, queue_capacity=8),
            RouteSpec(
                "lime",
                base_seconds={"tabular": 0.014},
                concurrency=3,
                queue_capacity=12,
            ),
        ],
        n_nodes=4,
        replication=2,
        seed=seed,
    )
    runner = ClusterRunner(
        topology,
        retain_records=retain,
        seed=seed,
        trace_every=trace_every,
        telemetry=TelemetryBus() if telemetry else None,
        response_every=5,
        initial_capacity=8,
        serving=MODES[mode],
    )
    runner.add_open_loop(
        PoissonArrivalGroup("shap", rate_rps=600.0, n_requests=900)
    )
    runner.add_thread_group(
        ThreadGroup("lime", n_threads=16, rampup_seconds=0.1, iterations=20)
    )
    shap = topology.ring.preference("shap", 2)
    lime = topology.ring.preference("lime", 2)
    plan = FaultPlan()
    plan.add_crash(shap[0], 0.4, restart_at=0.8)
    plan.add_crash(lime[0], 0.3, restart_at=0.6)
    plan.add_partition(lime[1], 0.7, 0.2)
    if mode == "pool":
        plan.add_pool_crash(shap[1], 0.5)
    runner.apply_fault_plan(plan)
    report = runner.run()
    return report, runner.conservation(), len(runner.collector)


def _capacity_run(mode, seed, retain, telemetry, trace_every):
    collector = TraceCollector(max_traces=1 << 14)
    clock = {}
    tracer = Tracer(
        clock=lambda: clock["sim"].now, collector=collector, seed=seed
    )
    sim, gateway = build_paper_deployment(seed=seed, tracer=tracer)
    clock["sim"] = sim
    gateway.service("shap").queue_capacity = 6
    runner = CapacityRunner(
        sim,
        gateway,
        retain_records=retain,
        seed=seed,
        trace_every=trace_every,
        telemetry=TelemetryBus() if telemetry else None,
        initial_capacity=8,
        serving=MODES[mode],
    )
    runner.add_thread_group(
        ThreadGroup("shap", n_threads=24, rampup_seconds=0.2, iterations=20)
    )
    runner.add_open_loop(
        PoissonArrivalGroup("lime", rate_rps=500.0, n_requests=600)
    )
    if mode == "pool":
        sim.schedule(0.4, gateway.service("shap").crash_pool_worker)
    report = runner.run()
    ledger = {
        "appended": runner.log.appended,
        "in_flight": runner.in_flight,
        "serving": runner.serving_summary(),
    }
    return report, ledger, len(collector)


RUNNERS = {"cluster": _cluster_run, "capacity": _capacity_run}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("runner", sorted(RUNNERS))
def test_retention_and_telemetry_do_not_change_the_run(runner, mode, seed):
    runs = [RUNNERS[runner](mode, seed, *variant) for variant in VARIANTS]
    report, ledger, __ = runs[0]
    assert report.n_requests > 0
    for variant, (other_report, other_ledger, traces) in zip(
        VARIANTS[1:], runs[1:]
    ):
        assert other_report == report, variant
        assert other_ledger == ledger, variant
        # the traced variants really traced
        assert (traces > 0) == (variant[2] > 0), variant


def test_the_faulted_cluster_runs_fail_over_crash_lost_rows():
    for mode in MODES:
        __, ledger, __ = _cluster_run(
            mode, 0, retain=False, telemetry=False, trace_every=25
        )
        assert ledger["lost_in_flight"] > 1
        assert ledger["failovers"] > 0
