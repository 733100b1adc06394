"""Seeded digests pinning what the simulated service stations produce.

Six runs cover both runners and both station modes:

* ``capacity_classic`` — :class:`CapacityRunner`, classic dispatch: a
  closed-loop group on a queue small enough to reject, an open-loop
  group, an unsupported-payload group, and every 50th request on the
  traced record path, so record entries interleave with row entries in
  the station FIFO;
* ``capacity_serving`` — :class:`CapacityRunner` under a
  :class:`ServingPolicy` with cache, batching, shedding and two
  simulated pool workers, one of which crashes mid-run;
* ``cluster_classic`` — :class:`ClusterRunner`, classic dispatch, with
  crash/restart, partition/heal and slow/restore faults;
* ``cluster_serving`` — :class:`ClusterRunner` with serving, cache and
  pool on, every fault kind, and every 10th completion published;
* ``capacity_batching`` and ``cluster_batching`` — the serving tier with
  the pool off, so fused batches occupy station workers: batches park
  in and overflow the FIFO, and a node crash strands batch completions
  on a dead epoch.

Each run hashes, section by section, every ``SummaryReport`` field
(``per_route`` and ``timeline`` included), the exact
:func:`summary_from_log` oracle, the retained rows, the per-node
reports and conservation ledger, the serving summary, the per-station
counters, every finished span and every published event.  The literal
digests were computed by the code in which the cluster kept its own
station class next to :class:`~repro.gateway.services.MicroService`;
one station class must reproduce them exactly.  The one tolerated
difference: cluster ``pool:`` events are hashed on the attribute keys
the cluster published then, so they may carry the ``busy`` and
``queued`` attributes single-node pool events always had.
"""

import hashlib
import json

import pytest

from repro.cluster import ClusterRunner, ClusterTopology, FaultPlan, RouteSpec
from repro.gateway import CapacityRunner, build_paper_deployment
from repro.gateway.arrivals import PoissonArrivalGroup
from repro.gateway.capacity import summary_from_log
from repro.gateway.loadgen import ThreadGroup
from repro.gateway.simulation import Simulator
from repro.serving import ServingPolicy
from repro.telemetry import TelemetryBus
from repro.tracing import TraceCollector, Tracer

#: Attribute keys of cluster ``pool:`` events when the digests were taken.
CLUSTER_POOL_ATTRS = frozenset({
    "workers",
    "batches",
    "rows",
    "mean_fan_out",
    "peak_inflight",
    "crashes",
    "restarts",
    "resubmitted",
    "busy_seconds",
})

SERVING_COUNTERS = (
    "batches_flushed",
    "rows_batched",
    "flushed_by_size",
    "flushed_by_deadline",
    "batch_size_peak",
    "shed_rows",
    "pool_batches",
    "pool_rows",
    "pool_crashes",
    "pool_restarts",
    "pool_resubmitted",
    "pool_peak_inflight",
    "pool_backlog",
    "busy_seconds",
    "busy_workers",
    "queue_length",
)


def _digest(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode()
    ).hexdigest()[:16]


def _report(report):
    return {
        "n_requests": report.n_requests,
        "n_errors": report.n_errors,
        "avg": report.avg_response_ms,
        "median": report.median_response_ms,
        "p95": report.p95_response_ms,
        "p99": report.p99_response_ms,
        "max": report.max_response_ms,
        "throughput": report.throughput_rps,
        "duration": report.duration_seconds,
        "timeline": [list(point) for point in report.timeline],
        "per_route": {
            route: _report(sub) for route, sub in report.per_route.items()
        },
    }


def _rows(log):
    return {
        "records": [
            [
                r.request.request_id,
                r.request.route,
                r.request.payload,
                r.arrival,
                r.start,
                r.end,
                r.success,
                r.error,
            ]
            for r in log.records()
        ],
        "active": log.active[: log.size].tolist(),
    }


def _spans(collector):
    return [
        [
            span.name,
            span.trace_id,
            span.span_id,
            span.parent_span_id,
            span.start_time,
            span.end_time,
            span.status,
            span.status_message,
            sorted(
                [key, value if isinstance(value, (int, float, str)) else repr(value)]
                for key, value in span.attributes.items()
            ),
        ]
        for span in collector.all_spans()
    ]


def _event(topic, event):
    attrs = event.attrs
    if event.source.startswith("pool:") and "@" in event.source:
        attrs = {k: v for k, v in attrs.items() if k in CLUSTER_POOL_ATTRS}
    return [
        topic,
        event.source,
        event.value,
        event.timestamp,
        event.kind,
        sorted(attrs.items()),
        sorted(event.labels.items()),
    ]


class _Tap:
    """A telemetry target that publishes into a bus and keeps a copy."""

    def __init__(self):
        self.bus = TelemetryBus()
        self.events = []
        self.bus.subscribe("golden-tap", capacity=1 << 20)

    def publish(self, topic, event):
        self.events.append(_event(topic, event))
        self.bus.publish(topic, event)

    def pump(self):
        self.bus.pump()


def _capacity_station(service, duration):
    return {
        "utilization": sorted(service.utilization_event(duration).attrs.items()),
        "counters": [getattr(service, name) for name in SERVING_COUNTERS],
        "records": [
            [
                r.request.request_id,
                r.request.payload,
                r.arrival,
                r.start,
                r.end,
                r.success,
                r.error,
                None if r.trace is None else [r.trace.trace_id, r.trace.span_id],
            ]
            for r in service.completed
        ],
    }


def _capacity_digests(runner, gateway, report, tap, collector):
    duration = report.duration_seconds
    return {
        "report": _digest(_report(report)),
        "oracle": _digest(_report(summary_from_log(runner.log, duration))),
        "rows": _digest(_rows(runner.log)),
        "serving_summary": _digest(runner.serving_summary()),
        "stations": _digest({
            route: _capacity_station(gateway.service(route), duration)
            for route in gateway.routes
        }),
        "spans": _digest(_spans(collector)),
        "events": _digest(tap.events),
    }


def _cluster_station(service):
    return [
        service.completed_rows,
        service.rejected,
        service.stale_completions,
        service.epoch,
        service.inflight_rows,
        service.pool_busy_seconds,
    ] + [getattr(service, name) for name in SERVING_COUNTERS]


def _cluster_digests(runner, report, tap):
    duration = report.duration_seconds
    topology = runner.topology
    return {
        "report": _digest(_report(report)),
        "oracle": _digest(_report(summary_from_log(runner.log, duration))),
        "rows": _digest(_rows(runner.log)),
        "by_node": _digest({
            node_id: _report(sub)
            for node_id, sub in runner.summary_by_node(duration).items()
        }),
        "ledger": _digest([
            runner.conservation(),
            runner.cross_node_traces,
            runner.fault_log,
        ]),
        "serving_summary": _digest(runner.serving_summary()),
        "stations": _digest({
            node_id: {
                "node": [
                    node.state,
                    node.reachable,
                    node.serving,
                    node.slow_factor,
                    node.crashes,
                    node.restarts,
                    node.partitions,
                    node.heals,
                ],
                "services": {
                    route: _cluster_station(service)
                    for route, service in sorted(node.services.items())
                },
            }
            for node_id, node in sorted(topology.nodes.items())
        }),
        "spans": _digest(_spans(runner.collector)),
        "events": _digest(tap.events),
    }


def capacity_classic():
    collector = TraceCollector(max_traces=1 << 14)
    clock = {}
    tracer = Tracer(
        clock=lambda: clock["sim"].now, collector=collector, seed=11
    )
    sim, gateway = build_paper_deployment(seed=11, tracer=tracer)
    clock["sim"] = sim
    gateway.service("shap").queue_capacity = 6
    tap = _Tap()
    runner = CapacityRunner(
        sim,
        gateway,
        retain_records=True,
        seed=11,
        trace_every=50,
        telemetry=tap,
    )
    runner.add_thread_group(
        ThreadGroup("shap", n_threads=24, rampup_seconds=0.2, iterations=20)
    )
    runner.add_open_loop(
        PoissonArrivalGroup("lime", rate_rps=500.0, n_requests=600)
    )
    runner.add_open_loop(
        PoissonArrivalGroup(
            "impact", rate_rps=40.0, n_requests=30, payload="image"
        )
    )
    report = runner.run()
    return _capacity_digests(runner, gateway, report, tap, collector)


def capacity_serving():
    collector = TraceCollector(max_traces=16)
    sim, gateway = build_paper_deployment(seed=5)
    tap = _Tap()
    policy = ServingPolicy(
        max_batch=4,
        batch_window=0.003,
        shed_depth=40,
        cache_size=48,
        cache_items=256,
        pool_workers=2,
    )
    runner = CapacityRunner(
        sim,
        gateway,
        retain_records=True,
        seed=5,
        telemetry=tap,
        serving=policy,
    )
    runner.add_open_loop(
        PoissonArrivalGroup("shap", rate_rps=1500.0, n_requests=1500)
    )
    runner.add_thread_group(
        ThreadGroup("lime", n_threads=12, rampup_seconds=0.1, iterations=30)
    )
    shap = gateway.service("shap")
    sim.schedule(0.4, shap.crash_pool_worker)
    report = runner.run()
    return _capacity_digests(runner, gateway, report, tap, collector)


def _cluster(seed, policy=None, **kwargs):
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
    tap = _Tap()
    runner = ClusterRunner(
        topology,
        retain_records=True,
        seed=seed,
        telemetry=tap,
        serving=policy,
        **kwargs,
    )
    return topology, runner, tap


def cluster_classic():
    topology, runner, tap = _cluster(seed=7, trace_every=25)
    runner.add_open_loop(
        PoissonArrivalGroup("shap", rate_rps=350.0, n_requests=700)
    )
    runner.add_thread_group(
        ThreadGroup("lime", n_threads=16, rampup_seconds=0.1, iterations=25)
    )
    shap = topology.ring.preference("shap", 2)
    lime = topology.ring.preference("lime", 2)
    plan = FaultPlan()
    plan.add_crash(shap[0], 0.4, restart_at=0.9)
    plan.add_partition(lime[0], 0.3, 0.25)
    plan.add_slow(shap[1], 0.5, 0.6, 3.0)
    runner.apply_fault_plan(plan)
    report = runner.run()
    return _cluster_digests(runner, report, tap)


def cluster_serving():
    policy = ServingPolicy(
        max_batch=4,
        batch_window=0.004,
        shed_depth=24,
        cache_size=32,
        cache_items=256,
        pool_workers=2,
    )
    topology, runner, tap = _cluster(
        seed=9, policy=policy, trace_every=20, response_every=10
    )
    runner.add_open_loop(
        PoissonArrivalGroup("shap", rate_rps=700.0, n_requests=1400)
    )
    runner.add_thread_group(
        ThreadGroup("lime", n_threads=20, rampup_seconds=0.1, iterations=30)
    )
    shap = topology.ring.preference("shap", 2)
    lime = topology.ring.preference("lime", 2)
    plan = FaultPlan()
    plan.add_crash(shap[0], 0.5, restart_at=1.1)
    plan.add_partition(lime[0], 0.3, 0.3)
    plan.add_slow(shap[1], 0.7, 0.5, 2.5)
    plan.add_pool_crash(shap[1], 0.8)
    plan.add_pool_crash(lime[1], 0.45)
    plan.add_crash(lime[1], 1.2)
    runner.apply_fault_plan(plan)
    report = runner.run()
    return _cluster_digests(runner, report, tap)


def capacity_batching():
    collector = TraceCollector(max_traces=16)
    sim, gateway = build_paper_deployment(seed=13)
    gateway.service("shap").queue_capacity = 3
    tap = _Tap()
    runner = CapacityRunner(
        sim,
        gateway,
        retain_records=True,
        seed=13,
        telemetry=tap,
        serving=ServingPolicy(max_batch=3, batch_window=0.002, shed_depth=30),
    )
    runner.add_open_loop(
        PoissonArrivalGroup("shap", rate_rps=2500.0, n_requests=1200)
    )
    report = runner.run()
    return _capacity_digests(runner, gateway, report, tap, collector)


def cluster_batching():
    policy = ServingPolicy(max_batch=4, batch_window=0.003, shed_depth=40)
    topology, runner, tap = _cluster(seed=4, policy=policy, trace_every=30)
    runner.add_open_loop(
        PoissonArrivalGroup("shap", rate_rps=900.0, n_requests=1200)
    )
    runner.add_thread_group(
        ThreadGroup("lime", n_threads=24, rampup_seconds=0.1, iterations=20)
    )
    shap = topology.ring.preference("shap", 2)
    lime = topology.ring.preference("lime", 2)
    plan = FaultPlan()
    plan.add_crash(shap[0], 0.6, restart_at=0.8)
    plan.add_crash(lime[0], 0.25, restart_at=0.5)
    plan.add_slow(shap[1], 0.9, 0.3, 2.0)
    runner.apply_fault_plan(plan)
    report = runner.run()
    return _cluster_digests(runner, report, tap)


GOLDEN = {
    "capacity_classic": {
        "report": "d2234dee8f86bb97",
        "oracle": "eb1ed00d0c555dfd",
        "rows": "0d81af72a6074360",
        "serving_summary": "44136fa355b3678a",
        "stations": "4bccf313d4e8a6b2",
        "spans": "647ec99a25ee8d2f",
        "events": "0507e8647baa1374",
    },
    "capacity_serving": {
        "report": "8a9572743a6a2d6c",
        "oracle": "a89d1aa9ff313c8a",
        "rows": "13f9482e037b1f51",
        "serving_summary": "8eeeca22b21227d3",
        "stations": "5561ee5e1622d72b",
        "spans": "4f53cda18c2baa0c",
        "events": "d56557fe2107fbd0",
    },
    "cluster_classic": {
        "report": "da40d69bd43db198",
        "oracle": "9be2e937a693264a",
        "rows": "789d660f4ede94ba",
        "by_node": "3fdb1fa983f2e8d8",
        "ledger": "ab99e2bf4a195bbc",
        "serving_summary": "44136fa355b3678a",
        "stations": "2b2ca48ef0d40261",
        "spans": "c5b83839e1dc8f06",
        "events": "693f47edf5749c0c",
    },
    "cluster_serving": {
        "report": "6520cb1a25a50e4b",
        "oracle": "24cd583b18ec3f54",
        "rows": "2ae8363a2b26b2fb",
        "by_node": "0dd2348b98684791",
        "ledger": "5add3013a796b9dc",
        "serving_summary": "dadc1a7bce8b7c4f",
        "stations": "739cafaca4483e11",
        "spans": "62ce15f2cb797b0b",
        "events": "20c2b0169ec5a18c",
    },
    "capacity_batching": {
        "report": "14af178e24b7d7d1",
        "oracle": "ebd79e54dac67607",
        "rows": "40eb82af95a6ae57",
        "serving_summary": "8d67b000a6dea280",
        "stations": "8fbc69e9bfcc5854",
        "spans": "4f53cda18c2baa0c",
        "events": "2688430ba26b9967",
    },
    "cluster_batching": {
        "report": "743c0d5866b5a5b7",
        "oracle": "9bc183e883a0a676",
        "rows": "98c2da644186dbfe",
        "by_node": "c34027131942beb5",
        "ledger": "a221d8f4081fdeca",
        "serving_summary": "7942ca28f31aedb6",
        "stations": "706381d3f0701dd8",
        "spans": "9b332ddf0a99db64",
        "events": "aa1413eaac6ff045",
    },
}

RUNS = {
    "capacity_classic": capacity_classic,
    "capacity_serving": capacity_serving,
    "cluster_classic": cluster_classic,
    "cluster_serving": cluster_serving,
    "capacity_batching": capacity_batching,
    "cluster_batching": cluster_batching,
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_station_outputs_match_golden(name):
    assert RUNS[name]() == GOLDEN[name]
