"""Seeded digests pinning what the simulated service stations produce.

Six runs cover both runners and both station modes:

* ``capacity_classic`` — :class:`CapacityRunner`, classic dispatch: a
  closed-loop group on a queue small enough to reject, an open-loop
  group, an unsupported-payload group, and every 50th request traced;
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

Nine more runs pin the load-driver paths those six leave open:

* ``capacity_ring*`` and ``cluster_ring*`` — ring mode (rows recycled)
  on a four-row initial log, untraced, traced and serving;
* ``cluster_closed_untraced`` and ``cluster_open_untraced`` — the
  cluster's untraced closed-loop and open-loop steps;
* ``cluster_threads_first*`` — a thread group added before the open
  loop, so the open loop's arrival seed counts one entry pick per
  closed-loop user.

Two runs cross open-loop arrival-chunk boundaries, which every run above
stays short of (``ARRIVAL_CHUNK`` arrivals per group):

* ``capacity_chunks`` — retained, untraced, two open-loop groups (three
  boundaries between them) beside a closed-loop group, with queue-full
  rejections;
* ``cluster_chunks`` — retained, serving with cache and pool, a crash
  and a slow fault, and every 97th request traced (the traced step).

Each run hashes, section by section, every ``SummaryReport`` field
(``per_route`` and ``timeline`` included), the exact oracle
(``SummaryReport.from_records`` over the completed rows) and the rows
(retained runs only), the per-node reports and conservation ledger, the
serving summary, the per-station counters, every finished span and every
published event.
The first six runs' digests were computed by the code in which the
cluster kept its own station class next to
:class:`~repro.gateway.services.MicroService`; one station class must
reproduce them exactly.  The nine runs after them were pinned while
each runner still kept its own load driver, and the two chunk runs
while each open-loop group bulk-loaded a whole chunk of arrivals into
the event heap.  The five serving-mode
cluster runs were re-pinned once, when a failed-over row started going
through the replica's micro-batcher and admission control instead of
straight onto a station worker.  The one tolerated
difference: cluster ``pool:`` events are hashed on the attribute keys
the cluster published then, so they may carry the ``busy`` and
``queued`` attributes single-node pool events always had.  When the row
path became the station's only request path, each capacity station
lost its ``records`` key (its record-path completions, empty in every
untraced run), and the two traced capacity runs were re-pinned:
``capacity_classic`` and ``capacity_ring_traced`` used to send every Nth
request through ``APIGateway.dispatch``, which shifted that request by
a routing leg and the stations' service-time draws.  Their ``report``,
``oracle`` and ``rows`` sections now equal the same runs untraced at
the parent.
"""

import hashlib
import json

import pytest

from repro.cluster import ClusterRunner, ClusterTopology, FaultPlan, RouteSpec
from repro.gateway import CapacityRunner, build_paper_deployment
from repro.gateway.arrivals import PoissonArrivalGroup
from repro.gateway.loadgen import SummaryReport, ThreadGroup
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
    }


def _retained(runner, duration):
    """The row sections, which only a retained log can give."""
    if not runner.log.retain:
        return {}
    return {
        "oracle": _digest(_report(SummaryReport.from_records(
            [r for r in runner.log.records() if r.end > 0.0], duration
        ))),
        "rows": _digest(_rows(runner.log)),
    }


def _capacity_digests(runner, gateway, report, tap, collector):
    duration = report.duration_seconds
    return {
        "report": _digest(_report(report)),
        **_retained(runner, duration),
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
        **_retained(runner, duration),
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


def _cluster(seed, policy=None, retain_records=True, **kwargs):
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
        retain_records=retain_records,
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


def _capacity_ring(seed, trace_every=0, policy=None):
    """A ring-mode capacity run on a log small enough to recycle rows."""
    collector = TraceCollector(max_traces=1 << 14)
    clock = {}
    tracer = Tracer(
        clock=lambda: clock["sim"].now, collector=collector, seed=seed
    )
    sim, gateway = build_paper_deployment(seed=seed, tracer=tracer)
    clock["sim"] = sim
    gateway.service("shap").queue_capacity = 5
    tap = _Tap()
    runner = CapacityRunner(
        sim,
        gateway,
        retain_records=False,
        seed=seed,
        trace_every=trace_every,
        telemetry=tap,
        initial_capacity=4,
        serving=policy,
    )
    runner.add_thread_group(
        ThreadGroup("shap", n_threads=16, rampup_seconds=0.1, iterations=15)
    )
    runner.add_open_loop(
        PoissonArrivalGroup("lime", rate_rps=400.0, n_requests=500)
    )
    report = runner.run()
    return _capacity_digests(runner, gateway, report, tap, collector)


def capacity_ring():
    return _capacity_ring(seed=17)


def capacity_ring_traced():
    return _capacity_ring(seed=19, trace_every=30)


def capacity_ring_serving():
    return _capacity_ring(
        seed=23,
        policy=ServingPolicy(
            max_batch=3,
            batch_window=0.003,
            shed_depth=20,
            cache_size=24,
            cache_items=128,
        ),
    )


def _cluster_faults(runner, topology):
    shap = topology.ring.preference("shap", 2)
    lime = topology.ring.preference("lime", 2)
    plan = FaultPlan()
    plan.add_crash(shap[0], 0.35, restart_at=0.8)
    plan.add_partition(lime[0], 0.25, 0.2)
    plan.add_crash(lime[1], 0.6, restart_at=0.9)
    runner.apply_fault_plan(plan)


def cluster_ring():
    topology, runner, tap = _cluster(
        seed=21, retain_records=False, trace_every=25, initial_capacity=4
    )
    runner.add_open_loop(
        PoissonArrivalGroup("shap", rate_rps=400.0, n_requests=600)
    )
    runner.add_thread_group(
        ThreadGroup("lime", n_threads=16, rampup_seconds=0.1, iterations=20)
    )
    _cluster_faults(runner, topology)
    report = runner.run()
    return _cluster_digests(runner, report, tap)


def cluster_ring_serving():
    policy = ServingPolicy(
        max_batch=4,
        batch_window=0.003,
        shed_depth=30,
        cache_size=32,
        cache_items=256,
        pool_workers=2,
    )
    topology, runner, tap = _cluster(
        seed=25,
        policy=policy,
        retain_records=False,
        trace_every=20,
        initial_capacity=4,
        response_every=7,
    )
    runner.add_open_loop(
        PoissonArrivalGroup("shap", rate_rps=800.0, n_requests=1000)
    )
    runner.add_thread_group(
        ThreadGroup("lime", n_threads=20, rampup_seconds=0.1, iterations=20)
    )
    _cluster_faults(runner, topology)
    report = runner.run()
    return _cluster_digests(runner, report, tap)


def cluster_closed_untraced():
    topology, runner, tap = _cluster(seed=27)
    runner.add_thread_group(
        ThreadGroup("shap", n_threads=20, rampup_seconds=0.1, iterations=25)
    )
    runner.add_thread_group(
        ThreadGroup("lime", n_threads=12, rampup_seconds=0.05, iterations=25)
    )
    _cluster_faults(runner, topology)
    report = runner.run()
    return _cluster_digests(runner, report, tap)


def cluster_open_untraced():
    policy = ServingPolicy(
        max_batch=4, batch_window=0.004, shed_depth=24, cache_size=16
    )
    topology, runner, tap = _cluster(seed=29, policy=policy, response_every=9)
    runner.add_open_loop(
        PoissonArrivalGroup("shap", rate_rps=700.0, n_requests=900)
    )
    runner.add_open_loop(
        PoissonArrivalGroup("lime", rate_rps=500.0, n_requests=600)
    )
    _cluster_faults(runner, topology)
    report = runner.run()
    return _cluster_digests(runner, report, tap)


def cluster_threads_first():
    topology, runner, tap = _cluster(seed=31, trace_every=15)
    runner.add_thread_group(
        ThreadGroup("lime", n_threads=14, rampup_seconds=0.1, iterations=20)
    )
    runner.add_open_loop(
        PoissonArrivalGroup("shap", rate_rps=450.0, n_requests=700)
    )
    _cluster_faults(runner, topology)
    report = runner.run()
    return _cluster_digests(runner, report, tap)


def cluster_threads_first_serving():
    policy = ServingPolicy(
        max_batch=3, batch_window=0.003, shed_depth=20, pool_workers=1
    )
    topology, runner, tap = _cluster(
        seed=33, policy=policy, trace_every=12, response_every=5
    )
    runner.add_thread_group(
        ThreadGroup("shap", n_threads=10, rampup_seconds=0.1, iterations=20)
    )
    runner.add_open_loop(
        PoissonArrivalGroup("lime", rate_rps=600.0, n_requests=800)
    )
    _cluster_faults(runner, topology)
    report = runner.run()
    return _cluster_digests(runner, report, tap)


def capacity_chunks():
    """Open loops that cross arrival-chunk boundaries (``ARRIVAL_CHUNK``
    arrivals per chunk): three chunks of ``shap``, two of ``lime``."""
    collector = TraceCollector(max_traces=16)
    sim, gateway = build_paper_deployment(seed=41)
    gateway.service("lime").queue_capacity = 10
    tap = _Tap()
    runner = CapacityRunner(
        sim, gateway, retain_records=True, seed=41, telemetry=tap
    )
    runner.add_open_loop(
        PoissonArrivalGroup("shap", rate_rps=380.0, n_requests=20_000)
    )
    runner.add_thread_group(
        ThreadGroup(
            "ai_pipeline", n_threads=6, rampup_seconds=1.0, iterations=250
        )
    )
    runner.add_open_loop(
        PoissonArrivalGroup(
            "lime", rate_rps=330.0, n_requests=9000, start_at=2.5
        )
    )
    report = runner.run()
    return _capacity_digests(runner, gateway, report, tap, collector)


def cluster_chunks():
    """The traced open-loop step across chunk boundaries, with serving,
    cache and pool on and a crash and a slow fault on ``shap``."""
    policy = ServingPolicy(
        max_batch=4,
        batch_window=0.004,
        shed_depth=40,
        cache_size=32,
        cache_items=2048,
        pool_workers=2,
    )
    topology, runner, tap = _cluster(
        seed=43, policy=policy, trace_every=97, response_every=50
    )
    runner.add_open_loop(
        PoissonArrivalGroup("shap", rate_rps=700.0, n_requests=20_000)
    )
    runner.add_open_loop(
        PoissonArrivalGroup(
            "lime", rate_rps=450.0, n_requests=14_000, start_at=1.0
        )
    )
    shap = topology.ring.preference("shap", 2)
    plan = FaultPlan()
    plan.add_crash(shap[0], 9.0, restart_at=14.0)
    plan.add_slow(shap[1], 10.0, 6.0, 2.5)
    runner.apply_fault_plan(plan)
    report = runner.run()
    return _cluster_digests(runner, report, tap)


GOLDEN = {
    "capacity_classic": {
        "report": "fcd627509d2d9c57",
        "oracle": "aaa57afbb09ea3e0",
        "rows": "45e332d7d58ad585",
        "serving_summary": "44136fa355b3678a",
        "stations": "61a223be49019dec",
        "spans": "efef73d51a184abd",
        "events": "528bea07b1f673ea",
    },
    "capacity_serving": {
        "report": "8a9572743a6a2d6c",
        "oracle": "a89d1aa9ff313c8a",
        "rows": "13f9482e037b1f51",
        "serving_summary": "8eeeca22b21227d3",
        "stations": "206584049263f4ed",
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
        "report": "4728e9362bea3fab",
        "oracle": "873ef37d1bce1e73",
        "rows": "0a6ec778b4a15dee",
        "by_node": "06e30dfc4289419b",
        "ledger": "76fd0e77eef2216e",
        "serving_summary": "aef378212b1cd6a0",
        "stations": "2f1e17866275ee3e",
        "spans": "1c93806a641eec19",
        "events": "ffa13a5228a7585d",
    },
    "capacity_batching": {
        "report": "14af178e24b7d7d1",
        "oracle": "ebd79e54dac67607",
        "rows": "40eb82af95a6ae57",
        "serving_summary": "8d67b000a6dea280",
        "stations": "db6b6612d294ed90",
        "spans": "4f53cda18c2baa0c",
        "events": "2688430ba26b9967",
    },
    "cluster_batching": {
        "report": "55c06dc7d98e62fd",
        "oracle": "48c7e6b63adab892",
        "rows": "f59a509aa0953844",
        "by_node": "ff7d6e29402bf07c",
        "ledger": "121a8266ed4d4210",
        "serving_summary": "e72271bf0c8d1ea8",
        "stations": "946135c69214563b",
        "spans": "216d53798a9866ed",
        "events": "f1ff79473c748e1b",
    },
    "capacity_ring": {
        "report": "40ee11f8f7ce6e52",
        "serving_summary": "44136fa355b3678a",
        "stations": "b77753f34753c33b",
        "spans": "4f53cda18c2baa0c",
        "events": "fa676804b13e8675",
    },
    "capacity_ring_traced": {
        "report": "707eed017a16c640",
        "serving_summary": "44136fa355b3678a",
        "stations": "a29a770eeb3c1d1a",
        "spans": "5f1c6ef50c2e3681",
        "events": "d8fb5936b9dde967",
    },
    "capacity_ring_serving": {
        "report": "88d5f411029149e2",
        "serving_summary": "2a5776a71a481c8a",
        "stations": "bdb7d3a48d493de3",
        "spans": "4f53cda18c2baa0c",
        "events": "8e8cf03114886d38",
    },
    "cluster_ring": {
        "report": "ecf32b25ec69adaf",
        "by_node": "e6c3fabdc7015c63",
        "ledger": "5bd6fd79bc8d009f",
        "serving_summary": "44136fa355b3678a",
        "stations": "27cbefafd5f0eeb2",
        "spans": "fb907cbb4c72480b",
        "events": "1d9ebbbaf4b8a0cd",
    },
    "cluster_ring_serving": {
        "report": "f7637d0c6eadead8",
        "by_node": "1270f26be46df9b0",
        "ledger": "a04df7ee45dffa03",
        "serving_summary": "0c8e35ddc646eec1",
        "stations": "f69c891d73ccea2d",
        "spans": "e9b7d63db36be02e",
        "events": "2e2f2926e7cdf85f",
    },
    "cluster_closed_untraced": {
        "report": "f981213a173ebcd2",
        "oracle": "b210255e4763bda6",
        "rows": "7bd9ee59c5e7c85b",
        "by_node": "2fb4b2804b135d2a",
        "ledger": "8a6ab4f4b63d15b7",
        "serving_summary": "44136fa355b3678a",
        "stations": "30964400e8292a01",
        "spans": "4f53cda18c2baa0c",
        "events": "5ed06573a9be4daf",
    },
    "cluster_open_untraced": {
        "report": "c905911b30ae4b30",
        "oracle": "87089ac7ae324edf",
        "rows": "51338470504d3222",
        "by_node": "69a261b718b9f9a8",
        "ledger": "6ca2217a1187b5df",
        "serving_summary": "7342443fcb781c68",
        "stations": "2ef2ca6fb379ffad",
        "spans": "4f53cda18c2baa0c",
        "events": "d56254f938e67149",
    },
    "cluster_threads_first": {
        "report": "711ae5e9d51e6b9e",
        "oracle": "9d1f97996eacc5b0",
        "rows": "6e6ad87df073adff",
        "by_node": "6fea5dd8a03a61e8",
        "ledger": "383a1d4f994178fe",
        "serving_summary": "44136fa355b3678a",
        "stations": "eb66b6590e5e74dd",
        "spans": "566be67a311395e4",
        "events": "1c3837c9b501b5a4",
    },
    "cluster_threads_first_serving": {
        "report": "bc9284d3198eca73",
        "oracle": "83862678001b0802",
        "rows": "690e7aff33439c43",
        "by_node": "75c6c71331f69b0a",
        "ledger": "ea3296b4d333ce66",
        "serving_summary": "63c0d92a2c2ff2dc",
        "stations": "93086a820b13c7bf",
        "spans": "e7396159043e0ae8",
        "events": "b31d035308c19b54",
    },
    "capacity_chunks": {
        "report": "34df117027aea510",
        "oracle": "f2173cd0e3e9cc13",
        "rows": "15da1a5231c1713f",
        "serving_summary": "44136fa355b3678a",
        "stations": "79441513fce4bb24",
        "spans": "4f53cda18c2baa0c",
        "events": "e2146184471f0893",
    },
    "cluster_chunks": {
        "report": "e79bc6a5ddf8382d",
        "oracle": "ed228cd11eb7d963",
        "rows": "770770e01f805fe2",
        "by_node": "552778dac91f8dc1",
        "ledger": "66c49ae9a09bd707",
        "serving_summary": "9a524a6c0f717944",
        "stations": "4761295179daac08",
        "spans": "393c45ff30db09df",
        "events": "743a4a051fb4a11e",
    },
}

RUNS = {
    "capacity_classic": capacity_classic,
    "capacity_serving": capacity_serving,
    "cluster_classic": cluster_classic,
    "cluster_serving": cluster_serving,
    "capacity_batching": capacity_batching,
    "cluster_batching": cluster_batching,
    "capacity_ring": capacity_ring,
    "capacity_ring_traced": capacity_ring_traced,
    "capacity_ring_serving": capacity_ring_serving,
    "cluster_ring": cluster_ring,
    "cluster_ring_serving": cluster_ring_serving,
    "cluster_closed_untraced": cluster_closed_untraced,
    "cluster_open_untraced": cluster_open_untraced,
    "cluster_threads_first": cluster_threads_first,
    "cluster_threads_first_serving": cluster_threads_first_serving,
    "capacity_chunks": capacity_chunks,
    "cluster_chunks": cluster_chunks,
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_station_outputs_match_golden(name):
    assert RUNS[name]() == GOLDEN[name]
