"""Seeded digests pinning what requests sent through the gateway produce.

Every run drives :class:`~repro.gateway.loadgen.LoadGenerator` through
:meth:`~repro.gateway.gateway.APIGateway.dispatch` (bare, or behind the
rate limiter and the admission wrapper) on the paper deployment or the
gateway tracing rig:

* ``paper_routes_a`` / ``paper_routes_b`` — every route and every payload
  kind it serves, one payload kind per station per run, with think time;
* ``errors`` — queue-full rejections, an unsupported payload and a 404;
* ``autoscaler`` — a controller re-provisioning two stations mid-run;
* ``rate_limited``, ``admitting``, ``admitting_over_limiter`` — the
  wrappers, alone and stacked;
* ``sponge`` — :func:`~repro.attacks.sponge.run_sponge_experiment`,
  whose attacked run sends two payload kinds to one station;
* ``traced_rig``, ``traced_paper``, ``traced_scenario`` and
  ``traced_scenario_lime_image`` — recording tracers: the tracing rig
  (one worker, a one-slot queue, stage weights) with queueing, both
  rejections and a 404; the paper deployment under queueing; and
  :func:`~repro.trace_scenario.run_traced_scenario` with its sensor
  probe, at its defaults and on ``lime`` with images.

Each run hashes, section by section, every ``RequestRecord`` field of
the load generator's responses and of ``gateway.records`` (in their
orders), every ``SummaryReport`` field (``per_route`` and ``timeline``
included), ``active_threads``, the station counters and the wrappers'
counters.  Traced runs add three span sections: ``structure`` (per
trace, each span's name, parent name, start, end and status),
``attributes`` (the same spans with their attributes; the probe's
wall-clock ``elapsed_ms`` is left out) and ``ids`` (span, trace and
parent ids in collection order, the records' trace links and the
events' exemplar labels).  The first two are sorted per trace and
across traces, so they do not depend on the order in which spans were
collected or ids drawn.  The digests were computed by the code in which
``dispatch`` sent each request down the station's closure-per-request
record path.  The ``ids`` sections of ``traced_rig``, ``traced_paper``
and ``traced_scenario_lime_image`` were re-pinned once, when ``dispatch``
moved onto the row path: a request's spans are now built when its row
completes, so requests in flight together draw their ids in completion
order (``traced_scenario``'s requests never overlap and kept theirs).
The four ``attributes`` sections were re-pinned once, for two dropped
attributes: ``service.process``'s ``busy_workers`` and ``service.queue``'s
``queue_depth``.  A row carries neither, and recording them would need a
station hook on every request; with both filtered out, the parent's
attributes reproduce exactly.  ``sponge`` was re-pinned once: its
attacked run sends tabular and image requests to one station, whose
service times now come from one pre-drawn block per payload kind
instead of one generator call per request in arrival order.  The
``responses``, ``active_threads``, ``records`` and ``events`` sections
of ``errors`` and ``traced_rig`` were re-pinned once, when a 404's
record started ending one routing leg after its arrival, when its
caller is answered, instead of at its arrival: those four sections
carry the 404s' ``end`` or response time, and with the 404s' ``end``
set back to their arrival they reproduce the parent's pins exactly.
"""

import hashlib
import json

import pytest

from repro.attacks.sponge import run_sponge_experiment, sponge_thread_group
from repro.gateway import (
    AdmittingGateway,
    LoadGenerator,
    RateLimitRule,
    RateLimitedGateway,
    ThreadGroup,
    build_paper_deployment,
)
from repro.gateway.autoscale import Autoscaler, AutoscalerPolicy
from repro.gateway.gateway import APIGateway
from repro.gateway.services import Machine, MicroService, ServiceTimeModel
from repro.gateway.simulation import Simulator
from repro.serving import PRIORITY_BATCH, PRIORITY_INTERACTIVE
from repro.telemetry import TelemetryBus
from repro.trace_scenario import run_traced_scenario
from repro.tracing import TraceCollector, Tracer

#: Span attributes measured by the wall clock, not the simulation.
VOLATILE_ATTRS = frozenset({"elapsed_ms"})


def _digest(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode()
    ).hexdigest()[:16]


def _record(record):
    request = record.request
    return [
        request.request_id,
        request.route,
        request.payload,
        request.created_at,
        record.arrival,
        record.start,
        record.end,
        record.success,
        record.error,
        record.trace is not None,
    ]


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


def _stations(gateway, duration):
    out = {}
    for route in gateway.routes:
        service = gateway.service(route)
        out[route] = [
            sorted(service.utilization_event(duration).attrs.items()),
            service.busy_seconds,
        ]
    return out


class _Tap:
    """A telemetry target that keeps every published event."""

    def __init__(self):
        self.bus = TelemetryBus()
        self.events = []

    def publish(self, topic, event):
        self.events.append(event)
        self.bus.publish(topic, event)

    def pump(self):
        self.bus.pump()


def _events(events):
    return [
        [
            event.source,
            event.value,
            event.timestamp,
            event.kind,
            sorted(event.attrs.items()),
        ]
        for event in events
    ]


def _labels(events):
    return [sorted(event.labels.items()) for event in events]


def _span_sections(collector, tracer):
    """The ``structure`` and ``attributes`` sections, sorted per trace
    and across traces, plus the ``ids`` in collection order."""
    spans = collector.all_spans()
    names = {span.context.span_id: span.name for span in spans}
    traces = {}
    for span in spans:
        traces.setdefault(span.context.trace_id, []).append(span)

    def parent(span):
        return names.get(span.parent_span_id, "")

    structure = sorted(
        sorted(
            [
                span.name,
                parent(span),
                span.start_time,
                span.end_time,
                span.status,
                span.status_message,
            ]
            for span in bucket
        )
        for bucket in traces.values()
    )
    attributes = sorted(
        sorted(
            [
                span.name,
                parent(span),
                span.start_time,
                span.end_time,
                sorted(
                    [key, value]
                    for key, value in span.attributes.items()
                    if key not in VOLATILE_ATTRS
                ),
            ]
            for span in bucket
        )
        for bucket in traces.values()
    )
    ids = [
        [
            span.name,
            span.context.trace_id,
            span.context.span_id,
            span.parent_span_id,
        ]
        for span in spans
    ]
    counts = [
        tracer.started,
        tracer.ended,
        sorted(collector.stats().items()),
    ]
    return {
        "structure": _digest([counts, structure]),
        "attributes": _digest(attributes),
        "ids": ids,
    }


def _trace_ids(records):
    return [
        None if r.trace is None else [r.trace.trace_id, r.trace.span_id]
        for r in records
    ]


def _loadgen_digests(
    sim, gateway, front, groups, extra=None, tracer=None, collector=None
):
    """Run ``groups`` through ``front`` (the gateway or a wrapper of it)."""
    tap = _Tap()
    generator = LoadGenerator(sim, front, telemetry=tap)
    for group in groups:
        generator.add_thread_group(group)
    report = generator.run()
    duration = report.duration_seconds
    out = {
        "report": _digest(_report(report)),
        "responses": _digest([_record(r) for r in generator.responses]),
        "active_threads": _digest(generator.active_threads),
        "records": _digest([_record(r) for r in gateway.records]),
        "stations": _digest(_stations(gateway, duration)),
        "events": _digest(_events(tap.events)),
    }
    if extra is not None:
        out["extra"] = _digest(extra())
    if tracer is not None:
        sections = _span_sections(collector, tracer)
        out["structure"] = sections["structure"]
        out["attributes"] = sections["attributes"]
        out["ids"] = _digest([
            sections["ids"],
            _trace_ids(generator.responses),
            _trace_ids(gateway.records),
            _labels(tap.events),
        ])
    return out


def paper_routes_a():
    sim, gateway = build_paper_deployment(seed=3)
    return _loadgen_digests(sim, gateway, gateway, [
        ThreadGroup("shap", n_threads=20, rampup_seconds=0.2, iterations=10),
        ThreadGroup(
            "lime", n_threads=6, rampup_seconds=0.1, iterations=3,
            payload="image",
        ),
        ThreadGroup(
            "occlusion", n_threads=5, rampup_seconds=0.1, iterations=4,
            payload="image",
        ),
        ThreadGroup("impact", n_threads=10, rampup_seconds=0.5, iterations=2),
        ThreadGroup(
            "ai_pipeline", n_threads=10, rampup_seconds=0.2, iterations=5,
            think_time=0.01,
        ),
    ])


def paper_routes_b():
    sim, gateway = build_paper_deployment(seed=4)
    return _loadgen_digests(sim, gateway, gateway, [
        ThreadGroup(
            "lime", n_threads=12, rampup_seconds=0.1, iterations=8,
            think_time=0.005,
        ),
        ThreadGroup(
            "shap", n_threads=4, rampup_seconds=0.1, iterations=3,
            payload="image",
        ),
    ])


def errors():
    sim, gateway = build_paper_deployment(seed=5)
    gateway.service("shap").queue_capacity = 2
    return _loadgen_digests(sim, gateway, gateway, [
        ThreadGroup("shap", n_threads=30, rampup_seconds=0.05, iterations=4),
        ThreadGroup(
            "impact", n_threads=3, rampup_seconds=0.1, iterations=2,
            payload="image",
        ),
        ThreadGroup("nope", n_threads=2, rampup_seconds=0.1, iterations=2),
        ThreadGroup(
            "ai_pipeline", n_threads=6, rampup_seconds=0.1, iterations=3
        ),
    ])


def autoscaler():
    sim, gateway = build_paper_deployment(seed=6)
    scaler = Autoscaler(
        sim,
        interval_seconds=0.05,
        policy=AutoscalerPolicy(min_workers=1, max_workers=8,
                                scale_up_ratio=1.0),
    )
    scaler.watch(gateway.service("shap"))
    scaler.watch(gateway.service("lime"))
    scaler.start(horizon_seconds=3.0)
    return _loadgen_digests(
        sim, gateway, gateway,
        [
            ThreadGroup(
                "shap", n_threads=40, rampup_seconds=0.2, iterations=10
            ),
            ThreadGroup(
                "lime", n_threads=20, rampup_seconds=0.1, iterations=5
            ),
        ],
        extra=lambda: [
            [e.time, e.service, e.from_workers, e.to_workers, e.queue_length]
            for e in scaler.events
        ],
    )


def rate_limited():
    sim, gateway = build_paper_deployment(seed=7)
    limiter = RateLimitedGateway(
        gateway, rules={"shap": RateLimitRule(30, 0.1)}
    )
    return _loadgen_digests(
        sim, gateway, limiter,
        [
            ThreadGroup(
                "shap", n_threads=20, rampup_seconds=0.1, iterations=10
            ),
            ThreadGroup("lime", n_threads=5, rampup_seconds=0.1, iterations=5),
        ],
        extra=lambda: [limiter.rejected],
    )


def _odd_ids_are_batch(request):
    return PRIORITY_BATCH if request.request_id % 2 else PRIORITY_INTERACTIVE


def admitting():
    sim, gateway = build_paper_deployment(seed=8)
    admission = AdmittingGateway(
        gateway, shed_depth=6, priority_of=_odd_ids_are_batch
    )
    return _loadgen_digests(
        sim, gateway, admission,
        [ThreadGroup("shap", n_threads=20, rampup_seconds=0.05, iterations=8)],
        extra=lambda: [
            admission.shed,
            sorted(admission.shed_by_route.items()),
            admission.in_flight("shap"),
        ],
    )


def admitting_over_limiter():
    sim, gateway = build_paper_deployment(seed=9)
    limiter = RateLimitedGateway(
        gateway, rules={"shap": RateLimitRule(25, 0.1)}
    )
    admission = AdmittingGateway(limiter, shed_depth=5)
    return _loadgen_digests(
        sim, gateway, admission,
        [
            ThreadGroup(
                "shap", n_threads=16, rampup_seconds=0.05, iterations=10
            ),
            ThreadGroup("lime", n_threads=8, rampup_seconds=0.1, iterations=4),
        ],
        extra=lambda: [limiter.rejected, admission.shed],
    )


def sponge():
    impact, baseline, attacked = run_sponge_experiment(
        build_paper_deployment,
        "lime",
        ThreadGroup("lime", n_threads=8, iterations=5, payload="tabular"),
        sponge_thread_group("lime", n_threads=6, iterations=3),
        seed=0,
    )
    return {
        "impact": _digest([
            impact.baseline_avg_ms,
            impact.attacked_avg_ms,
            impact.baseline_error_rate,
            impact.attacked_error_rate,
        ]),
        "baseline": _digest(_report(baseline)),
        "attacked": _digest(_report(attacked)),
    }


def _traced_deployment(seed):
    collector = TraceCollector(max_traces=1 << 14)
    clock = {}
    tracer = Tracer(
        clock=lambda: clock["sim"].now, collector=collector, seed=seed
    )
    sim, gateway = build_paper_deployment(seed=seed, tracer=tracer)
    clock["sim"] = sim
    return sim, gateway, tracer, collector


def traced_rig():
    sim = Simulator()
    collector = TraceCollector(max_traces=1 << 14)
    tracer = Tracer(clock=lambda: sim.now, collector=collector, seed=0)
    gateway = APIGateway(sim, overhead_seconds=0.002, tracer=tracer)
    gateway.register(
        MicroService(
            name="svc",
            machine=Machine("host", vcpus=4, ram_gb=4),
            service_time=ServiceTimeModel(
                {"tabular": 0.1}, jitter=0.0, seed=0
            ),
            concurrency=1,
            queue_capacity=1,
            stages={"pipeline.preprocess": 1.0, "pipeline.predict": 3.0},
        )
    )
    return _loadgen_digests(
        sim, gateway, gateway,
        [
            ThreadGroup("svc", n_threads=3, rampup_seconds=0.0, iterations=4),
            ThreadGroup(
                "svc", n_threads=1, rampup_seconds=0.0, iterations=2,
                payload="image", think_time=0.05,
            ),
            ThreadGroup("nope", n_threads=1, rampup_seconds=0.0, iterations=2),
        ],
        tracer=tracer,
        collector=collector,
    )


def traced_paper():
    sim, gateway, tracer, collector = _traced_deployment(seed=10)
    gateway.service("shap").queue_capacity = 4
    return _loadgen_digests(
        sim, gateway, gateway,
        [
            ThreadGroup(
                "shap", n_threads=12, rampup_seconds=0.01, iterations=3
            ),
            ThreadGroup(
                "lime", n_threads=3, rampup_seconds=0.01, iterations=2,
                payload="image",
            ),
            ThreadGroup(
                "ai_pipeline", n_threads=4, rampup_seconds=0.0, iterations=2,
                think_time=0.02,
            ),
        ],
        tracer=tracer,
        collector=collector,
    )


def _scenario_digests(**kwargs):
    result = run_traced_scenario(**kwargs)
    sections = _span_sections(result.collector, result.tracer)
    resolution = result.slowest_window_resolution()
    return {
        "report": _digest(_report(result.report)),
        "events": _digest(_events(result.events)),
        "structure": sections["structure"],
        "attributes": sections["attributes"],
        "ids": _digest([
            sections["ids"],
            _labels(result.events),
            None if resolution is None else resolution.trace_ids,
        ]),
    }


def traced_scenario():
    return _scenario_digests()


def traced_scenario_lime_image():
    return _scenario_digests(
        route="lime", payload="image", n_threads=6, iterations=2, seed=2
    )


GOLDEN = {
    "paper_routes_a": {
        "report": "1816601aa1c123a1",
        "responses": "6092f21b327e3dc5",
        "active_threads": "a9cab74a75b3417f",
        "records": "6092f21b327e3dc5",
        "stations": "86b94be9602be52f",
        "events": "5e8c6ad50b279c0c",
    },
    "paper_routes_b": {
        "report": "95490feb9bb3529b",
        "responses": "c3b919dc17d3f4b3",
        "active_threads": "7cb16ffa5ca9da5c",
        "records": "c3b919dc17d3f4b3",
        "stations": "2db5812274be9bcb",
        "events": "f6ad45e7a9ce0f0d",
    },
    "errors": {
        "report": "1e6a769694fa2ee0",
        "responses": "8f5c616f1cf1cad0",
        "active_threads": "3c8b62ff94a6a737",
        "records": "ec945fab16ede279",
        "stations": "29b96ae97706fe7d",
        "events": "b20181d094513620",
    },
    "autoscaler": {
        "report": "7b06a123e1829081",
        "responses": "f37006ada83fa03a",
        "active_threads": "94dfb6860d76ac6a",
        "records": "f37006ada83fa03a",
        "stations": "90813a0da24c0261",
        "events": "7bb4aaa5aee25b22",
        "extra": "2fb7a4c6081101b5",
    },
    "rate_limited": {
        "report": "b7163be46ad7d5f5",
        "responses": "6e88432d2932652c",
        "active_threads": "282504258b0a8ce3",
        "records": "6e88432d2932652c",
        "stations": "883bcef6605351a6",
        "events": "c0149da2b0093f75",
        "extra": "d76e4c0bc9e7734f",
    },
    "admitting": {
        "report": "69295881ae22403c",
        "responses": "f24d96e15045a184",
        "active_threads": "c545ef50f5c98e7c",
        "records": "f24d96e15045a184",
        "stations": "7714e612a9b8a671",
        "events": "543d408b4f9ae730",
        "extra": "8af86332b580c0db",
    },
    "admitting_over_limiter": {
        "report": "23d575ec0009e452",
        "responses": "1c08db3e6c3ac76a",
        "active_threads": "5ed5ceb6abd857b6",
        "records": "1c08db3e6c3ac76a",
        "stations": "4f5c22ca9d7fcb1e",
        "events": "78d98846a10a464e",
        "extra": "22aefa5fb421cf6e",
    },
    "sponge": {
        "impact": "ce033aba467f5b6f",
        "baseline": "e306b277874971f2",
        "attacked": "9de803c1e5f93a00",
    },
    "traced_rig": {
        "report": "ce4a04a638b3a7e5",
        "responses": "15c74420b796ffde",
        "active_threads": "856bae3db8c9c156",
        "records": "718500c926c3bb8e",
        "stations": "65987ee193c662e5",
        "events": "2cf649510f077ba5",
        "structure": "29186a15a1c62039",
        "attributes": "d5e4626691db2fca",
        "ids": "85a70af5af7b4b78",
    },
    "traced_paper": {
        "report": "9b71401299b2894a",
        "responses": "92d9a842b1499429",
        "active_threads": "4644e0bc011b975f",
        "records": "92d9a842b1499429",
        "stations": "fb19f8445c5126d6",
        "events": "59c3f1b4e6eb4d93",
        "structure": "53fbaf89f01de33d",
        "attributes": "08806344d0d0c4d2",
        "ids": "349d47f296668e39",
    },
    "traced_scenario": {
        "report": "e233accba53597ca",
        "events": "edbe327cb8027c40",
        "structure": "67bdab356be8f5af",
        "attributes": "f00056a1aa1c5b71",
        "ids": "3600fffb343cd6ef",
    },
    "traced_scenario_lime_image": {
        "report": "d453ffb78c900b68",
        "events": "fa3e4b5afd69c7fd",
        "structure": "8d2970a01d899ae0",
        "attributes": "4cabdb044e992632",
        "ids": "c9ef597adcaf014d",
    },
}

RUNS = {
    "paper_routes_a": paper_routes_a,
    "paper_routes_b": paper_routes_b,
    "errors": errors,
    "autoscaler": autoscaler,
    "rate_limited": rate_limited,
    "admitting": admitting,
    "admitting_over_limiter": admitting_over_limiter,
    "sponge": sponge,
    "traced_rig": traced_rig,
    "traced_paper": traced_paper,
    "traced_scenario": traced_scenario,
    "traced_scenario_lime_image": traced_scenario_lime_image,
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_gateway_outputs_match_golden(name):
    assert RUNS[name]() == GOLDEN[name]


if __name__ == "__main__":
    for run_name in RUNS:
        print(f"    {run_name!r}: {RUNS[run_name]()!r},")
