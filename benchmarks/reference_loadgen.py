"""Seed record-path load generator — the pre-columnar implementation.

This module preserves, essentially verbatim, the closure-chain
:class:`LoadGenerator` and re-filtering ``from_records`` aggregation that
the columnar capacity pipeline (:class:`~repro.gateway.capacity.CapacityRunner`
over a :class:`~repro.gateway.records.RecordLog`) replaced, together with
the station half it drove: the gateway's closure-per-request ``dispatch``
and the station's record path (``submit``/``_start`` over a FIFO of
tuple entries, one scalar service-time draw per request), copied from
the code before every request became a station row.  It exists for
two consumers.  ``benchmarks/bench_capacity_scale.py`` measures the
columnar path's speedup against exactly this implementation —
per-iteration ``Request``/closure-pair allocation, three closures per
dispatch, one retained ``RequestRecord`` per request, and an
O(routes × records) re-filtering summary pass.
``benchmarks/bench_tracing.py`` drives :class:`SeedGateway` alone with
the shipped ``LoadGenerator``, as the untraced dispatch the gateway's
row path under the ``NullTracer`` is held to.

It is deliberately allocation-heavy, which is why it lives with the
benchmarks rather than in the shipped package.

Mirrors ``tests/xai/reference_shap.py`` (the pre-vectorization Kernel SHAP
oracle) in spirit: the seed stays runnable so the benchmark's baseline is
the real former implementation, not a degraded stand-in.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.gateway.gateway import APIGateway
from repro.gateway.loadgen import SummaryReport, ThreadGroup
from repro.gateway.services import MicroService, Request, RequestRecord
from repro.gateway.simulation import Simulator
from repro.tracing import NULL_SPAN, NULL_TRACER

__all__ = [
    "ReferenceLoadGenerator",
    "SeedGateway",
    "reference_from_records",
]


def reference_from_records(
    records: List[RequestRecord], duration: float
) -> SummaryReport:
    """The seed ``SummaryReport.from_records``: re-filters per route.

    Builds the per-route breakdown by scanning the full record list once
    per route (the O(routes × records) pass the grouped implementation
    replaced).  Faithful to the seed except for the all-errors case,
    where it reports zeros like the fixed implementation instead of
    summarising a fabricated ``[0.0]`` sample.
    """
    if not records:
        return SummaryReport(0, 0, 0.0, 0.0, 0.0, 0.0, 0.0, duration)
    ok = [r for r in records if r.success]
    if ok:
        times_ms = np.array([r.response_time * 1000.0 for r in ok])
        avg = float(times_ms.mean())
        median = float(np.median(times_ms))
        p95 = float(np.percentile(times_ms, 95))
        p99 = float(np.percentile(times_ms, 99))
        peak = float(times_ms.max())
        timeline = sorted((r.end, r.response_time * 1000.0) for r in ok)
    else:
        avg = median = p95 = p99 = peak = 0.0
        timeline = []
    report = SummaryReport(
        n_requests=len(records),
        n_errors=len(records) - len(ok),
        avg_response_ms=avg,
        median_response_ms=median,
        p95_response_ms=p95,
        max_response_ms=peak,
        throughput_rps=len(ok) / duration if duration > 0 else 0.0,
        duration_seconds=duration,
        p99_response_ms=p99,
        timeline=timeline,
    )
    routes = {r.request.route for r in records}
    if len(routes) > 1:
        for route in sorted(routes):
            subset = [r for r in records if r.request.route == route]
            report.per_route[route] = reference_from_records(subset, duration)
    return report


class _SeedServiceTime:
    """The seed scalar draw over a shipped model's generator."""

    def __init__(self, model) -> None:
        self.base_seconds = model.base_seconds
        self.jitter = model.jitter
        self._rng = model._rng

    def sample(self, payload: str) -> float:
        """Draw one service time for a payload kind."""
        if payload not in self.base_seconds:
            raise KeyError(
                f"service does not handle payload {payload!r}; "
                f"supported: {sorted(self.base_seconds)}"
            )
        base = self.base_seconds[payload]
        if self.jitter == 0:
            return base
        return float(base * self._rng.lognormal(0.0, self.jitter))

    def supports(self, payload: str) -> bool:
        return payload in self.base_seconds


CompletionCallback = Callable[[RequestRecord], None]


class _SeedStation:
    """The seed station's record path: ``submit``/``_start`` with tuple
    FIFO entries, built from a shipped station's configuration.

    The reference never traces and never queues rows or batches, so the
    helpers only those paths call (``_reject_span``,
    ``_materialize_stages``, ``_start_row``, ``_start_batch``) are left
    out; the checks that guard them stay, as the seed paid for them.
    """

    def __init__(self, service: MicroService) -> None:
        self.name = service.name
        self.service_time = _SeedServiceTime(service.service_time)
        self.concurrency = service.concurrency
        self.queue_capacity = service.queue_capacity
        self.stages = service.stages
        self.probe = None
        self._busy = 0
        self._waiting: deque = deque()
        self.completed: List[RequestRecord] = []
        self.rejected = 0
        self._peak_queue = 0
        self._busy_seconds = 0.0
        self._slow = 1.0

    def submit(
        self,
        request: Request,
        sim: Simulator,
        on_complete: CompletionCallback,
        tracer=NULL_TRACER,
        parent=None,
    ) -> None:
        """Accept (or reject) a request at the current virtual time."""
        record = RequestRecord(request=request, arrival=sim.now)
        if not self.service_time.supports(request.payload):
            record.success = False
            record.error = f"unsupported payload {request.payload!r}"
            record.start = record.end = sim.now
            if tracer.is_recording:
                self._reject_span(record, sim, tracer, parent)
            self.completed.append(record)
            on_complete(record)
            return
        if self._busy < self.concurrency:
            self._busy += 1
            self._start(record, sim, on_complete, tracer, parent)
        elif len(self._waiting) < self.queue_capacity:
            queue_span = NULL_SPAN
            if tracer.is_recording:
                queue_span = tracer.start_span(
                    "service.queue", parent=parent, start_time=sim.now
                )
                queue_span.set_attribute("service", self.name)
                queue_span.set_attribute(
                    "queue_depth", float(len(self._waiting))
                )
            self._waiting.append(
                (record, sim, on_complete, tracer, parent, queue_span)
            )
            self._peak_queue = max(self._peak_queue, len(self._waiting))
        else:
            self.rejected += 1
            record.success = False
            record.error = "queue full (503)"
            record.start = record.end = sim.now
            if tracer.is_recording:
                self._reject_span(record, sim, tracer, parent)
            self.completed.append(record)
            on_complete(record)

    def _start(
        self,
        record: RequestRecord,
        sim: Simulator,
        on_complete: CompletionCallback,
        tracer=NULL_TRACER,
        parent=None,
        queue_span=None,
    ) -> None:
        """Serve a record on a worker the caller has already claimed."""
        record.start = sim.now
        recording = tracer.is_recording
        if recording and queue_span is not None:
            queue_span.end(at=sim.now)
        payload = record.request.payload
        duration = self.service_time.sample(payload) * self._slow
        process_span = NULL_SPAN
        if recording:
            process_span = tracer.start_span(
                "service.process", parent=parent, start_time=sim.now
            )
            process_span.set_attribute("service", self.name)
            process_span.set_attribute("payload", payload)
            process_span.set_attribute("busy_workers", float(self._busy))
            record.trace = process_span.context

        def finish() -> None:
            record.end = sim.now
            self._busy_seconds += record.end - record.start
            self.completed.append(record)
            if recording and self.stages:
                self._materialize_stages(process_span, record, tracer)
            if self.probe is not None:
                self.probe(tracer, process_span, record)
            if recording:
                process_span.end(at=sim.now)
            self._release_worker()
            on_complete(record)

        sim.schedule(duration, finish)

    def _release_worker(self) -> None:
        """A worker finished: hand it to the queue head, or free it."""
        waiting = self._waiting
        if waiting and self._busy <= self.concurrency:
            self._start_entry(waiting.popleft())
        else:
            self._busy -= 1

    def _start_entry(self, entry) -> None:
        """Start one queue entry on a claimed worker."""
        if type(entry) is int:
            self._start_row(entry)
        elif type(entry) is list:
            self._start_batch(entry)
        else:
            self._start(*entry)


class SeedGateway:
    """The seed ``APIGateway.dispatch``: three closures per request, over
    seed stations built from a shipped deployment's route table."""

    def __init__(self, gateway: APIGateway) -> None:
        self.sim = gateway.sim
        self.overhead_seconds = gateway.overhead_seconds
        self.tracer = NULL_TRACER
        self._routes: Dict[str, _SeedStation] = {
            route: _SeedStation(gateway.service(route))
            for route in gateway.routes
        }
        self.records: List[RequestRecord] = []

    def dispatch(
        self,
        request: Request,
        on_response: Callable[[RequestRecord], None],
    ) -> None:
        """Route a request: gateway leg → service → gateway response leg."""
        arrived = self.sim.now
        request.created_at = arrived
        tracer = self.tracer
        # branch once: the untraced hot path must not even pay for no-op
        # span calls (the bench holds it within 5% of uninstrumented code)
        recording = tracer.is_recording
        root = NULL_SPAN
        if recording:
            root = tracer.start_span("gateway.request", start_time=arrived)
            root.set_attribute("route", request.route)
            root.set_attribute("request_id", float(request.request_id))
        if request.route not in self._routes:
            error = f"404 unknown route {request.route!r}"
            record = RequestRecord(
                request=request,
                arrival=arrived,
                start=arrived,
                end=arrived,
                success=False,
                error=error,
            )
            route_span = (
                tracer.start_span(
                    "gateway.route", parent=root, start_time=arrived
                )
                if recording
                else NULL_SPAN
            )
            self.records.append(record)

            def reject() -> None:
                if recording:
                    route_span.record_error(error).end(at=self.sim.now)
                    record.trace = root.context
                    root.record_error(error).end(at=self.sim.now)
                on_response(record)

            self.sim.schedule(self.overhead_seconds, reject)
            return
        service = self._routes[request.route]
        route_span = (
            tracer.start_span("gateway.route", parent=root, start_time=arrived)
            if recording
            else NULL_SPAN
        )

        def submit() -> None:
            if recording:
                route_span.end(at=self.sim.now)
            service.submit(request, self.sim, service_done, tracer, root)

        def service_done(record: RequestRecord) -> None:
            # response leg back through the gateway
            respond_span = (
                tracer.start_span(
                    "gateway.respond", parent=root, start_time=self.sim.now
                )
                if recording
                else NULL_SPAN
            )

            def deliver() -> None:
                record.arrival = arrived  # account both gateway legs
                record.end = self.sim.now
                if recording:
                    respond_span.end(at=record.end)
                    record.trace = root.context
                    if not record.success:
                        root.record_error(record.error)
                    root.end(at=record.end)
                self.records.append(record)
                on_response(record)

            self.sim.schedule(self.overhead_seconds, deliver)

        self.sim.schedule(self.overhead_seconds, submit)


class ReferenceLoadGenerator:
    """The seed closed-loop generator: one fresh closure pair per iteration.

    Every iteration of every virtual user allocates a ``send`` closure, a
    ``Request`` dataclass, an ``on_response`` closure and a retained
    ``RequestRecord`` — the per-request allocation profile the columnar
    runner's reusable ``__slots__`` user objects replaced.  Requests go
    through the seed gateway and stations, rebuilt from ``gateway``'s
    route table (the shipped stations are left unbound and untouched).
    """

    def __init__(self, sim: Simulator, gateway: APIGateway) -> None:
        self.sim = sim
        self.gateway = SeedGateway(gateway)
        self.responses: List[RequestRecord] = []
        #: (active in-flight requests at send time, response ms) per response
        self.active_threads: List[Tuple[int, float]] = []
        self._next_id = 0
        self._in_flight = 0

    def add_thread_group(self, group: ThreadGroup) -> None:
        """Schedule all virtual users of a thread group (linear ramp-up)."""
        spacing = (
            group.rampup_seconds / group.n_threads if group.n_threads else 0.0
        )
        for thread in range(group.n_threads):
            start_at = thread * spacing
            self.sim.schedule(
                start_at, self._make_user(group, remaining=group.iterations)
            )

    def _make_user(self, group: ThreadGroup, remaining: int):
        def send() -> None:
            self._next_id += 1
            self._in_flight += 1
            active_at_send = self._in_flight
            request = Request(
                request_id=self._next_id,
                route=group.route,
                payload=group.payload,
            )

            def on_response(record: RequestRecord) -> None:
                self._in_flight -= 1
                self.responses.append(record)
                self.active_threads.append(
                    (active_at_send, record.response_time * 1000.0)
                )
                if remaining > 1:
                    self.sim.schedule(
                        group.think_time,
                        self._make_user(group, remaining - 1),
                    )

            self.gateway.dispatch(request, on_response)

        return send

    def run(self, until: Optional[float] = None) -> SummaryReport:
        """Run to completion; summarise with the seed re-filtering pass."""
        end_time = self.sim.run(until=until)
        return reference_from_records(self.responses, duration=end_time)
