"""API gateway (the Kong stand-in).

"The API Gateway manages the communication flow, ensuring that each
micro-service receives the necessary input, processes it, and returns the
appropriate response" (§V).  The simulated gateway adds a small per-request
routing overhead on both legs, keeps a route table, and rejects unknown
routes — the behaviours that shape the latency measurements.

``dispatch`` sends a request to its station as a row of the gateway's
own :class:`~repro.gateway.records.RecordLog`, and rebuilds the
:class:`~repro.gateway.services.RequestRecord` (and, when tracing, the
span tree) from the row's stamps once the station is done with it.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.gateway.records import RecordLog
from repro.gateway.services import (
    MicroService,
    Request,
    RequestRecord,
)
from repro.gateway.simulation import Simulator
from repro.tracing import NULL_SPAN, NULL_TRACER, SpanContext

__all__ = ["APIGateway", "StationBoundError", "base_gateway"]


class StationBoundError(RuntimeError):
    """A dispatch reached a station a capacity runner has bound to its
    own record log (sending it the gateway's rows would mix two logs)."""


def base_gateway(gateway) -> "APIGateway":
    """The :class:`APIGateway` under a stack of wrappers (rate limiter,
    admission, in either order), where records and the tracer live."""
    while not isinstance(gateway, APIGateway):
        gateway = gateway.gateway
    return gateway


class APIGateway:
    """Route table + dispatch with per-leg routing overhead.

    Parameters
    ----------
    sim:
        The simulator everything is scheduled on.
    overhead_seconds:
        One-way gateway processing cost (proxying, auth, header rewrite);
        applied once on the request leg and once on the response leg.
    tracer:
        Span factory (defaults to the no-op
        :data:`~repro.tracing.tracer.NULL_TRACER`).  With a recording
        tracer every dispatch roots one ``gateway.request`` trace whose
        children cover the routing legs, service queueing/processing and
        any pipeline stages — the waterfall ``python -m repro trace``
        renders.
    """

    def __init__(
        self,
        sim: Simulator,
        overhead_seconds: float = 0.002,
        tracer=NULL_TRACER,
    ) -> None:
        if overhead_seconds < 0:
            raise ValueError("overhead must be non-negative")
        self.sim = sim
        self.overhead_seconds = overhead_seconds
        self.tracer = tracer
        self._routes: Dict[str, MicroService] = {}
        self.records: List[RequestRecord] = []
        #: One recycled row per request in flight at a station.
        self.log = RecordLog(initial_capacity=64, retain=False)

    def register(self, service: MicroService) -> None:
        """Expose a micro-service under its name as a route (and bind its
        station to the gateway's log)."""
        if service.name in self._routes:
            raise ValueError(f"route {service.name!r} already registered")
        self._routes[service.name] = service
        service.use_columnar(self.log, self.sim, self._row_done)

    def unregister(self, route: str) -> None:
        """Retire a route (micro-service replaced — §V's metric evolution)."""
        if route not in self._routes:
            raise KeyError(f"unknown route {route!r}")
        del self._routes[route]

    @property
    def routes(self) -> List[str]:
        return sorted(self._routes)

    def service(self, route: str) -> MicroService:
        """The micro-service behind a route (e.g. to wire a trace probe)."""
        if route not in self._routes:
            raise KeyError(f"unknown route {route!r}")
        return self._routes[route]

    def dispatch(
        self,
        request: Request,
        on_response: Callable[[RequestRecord], None],
    ) -> None:
        """Route a request: gateway leg → service → gateway response leg.

        The caller's ``on_response`` fires at the virtual time the client
        receives the response; the record's ``arrival`` is the time the
        request hit the gateway, so ``response_time`` includes both gateway
        legs plus queueing and service time.
        """
        arrived = self.sim.now
        request.created_at = arrived
        service = self._routes.get(request.route)
        if service is None:
            self._not_found(request, on_response)
            return
        log = self.log
        if service._log is not log:
            raise StationBoundError(
                f"route {request.route!r} is driven by a capacity runner"
            )
        # the row carries the dispatch time; the submit event fires at
        # exactly arrival + overhead
        row = log.append(
            log.intern_route(request.route),
            log.intern_payload(request.payload),
            arrived,
        )
        log.slots[row] = (request, on_response)
        self.sim.schedule_call(self.overhead_seconds, service.submit_row, row)

    def _not_found(self, request: Request, on_response) -> None:
        """Answer an unknown route with a 404 one routing leg later."""
        now = self.sim.now
        answered = now + self.overhead_seconds
        error = f"404 unknown route {request.route!r}"
        record = RequestRecord(
            request=request,
            arrival=now,
            start=now,
            end=answered,
            success=False,
            error=error,
        )
        self.records.append(record)
        if self.tracer.is_recording:
            root = self._root(request, now)
            self.tracer.start_span(
                "gateway.route", parent=root, start_time=now
            ).record_error(error).end(at=answered)
            root.record_error(error).end(at=answered)
            record.trace = root.context
        self.sim.schedule_call(self.overhead_seconds, on_response, record)

    def _root(self, request: Request, at: float):
        return self.tracer.start_span(
            "gateway.request",
            start_time=at,
            attributes={
                "route": request.route,
                "request_id": float(request.request_id),
            },
        )

    def refuse(
        self,
        request: Request,
        on_response: Callable[[RequestRecord], None],
        error: str,
        **attributes,
    ) -> None:
        """Fail a request in front of the route table (a wrapper's 429 or
        shed): recorded at once, answered on the next event, one error
        span with ``route`` and ``attributes`` when tracing."""
        now = self.sim.now
        record = RequestRecord(
            request=request,
            arrival=now,
            start=now,
            end=now,
            success=False,
            error=error,
        )
        span = self.tracer.start_span("gateway.request", start_time=now)
        if span.is_recording:
            span.set_attribute("route", request.route)
            span.attributes.update(attributes)
            record.trace = span.context
        span.record_error(error).end(at=now)
        self.records.append(record)
        self.sim.schedule_call(0.0, on_response, record)

    def _row_done(self, service: MicroService, row: int, ok: bool) -> None:
        """Station sink: rebuild the record, then the response leg."""
        log = self.log
        request, on_response = log.slots[row]
        log.slots[row] = None
        finish = self.sim.now
        record = RequestRecord(
            request=request,
            arrival=log.v_arrival[row],
            start=log.v_start[row],
            end=finish + self.overhead_seconds,
            success=ok,
            error="" if ok else log.error_message(log.v_error_codes[row]),
        )
        log.release(row)
        tracer = self.tracer
        if tracer.is_recording:
            record.trace = self.trace_record(service, record, finish)
        elif ok and service.probe is not None:
            service.probe(tracer, NULL_SPAN, record)
        self.sim.schedule_call(
            self.overhead_seconds, self._deliver, (record, on_response)
        )

    def _deliver(self, response) -> None:
        record, on_response = response
        self.records.append(record)
        on_response(record)

    def trace_record(
        self, service: MicroService, record: RequestRecord, finish: float
    ) -> SpanContext:
        """Build a finished request's span tree from its record's stamps
        and the time the station ``finish``-ed it; return the root context.

        The legs, the queue wait, processing with its stage children and
        the service's probe (or the fail-fast rejection): what a live
        trace would have recorded, with nothing scheduled.  A request
        served without station work (a cache hit) gets the legs only.
        """
        span = self.tracer.start_span
        start = record.start
        submitted = record.arrival + self.overhead_seconds
        attrs = {"service": service.name}
        root = self._root(record.request, record.arrival)
        span("gateway.route", parent=root, start_time=record.arrival).end(
            at=submitted
        )
        if not record.success:
            span("service.reject", parent=root, start_time=start,
                 attributes=attrs).record_error(record.error).end(at=start)
            root.record_error(record.error)
        elif finish > start:
            if start > submitted:
                span("service.queue", parent=root, start_time=submitted,
                     attributes=attrs).end(at=start)
            process = span("service.process", parent=root, start_time=start,
                           attributes=attrs)
            process.set_attribute("payload", record.request.payload)
            stages = service.stages or {}
            total = sum(stages.values())
            cursor = start
            for i, stage in enumerate(stages, 1):
                # the stages partition the processing span *exactly* (the
                # critical path depends on it): the last absorbs the residue
                stage_end = (
                    cursor + (finish - start) * stages[stage] / total
                    if i < len(stages) else finish
                )
                span(stage, parent=process, start_time=cursor,
                     attributes=attrs).end(at=stage_end)
                cursor = stage_end
            if service.probe is not None:
                service.probe(self.tracer, process, record)
            process.end(at=finish)
        span("gateway.respond", parent=root, start_time=finish).end(
            at=record.end
        )
        root.end(at=record.end)
        return root.context

