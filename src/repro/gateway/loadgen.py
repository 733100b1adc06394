"""JMeter-equivalent load generation and reporting.

Models JMeter's *ultimate thread group*: N closed-loop virtual users started
over a ramp-up period, each repeatedly issuing a request and waiting for the
response (plus optional think time).  The :class:`SummaryReport` reproduces
the Summary Report / Response-Times-Over-Active-Threads listeners the paper
uses: average response time, percentiles, throughput and error rate, plus a
binned response-time-over-virtual-time series for the Fig. 8 curves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.gateway.gateway import APIGateway
from repro.gateway.services import Request, RequestRecord
from repro.gateway.simulation import Simulator
from repro.telemetry.events import (
    KIND_LOAD_SUMMARY,
    KIND_RESPONSE,
    TelemetryEvent,
)


@dataclass
class ThreadGroup:
    """A JMeter thread group: closed-loop virtual users against one route."""

    route: str
    n_threads: int
    rampup_seconds: float = 1.0
    iterations: int = 1
    payload: str = "tabular"
    think_time: float = 0.0

    def __post_init__(self) -> None:
        if self.n_threads < 1:
            raise ValueError("n_threads must be >= 1")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.rampup_seconds < 0 or self.think_time < 0:
            raise ValueError("timings must be non-negative")


@dataclass
class SummaryReport:
    """JMeter-style aggregate listener output for one load test."""

    n_requests: int
    n_errors: int
    avg_response_ms: float
    median_response_ms: float
    p95_response_ms: float
    max_response_ms: float
    throughput_rps: float
    duration_seconds: float
    p99_response_ms: float = 0.0
    per_route: Dict[str, "SummaryReport"] = field(default_factory=dict)
    #: (virtual time of response, response ms) pairs, response order
    timeline: List[Tuple[float, float]] = field(default_factory=list)

    @property
    def error_rate(self) -> float:
        return self.n_errors / self.n_requests if self.n_requests else 0.0

    @staticmethod
    def from_records(
        records: List[RequestRecord], duration: float
    ) -> "SummaryReport":
        """Build the aggregate (and per-route breakdown) from raw records.

        One grouping pass over the records; the per-route breakdown is
        built from the grouped lists instead of re-filtering the full
        list once per route (the seed behaviour, O(routes × records)).
        """
        if not records:
            return SummaryReport(0, 0, 0.0, 0.0, 0.0, 0.0, 0.0, duration)
        groups: Dict[str, List[RequestRecord]] = {}
        for record in records:
            bucket = groups.get(record.request.route)
            if bucket is None:
                groups[record.request.route] = bucket = []
            bucket.append(record)
        report = SummaryReport._aggregate(records, duration)
        if len(groups) > 1:
            for route in sorted(groups):
                report.per_route[route] = SummaryReport._aggregate(
                    groups[route], duration
                )
        return report

    @staticmethod
    def _aggregate(
        records: List[RequestRecord], duration: float
    ) -> "SummaryReport":
        """Summary of one already-grouped record list (no route recursion)."""
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
            # every record failed: there is no latency sample to summarise —
            # report zeros with n_errors == n_requests rather than the
            # statistics of a fabricated [0.0] sample
            avg = median = p95 = p99 = peak = 0.0
            timeline = []
        return SummaryReport(
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

    def to_events(
        self, source: str = "loadtest", timestamp: Optional[float] = None
    ) -> List[TelemetryEvent]:
        """The report as telemetry: one summary event per (sub)route.

        Capacity experiments thereby feed the same stream as the sensor
        monitors — a Fig. 8 run can be WAL-persisted, rolled up and
        queried exactly like trust readings.  ``value`` is the average
        response time in milliseconds; percentiles, throughput and the
        error rate ride in ``attrs``.
        """
        at = self.duration_seconds if timestamp is None else timestamp
        events = [
            TelemetryEvent(
                source=source,
                value=self.avg_response_ms,
                timestamp=at,
                kind=KIND_LOAD_SUMMARY,
                attrs={
                    "n_requests": float(self.n_requests),
                    "n_errors": float(self.n_errors),
                    "median_response_ms": self.median_response_ms,
                    "p95_response_ms": self.p95_response_ms,
                    "p99_response_ms": self.p99_response_ms,
                    "max_response_ms": self.max_response_ms,
                    "throughput_rps": self.throughput_rps,
                    "error_rate": self.error_rate,
                    "duration_seconds": self.duration_seconds,
                },
            )
        ]
        for route, report in self.per_route.items():
            events.extend(
                report.to_events(source=f"{source}.{route}", timestamp=at)
            )
        return events

    def render_text(self) -> str:
        """One-line summary in the JMeter Summary Report layout."""
        return (
            f"samples={self.n_requests} avg={self.avg_response_ms:.1f}ms "
            f"med={self.median_response_ms:.1f}ms p95={self.p95_response_ms:.1f}ms "
            f"max={self.max_response_ms:.1f}ms tput={self.throughput_rps:.2f}/s "
            f"err={100 * self.error_rate:.1f}%"
        )


class _RecordUser:
    """One closed-loop virtual user as a reusable state object.

    The seed implementation rebuilt a fresh ``send``/``on_response``
    closure pair for every iteration of every user; this object is
    allocated once per virtual user and its bound methods are the
    scheduled callbacks.  A closed-loop user has at most one request in
    flight, so one ``_active_at_send`` slot per user suffices.
    """

    __slots__ = ("gen", "group", "remaining", "_active_at_send")

    def __init__(self, gen: "LoadGenerator", group: ThreadGroup) -> None:
        self.gen = gen
        self.group = group
        self.remaining = group.iterations
        self._active_at_send = 0

    def send(self) -> None:
        gen = self.gen
        gen._next_id += 1
        gen._in_flight += 1
        self._active_at_send = gen._in_flight
        self.remaining -= 1
        request = Request(
            request_id=gen._next_id,
            route=self.group.route,
            payload=self.group.payload,
        )
        gen.gateway.dispatch(request, self.on_response)

    def on_response(self, record: RequestRecord) -> None:
        gen = self.gen
        gen._in_flight -= 1
        gen.responses.append(record)
        gen.active_threads.append(
            (self._active_at_send, record.response_time * 1000.0)
        )
        if gen.telemetry is not None:
            event = TelemetryEvent(
                source=record.request.route,
                value=record.response_time * 1000.0,
                timestamp=record.end,
                kind=KIND_RESPONSE,
                attrs={
                    "wait_ms": record.wait_time * 1000.0,
                    "active_threads": float(self._active_at_send),
                    "success": 1.0 if record.success else 0.0,
                },
            )
            if record.trace is not None:
                # exemplar link: this latency sample → its trace
                event.with_trace(record.trace.trace_id, record.trace.span_id)
            gen.telemetry.publish(gen.topic, event)
        if self.remaining > 0:
            gen.sim.schedule(self.group.think_time, self.send)


class LoadGenerator:
    """Drives thread groups against a gateway on a shared simulator.

    Besides the summary, the generator keeps the *Response Times Over
    Active Threads* series JMeter's listener shows (``active_threads``):
    for every response, the number of requests that were in flight when it
    was issued.
    """

    def __init__(
        self,
        sim: Simulator,
        gateway: APIGateway,
        telemetry=None,
        topic: str = "gateway",
    ) -> None:
        self.sim = sim
        self.gateway = gateway
        #: Optional telemetry target (`TelemetryPipeline` or `TelemetryBus`);
        #: every response becomes a per-route event and :meth:`run` appends
        #: the summary, so load tests share the monitoring stream.
        self.telemetry = telemetry
        self.topic = topic
        self.responses: List[RequestRecord] = []
        #: (active in-flight requests at send time, response ms) per response
        self.active_threads: List[Tuple[int, float]] = []
        self._next_id = 0
        self._in_flight = 0

    def add_thread_group(self, group: ThreadGroup) -> None:
        """Schedule all virtual users of a thread group.

        Thread *i* starts at ``i * rampup / n_threads`` (JMeter's linear
        ramp-up), then loops: send → await response → think → repeat.
        """
        spacing = (
            group.rampup_seconds / group.n_threads if group.n_threads else 0.0
        )
        for thread in range(group.n_threads):
            user = _RecordUser(self, group)
            self.sim.schedule(thread * spacing, user.send)

    def run(self, until: Optional[float] = None) -> SummaryReport:
        """Run the simulation to completion and return the summary."""
        end_time = self.sim.run(until=until)
        report = SummaryReport.from_records(self.responses, duration=end_time)
        if self.telemetry is not None:
            for event in report.to_events(timestamp=end_time):
                self.telemetry.publish(self.topic, event)
            self.telemetry.pump()
        return report

