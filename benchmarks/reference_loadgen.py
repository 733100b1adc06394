"""Seed record-path load generator — the pre-columnar implementation.

This module preserves, essentially verbatim, the closure-chain
:class:`LoadGenerator` and re-filtering ``from_records`` aggregation that
the columnar capacity pipeline (:class:`~repro.gateway.capacity.CapacityRunner`
over a :class:`~repro.gateway.records.RecordLog`) replaced.  It exists for
exactly one consumer: ``benchmarks/bench_capacity_scale.py``, which
measures the columnar path's speedup against exactly this implementation
— per-iteration ``Request``/closure-pair allocation, one retained
``RequestRecord`` per request, and an O(routes × records) re-filtering
summary pass.

It is deliberately allocation-heavy, which is why it lives with the
benchmarks rather than in the shipped package.

Mirrors ``tests/xai/reference_shap.py`` (the pre-vectorization Kernel SHAP
oracle) in spirit: the seed stays runnable so the benchmark's baseline is
the real former implementation, not a degraded stand-in.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.gateway.gateway import APIGateway
from repro.gateway.loadgen import SummaryReport, ThreadGroup
from repro.gateway.services import Request, RequestRecord
from repro.gateway.simulation import Simulator

__all__ = ["ReferenceLoadGenerator", "reference_from_records"]


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


class ReferenceLoadGenerator:
    """The seed closed-loop generator: one fresh closure pair per iteration.

    Every iteration of every virtual user allocates a ``send`` closure, a
    ``Request`` dataclass, an ``on_response`` closure and a retained
    ``RequestRecord`` — the per-request allocation profile the columnar
    runner's reusable ``__slots__`` user objects replaced.
    """

    def __init__(self, sim: Simulator, gateway: APIGateway) -> None:
        self.sim = sim
        self.gateway = gateway
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
