"""Admission control at the gateway (ahead of the rate-limit plugin).

The rate limiter protects services from *sustained* overload by
budgeting arrivals per window; admission control protects them from
*instantaneous* overload by bounding concurrent work.  The wrapper
tracks per-route in-flight requests and sheds new arrivals with the
typed ``503 shed`` error from :mod:`repro.serving.admission` once the
route is saturated — batch-priority traffic sheds at half the depth, so
interactive requests keep headroom (the gateway-tier analogue of the
micro-batcher's batch-victim eviction).

Because the error string carries the ``503 shed`` prefix end to end,
the SLO availability ledger and :func:`repro.slo.attribute_unavailability`
can separate "deliberately shed" from "failed" when a burn-rate alert
fires; a 429 from the limiter or a timeout from a service never gets
misattributed as shedding.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.gateway.gateway import base_gateway
from repro.gateway.services import Request, RequestRecord
from repro.serving.admission import PRIORITY_INTERACTIVE, SHED_ERROR_MESSAGE

__all__ = ["AdmittingGateway"]


class AdmittingGateway:
    """Wrap a gateway (or limiter stack) with per-route load shedding.

    Drop-in for the gateway in load tests: ``dispatch`` forwards while
    the route's in-flight count is under the shed depth, otherwise it
    synthesises an immediate typed-503 record, exactly like the
    limiter's 429 path.  ``priority_of`` maps a request to an admission
    priority (:data:`~repro.serving.admission.PRIORITY_INTERACTIVE` /
    :data:`~repro.serving.admission.PRIORITY_BATCH`); lower outranks
    higher, and anything below interactive sheds at half the depth.
    """

    def __init__(
        self,
        gateway,
        shed_depth: int,
        priority_of: Optional[Callable[[Request], int]] = None,
    ) -> None:
        if shed_depth < 1:
            raise ValueError("shed_depth must be >= 1")
        self.gateway = gateway
        self.shed_depth = shed_depth
        self.priority_of = priority_of
        self.shed = 0
        self.shed_by_route: Dict[str, int] = {}
        self._in_flight: Dict[str, int] = {}
        self._batch_depth = max(1, shed_depth // 2)
        self._base = base_gateway(gateway)

    @property
    def sim(self):
        return self.gateway.sim

    @property
    def routes(self):
        return self.gateway.routes

    @property
    def tracer(self):
        return self._base.tracer

    @property
    def overhead_seconds(self):
        return self._base.overhead_seconds

    def service(self, route: str):
        return self._base.service(route)

    def in_flight(self, route: str) -> int:
        """Current admitted-but-unfinished count for one route."""
        return self._in_flight.get(route, 0)

    def dispatch(
        self,
        request: Request,
        on_response: Callable[[RequestRecord], None],
    ) -> None:
        """Forward under the depth bound; otherwise shed with a typed 503."""
        route = request.route
        in_flight = self._in_flight.get(route, 0)
        priority = (
            PRIORITY_INTERACTIVE
            if self.priority_of is None
            else self.priority_of(request)
        )
        depth = (
            self.shed_depth
            if priority <= PRIORITY_INTERACTIVE
            else self._batch_depth
        )
        if in_flight >= depth:
            self.shed += 1
            self.shed_by_route[route] = self.shed_by_route.get(route, 0) + 1
            self._base.refuse(
                request, on_response, SHED_ERROR_MESSAGE, admission="shed"
            )
            return
        self._in_flight[route] = in_flight + 1

        def settle(record: RequestRecord) -> None:
            self._in_flight[route] -= 1
            on_response(record)

        self.gateway.dispatch(request, settle)
