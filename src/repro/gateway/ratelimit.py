"""Rate limiting at the gateway (the Kong plugin the deployment would run).

§V picks Kong partly for its plugin ecosystem; rate limiting is the plugin
that protects metric micro-services from exactly the overload (and sponge
floods) the capacity experiments produce.  The limiter enforces a per-route
request budget over a sliding window; rejected requests fail fast with a
429-style error, which shows up in the JMeter summary's error-rate column.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.gateway.gateway import APIGateway, base_gateway
from repro.gateway.services import Request, RequestRecord


@dataclass
class RateLimitRule:
    """Allow at most ``max_requests`` per ``window_seconds`` on a route."""

    max_requests: int
    window_seconds: float = 1.0

    def __post_init__(self) -> None:
        if self.max_requests < 1:
            raise ValueError("max_requests must be >= 1")
        if self.window_seconds <= 0:
            raise ValueError("window_seconds must be positive")


class RateLimitedGateway:
    """Wrap an :class:`APIGateway` with per-route sliding-window limits.

    Drop-in replacement for the gateway in load tests: ``dispatch`` either
    forwards to the wrapped gateway or synthesises an immediate 429 record.
    Routes without a rule are unlimited.  ``gateway`` may itself be a
    wrapper (e.g. an :class:`~repro.gateway.admission.AdmittingGateway`);
    the 429 is answered by the base gateway under the stack.
    """

    def __init__(
        self,
        gateway: APIGateway,
        rules: Optional[Dict[str, RateLimitRule]] = None,
    ) -> None:
        self.gateway = gateway
        self._base = base_gateway(gateway)
        self.rules = dict(rules or {})
        self._arrivals: Dict[str, deque] = {route: deque() for route in self.rules}
        self.rejected: int = 0

    @property
    def sim(self):
        return self.gateway.sim

    @property
    def routes(self):
        return self.gateway.routes

    def set_rule(self, route: str, rule: RateLimitRule) -> None:
        """Install or replace a route's limit."""
        self.rules[route] = rule
        self._arrivals.setdefault(route, deque())

    def _over_limit(self, route: str) -> bool:
        rule = self.rules.get(route)
        if rule is None:
            return False
        now = self.gateway.sim.now
        window = self._arrivals[route]
        while window and window[0] <= now - rule.window_seconds:
            window.popleft()
        if len(window) >= rule.max_requests:
            return True
        window.append(now)
        return False

    def dispatch(
        self,
        request: Request,
        on_response: Callable[[RequestRecord], None],
    ) -> None:
        """Forward within budget; otherwise reject with 429 immediately."""
        if self._over_limit(request.route):
            self.rejected += 1
            self._base.refuse(request, on_response, "429 rate limited")
            return
        self.gateway.dispatch(request, on_response)
