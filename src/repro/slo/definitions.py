"""Declarative SLO definitions: objectives, thresholds, burn-rate rules.

This module is the *single* home for SLO threshold constants — targets,
latency thresholds, sensor floors, burn-rate factors and window pairs.
The ``slo-threshold-literal`` lint rule enforces the split: any other
module constructing an :class:`SLODefinition` or :class:`BurnRateRule`
from numeric literals is flagged, so operational policy stays data
(reviewable, serialisable, swappable per deployment) rather than code.

Three objective kinds cover the stack's telemetry families:

``availability``
    The source is a 0/1 success series (the cluster runner's sampled
    ``ok:<route>`` events); the bad fraction of a window is exact,
    ``1 - mean``.
``latency``
    The source is a milliseconds series; the bad fraction — requests
    slower than ``threshold`` — is estimated from the window's recorded
    quantile profile (min/p50/p95/max) by piecewise-linear CDF
    interpolation.  Deterministic, and exact at the recorded points.
``sensor_health``
    The source is a normalised [0, 1] trust/drift series; bad means the
    value fell *below* ``threshold`` (the floor), estimated from the
    same CDF.

Sources may be node-qualified cluster sources (``"shap@node-3"``); a
definition whose source ends in ``@*`` binds one evaluator series per
concrete node-qualified source it observes, which is how per-node SLOs
ride the cluster layer's rollup sharding for free.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple, Union

from repro.telemetry.rollup import WindowStat

__all__ = [
    "OBJECTIVE_AVAILABILITY",
    "OBJECTIVE_KINDS",
    "OBJECTIVE_LATENCY",
    "OBJECTIVE_SENSOR_HEALTH",
    "SEVERITY_PAGE",
    "SEVERITY_TICKET",
    "BurnRateRule",
    "SLODefinition",
    "default_definitions",
    "drill_definitions",
    "fraction_beyond",
    "load_definitions",
]

OBJECTIVE_AVAILABILITY = "availability"
OBJECTIVE_LATENCY = "latency"
OBJECTIVE_SENSOR_HEALTH = "sensor_health"
OBJECTIVE_KINDS = frozenset(
    {OBJECTIVE_AVAILABILITY, OBJECTIVE_LATENCY, OBJECTIVE_SENSOR_HEALTH}
)

#: Alert severities, Google-SRE style: a page demands a human now, a
#: ticket can wait for working hours.
SEVERITY_PAGE = "page"
SEVERITY_TICKET = "ticket"
_SEVERITIES = frozenset({SEVERITY_PAGE, SEVERITY_TICKET})


@dataclass(frozen=True)
class BurnRateRule:
    """One multi-window burn-rate alerting rule.

    Fires when the error-budget burn rate over *both* the short and the
    long trailing window meets ``factor`` — the standard two-window
    guard: the long window proves the burn is sustained (no alerts on a
    blip), the short window makes the alert reset quickly once the burn
    stops.
    """

    name: str
    short_seconds: float
    long_seconds: float
    factor: float
    severity: str = SEVERITY_PAGE

    def __post_init__(self) -> None:
        if self.short_seconds <= 0 or self.long_seconds <= 0:
            raise ValueError("burn-rate windows must be positive")
        if self.short_seconds >= self.long_seconds:
            raise ValueError(
                f"short window ({self.short_seconds}s) must be shorter "
                f"than the long window ({self.long_seconds}s)"
            )
        if self.factor <= 0:
            raise ValueError("burn-rate factor must be positive")
        if self.severity not in _SEVERITIES:
            raise ValueError(
                f"severity must be one of {sorted(_SEVERITIES)}, "
                f"got {self.severity!r}"
            )

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "short_seconds": self.short_seconds,
            "long_seconds": self.long_seconds,
            "factor": self.factor,
            "severity": self.severity,
        }

    @staticmethod
    def from_dict(payload: Dict[str, object]) -> "BurnRateRule":
        return BurnRateRule(
            name=str(payload["name"]),
            short_seconds=float(payload["short_seconds"]),  # type: ignore[arg-type]
            long_seconds=float(payload["long_seconds"]),  # type: ignore[arg-type]
            factor=float(payload["factor"]),  # type: ignore[arg-type]
            severity=str(payload.get("severity", SEVERITY_PAGE)),
        )


def fraction_beyond(stat: WindowStat, threshold: float, direction: str) -> float:
    """Estimated fraction of a window's values beyond ``threshold``.

    ``direction="above"`` counts values > threshold (latency SLIs),
    ``"below"`` counts values < threshold (sensor floors).  The window
    only records a quantile profile, not raw values, so the CDF between
    the recorded points (min → 0, p50 → 0.5, p95 → 0.95, max → 1) is
    interpolated linearly — deterministic, monotone, and exact whenever
    the threshold coincides with a recorded quantile.
    """
    if direction not in {"above", "below"}:
        raise ValueError("direction must be 'above' or 'below'")
    if stat.count == 0:
        return 0.0
    low, p50, p95, high = stat.min, stat.p50, stat.p95, stat.max
    if threshold <= low:
        cdf = 0.0
    elif threshold >= high:
        cdf = 1.0
    elif threshold <= p50:
        cdf = _ramp(threshold, low, 0.0, p50, 0.5)
    elif threshold <= p95:
        cdf = _ramp(threshold, p50, 0.5, p95, 0.95)
    elif threshold <= high:
        cdf = _ramp(threshold, p95, 0.95, high, 1.0)
    else:  # a NaN threshold or profile
        cdf = 1.0
    return 1.0 - cdf if direction == "above" else cdf


def _ramp(threshold: float, x0: float, y0: float, x1: float, y1: float) -> float:
    """The CDF on the knot segment ``(x0, y0)``–``(x1, y1)`` at ``threshold``."""
    if x1 == x0:
        return y1
    return y0 + (y1 - y0) * (threshold - x0) / (x1 - x0)


@dataclass(frozen=True)
class SLODefinition:
    """One service-level objective bound to a telemetry rollup source.

    Parameters
    ----------
    name:
        Unique objective identifier (alert/incident/report key).
    source:
        The rollup source the SLI reads.  A trailing ``@*`` matches every
        node-qualified variant (``"shap@*"`` binds ``shap@node-0``,
        ``shap@node-1``, … as independent per-node series).
    objective:
        One of :data:`OBJECTIVE_KINDS`.
    target:
        Good-event fraction promised over the budget period, in (0, 1)
        (``0.999`` = "three nines"); ``1 - target`` is the error budget.
    threshold:
        Latency bound in milliseconds for ``latency`` objectives, value
        floor for ``sensor_health``; unused (0.0) for ``availability``.
    budget_seconds:
        The rolling SLO period the error-budget ledger normalises over.
    burn_rules:
        Multi-window burn-rate alerting rules evaluated per series.
    """

    name: str
    source: str
    objective: str
    target: float
    threshold: float = 0.0
    budget_seconds: float = 3600.0
    burn_rules: Tuple[BurnRateRule, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("SLO name must be non-empty")
        if self.objective not in OBJECTIVE_KINDS:
            raise ValueError(
                f"unknown objective {self.objective!r}; expected one of "
                f"{sorted(OBJECTIVE_KINDS)}"
            )
        if not 0.0 < self.target < 1.0:
            raise ValueError(
                f"target must be in (0, 1), got {self.target} — an SLO of "
                "1.0 has no error budget to burn"
            )
        if self.objective != OBJECTIVE_AVAILABILITY and self.threshold <= 0:
            raise ValueError(
                f"{self.objective} objectives need a positive threshold"
            )
        if self.budget_seconds <= 0:
            raise ValueError("budget_seconds must be positive")
        longest = max(
            (rule.long_seconds for rule in self.burn_rules), default=0.0
        )
        if longest > self.budget_seconds:
            raise ValueError(
                f"burn-rate window ({longest}s) exceeds the budget period "
                f"({self.budget_seconds}s)"
            )

    # -- source binding ----------------------------------------------------------

    @property
    def per_node(self) -> bool:
        return self.source.endswith("@*")

    def matches(self, source: str) -> bool:
        """Does this definition observe the given concrete rollup source?"""
        if self.per_node:
            return source.startswith(self.source[:-1]) and "@" in source
        return source == self.source

    @property
    def route(self) -> str:
        """The un-qualified route/series name (node wildcard stripped)."""
        return self.source.split("@")[0]

    # -- SLI ---------------------------------------------------------------------

    def bad_fraction(self, stat: WindowStat) -> float:
        """Fraction of the window's events that violated the objective."""
        if self.objective == OBJECTIVE_AVAILABILITY:
            # the source is a 0/1 success series: exact, no estimation
            return min(1.0, max(0.0, 1.0 - stat.mean))
        if self.objective == OBJECTIVE_LATENCY:
            return fraction_beyond(stat, self.threshold, "above")
        return fraction_beyond(stat, self.threshold, "below")

    # -- serialisation -----------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "source": self.source,
            "objective": self.objective,
            "target": self.target,
            "threshold": self.threshold,
            "budget_seconds": self.budget_seconds,
            "burn_rules": [rule.to_dict() for rule in self.burn_rules],
        }

    @staticmethod
    def from_dict(payload: Dict[str, object]) -> "SLODefinition":
        return SLODefinition(
            name=str(payload["name"]),
            source=str(payload["source"]),
            objective=str(payload["objective"]),
            target=float(payload["target"]),  # type: ignore[arg-type]
            threshold=float(payload.get("threshold", 0.0)),  # type: ignore[arg-type]
            budget_seconds=float(payload.get("budget_seconds", 3600.0)),  # type: ignore[arg-type]
            burn_rules=tuple(
                BurnRateRule.from_dict(rule)  # type: ignore[arg-type]
                for rule in payload.get("burn_rules", [])  # type: ignore[union-attr]
            ),
        )


def load_definitions(path: Union[str, os.PathLike]) -> List[SLODefinition]:
    """Load a JSON definitions file (a list of definition objects)."""
    with open(os.fspath(path), "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, list):
        raise ValueError(
            "definitions file must contain a JSON list of SLO objects"
        )
    definitions = [SLODefinition.from_dict(entry) for entry in payload]
    seen = set()
    for definition in definitions:
        if definition.name in seen:
            raise ValueError(f"duplicate SLO name {definition.name!r}")
        seen.add(definition.name)
    return definitions


# -- canonical rule sets ----------------------------------------------------------
#
# The Google-SRE paired windows: the fast pair (5 m / 1 h at 14.4×) pages
# on a burn that would spend 2% of a 30-day budget in an hour; the slow
# pair (1 h / 6 h at 6×) tickets a sustained 5%-in-six-hours burn.


def production_burn_rules() -> Tuple[BurnRateRule, ...]:
    """The standard fast-page / slow-ticket multi-window pair."""
    return (
        BurnRateRule(
            name="fast",
            short_seconds=300.0,
            long_seconds=3600.0,
            factor=14.4,
            severity=SEVERITY_PAGE,
        ),
        BurnRateRule(
            name="slow",
            short_seconds=3600.0,
            long_seconds=21600.0,
            factor=6.0,
            severity=SEVERITY_TICKET,
        ),
    )


def default_definitions() -> List[SLODefinition]:
    """Production-shaped objectives over the stack's standard sources."""
    rules = production_burn_rules()
    return [
        SLODefinition(
            name="route-availability",
            source="ok:shap",
            objective=OBJECTIVE_AVAILABILITY,
            target=0.999,
            budget_seconds=86_400.0,
            burn_rules=rules,
        ),
        SLODefinition(
            name="route-latency",
            source="shap@*",
            objective=OBJECTIVE_LATENCY,
            target=0.95,
            threshold=250.0,
            budget_seconds=86_400.0,
            burn_rules=rules,
        ),
        SLODefinition(
            name="sensor-health",
            source="performance",
            objective=OBJECTIVE_SENSOR_HEALTH,
            target=0.99,
            threshold=0.7,
            budget_seconds=86_400.0,
            burn_rules=rules,
        ),
    ]


def drill_burn_rules() -> Tuple[BurnRateRule, ...]:
    """The production pair compressed ~60× for simulated incident drills.

    Same structure (fast page pair + slow ticket pair, short:long ratios
    preserved), scaled so a two-minute simulated cluster run crosses
    several long windows.  Factors are lowered with the compression: a
    5 s window over a ~50 rps route holds a few hundred events, so the
    bad-fraction estimate is coarser than a five-minute production
    window's.
    """
    return (
        BurnRateRule(
            name="fast",
            short_seconds=5.0,
            long_seconds=30.0,
            factor=4.0,
            severity=SEVERITY_PAGE,
        ),
        BurnRateRule(
            name="slow",
            short_seconds=30.0,
            long_seconds=120.0,
            factor=2.0,
            severity=SEVERITY_TICKET,
        ),
    )


def drill_definitions(route: str = "shap") -> List[SLODefinition]:
    """The objectives the deterministic incident drill evaluates.

    A per-node latency SLO (the one an injected slow-node fault
    breaches), a route availability SLO over the runner's sampled 0/1
    success series, and a sensor-health SLO so correlated drift/sensor
    evidence has an objective to hang off.
    """
    rules = drill_burn_rules()
    return [
        SLODefinition(
            name=f"{route}-availability",
            source=f"ok:{route}",
            objective=OBJECTIVE_AVAILABILITY,
            target=0.99,
            budget_seconds=600.0,
            burn_rules=rules,
        ),
        SLODefinition(
            name=f"{route}-latency",
            source=f"{route}@*",
            objective=OBJECTIVE_LATENCY,
            target=0.9,
            threshold=40.0,
            budget_seconds=600.0,
            burn_rules=rules,
        ),
        SLODefinition(
            name="sensor-health",
            source="performance",
            objective=OBJECTIVE_SENSOR_HEALTH,
            target=0.95,
            threshold=0.7,
            budget_seconds=600.0,
            burn_rules=rules,
        ),
    ]
