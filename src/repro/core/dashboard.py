"""The AI dashboard: SPATIAL's human-in-the-loop surface.

"An AI dashboard serves as a tool to provide insights to human operators,
enabling them to monitor and adjust AI trustworthiness according to their
preferences.  Additionally, it facilitates the verification of AI systems
for potential audits" (§I).  The paper's front-end is a React app; all of
its quantitative behaviour lives here, headless: per-sensor time series,
threshold alert rules, trust-score panels, audit export, and text rendering
for terminal inspection.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import isfinite
from typing import Callable, Dict, List, Optional

from repro.core.sensors import SensorReading
from repro.trust.properties import TrustProperty
from repro.trust.score import TrustScore, aggregate_trust_score

_encode_str = json.encoder.encode_basestring_ascii


def _nest(text: str, depth: int) -> str:
    """Re-indent ``json.dumps(value, indent=2)`` to sit ``depth`` levels deep."""
    return text.replace("\n", "\n" + "  " * depth)


@dataclass
class AlertRule:
    """Raise an alert when a sensor's value crosses a threshold.

    ``direction="below"`` alerts when value < threshold (the common case:
    trust dropped); ``"above"`` alerts on value > threshold.
    """

    sensor: str
    threshold: float
    direction: str = "below"
    message: str = ""

    def __post_init__(self) -> None:
        if self.direction not in {"below", "above"}:
            raise ValueError(
                f"direction must be 'below' or 'above', got {self.direction!r}"
            )

    def triggered_by(self, reading: SensorReading) -> bool:
        if reading.sensor != self.sensor:
            return False
        if self.direction == "below":
            return reading.value < self.threshold
        return reading.value > self.threshold


@dataclass
class Alert:
    """A triggered rule bound to the reading that tripped it."""

    rule: AlertRule
    reading: SensorReading
    acknowledged: bool = False

    @property
    def summary(self) -> str:
        verb = "fell below" if self.rule.direction == "below" else "rose above"
        text = (
            f"[{self.reading.sensor}] value {self.reading.value:.3f} {verb} "
            f"{self.rule.threshold:.3f} (model v{self.reading.model_version})"
        )
        if self.rule.message:
            text += f" — {self.rule.message}"
        return text


class AIDashboard:
    """Reading store + alerting + panels for human operators.

    Parameters
    ----------
    history_limit:
        Readings kept per sensor (oldest evicted first); bounds memory for
        long-running monitors.
    """

    def __init__(self, history_limit: int = 10_000) -> None:
        if history_limit < 1:
            raise ValueError("history_limit must be >= 1")
        self.history_limit = history_limit
        self._series: Dict[str, List[SensorReading]] = {}
        #: per sensor, the export JSON of the oldest readings of its
        #: ``_series`` list, encoded at their first export (``to_json``)
        self._encoded: Dict[str, List[str]] = {}
        self._rules: List[AlertRule] = []
        self._alerts: List[Alert] = []
        self._subscribers: List[Callable[[Alert], None]] = []
        self._slo_status: Optional[Callable[[], list]] = None
        self._slo_last_incident: Optional[Callable[[], Optional[str]]] = None
        self._serving_summary: Optional[Callable[[], Dict[str, dict]]] = None

    # -- ingestion ----------------------------------------------------------

    def add_reading(self, reading: SensorReading) -> None:
        """Ingest one sensor reading; evaluates alert rules synchronously."""
        series = self._series.setdefault(reading.sensor, [])
        series.append(reading)
        if len(series) > self.history_limit:
            excess = len(series) - self.history_limit
            del series[:excess]
            encoded = self._encoded.get(reading.sensor)
            if encoded:
                del encoded[:excess]
        for rule in self._rules:
            if rule.triggered_by(reading):
                alert = Alert(rule=rule, reading=reading)
                self._alerts.append(alert)
                for notify in self._subscribers:
                    notify(alert)

    def add_rule(self, rule: AlertRule) -> None:
        """Install an operator-chosen alert threshold."""
        self._rules.append(rule)

    def subscribe(self, callback: Callable[[Alert], None]) -> None:
        """Register an operator notification channel (pager, log, test spy)."""
        self._subscribers.append(callback)

    def set_slo_provider(
        self,
        status: Callable[[], list],
        last_incident: Optional[Callable[[], Optional[str]]] = None,
    ) -> None:
        """Attach the SLO engine's health feed.

        ``status`` returns the evaluator's current
        :class:`repro.slo.SLOStatusSummary` list (called lazily at render
        time, so the strip is always current); ``last_incident`` returns
        the most recent incident id, if any.  The provider is duck-typed
        — the dashboard reads ``slo``/``source``/``budget_remaining``/
        ``short_burn``/``long_burn``/``firing_rules`` — so tests can feed
        it plain stand-ins.
        """
        self._slo_status = status
        self._slo_last_incident = last_incident

    def set_serving_provider(
        self, summary: Callable[[], Dict[str, dict]]
    ) -> None:
        """Attach the serving layer's batching/cache feed.

        ``summary`` returns a per-route stats mapping shaped like
        :meth:`repro.gateway.CapacityRunner.serving_summary` or
        :meth:`repro.cluster.ClusterRunner.serving_summary` (called
        lazily at render time).  Duck-typed like the SLO provider — the
        panel reads ``batches``/``rows_batched``/``mean_batch``/
        ``shed_rows`` and the cache counters when present, tolerating
        either the flat capacity shape or the cluster shape with a
        per-node sub-map, so tests can feed plain dicts.
        """
        self._serving_summary = summary

    # -- queries --------------------------------------------------------------

    @property
    def sensors(self) -> List[str]:
        return sorted(self._series)

    def series(self, sensor: str) -> List[SensorReading]:
        """Full retained history for one sensor (oldest first)."""
        if sensor not in self._series:
            raise KeyError(f"no readings for sensor {sensor!r}")
        return list(self._series[sensor])

    def latest(self, sensor: str) -> SensorReading:
        """Most recent reading for one sensor."""
        return self.series(sensor)[-1]

    def values(self, sensor: str) -> List[float]:
        """Just the value series, for plotting/thresholding."""
        return [r.value for r in self.series(sensor)]

    def alerts(self, include_acknowledged: bool = False) -> List[Alert]:
        if include_acknowledged:
            return list(self._alerts)
        return [a for a in self._alerts if not a.acknowledged]

    def acknowledge_all(self) -> int:
        """Operator marks current alerts as seen; returns how many."""
        count = 0
        for alert in self._alerts:
            if not alert.acknowledged:
                alert.acknowledged = True
                count += 1
        return count

    # -- panels ---------------------------------------------------------------

    def trust_panel(
        self, weights: Optional[Dict[TrustProperty, float]] = None
    ) -> TrustScore:
        """Aggregate the latest reading of each property into a trust score.

        When several sensors share a property the latest readings are
        averaged first — the heterogeneity warning of §VIII applies, so the
        returned :class:`TrustScore` always carries the decomposition.
        """
        by_property: Dict[TrustProperty, List[float]] = {}
        for sensor in self._series.values():
            if not sensor:
                continue
            reading = sensor[-1]
            by_property.setdefault(reading.property, []).append(reading.value)
        readings = {
            prop: sum(vals) / len(vals) for prop, vals in by_property.items()
        }
        return aggregate_trust_score(readings, weights)

    def drift(self, sensor: str, window: int = 5) -> float:
        """Change of the mean value between the first and last ``window``
        readings; negative means the property degraded over time."""
        if sensor not in self._series:
            raise KeyError(f"no readings for sensor {sensor!r}")
        return self._drift(self._series[sensor], window)

    @staticmethod
    def _drift(series: List[SensorReading], window: int = 5) -> float:
        if len(series) < 2:
            return 0.0
        window = max(1, min(window, len(series) // 2 or 1))
        head = sum(r.value for r in series[:window]) / window
        tail = sum(r.value for r in series[-window:]) / window
        return tail - head

    @staticmethod
    def _serving_rows(summary: Dict[str, dict]) -> List[dict]:
        """Flatten either serving-summary shape into per-route rows."""
        rows: List[dict] = []
        for route, entry in sorted(summary.items()):
            if route == "_totals":
                continue
            nodes = entry.get("nodes")
            if nodes:
                batches = sum(n.get("batches", 0) for n in nodes.values())
                rows_batched = sum(
                    n.get("rows_batched", 0) for n in nodes.values()
                )
                shed = sum(n.get("shed_rows", 0) for n in nodes.values())
            else:
                batches = entry.get("batches", 0)
                rows_batched = entry.get("rows_batched", 0)
                shed = entry.get("shed_rows", 0)
            cache = entry.get("cache") or {}
            rows.append(
                {
                    "route": route,
                    "batches": batches,
                    "rows_batched": rows_batched,
                    "mean_batch": (
                        rows_batched / batches if batches else 0.0
                    ),
                    "shed_rows": shed,
                    "cache_hits": int(cache.get("hits", 0)),
                    "cache_misses": int(cache.get("misses", 0)),
                    "cache_hit_rate": float(
                        entry.get("cache_hit_rate", cache.get("hit_rate", 0.0))
                    ),
                }
            )
        return rows

    @staticmethod
    def _pool_rows(summary: Dict[str, dict]) -> List[dict]:
        """Flatten kernel-pool sub-counters into per-route POOL rows.

        Tolerates both serving-summary shapes: the capacity runner puts
        ``pool`` directly on the route entry, the cluster runner nests
        one per node.  Routes without a pool tier produce no row.
        """
        rows: List[dict] = []
        for route, entry in sorted(summary.items()):
            if route == "_totals":
                continue
            nodes = entry.get("nodes")
            if nodes:
                pools = [n["pool"] for n in nodes.values() if n.get("pool")]
            else:
                pools = [entry["pool"]] if entry.get("pool") else []
            if not pools:
                continue
            batches = sum(p.get("batches", 0) for p in pools)
            pooled = sum(p.get("rows", 0) for p in pools)
            rows.append(
                {
                    "route": route,
                    "workers": sum(p.get("workers", 0) for p in pools),
                    "batches": batches,
                    "rows": pooled,
                    "mean_fan_out": pooled / batches if batches else 0.0,
                    "peak_inflight": max(
                        (p.get("peak_inflight", 0) for p in pools), default=0
                    ),
                    "crashes": sum(p.get("crashes", 0) for p in pools),
                    "restarts": sum(p.get("restarts", 0) for p in pools),
                    "resubmitted": sum(
                        p.get("resubmitted", 0) for p in pools
                    ),
                }
            )
        return rows

    # -- export / rendering ---------------------------------------------------

    def to_json(self) -> str:
        """Audit export: every retained reading and alert, JSON-encoded.

        This is the dashboard's compliance artifact — "it facilitates the
        verification of AI systems for potential audits" (§I).  The text
        is ``json.dumps(payload, indent=2, sort_keys=True)`` of the
        sections below, byte for byte.  Each reading is encoded once, at
        its first export, and later exports splice that text in, so a
        reading must not be mutated after :meth:`add_reading` (the
        monitor hands the dashboard fresh copies).  A value ``json``
        cannot encode raises here, at the reading's first export.
        """
        sections = {
            "alerts": [
                {
                    "sensor": a.rule.sensor,
                    "threshold": a.rule.threshold,
                    "direction": a.rule.direction,
                    "value": a.reading.value,
                    "acknowledged": a.acknowledged,
                }
                for a in self._alerts
            ],
            "sensors": None,  # spliced from the per-reading cache below
        }
        if self._slo_status is not None:
            sections["slo"] = {
                "objectives": [
                    {
                        "slo": s.slo,
                        "source": s.source,
                        "budget_remaining": s.budget_remaining,
                        "short_burn": s.short_burn,
                        "long_burn": s.long_burn,
                        "firing": list(s.firing_rules),
                    }
                    for s in self._slo_status()
                ],
                "last_incident": (
                    self._slo_last_incident()
                    if self._slo_last_incident is not None
                    else None
                ),
            }
        if self._serving_summary is not None:
            summary = self._serving_summary()
            sections["serving"] = {
                "routes": self._serving_rows(summary),
                "pool": self._pool_rows(summary),
            }
        # json's indented encoder nests by prefixing each new line, and an
        # encoded JSON string holds no raw newline, so a value encoded on
        # its own and re-indented is exactly its nested encoding
        parts = []
        for key in sorted(sections):
            if key == "sensors":
                text = self._sensors_json()
            else:
                text = _nest(json.dumps(sections[key], indent=2, sort_keys=True), 1)
            parts.append(f'\n  "{key}": {text}')
        return "{" + ",".join(parts) + "\n}"

    def _sensors_json(self) -> str:
        """The export's ``sensors`` section, nested one level deep."""
        if not self._series:
            return "{}"
        entries = []
        for name in sorted(self._series):
            series = self._series[name]
            encoded = self._encoded.setdefault(name, [])
            for r in series[len(encoded) :]:
                reading = {
                    "value": r.value,
                    "property": r.property.value,
                    "timestamp": r.timestamp,
                    "model_version": r.model_version,
                    "details": r.details,
                }
                encoded.append(
                    _nest(json.dumps(reading, indent=2, sort_keys=True), 3)
                )
            entries.append(
                f"{_encode_str(name)}: [\n      "
                + ",\n      ".join(encoded)
                + "\n    ]"
            )
        return "{\n    " + ",\n    ".join(entries) + "\n  }"

    def render_text(self, width: int = 60) -> str:
        """Terminal rendering: one sparkline-style row per sensor + alerts."""
        lines = ["AI DASHBOARD", "=" * width]
        if self._slo_status is not None:
            summaries = list(self._slo_status())
            label_width = max(
                (len(f"{s.slo}/{s.source}") for s in summaries), default=0
            )
            for summary in summaries:
                state = (
                    "FIRING:" + ",".join(summary.firing_rules)
                    if summary.firing_rules
                    else "ok"
                )
                label = f"{summary.slo}/{summary.source}"
                lines.append(
                    f"SLO {label:<{label_width}}  "
                    f"budget {summary.budget_remaining:6.1%}  "
                    f"burn {summary.short_burn:.1f}x/{summary.long_burn:.1f}x"
                    f"  {state}"
                )
            last = (
                self._slo_last_incident()
                if self._slo_last_incident is not None
                else None
            )
            lines.append(f"last incident: {last if last else '(none)'}")
            lines.append("=" * width)
        if self._serving_summary is not None:
            summary = self._serving_summary()
            rows = self._serving_rows(summary)
            label_width = max((len(r["route"]) for r in rows), default=0)
            for row in rows:
                lines.append(
                    f"SERVE {row['route']:<{label_width}}  "
                    f"batches {row['batches']:>5} "
                    f"(mean {row['mean_batch']:4.1f})  "
                    f"cache {row['cache_hit_rate']:6.1%}  "
                    f"shed {row['shed_rows']}"
                )
            for row in self._pool_rows(summary):
                lines.append(
                    f"POOL  {row['route']:<{label_width}}  "
                    f"workers {row['workers']:>2}  "
                    f"fan-out {row['mean_fan_out']:4.1f}  "
                    f"peak {row['peak_inflight']}  "
                    f"crashes {row['crashes']} "
                    f"(resubmitted {row['resubmitted']})"
                )
            lines.append("=" * width)
        for name in self.sensors:
            series = self._series[name]
            latest = series[-1].value
            # values outside [0, 1] fill or empty the track; a non-finite
            # one draws no bar (its value column still says nan/inf)
            bar_len = (
                int(round(min(max(latest, 0.0), 1.0) * 20))
                if isfinite(latest)
                else 0
            )
            bar = "#" * bar_len + "." * (20 - bar_len)
            trend = self._drift(series)
            arrow = "↑" if trend > 0.01 else ("↓" if trend < -0.01 else "→")
            lines.append(
                f"{name:<24} [{bar}] {latest:5.3f} {arrow} ({len(series)} readings)"
            )
        pending = self.alerts()
        lines.append("-" * width)
        lines.append(f"alerts: {len(pending)} pending")
        for alert in pending[-5:]:
            lines.append("  ! " + alert.summary)
        return "\n".join(lines)
