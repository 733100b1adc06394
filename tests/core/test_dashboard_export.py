"""The audit export and the text panel against their reference forms.

``to_json`` encodes each reading once and splices the cached text into
later exports; every export must still equal one ``json.dumps(payload,
indent=2, sort_keys=True)`` of the whole payload, the previous
implementation, kept here as the oracle.  ``render_text`` reads each
sensor's history in place and clamps its bar to the track.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dashboard import AIDashboard, AlertRule
from repro.core.sensors import SensorReading
from repro.trust.properties import TrustProperty


class Summary:
    """A duck-typed SLO status row."""

    def __init__(self, slo, source, budget, firing=()):
        self.slo = slo
        self.source = source
        self.budget_remaining = budget
        self.short_burn = 2.5
        self.long_burn = math.inf
        self.firing_rules = tuple(firing)


SERVING = {
    "shap": {
        "batches": 40,
        "rows_batched": 100,
        "shed_rows": 3,
        "cache": {"hits": 60.0, "misses": 40.0, "hit_rate": 0.6},
        "pool": {"workers": 2, "batches": 10, "rows": 35, "peak_inflight": 3},
    },
    "lime": {
        "nodes": {
            "node-1": {"batches": 10, "rows_batched": 30, "shed_rows": 1},
            "node-2": {"batches": 0, "rows_batched": 0, "shed_rows": 0},
        },
    },
    "_totals": {"shed_requests": 4},
}


def reference_export(dash, slo=None, last_incident=None, serving=None):
    """The previous ``to_json``: one ``json.dumps`` of the full payload."""
    payload = {
        "sensors": {
            name: [
                {
                    "value": r.value,
                    "property": r.property.value,
                    "timestamp": r.timestamp,
                    "model_version": r.model_version,
                    "details": r.details,
                }
                for r in dash.series(name)
            ]
            for name in dash.sensors
        },
        "alerts": [
            {
                "sensor": a.rule.sensor,
                "threshold": a.rule.threshold,
                "direction": a.rule.direction,
                "value": a.reading.value,
                "acknowledged": a.acknowledged,
            }
            for a in dash.alerts(include_acknowledged=True)
        ],
    }
    if slo is not None:
        payload["slo"] = {
            "objectives": [
                {
                    "slo": s.slo,
                    "source": s.source,
                    "budget_remaining": s.budget_remaining,
                    "short_burn": s.short_burn,
                    "long_burn": s.long_burn,
                    "firing": list(s.firing_rules),
                }
                for s in slo()
            ],
            "last_incident": last_incident() if last_incident is not None else None,
        }
    if serving is not None:
        summary = serving()
        payload["serving"] = {
            "routes": AIDashboard._serving_rows(summary),
            "pool": AIDashboard._pool_rows(summary),
        }
    return json.dumps(payload, indent=2, sort_keys=True)


def reading(sensor="performance", value=0.9, t=0.0, details=None, v=1):
    return SensorReading(
        sensor=sensor,
        property=TrustProperty.ACCURACY,
        value=value,
        timestamp=t,
        model_version=v,
        details={} if details is None else details,
    )


NAMES = st.one_of(
    st.sampled_from(
        ["performance", 'say "hi"', "back\\slash", "ctl\x00\x1f\n\t", "ünïcödé ☃ 😀", ""]
    ),
    st.text(max_size=6),
)
FLOATS = st.one_of(st.floats(), st.sampled_from([0.0, 1.0, -0.0]))
DETAILS = st.dictionaries(st.text(max_size=4), FLOATS, max_size=3)
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), NAMES, FLOATS, DETAILS, st.floats(0, 1e6)),
        st.tuples(st.just("export")),
        st.tuples(st.just("ack")),
    ),
    max_size=40,
)


class TestExportMatchesJsonDumps:
    @settings(max_examples=200, deadline=None)
    @given(
        ops=OPS,
        history_limit=st.integers(1, 5),
        with_slo=st.booleans(),
        with_serving=st.booleans(),
        budget=FLOATS,
    )
    def test_repeated_exports(self, ops, history_limit, with_slo, with_serving, budget):
        dash = AIDashboard(history_limit=history_limit)
        dash.add_rule(AlertRule(sensor="performance", threshold=0.5))
        dash.add_rule(AlertRule(sensor='say "hi"', threshold=0.5, direction="above"))
        providers = {}
        if with_slo:
            providers["slo"] = lambda: [
                Summary("avail", "ok:shap", budget),
                Summary("latency", "shap@node-é", 0.5, firing=("fast",)),
            ]
            providers["last_incident"] = lambda: "INC-0001"
            dash.set_slo_provider(providers["slo"], providers["last_incident"])
        if with_serving:
            providers["serving"] = lambda: SERVING
            dash.set_serving_provider(providers["serving"])
        for op in ops + [("export",)]:
            if op[0] == "add":
                __, name, value, details, t = op
                dash.add_reading(reading(name, value, t, details))
            elif op[0] == "ack":
                dash.acknowledge_all()
            else:
                assert dash.to_json() == reference_export(dash, **providers)

    def test_exports_after_eviction(self):
        dash = AIDashboard(history_limit=3)
        for i in range(10):
            dash.add_reading(reading(value=i / 10, t=float(i)))
            dash.add_reading(reading(sensor="other", value=1.0, t=float(i)))
            if i % 3 == 0:
                assert dash.to_json() == reference_export(dash)
        assert [r["value"] for r in json.loads(dash.to_json())["sensors"]["performance"]] == [
            0.7,
            0.8,
            0.9,
        ]
        assert dash.to_json() == reference_export(dash)

    def test_empty_dashboard_and_empty_details(self):
        dash = AIDashboard()
        assert dash.to_json() == reference_export(dash)
        dash.add_reading(reading(details={}))
        assert dash.to_json() == reference_export(dash)
        assert '"details": {}' in dash.to_json()

    def test_non_finite_values_and_details(self):
        dash = AIDashboard()
        for value in (math.nan, math.inf, -math.inf):
            dash.add_reading(reading(value=value, details={"raw": value, "ok": 1.0}))
            assert dash.to_json() == reference_export(dash)

    def test_acknowledging_between_exports_shows(self):
        dash = AIDashboard()
        dash.add_rule(AlertRule(sensor="performance", threshold=0.95))
        dash.add_reading(reading(value=0.9))
        assert '"acknowledged": false' in dash.to_json()
        dash.acknowledge_all()
        assert '"acknowledged": true' in dash.to_json()
        assert dash.to_json() == reference_export(dash)

    def test_unencodable_detail_raises_from_to_json(self):
        dash = AIDashboard(history_limit=2)
        dash.add_reading(reading(details={"handle": object()}))  # accepted
        with pytest.raises(TypeError):
            dash.to_json()
        with pytest.raises(TypeError):  # nothing was cached for it
            dash.to_json()
        dash.add_reading(reading(value=0.5))
        dash.add_reading(reading(value=0.6))  # evicts it
        assert dash.to_json() == reference_export(dash)


def reference_row(dash, name):
    """A sensor's panel row as the previous ``render_text`` drew it."""
    values = dash.values(name)
    latest = values[-1]
    bar_len = int(round(latest * 20))
    bar = "#" * bar_len + "." * (20 - bar_len)
    trend = 0.0
    if len(values) >= 2:
        window = max(1, min(5, len(values) // 2 or 1))
        trend = sum(values[-window:]) / window - sum(values[:window]) / window
    arrow = "↑" if trend > 0.01 else ("↓" if trend < -0.01 else "→")
    return f"{name:<24} [{bar}] {latest:5.3f} {arrow} ({len(values)} readings)"


class TestRenderText:
    @settings(max_examples=100, deadline=None)
    @given(
        series=st.dictionaries(
            st.sampled_from(["performance", "fairness", "drift"]),
            st.lists(st.floats(0.0, 1.0), min_size=1, max_size=14),
            min_size=1,
        ),
        history_limit=st.integers(1, 12),
    )
    def test_unit_interval_rows_are_unchanged(self, series, history_limit):
        dash = AIDashboard(history_limit=history_limit)
        for name, values in series.items():
            for value in values:
                dash.add_reading(reading(sensor=name, value=value))
        rows = dash.render_text().split("\n")[2 : 2 + len(series)]
        assert rows == [reference_row(dash, name) for name in dash.sensors]

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_reading_draws_an_empty_bar(self, value):
        dash = AIDashboard()
        dash.add_reading(reading(value=0.9))
        dash.add_reading(reading(value=value))
        text = dash.render_text()
        assert f"[{'.' * 20}] {value:5.3f} " in text

    @pytest.mark.parametrize("value, bar", [(1.5, "#" * 20), (-0.5, "." * 20), (1e308, "#" * 20)])
    def test_out_of_range_value_stays_on_the_track(self, value, bar):
        dash = AIDashboard()
        dash.add_reading(reading(value=value))
        assert f"[{bar}]" in dash.render_text()

    def test_drift_keeps_its_errors_and_sums(self):
        dash = AIDashboard()
        with pytest.raises(KeyError, match="no readings for sensor 'ghost'"):
            dash.drift("ghost")
        values = [0.1, 0.7, 0.2, 0.3, 0.9, 0.4, 0.6, 0.8, 0.5, 0.05, 0.95]
        for value in values:
            dash.add_reading(reading(value=value))
        for window in (1, 3, 5, 50):
            w = max(1, min(window, len(values) // 2 or 1))
            assert dash.drift("performance", window) == (
                sum(values[-w:]) / w - sum(values[:w]) / w
            )
