"""Unit tests for the multi-window burn-rate evaluator."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.slo import (
    KIND_SLO_ALERT,
    OBJECTIVE_AVAILABILITY,
    OBJECTIVE_LATENCY,
    BurnRateRule,
    SLODefinition,
    SLOEvaluator,
)
from repro.telemetry.events import TelemetryEvent
from repro.telemetry.rollup import TumblingWindowAggregator, WindowStat


RULE = BurnRateRule("fast", short_seconds=2.0, long_seconds=10.0, factor=4.0)


def availability_slo(source="ok:shap", name="avail"):
    # target 0.9 -> error budget 10%; a fully-failing window burns at 10x
    return SLODefinition(
        name, source, OBJECTIVE_AVAILABILITY, target=0.9, burn_rules=(RULE,)
    )


def window(source, start, mean, count=100):
    return WindowStat(
        source=source,
        window_start=start,
        window_seconds=1.0,
        count=count,
        mean=mean,
        min=mean,
        max=mean,
        p50=mean,
        p95=mean,
    )


def feed(evaluator, source, means, start=0.0):
    for i, mean in enumerate(means):
        evaluator.observe(window(source, start + float(i), mean))


class TestAlertEdges:
    def test_fires_only_when_both_windows_breach(self):
        evaluator = SLOEvaluator([availability_slo()])
        # short window breaches immediately, long window (10s) needs the
        # burn sustained: one bad second in ten is 1x, not 4x
        feed(evaluator, "ok:shap", [1.0] * 9 + [0.0])
        assert evaluator.alerts == []
        # sustain it: the long window's bad fraction climbs past 0.4
        feed(evaluator, "ok:shap", [0.0] * 4, start=10.0)
        firing = [a for a in evaluator.alerts if a.firing]
        assert len(firing) == 1
        alert = firing[0]
        assert (alert.slo, alert.source, alert.rule) == (
            "avail", "ok:shap", "fast",
        )
        assert alert.short_burn >= alert.factor
        assert alert.long_burn >= alert.factor

    def test_fire_edge_emits_once_not_per_window(self):
        evaluator = SLOEvaluator([availability_slo()])
        feed(evaluator, "ok:shap", [0.0] * 10)
        firing = [a for a in evaluator.alerts if a.firing]
        assert len(firing) == 1
        assert evaluator.firing  # still active, no duplicate edges

    def test_resolve_edge_when_either_window_recovers(self):
        evaluator = SLOEvaluator([availability_slo()])
        feed(evaluator, "ok:shap", [0.0] * 10)
        assert evaluator.firing
        # healthy again: the 2s short window empties of bad events fast
        feed(evaluator, "ok:shap", [1.0] * 3, start=10.0)
        states = [a.state for a in evaluator.alerts]
        assert states == ["firing", "resolved"]
        assert evaluator.firing == []

    def test_firing_alert_carries_its_worst_window(self):
        evaluator = SLOEvaluator([availability_slo()])
        feed(evaluator, "ok:shap", [0.0] * 10)
        alert = evaluator.alerts[0]
        assert alert.worst_window is not None
        assert alert.worst_window.source == "ok:shap"
        # the worst window sits inside the short lookback
        assert alert.worst_window.window_end > alert.timestamp - 2.0


class TestWildcardBinding:
    def test_each_concrete_node_source_is_its_own_series(self):
        slo = SLODefinition(
            "lat", "shap@*", OBJECTIVE_LATENCY, target=0.9,
            threshold=40.0, burn_rules=(RULE,),
        )
        evaluator = SLOEvaluator([slo])
        # node-0 healthy (10ms), node-1 breaching (100ms > threshold)
        for i in range(12):
            evaluator.observe(window("shap@node-0", float(i), 10.0))
            evaluator.observe(window("shap@node-1", float(i), 100.0))
        sources = {a.source for a in evaluator.alerts if a.firing}
        assert sources == {"shap@node-1"}
        assert evaluator.ledger("lat", "shap@node-0") is not None
        assert evaluator.ledger("lat", "shap@node-1") is not None


class TestBudgetLedger:
    def test_ledger_tracks_consumption_against_target(self):
        evaluator = SLOEvaluator([availability_slo()])
        # mean 0.9 at target 0.9: burning exactly at the sustainable rate
        feed(evaluator, "ok:shap", [0.9] * 5)
        ledger = evaluator.ledger("avail", "ok:shap")
        assert ledger.consumed_fraction == pytest.approx(1.0)
        assert ledger.remaining_fraction == pytest.approx(0.0)

    def test_healthy_series_keeps_its_budget(self):
        evaluator = SLOEvaluator([availability_slo()])
        feed(evaluator, "ok:shap", [1.0] * 5)
        ledger = evaluator.ledger("avail", "ok:shap")
        assert ledger.remaining_fraction == pytest.approx(1.0)


class TestEmissionAndStatus:
    def test_alert_edges_become_typed_bus_events(self):
        emitted = []
        evaluator = SLOEvaluator([availability_slo()], emit=emitted.append)
        feed(evaluator, "ok:shap", [0.0] * 10)
        assert len(emitted) == 1
        event = emitted[0]
        assert isinstance(event, TelemetryEvent)
        assert event.kind == KIND_SLO_ALERT
        assert event.source == "slo:avail"
        assert event.labels["state"] == "firing"
        assert event.labels["sli_source"] == "ok:shap"

    def test_observers_see_fire_and_resolve(self):
        seen = []
        evaluator = SLOEvaluator([availability_slo()])
        evaluator.on_alert(seen.append)
        feed(evaluator, "ok:shap", [0.0] * 10 + [1.0] * 3)
        assert [a.state for a in seen] == ["firing", "resolved"]

    def test_status_snapshots_every_bound_series(self):
        evaluator = SLOEvaluator([availability_slo()])
        feed(evaluator, "ok:shap", [0.0] * 10)
        (summary,) = evaluator.status()
        assert summary.slo == "avail"
        assert summary.source == "ok:shap"
        assert summary.firing_rules == ("fast",)
        assert not summary.healthy
        assert summary.budget_remaining == 0.0
        assert summary.short_burn >= 4.0

    def test_duplicate_definition_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            SLOEvaluator([availability_slo(), availability_slo("other")])


class TestAggregatorAttachment:
    def test_observes_windows_as_the_aggregator_finalises_them(self):
        aggregator = TumblingWindowAggregator(window_seconds=1.0, cascades=())
        evaluator = SLOEvaluator([availability_slo()])
        evaluator.attach(aggregator)
        for i in range(30):
            aggregator.ingest(
                TelemetryEvent(
                    source="ok:shap", value=0.0, timestamp=i * 0.5
                )
            )
        aggregator.flush()
        assert evaluator.windows_seen == 15
        assert any(a.firing for a in evaluator.alerts)

    def test_unrelated_sources_cost_nothing_but_a_match_check(self):
        aggregator = TumblingWindowAggregator(window_seconds=1.0, cascades=())
        evaluator = SLOEvaluator([availability_slo()])
        evaluator.attach(aggregator)
        for i in range(10):
            aggregator.ingest(
                TelemetryEvent(source="noise", value=1.0, timestamp=float(i))
            )
        aggregator.flush()
        assert evaluator.windows_seen == 10
        assert evaluator.status() == []  # no series ever bound


PAIR_RULES = (
    BurnRateRule("fast", short_seconds=0.5, long_seconds=4.0, factor=4.0),
    BurnRateRule("slow", short_seconds=1.0, long_seconds=6.0, factor=2.0),
)
LOOKBACKS = (0.25, 0.5, 1.0, 2.5, 4.0, 6.0)  # the longest is the horizon


@st.composite
def success_streams(draw):
    """A seeded 0/1 success stream that walks the window grid, mostly
    forward and now and then a window back (reordered), with some events
    a few windows behind the walk (late), half of them on a window's
    start, and mid-stream flushes.  At a window size that is not a power
    of two, a flush can let a window open behind its series' tail, which
    the rollup drops."""
    window = draw(st.sampled_from([1.0, 0.5, 0.7, 0.3, 1.1]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    index = draw(st.integers(0, 400))  # the first event's window index
    events = []
    bad_share = 0.0
    for __ in range(draw(st.integers(1, 120))):
        index = max(0, index + rng.choice([-1, 0, 1, 2]))
        back = rng.randint(2, 6) if rng.random() < 0.1 else 0
        offset = rng.choice([0.0, rng.random()])
        if rng.random() < 0.1:
            bad_share = rng.choice([0.0, 0.2, 0.9])
        source = "ok:shap" if rng.random() < 0.8 else "other"
        value = 0.0 if rng.random() < bad_share else 1.0
        timestamp = (index - back + offset) * window
        events.append((TelemetryEvent(source, value, timestamp), rng.random()))
    return window, draw(st.sampled_from([0.0, 0.1, 0.3, 0.5])), events


class TestWindowsBehindTheTail:
    """A window that would finalise behind its series' tail never reaches
    the evaluator: the rollup drops it, and ``observe`` refuses one.  The
    trailing sums and the worst window are those of the windows seen,
    and each window's rules run at its own end."""

    @settings(max_examples=200, deadline=None)
    @given(stream=success_streams())
    def test_burn_rate_and_worst_window_match_brute_force(self, stream):
        window, flush_share, events = stream
        definition = SLODefinition(
            "avail", "ok:shap", OBJECTIVE_AVAILABILITY, target=0.9,
            burn_rules=PAIR_RULES,
        )
        aggregator = TumblingWindowAggregator(window_seconds=window, cascades=())
        evaluator = SLOEvaluator([definition])
        evaluator.attach(aggregator)
        seen = []  # (end, bad, total, window) in finalisation order
        checked = [0]

        def check(stat):
            if stat.source != "ok:shap":
                return
            bad = definition.bad_fraction(stat) * stat.count
            now = stat.window_end
            seen.append((now, bad, float(stat.count), stat))
            for alert in evaluator.alerts[checked[0]:]:
                assert alert.timestamp == now
            checked[0] = len(evaluator.alerts)
            state = evaluator._series[("avail", "ok:shap")]
            for seconds in LOOKBACKS:
                inside = [e for e in seen if e[0] > now - seconds]
                total = sum(e[2] for e in inside)
                want = sum(e[1] for e in inside) / total / 0.1 if total else 0.0
                got = state.burn_rate(seconds, now, definition.target)
                assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9), (
                    seconds, now, got, want,
                )
                worst = None
                for end, bad, total, candidate in inside:
                    if worst is None or bad / total >= worst[0]:
                        worst = (bad / total, candidate)
                got = state.worst_window(seconds, now)
                assert got is (None if worst is None else worst[1]), (seconds, now)

        aggregator.on_finalize(check)
        for event, roll in events:
            aggregator.ingest(event)
            if roll < flush_share:
                aggregator.flush()
        aggregator.flush()
        ends = [end for end, *__ in seen]
        assert ends == sorted(ends)

    def test_a_window_ending_before_the_newest_is_refused(self):
        evaluator = SLOEvaluator([availability_slo()])
        feed(evaluator, "ok:shap", [1.0] * 18 + [0.0] * 2)
        ledger = evaluator.ledger("avail", "ok:shap")
        state = evaluator._series[("avail", "ok:shap")]

        def snapshot():
            burns = [state.burn_rate(s, 20.0, 0.9) for s in (1.0, 3.0, 10.0)]
            return ledger.bad, ledger.total, burns, len(evaluator.alerts)

        before = snapshot()
        # a failing window ending at 18 s after the one ending at 20 s
        with pytest.raises(ValueError):
            evaluator.observe(window("ok:shap", 17.0, 0.0))
        assert snapshot() == before
