"""Multi-window burn-rate evaluation over finalised rollup windows.

The evaluator attaches to a :class:`TumblingWindowAggregator` through its
``on_finalize`` hook, so it sees each finalised window exactly once, in
finalisation order — no polling, no raw-event cost.  Per (SLO, concrete
source) it keeps a bounded deque of ``(window, bad, total)`` tuples
trimmed to the longest rule window, from which trailing burn rates fall
out as two running sums.

Burn rate is the Google-SRE quantity: how many times faster than the
sustainable rate the error budget is being spent,

    burn = bad_fraction / (1 - target)

A rule fires when *both* its short and long trailing windows burn at or
above ``factor``; it resolves when either drops below.  Alert edges
(fire/resolve) are emitted as typed ``slo_alert`` telemetry events onto
the bus — they ride the same WAL/rollup machinery as everything else —
and handed to registered observers (the incident engine).
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.slo.definitions import BurnRateRule, SLODefinition
from repro.telemetry.events import TelemetryEvent
from repro.telemetry.rollup import TumblingWindowAggregator, WindowStat

__all__ = [
    "KIND_SLO_ALERT",
    "SLO_TOPIC",
    "BurnRateAlert",
    "ErrorBudgetLedger",
    "SLOEvaluator",
    "SLOStatusSummary",
]

#: Event kind and bus topic for alert-edge events.
KIND_SLO_ALERT = "slo_alert"
SLO_TOPIC = "slo"

ALERT_FIRING = "firing"
ALERT_RESOLVED = "resolved"


@dataclass(frozen=True)
class BurnRateAlert:
    """One alert edge: a burn-rate rule crossing into or out of breach."""

    slo: str
    source: str
    rule: str
    severity: str
    state: str  # ALERT_FIRING | ALERT_RESOLVED
    timestamp: float
    short_burn: float
    long_burn: float
    factor: float
    #: The worst (highest bad-fraction) window inside the short lookback
    #: at fire time — the incident engine's entry point into exemplars.
    worst_window: Optional[WindowStat] = None

    @property
    def firing(self) -> bool:
        return self.state == ALERT_FIRING

    def to_event(self) -> TelemetryEvent:
        """The bus representation; value is the short-window burn rate."""
        return TelemetryEvent(
            source=f"slo:{self.slo}",
            value=self.short_burn,
            timestamp=self.timestamp,
            kind=KIND_SLO_ALERT,
            attrs={
                "long_burn": self.long_burn,
                "factor": self.factor,
            },
            labels={
                "slo": self.slo,
                "sli_source": self.source,
                "rule": self.rule,
                "severity": self.severity,
                "state": self.state,
            },
        )

    def describe(self) -> str:
        verb = "FIRING" if self.firing else "resolved"
        return (
            f"[{self.severity}] {self.slo} on {self.source} {verb} "
            f"({self.rule}: short {self.short_burn:.1f}x / "
            f"long {self.long_burn:.1f}x, threshold {self.factor:.1f}x)"
        )


class ErrorBudgetLedger:
    """Running error-budget account for one (SLO, source) series.

    The budget for a period is ``total_events * (1 - target)`` bad events;
    each finalised window debits its bad count.  ``remaining_fraction``
    normalises against events seen so far, so it reads correctly mid-period
    (a series burning exactly at target holds steady at 0.0 consumed).
    """

    __slots__ = ("target", "bad", "total")

    def __init__(self, target: float) -> None:
        self.target = target
        self.bad = 0.0
        self.total = 0.0

    def debit(self, bad: float, total: float) -> None:
        self.bad += bad
        self.total += total

    @property
    def consumed_fraction(self) -> float:
        """Fraction of the budget-to-date spent (can exceed 1.0)."""
        budget = self.total * (1.0 - self.target)
        if budget <= 0:
            return 0.0
        return self.bad / budget

    @property
    def remaining_fraction(self) -> float:
        return max(0.0, 1.0 - self.consumed_fraction)


@dataclass(frozen=True)
class SLOStatusSummary:
    """Point-in-time health snapshot for the dashboard strip."""

    slo: str
    source: str
    objective: str
    target: float
    budget_remaining: float
    short_burn: float
    long_burn: float
    firing_rules: Tuple[str, ...] = ()

    @property
    def healthy(self) -> bool:
        return not self.firing_rules


class _SeriesState:
    """Trailing-window accounting for one (SLO, concrete source) pair.

    The retained history is kept in window-end order.  Alongside the
    window deque (kept for :meth:`worst_window`'s rare, short-lookback
    scan at fire time) we keep *absolute* prefix sums of bad/total
    counts: a trailing burn rate is then one bisect and two subtractions
    per rule instead of a rescan of the lookback — without this, a rule
    whose long window spans the stream (the production 6 h pair over a
    capacity replay) makes every finalisation O(retained windows), and
    the evaluator can't hold the ≤5 % ingest-overhead budget
    ``bench_slo`` gates.

    The rollup finalises each source's windows in start order, so every
    window is appended; one ending before the newest is refused.
    """

    __slots__ = (
        "ledger",
        "history",
        "horizon",
        "_ends",
        "_cum_bad",
        "_cum_total",
        "_base_bad",
        "_base_total",
    )

    def __init__(self, target: float, horizon: float) -> None:
        self.ledger = ErrorBudgetLedger(target)
        #: (window, bad, total), oldest first, trimmed to ``horizon``.
        self.history: Deque[Tuple[WindowStat, float, float]] = deque()
        self.horizon = horizon
        #: Window ends + absolute cumulative bad/total, parallel to
        #: ``history``.  Cumulative values stay absolute across trims
        #: (``_base_*`` records what fell off the front), so a trailing
        #: sum is always a difference of two retained entries.
        self._ends: List[float] = []
        self._cum_bad: List[float] = []
        self._cum_total: List[float] = []
        self._base_bad = 0.0
        self._base_total = 0.0

    def observe(
        self, stat: WindowStat, end: float, bad: float, total: float
    ) -> None:
        """Account one window; ``end`` is its ``window_end``.

        Raises ``ValueError``, changing nothing, if the window ends before
        the series' newest.
        """
        if self._ends and end < self._ends[-1]:
            raise ValueError(
                f"window of {stat.source!r} ending at {end} is older than "
                f"the series' newest, ending at {self._ends[-1]}"
            )
        self.ledger.debit(bad, total)
        self.history.append((stat, bad, total))
        self._ends.append(end)
        self._cum_bad.append(
            (self._cum_bad[-1] if self._cum_bad else self._base_bad) + bad
        )
        self._cum_total.append(
            (self._cum_total[-1] if self._cum_total else self._base_total)
            + total
        )
        cutoff = end - self.horizon
        drop = 0
        while drop < len(self._ends) and self._ends[drop] <= cutoff:
            self.history.popleft()
            drop += 1
        if drop:
            self._base_bad = self._cum_bad[drop - 1]
            self._base_total = self._cum_total[drop - 1]
            del self._ends[:drop]
            del self._cum_bad[:drop]
            del self._cum_total[:drop]

    def burn_rate(self, seconds: float, now: float, target: float) -> float:
        """Trailing burn rate over ``[now - seconds, now)``."""
        if not self._ends:
            return 0.0
        start = now - seconds
        # entries with window_end <= start fall outside the lookback;
        # anything trimmed past the horizon is older still (rule windows
        # never exceed the horizon), so the bases are the right floor
        idx = bisect_right(self._ends, start)
        if idx >= len(self._ends):
            return 0.0
        base_bad = self._cum_bad[idx - 1] if idx else self._base_bad
        base_total = self._cum_total[idx - 1] if idx else self._base_total
        total = self._cum_total[-1] - base_total
        if total <= 0:
            return 0.0
        bad = self._cum_bad[-1] - base_bad
        return (bad / total) / (1.0 - target)

    def worst_window(self, seconds: float, now: float) -> Optional[WindowStat]:
        """Highest-bad-fraction window in the trailing lookback."""
        start = now - seconds
        worst: Optional[Tuple[float, WindowStat]] = None
        for stat, bad, total in reversed(self.history):
            if stat.window_end <= start:
                break
            if total <= 0:
                continue
            fraction = bad / total
            if worst is None or fraction > worst[0]:
                worst = (fraction, stat)
        return None if worst is None else worst[1]


class _RuleState:
    """Per-(series, rule) hysteresis flag, resolved once at bind time."""

    __slots__ = ("rule", "active")

    def __init__(self, rule: BurnRateRule) -> None:
        self.rule = rule
        self.active = False


class _Binding:
    """One (definition, concrete source) pair with its evaluation state.

    Bindings are resolved once per source (first window seen) so the
    per-window path does no wildcard matching, no tuple-key dict
    lookups, and no allocation — just attribute walks over this struct.
    """

    __slots__ = ("definition", "source", "state", "rules")

    def __init__(
        self, definition: SLODefinition, source: str, state: _SeriesState
    ) -> None:
        self.definition = definition
        self.source = source
        self.state = state
        self.rules = tuple(_RuleState(r) for r in definition.burn_rules)


class SLOEvaluator:
    """Evaluates a set of SLO definitions against finalised windows.

    Wiring order matters only in that :meth:`attach` must run before the
    windows of interest finalise; the evaluator is otherwise passive — it
    does work only inside the aggregator's ``_finalize``, once per window.

    Parameters
    ----------
    definitions:
        The objectives to evaluate.  Wildcard sources (``route@*``) bind
        lazily: a new concrete source starts its own series and ledger on
        first sight.
    emit:
        Optional callback receiving each alert edge's bus event
        (typically ``pipeline.publish`` partial'd with the SLO topic).
    """

    def __init__(
        self,
        definitions: Sequence[SLODefinition],
        emit: Optional[Callable[[TelemetryEvent], None]] = None,
    ) -> None:
        names = [d.name for d in definitions]
        if len(set(names)) != len(names):
            raise ValueError("SLO definitions must have unique names")
        self.definitions = list(definitions)
        self.emit = emit
        #: (slo name, concrete source) -> trailing state
        self._series: Dict[Tuple[str, str], _SeriesState] = {}
        #: concrete source -> resolved bindings (empty tuple = no match,
        #: cached too, so unmonitored sources cost one dict hit per window)
        self._bindings: Dict[str, Tuple[_Binding, ...]] = {}
        #: currently-firing (slo, source, rule) triples
        self._active: Dict[Tuple[str, str, str], BurnRateAlert] = {}
        #: every alert edge, in emission order (drill/report audit trail)
        self.alerts: List[BurnRateAlert] = []
        self._observers: List[Callable[[BurnRateAlert], None]] = []
        self.windows_seen = 0

    # -- wiring -----------------------------------------------------------------

    def attach(self, aggregator: TumblingWindowAggregator) -> None:
        """Subscribe to a rollup store's level-0 finalisation stream."""
        aggregator.on_finalize(self.observe)

    def on_alert(self, observer: Callable[[BurnRateAlert], None]) -> None:
        """Register a callback for every alert edge (fire *and* resolve)."""
        self._observers.append(observer)

    # -- evaluation --------------------------------------------------------------

    def observe(self, stat: WindowStat) -> None:
        """Consume one finalised window (the ``on_finalize`` callback).

        Raises ``ValueError``, leaving every ledger and trailing sum as it
        was, if the window ends before the newest one seen of its source.
        """
        self.windows_seen += 1
        bindings = self._bindings.get(stat.source)
        if bindings is None:
            bindings = self._bind(stat.source)
        end = stat.window_start + stat.window_seconds
        for binding in bindings:
            self._observe_binding(binding, stat, end)

    def _bind(self, source: str) -> Tuple[_Binding, ...]:
        bound = []
        for definition in self.definitions:
            if definition.matches(source):
                horizon = max(
                    (rule.long_seconds for rule in definition.burn_rules),
                    default=definition.budget_seconds,
                )
                state = _SeriesState(definition.target, horizon)
                self._series[(definition.name, source)] = state
                bound.append(_Binding(definition, source, state))
        bindings = tuple(bound)
        self._bindings[source] = bindings
        return bindings

    def _observe_binding(
        self, binding: _Binding, stat: WindowStat, end: float
    ) -> None:
        definition = binding.definition
        state = binding.state
        target = definition.target
        state.observe(stat, end,
                      definition.bad_fraction(stat) * stat.count,
                      float(stat.count))
        burn_rate = state.burn_rate
        for rule_state in binding.rules:
            rule = rule_state.rule
            factor = rule.factor
            short = burn_rate(rule.short_seconds, end, target)
            if not rule_state.active:
                # not breaching unless BOTH windows burn: skip the long
                # lookback entirely while the short one is healthy (the
                # steady state), halving the per-window burn arithmetic
                if short < factor:
                    continue
                long = burn_rate(rule.long_seconds, end, target)
                if long < factor:
                    continue
                rule_state.active = True
                alert = BurnRateAlert(
                    slo=definition.name,
                    source=binding.source,
                    rule=rule.name,
                    severity=rule.severity,
                    state=ALERT_FIRING,
                    timestamp=end,
                    short_burn=short,
                    long_burn=long,
                    factor=factor,
                    worst_window=state.worst_window(rule.short_seconds, end),
                )
                self._active[
                    (definition.name, binding.source, rule.name)
                ] = alert
                self._record(alert)
            else:
                long = burn_rate(rule.long_seconds, end, target)
                if short >= factor and long >= factor:
                    continue
                rule_state.active = False
                del self._active[
                    (definition.name, binding.source, rule.name)
                ]
                self._record(
                    BurnRateAlert(
                        slo=definition.name,
                        source=binding.source,
                        rule=rule.name,
                        severity=rule.severity,
                        state=ALERT_RESOLVED,
                        timestamp=end,
                        short_burn=short,
                        long_burn=long,
                        factor=factor,
                    )
                )

    def _record(self, alert: BurnRateAlert) -> None:
        self.alerts.append(alert)
        if self.emit is not None:
            self.emit(alert.to_event())
        for observer in self._observers:
            observer(alert)

    # -- introspection -----------------------------------------------------------

    @property
    def firing(self) -> List[BurnRateAlert]:
        """Currently-active alerts, oldest first."""
        return sorted(self._active.values(), key=lambda a: a.timestamp)

    def ledger(self, slo: str, source: str) -> Optional[ErrorBudgetLedger]:
        state = self._series.get((slo, source))
        return None if state is None else state.ledger

    def status(self) -> List[SLOStatusSummary]:
        """Per-series health snapshots, sorted for stable rendering."""
        out: List[SLOStatusSummary] = []
        by_name = {d.name: d for d in self.definitions}
        for (slo, source), state in sorted(self._series.items()):
            definition = by_name[slo]
            fastest = min(
                definition.burn_rules,
                key=lambda r: r.short_seconds,
                default=None,
            ) if definition.burn_rules else None
            if state.history:
                now = state.history[-1][0].window_end
            else:
                now = 0.0
            if fastest is not None:
                short = state.burn_rate(
                    fastest.short_seconds, now, definition.target
                )
                long = state.burn_rate(
                    fastest.long_seconds, now, definition.target
                )
            else:
                short = long = 0.0
            firing_rules = tuple(
                sorted(
                    rule
                    for (name, src, rule) in self._active
                    if name == slo and src == source
                )
            )
            out.append(
                SLOStatusSummary(
                    slo=slo,
                    source=source,
                    objective=definition.objective,
                    target=definition.target,
                    budget_remaining=state.ledger.remaining_fraction,
                    short_burn=short,
                    long_burn=long,
                    firing_rules=firing_rules,
                )
            )
        return out
