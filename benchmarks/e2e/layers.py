"""Outside-in layer tracing: spans around the benchmark's own calls.

Nothing here is passed to the program's ``tracer=`` parameters.  The
benchmark owns one :class:`repro.tracing.Tracer` clocked by
``time.perf_counter``; spans wrap (a) the driver's calls into a layer's
public function and (b) the calls made through timing proxies the
benchmark hands to the program in place of its kernels, pool or
telemetry target.  The driver is single-threaded, so a stack of open
spans gives every proxy call its parent.

Span trees are folded as each span ends (:class:`SpanFold`): a span's
self time is its duration minus the time its direct children cover.
That is what :func:`repro.tracing.analysis.critical_path` attributes to
a span when its children run one after another; :meth:`SpanFold.verify`
checks exactly that on a sample of whole trees after the measurement, so
memory stays bounded on runs that end hundreds of thousands of spans.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager, nullcontext
from typing import Dict, List, Tuple

from repro.tracing import Tracer
from repro.tracing.analysis import SpanLatencyStats, critical_path
from repro.tracing.collector import TraceTree

from benchmarks.e2e.common import OracleError

#: Every this-many-th root trace is kept whole for the critical-path
#: cross-check, which runs after the measurement; at most this many
#: trees, of at most this many spans each.
_SAMPLE_EVERY = 8
_SAMPLE_TREES = 32
_SAMPLE_MAX_SPANS = 512


class _NameStats:
    __slots__ = ("calls", "busy", "self_time", "durations", "self_durations")

    def __init__(self) -> None:
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.durations = array("d")
        self.self_durations = array("d")


class SpanFold:
    """A tracer collector that keeps per-name totals, not spans."""

    def __init__(self) -> None:
        self.names: Dict[str, _NameStats] = {}
        self.root_starts = array("d")
        self.root_ends = array("d")
        self._child_time: Dict[str, float] = {}
        self._roots_started = 0
        self._buffers: Dict[str, List] = {}
        self.sampled: List[TraceTree] = []

    def root_started(self, trace_id: str) -> None:
        """Called as a root span opens; decides whether to keep its tree."""
        self._roots_started += 1
        if (
            self._roots_started % _SAMPLE_EVERY == 1
            and len(self.sampled) + len(self._buffers) < _SAMPLE_TREES
        ):
            self._buffers[trace_id] = []

    def on_end(self, span) -> None:
        duration = span.end_time - span.start_time
        span_id = span.context.span_id
        own = duration - self._child_time.pop(span_id, 0.0)
        stats = self.names.get(span.name)
        if stats is None:
            stats = self.names[span.name] = _NameStats()
        stats.calls += 1
        stats.busy += duration
        stats.self_time += own
        stats.durations.append(duration)
        stats.self_durations.append(own)
        parent = span.parent_span_id
        if parent is not None:
            self._child_time[parent] = self._child_time.get(parent, 0.0) + duration
        else:
            self.root_starts.append(span.start_time)
            self.root_ends.append(span.end_time)
        if self._buffers:
            self._keep(span, parent is None)

    def _keep(self, span, is_root: bool) -> None:
        trace_id = span.context.trace_id
        spans = self._buffers.get(trace_id)
        if spans is None:
            return
        spans.append(span)
        if len(spans) > _SAMPLE_MAX_SPANS:
            del self._buffers[trace_id]
        elif is_root:
            del self._buffers[trace_id]
            self.sampled.append(TraceTree(trace_id, spans))

    def verify(self) -> int:
        """The fold's self times must equal the critical-path partition
        on every kept tree; returns how many trees were checked."""
        for tree in self.sampled:
            by_path: Dict[str, float] = {}
            for segment in critical_path(tree):
                key = segment.span.context.span_id
                by_path[key] = by_path.get(key, 0.0) + segment.seconds
            for span in tree.spans:
                own = span.duration - sum(c.duration for c in tree.children(span))
                if abs(own - by_path.get(span.context.span_id, 0.0)) > 1e-9:
                    raise OracleError(
                        f"span {span.name!r}: folded self time {own:.9f}s differs "
                        "from its critical-path share; spans overlap"
                    )
        return len(self.sampled)

    def attributed(self, start: float, end: float) -> float:
        """Seconds of ``[start, end)`` covered by root spans."""
        covered = 0.0
        for s, e in zip(self.root_starts, self.root_ends):
            lo, hi = max(s, start), min(e, end)
            if hi > lo:
                covered += hi - lo
        return covered

    def table(self, wall: float) -> List[Dict[str, object]]:
        """One row per span name: calls, busy, self, share, p50/p99."""
        rows = []
        for name in sorted(self.names):
            stats = self.names[name]
            latency = SpanLatencyStats.from_durations(name, stats.durations)
            rows.append(
                {
                    "span": name,
                    "calls": stats.calls,
                    "busy_s": stats.busy,
                    "self_s": stats.self_time,
                    "share": stats.self_time / wall if wall > 0 else 0.0,
                    "p50_ms": latency.p50 * 1e3,
                    "p99_ms": latency.p99 * 1e3,
                }
            )
        return rows

    def self_p50(self, name: str) -> float:
        stats = self.names.get(name)
        if stats is None:
            return 0.0
        return SpanLatencyStats.from_durations(name, stats.self_durations).p50

    def duration_p50(self, name: str) -> float:
        stats = self.names.get(name)
        if stats is None:
            return 0.0
        return SpanLatencyStats.from_durations(name, stats.durations).p50

    def busy(self, name: str) -> float:
        stats = self.names.get(name)
        return 0.0 if stats is None else stats.busy

    def self_time(self, name: str) -> float:
        stats = self.names.get(name)
        return 0.0 if stats is None else stats.self_time

    def share(self, wall: float, *names: str) -> float:
        """Self time of the named spans as a share of ``wall`` seconds."""
        return sum(self.self_time(name) for name in names) / wall if wall > 0 else 0.0

    @property
    def spans(self) -> int:
        return sum(stats.calls for stats in self.names.values())


class LayerTracer:
    """The benchmark's tracer: a span stack over a folding collector."""

    traced = True

    def __init__(self) -> None:
        self.fold = SpanFold()
        self.tracer = Tracer(clock=time.perf_counter, collector=self.fold)
        self._stack: List = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        span = self.tracer.start_span(name, parent=parent)
        if parent is None:
            self.fold.root_started(span.context.trace_id)
        self._stack.append(span)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def reset(self) -> None:
        """Start a fresh fold: later tables cover only what follows."""
        self.fold = self.tracer.collector = SpanFold()

    def overhead_frac(self, wall: float) -> float:
        """Estimated share of ``wall`` spent recording spans: the spans
        ended so far times the calibrated cost of one span."""
        return self.fold.spans * _span_cost() / wall if wall > 0 else 0.0


class NullLayers:
    """The untraced stand-in: same calls, no spans."""

    traced = False
    _null = nullcontext()

    def span(self, name: str):
        return self._null

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def reset(self) -> None:
        return None


def _span_cost(n: int = 4000) -> float:
    """Seconds one nested start/end pair costs on this host."""
    tracer = Tracer(clock=time.perf_counter, collector=SpanFold())
    start = time.perf_counter()
    for __ in range(n):
        root = tracer.start_span("calibrate")
        tracer.start_span("calibrate.child", parent=root).end()
        root.end()
    return (time.perf_counter() - start) / (2 * n)


# -- timing proxies handed to the program --------------------------------------


class TimedFunction:
    """A kernel callable that records one span per call, counting rows
    and the seconds spent inside it."""

    def __init__(self, layers: LayerTracer, name: str, fn) -> None:
        self.layers = layers
        self.name = name
        self.fn = fn
        self.rows = 0
        self.seconds = 0.0

    def __call__(self, X):
        with self.layers.span(self.name) as span:
            out = self.fn(X)
        self.rows += len(X)
        self.seconds += span.duration
        return out

    @property
    def rows_per_s(self) -> float:
        return self.rows / self.seconds if self.seconds else 0.0


class TimedExplainer(TimedFunction):
    """Wraps a ``KernelShapExplainer``'s batch entry point in ``xai.shap``
    spans; every other attribute is the explainer's own."""

    def __init__(self, layers: LayerTracer, explainer) -> None:
        super().__init__(layers, "xai.shap", explainer.shap_values_batch_exact)
        self.explainer = explainer

    def shap_values_batch_exact(self, X):
        return self(X)

    def __getattr__(self, attr):
        return getattr(self.explainer, attr)


def timed_kernels(layers: LayerTracer, model, background, n_coalitions: int):
    """(predict proxy, explainer proxy) over one fitted model.

    The explainer computes through its own ``xai.shap.model`` proxy, so
    SHAP self time excludes the model calls inside it and ``ml.predict``
    counts only the serving path's predict calls.
    """
    from repro.xai.shap import KernelShapExplainer

    predict = TimedFunction(layers, "ml.predict", model.predict_proba)
    inner = TimedFunction(layers, "xai.shap.model", model.predict_proba)
    explainer = KernelShapExplainer(inner, background, n_coalitions=n_coalitions, seed=0)
    return predict, TimedExplainer(layers, explainer)


class TimedPool:
    """Wraps a ``KernelPool`` seen by the engine; the pool itself keeps
    the unwrapped kernels, since its workers run in other processes.

    The first ``keep_batches`` dispatched batches are kept so their
    kernel cost can be replayed in-process afterwards.
    """

    def __init__(self, layers: LayerTracer, pool, keep_batches: int) -> None:
        self.layers = layers
        self.pool = pool
        self.keep_batches = keep_batches
        self.futures: List = []
        self.batches: List[Tuple[str, object]] = []

    def _submit(self, kind: str, submit, X, now: float):
        future = self.layers.call("pool.submit", submit, X, now)
        self.futures.append(future)
        if len(self.batches) < self.keep_batches:
            self.batches.append((kind, X))
        return future

    def submit_predict(self, X, now: float = 0.0):
        return self._submit("predict", self.pool.submit_predict, X, now)

    def submit_explain(self, X, now: float = 0.0):
        return self._submit("explain", self.pool.submit_explain, X, now)

    def poll(self, now: float = 0.0):
        return self.layers.call("pool.poll", self.pool.poll, now)

    def drain(self, now: float = 0.0):
        return self.layers.call("pool.drain", self.pool.drain, now)

    def roundtrips(self) -> List[float]:
        """Submit-to-release seconds of every resolved batch."""
        return [
            f.completed_at - f.submitted_at
            for f in self.futures
            if f.completed_at is not None
        ]

    def __getattr__(self, attr):
        return getattr(self.pool, attr)


class TimedTelemetry:
    """Wraps the telemetry target a simulator publishes into, keeping the
    published events for the standalone per-layer replay."""

    def __init__(self, layers: LayerTracer, target) -> None:
        self.layers = layers
        self.target = target
        self.events: List = []

    def publish(self, topic: str, event) -> int:
        self.events.append(event)
        return self.layers.call(
            "telemetry.publish", self.target.publish, topic, event
        )

    def pump(self) -> int:
        return self.layers.call("telemetry.pump", self.target.pump)

    def __getattr__(self, attr):
        return getattr(self.target, attr)


def attribution(fold: SpanFold, window: Tuple[float, float]) -> float:
    start, end = window
    wall = end - start
    return fold.attributed(start, end) / wall if wall > 0 else 0.0
