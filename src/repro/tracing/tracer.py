"""Tracers: the factories that start spans and own the (injected) clock.

Two implementations share one duck-typed interface:

* :class:`Tracer` — the real thing.  Construction injects a ``clock``
  callable (the simulator's ``lambda: sim.now`` in capacity experiments,
  ``time.perf_counter`` at the application layer) and optionally a
  :class:`~repro.tracing.collector.TraceCollector` that receives every
  finished span.
* :class:`NullTracer` — the always-off implementation.  ``start_span``
  returns the shared :data:`~repro.tracing.span.NULL_SPAN`, so every
  instrumented call site stays branch-free and pays near-zero cost
  (``benchmarks/bench_tracing.py`` holds a load-generator run through
  the gateway under it to ≤ 5 % over the same run through the seed's
  untraced dispatch).

Context propagation is *explicit*: there is no ambient "current span".
The deployment simulation interleaves hundreds of requests on one thread
of scheduled callbacks, where thread-local (or contextvar) ambient state
would attribute spans to whichever request happened to run last.  Parents
are therefore passed by hand — ``tracer.start_span(name, parent=span)`` —
which is exactly the discipline the gateway/service/pipeline/sensor call
chain follows.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Union

from repro.tracing.span import NULL_SPAN, NullSpan, Span, SpanContext

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "SpanIdAllocator",
    "Tracer",
]

AnySpan = Union[Span, NullSpan]
Parent = Union[Span, SpanContext, None]


class SpanIdAllocator:
    """Deterministic 64-bit hex ids from a seeded counter.

    Ids must be unique within a run and *reproducible across runs* (the
    whole repo is seeded; traces are compared in tests and docs).  A
    splitmix64 step over ``seed + counter`` gives well-dispersed ids
    without any global RNG state.
    """

    _MASK = (1 << 64) - 1

    def __init__(self, seed: int = 0) -> None:
        self._seed = seed & self._MASK
        self._count = 0

    def next_id(self) -> str:
        self._count += 1
        z = (self._seed + self._count * 0x9E3779B97F4A7C15) & self._MASK
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self._MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self._MASK
        return format(z ^ (z >> 31), "016x")

    @property
    def allocated(self) -> int:
        return self._count


class Tracer:
    """Creates spans against an injected clock and reports finished ones.

    Parameters
    ----------
    clock:
        Zero-argument callable returning seconds.  The capacity experiments
        inject the simulator's virtual clock; wall-clock callers inject
        ``time.perf_counter``.  The tracing package itself never reads
        time — the ``tracing-clock-injection`` lint rule enforces it.
    collector:
        Optional sink with an ``on_end(span)`` method (typically a
        :class:`~repro.tracing.collector.TraceCollector`).  Without one,
        spans are still timed and linked but vanish when dropped.
    seed:
        Seed for the deterministic id allocator.
    """

    is_recording = True

    def __init__(
        self,
        clock: Callable[[], float],
        collector=None,
        seed: int = 0,
    ) -> None:
        self.clock = clock
        self.collector = collector
        self._ids = SpanIdAllocator(seed)
        self.started = 0
        self.ended = 0

    # -- span lifecycle -----------------------------------------------------

    def start_span(
        self,
        name: str,
        parent: Parent = None,
        start_time: Optional[float] = None,
        attributes: Optional[Dict[str, object]] = None,
    ) -> Span:
        """Open a span.  ``parent=None`` roots a new trace.

        ``start_time`` overrides the clock read — the service layer uses
        it to materialise sub-interval spans (pipeline stages) after the
        fact without scheduling extra simulator events.
        """
        if parent is None or isinstance(parent, NullSpan):
            trace_id = self._ids.next_id()
            parent_span_id: Optional[str] = None
        else:
            context = parent.context if isinstance(parent, Span) else parent
            trace_id = context.trace_id
            parent_span_id = context.span_id
        span = Span(
            name=name,
            context=SpanContext(trace_id=trace_id, span_id=self._ids.next_id()),
            parent_span_id=parent_span_id,
            start_time=self.clock() if start_time is None else start_time,
            clock=self.clock,
            on_end=self._on_span_end,
        )
        if attributes:
            span.attributes.update(attributes)
        self.started += 1
        return span

    def span(
        self,
        name: str,
        parent: Parent = None,
        attributes: Optional[Dict[str, object]] = None,
    ) -> Span:
        """Context-manager sugar: ``with tracer.span("work") as s: ...``.

        The span ends on scope exit; an escaping exception marks it
        ``error`` before ending (see :meth:`Span.__exit__`).
        """
        return self.start_span(name, parent=parent, attributes=attributes)

    def _on_span_end(self, span: Span) -> None:
        self.ended += 1
        if self.collector is not None:
            self.collector.on_end(span)

    # -- accounting ----------------------------------------------------------

    @property
    def active_spans(self) -> int:
        """Spans started but not yet ended — must be 0 between requests
        (the no-leak invariant the gateway error-path tests assert)."""
        return self.started - self.ended


class NullTracer:
    """The always-off tracer: hands out the shared no-op span.

    Instrumented code calls exactly the same methods as with a real
    tracer; every one returns immediately.  Stateless and shareable —
    :data:`NULL_TRACER` is the instance every constructor defaults to.
    """

    is_recording = False
    clock = staticmethod(lambda: 0.0)
    collector = None
    started = 0
    ended = 0
    active_spans = 0

    def start_span(
        self,
        name: str,
        parent: Parent = None,
        start_time: Optional[float] = None,
        attributes: Optional[Dict[str, object]] = None,
    ) -> NullSpan:
        return NULL_SPAN

    def span(
        self,
        name: str,
        parent: Parent = None,
        attributes: Optional[Dict[str, object]] = None,
    ) -> NullSpan:
        return NULL_SPAN


#: Shared default for every ``tracer=None`` parameter in the repo.
NULL_TRACER = NullTracer()
