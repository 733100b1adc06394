"""Distributed tracing: causal spans across gateway → services → sensors.

The metrics pillar (:mod:`repro.telemetry`) answers *what* each sensor
and route reported; this package answers *where the time went inside a
request* — the question the paper's capacity-load experiments (Fig. 8)
raise but per-event metrics cannot answer.

The pieces, bottom up:

* :class:`Span` / :class:`SpanContext` — one timed, attributed operation
  with a causal parent link and deterministic ids.
* :class:`Tracer` — starts spans against an *injected* clock (the
  simulator's virtual ``now`` in capacity runs); :class:`NullTracer` is
  the always-off default every instrumented constructor accepts, so
  tracing costs near-zero when disabled.
* :class:`TraceCollector` — bounded in-process retention; assembles
  finished spans into :class:`TraceTree`\\ s.
* :mod:`~repro.tracing.analysis` — critical-path extraction, per-span
  latency summaries, text waterfall/critical-path renderers.
* :mod:`~repro.tracing.exemplars` — the metric↔trace join: telemetry
  events published inside a span carry ``trace_id``/``span_id`` labels,
  so a slow rollup bucket resolves to the exact traces inside it.

Propagation is explicit (parents are passed by hand from the
gateway's span builder, ``APIGateway.trace_record``, to the pipeline
stages and the station's probe → ``SensorRegistry.poll_spans``): the
single-threaded discrete-event simulation interleaves every in-flight
request on one call stack, where ambient "current span" state would
mis-attribute children.
"""

from repro.tracing.analysis import (
    PathSegment,
    SpanLatencyStats,
    critical_path,
    latency_summary,
    render_critical_path,
    render_latency_table,
    render_waterfall,
)
from repro.tracing.collector import TraceCollector, TraceTree
from repro.tracing.exemplars import (
    ExemplarResolution,
    exemplar_trace_ids,
    resolve_window,
    slowest_windows,
)
from repro.tracing.span import (
    NODE_ID_ATTR,
    NULL_SPAN,
    NullSpan,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_UNSET,
    Span,
    SpanContext,
)
from repro.tracing.tracer import (
    NULL_TRACER,
    NullTracer,
    SpanIdAllocator,
    Tracer,
)

__all__ = [
    "ExemplarResolution",
    "NODE_ID_ATTR",
    "NULL_SPAN",
    "NULL_TRACER",
    "NullSpan",
    "NullTracer",
    "PathSegment",
    "STATUS_ERROR",
    "STATUS_OK",
    "STATUS_UNSET",
    "Span",
    "SpanContext",
    "SpanIdAllocator",
    "SpanLatencyStats",
    "TraceCollector",
    "TraceTree",
    "Tracer",
    "critical_path",
    "exemplar_trace_ids",
    "latency_summary",
    "render_critical_path",
    "render_latency_table",
    "render_waterfall",
    "resolve_window",
    "slowest_windows",
]
