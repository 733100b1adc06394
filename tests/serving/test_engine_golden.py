"""Seeded digests pinning everything the serving engine produces.

One seeded request stream drives a :class:`ServingEngine` through every
path it has: predict and explain requests; Zipf-duplicated payloads, so
explain batches dedup rows and later requests hit the explanation cache
(which is small and short-lived, so it also evicts and expires);
batch-priority requests that interactive ones displace once the backlog
reaches ``shed_depth``, and plain overload sheds; deadlines that lapse
before their batch flushes; size, deadline and drain flushes; and a
final ``shutdown()``.

Four runs pin every output of the inline engine: no pool and an
explicit :class:`~repro.pool.NullPool`, each untraced and traced (a
:class:`~repro.tracing.Tracer` on an injected clock).  Two more pin
every output of pooled dispatch, untraced and traced, through
:class:`~tests.serving.pool_double.StepPool`: a deterministic one-worker
pool double that returns each batch on the third poll after its
submission, so the stream reaches idle flushes as well as size and
deadline flushes while the worker is busy.  Each run hashes, section by
section:

* per request, in submission order: kind, ``done``, ``error``,
  ``cache_hit``, ``batch_size``, ``completed_at`` and the value's shape
  and bytes;
* ``counters()`` and ``telemetry_events()``, read every 50 requests;
* the ``shutdown()`` snapshot;
* every finished span (traced runs): name, start, end, sorted
  attributes, and the end-order position of its parent.

A last run attaches a one-worker :class:`~repro.pool.KernelPool` and
pins values, errors and cache flags only: its pool counters and
resolution times depend on worker scheduling.  Its event loop waits for
the pool to go idle after each step, so each batch's results reach the
cache before the next request is admitted, as they do inline.

The inline runs' digests were computed by the engine that still ran
unpooled batches through its own inline copy of the dispatch, fan-out,
cache and span code, and re-pinned only for the counter keys added
since (``flushed_by_idle``, ``failed_rows``, the ``by_idle`` event
attr).  The engine must reproduce every digest exactly.
"""

import hashlib
import json
import time

import numpy as np
import pytest

from repro.pool import KernelPool, NullPool
from repro.serving import (
    PRIORITY_BATCH,
    PRIORITY_INTERACTIVE,
    SHED_DEADLINE_MESSAGE,
    SHED_ERROR_MESSAGE,
    ServingEngine,
    ServingPolicy,
)
from repro.tracing import Tracer
from repro.xai.shap import KernelShapExplainer
from tests.serving.pool_double import StepPool

D = 4
N_VECTORS = 24
N_REQUESTS = 400
#: Requests between ``counters()``/``telemetry_events()`` readings.
SNAPSHOT_EVERY = 50
#: Requests between explicit ``drain()`` calls.
DRAIN_EVERY = 97

POLICY = ServingPolicy(
    max_batch=4,
    batch_window=0.004,
    shed_depth=4,
    cache_size=6,
    cache_ttl=0.03,
)


def _predict(X):
    X = np.asarray(X, dtype=np.float64)
    # row-wise reductions only: bitwise row-stable across batch widths
    return np.stack([X.sum(axis=1), (X * X).sum(axis=1)], axis=1)


def _explainer():
    rng = np.random.default_rng(0)
    return KernelShapExplainer(
        _predict, rng.normal(size=(16, D)), n_coalitions=16, seed=0
    )


def _stream(seed: int = 19):
    """(gap, kind, vector id, priority, deadline offset) per request."""
    rng = np.random.default_rng(seed)
    weights = (np.arange(N_VECTORS) + 1.0) ** -1.2
    ids = rng.choice(N_VECTORS, size=N_REQUESTS, p=weights / weights.sum())
    stream = []
    for vector_id in ids.tolist():
        gap = 0.0 if rng.random() < 0.35 else float(rng.exponential(0.0015))
        kind = "explain" if rng.random() < 0.6 else "predict"
        priority = PRIORITY_BATCH if rng.random() < 0.3 else PRIORITY_INTERACTIVE
        deadline = (
            float(rng.uniform(0.0005, 0.003)) if rng.random() < 0.15 else None
        )
        stream.append((gap, kind, vector_id, priority, deadline))
    return stream


VECTORS = np.random.default_rng(7).normal(size=(N_VECTORS, D))
STREAM = _stream()


def _digest(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode()
    ).hexdigest()[:16]


def _value(value):
    if value is None:
        return None
    value = np.asarray(value)
    return [
        list(value.shape),
        str(value.dtype),
        hashlib.sha256(value.tobytes()).hexdigest(),
    ]


def _request(request):
    return [
        request.kind,
        request.done,
        request.error,
        request.cache_hit,
        request.batch_size,
        request.completed_at,
        _value(request.value),
    ]


def _events(events):
    return [
        [
            event.source,
            event.value,
            event.timestamp,
            event.kind,
            sorted(event.attrs.items()),
            sorted(event.labels.items()),
        ]
        for event in events
    ]


def _spans(spans):
    position = {span.span_id: i for i, span in enumerate(spans)}
    return [
        [
            span.name,
            span.start_time,
            span.end_time,
            sorted(span.attributes.items()),
            position.get(span.parent_span_id),
        ]
        for span in spans
    ]


class _SpanSink:
    """A tracer collector that keeps every finished span in end order."""

    def __init__(self):
        self.spans = []

    def on_end(self, span):
        self.spans.append(span)


class _Run:
    """The outputs of one pass of the stream through one engine."""

    def __init__(self, engine, sink=None):
        self.engine = engine
        self.sink = sink
        self.requests = []
        self.shed_on_submit = []
        self.counters = []
        self.events = []
        self.shutdown = []


def _drive(pool_kind: str, traced: bool) -> _Run:
    explainer = _explainer()
    clock = [0.0]
    sink = _SpanSink() if traced else None
    tracer = Tracer(clock=lambda: clock[0], collector=sink) if traced else None
    pool = {
        "none": lambda: None,
        "null": lambda: NullPool(_predict, explainer),
        "kernel": lambda: KernelPool(_predict, explainer, workers=1, arena_mb=2.0),
        "double": lambda: StepPool(_predict, explainer, workers=1, k=3),
    }[pool_kind]()
    engine = ServingEngine(_predict, explainer, POLICY, tracer=tracer, pool=pool)
    run = _Run(engine, sink)

    def settle(now):
        # a real pool resolves batches asynchronously: wait until the
        # step's batches are back so the cache sees them before the
        # next request, as it does inline
        if pool_kind != "kernel":
            return
        give_up = time.monotonic() + 30.0
        while engine.counters()["pool_inflight"]:
            assert time.monotonic() < give_up, "pool batches never resolved"
            engine.poll(now)
            time.sleep(0.0002)

    now = 0.0
    try:
        for i, (gap, kind, vector_id, priority, deadline) in enumerate(STREAM):
            now += gap
            clock[0] = now
            engine.flush_due(now)
            settle(now)
            submit = (
                engine.submit_explain if kind == "explain" else engine.submit_predict
            )
            request = submit(
                VECTORS[vector_id],
                now,
                priority=priority,
                deadline=None if deadline is None else now + deadline,
            )
            run.requests.append(request)
            run.shed_on_submit.append(
                request.done and request.error == SHED_ERROR_MESSAGE
            )
            settle(now)
            if i % DRAIN_EVERY == DRAIN_EVERY - 1:
                engine.drain(now)
            if i % SNAPSHOT_EVERY == SNAPSHOT_EVERY - 1:
                run.counters.append(sorted(engine.counters().items()))
                run.events.append(_events(engine.telemetry_events(now)))
        now += 0.001
        clock[0] = now
        engine.flush_due(now)
        settle(now)
        run.shutdown = _events(engine.shutdown(now))
        # repeat calls return the frozen snapshot
        assert _events(engine.shutdown(now + 1.0)) == run.shutdown
    finally:
        if pool is not None:
            pool.close()
    return run


def _digests(run: _Run):
    out = {
        "requests": _digest([_request(r) for r in run.requests]),
        "counters": _digest(run.counters),
        "events": _digest(run.events),
        "shutdown": _digest(run.shutdown),
    }
    if run.sink is not None:
        out["spans"] = _digest(_spans(run.sink.spans))
    return out


def _served(run: _Run):
    """Values, errors and cache flags: what scheduling cannot move."""
    return {
        "served": _digest([
            [r.error, r.cache_hit, _value(r.value)] for r in run.requests
        ]),
    }


RUNS = {
    "none_untraced": lambda: _digests(_drive("none", traced=False)),
    "none_traced": lambda: _digests(_drive("none", traced=True)),
    "nullpool_untraced": lambda: _digests(_drive("null", traced=False)),
    "nullpool_traced": lambda: _digests(_drive("null", traced=True)),
    "kernelpool_served": lambda: _served(_drive("kernel", traced=False)),
    "pooldouble_untraced": lambda: _digests(_drive("double", traced=False)),
    "pooldouble_traced": lambda: _digests(_drive("double", traced=True)),
}

GOLDEN = {
    "none_untraced": {
        "requests": "d1a80233c3205a9b",
        "counters": "ca44528e31dbd2f8",
        "events": "3c92e499cafa5fa4",
        "shutdown": "d834b175989b2b15",
    },
    "none_traced": {
        "requests": "d1a80233c3205a9b",
        "counters": "ca44528e31dbd2f8",
        "events": "3c92e499cafa5fa4",
        "shutdown": "d834b175989b2b15",
        "spans": "b1f389308b421d20",
    },
    "nullpool_untraced": {
        "requests": "d1a80233c3205a9b",
        "counters": "a77ab1810b07c179",
        "events": "41b28b74de77235f",
        "shutdown": "54dc188be6c0b272",
    },
    "nullpool_traced": {
        "requests": "d1a80233c3205a9b",
        "counters": "a77ab1810b07c179",
        "events": "41b28b74de77235f",
        "shutdown": "54dc188be6c0b272",
        "spans": "9e4b6b45ec7b4021",
    },
    "kernelpool_served": {
        "served": "70c95e836539fa4a",
    },
    "pooldouble_untraced": {
        "requests": "f86ede2f44d81565",
        "counters": "8528871626ba62e0",
        "events": "5bf8501cad81ea1c",
        "shutdown": "a1c29e3aef4f58b6",
    },
    "pooldouble_traced": {
        "requests": "f86ede2f44d81565",
        "counters": "8528871626ba62e0",
        "events": "5bf8501cad81ea1c",
        "shutdown": "a1c29e3aef4f58b6",
        "spans": "e6286bb5b1db6ba3",
    },
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_engine_outputs_match_golden(name):
    assert RUNS[name]() == GOLDEN[name]


def _assert_covers_every_path(run: _Run) -> None:
    engine = run.engine
    counters = engine.counters()
    requests = run.requests
    assert counters["flushed_by_size"] > 0
    assert counters["flushed_by_deadline"] > 0
    assert counters["flushed_by_drain"] > 0
    assert counters["cache_hits"] > 0
    assert counters["cache_evictions"] > 0
    assert counters["cache_expirations"] > 0
    # explain batches sent fewer rows to the kernel than they served
    assert counters["pool_rows"] < counters["rows_batched"]
    assert any(r.error == SHED_DEADLINE_MESSAGE for r in requests)
    assert any(run.shed_on_submit)
    # queued batch-priority requests displaced by interactive arrivals
    evicted = [
        r
        for r, on_submit in zip(requests, run.shed_on_submit)
        if r.error == SHED_ERROR_MESSAGE and not on_submit
    ]
    assert evicted and all(r.priority == PRIORITY_BATCH for r in evicted)
    assert {r.kind for r in requests} == {"predict", "explain"}
    assert all(r.done for r in requests)


def test_stream_covers_every_engine_path():
    _assert_covers_every_path(_drive("null", traced=False))


def test_pool_double_stream_covers_idle_dispatch():
    run = _drive("double", traced=True)
    _assert_covers_every_path(run)
    assert run.engine.counters()["flushed_by_idle"] > 0
    triggers = {
        span.attributes["trigger"]
        for span in run.sink.spans
        if span.name == "serving.batch"
    }
    assert triggers == {"size", "deadline", "drain", "idle"}
