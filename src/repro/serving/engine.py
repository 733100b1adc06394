"""The serving engine: admission -> cache -> micro-batcher -> kernels.

:class:`ServingEngine` is the in-process layer between request sources
(the gateway, the bench harness, a property test) and the vectorized
kernels.  Each submitted request passes through

1. the explanation cache (explain requests only) — a content-hash hit
   resolves immediately with the stored attribution;
2. admission control — once the batcher's backlog reaches
   ``shed_depth`` the request is shed with a typed 503, unless it is
   interactive and can displace queued batch-priority work;
3. the micro-batcher — grouped per (kind, payload shape) and flushed by
   size, by deadline, or to an idle pool worker, into one fused kernel
   call.

Fused execution is bitwise-faithful to per-request calls:
``FlatForest`` prediction is row-stable across batch widths, and SHAP
batches go through
:meth:`~repro.xai.shap.KernelShapExplainer.shap_values_batch_exact`,
which shares the coalition design and marginal evaluation but solves
each instance independently — the explainer's one batch path, so a
served attribution carries the bits of per-row ``shap_values``.
``benchmarks/bench_serving.py`` gates both the equality and the >=3x
throughput win.

The engine never reads a clock — every entry point takes ``now`` — so
it is pure given (inputs, now) and runs identically under wall time and
simulated time.

Every flushed batch takes one path: the engine hands it to a kernel
pool and fans the pool's result back out.  Without a pool from the
caller that pool is a :class:`repro.pool.NullPool`, the inline
executor: it runs the kernel in-process and returns a resolved future,
so the batch resolves before the call that flushed it returns.  With a
:class:`repro.pool.KernelPool` attached (``ServingEngine(pool=…)``)
flushed batches go to forked worker processes through pinned
shared-memory slots instead: the event loop keeps admitting and
flushing while kernels execute on other cores, and
:meth:`ServingEngine.poll` resolves completed batches in deterministic
submission order.  Workers run the very same fused entry points, so
the results are bitwise-equal either way.

Dispatch is work-conserving: after resolving completed batches (and,
in :meth:`ServingEngine.flush_due`, flushing lapsed groups), each idle
pool worker takes the oldest pending group, trigger ``idle``.  So
``batch_window`` bounds a request's wait only while every worker is
busy.  A ``NullPool`` runs kernels on the caller's thread and has no
worker to idle, so an engine without a ``KernelPool`` flushes by size,
deadline and drain alone.
"""

from typing import Callable, Dict, List, Optional

import numpy as np

from repro.serving.admission import (
    AdmissionController,
    PRIORITY_BATCH,
    PRIORITY_INTERACTIVE,
    SHED_DEADLINE_MESSAGE,
    SHED_ERROR_MESSAGE,
)
from repro.serving.batcher import (
    Batch,
    KIND_EXPLAIN,
    KIND_PREDICT,
    MicroBatcher,
    ServingRequest,
)
from repro.serving.cache import ExplanationCache, digest_features
from repro.serving.policy import ServingPolicy
from repro.telemetry.events import KIND_SERVING, TelemetryEvent

__all__ = ["ServingEngine"]


class ServingEngine:
    """Batching/caching/shedding facade over predict + SHAP kernels.

    ``predict_fn`` maps an (n, d) float64 array to per-row outputs;
    ``explainer`` (optional) must expose ``shap_values`` and
    ``shap_values_batch_exact``.  ``tracer`` (optional) gets one
    ``serving.batch`` span per fused call with per-request child spans,
    so traces show the fan-in/fan-out explicitly.  ``pool`` (optional)
    is a :class:`repro.pool.KernelPool` / ``NullPool`` that runs the
    flushed batches; a ``KernelPool``'s batches resolve in :meth:`poll`
    / :meth:`drain`.  Without one the engine runs its batches through a
    ``NullPool`` of its own, which ``counters()``, ``telemetry_events()``
    and the spans do not report.
    """

    def __init__(
        self,
        predict_fn: Callable[[np.ndarray], np.ndarray],
        explainer=None,
        policy: Optional[ServingPolicy] = None,
        tracer=None,
        pool=None,
    ) -> None:
        self.policy = policy if policy is not None else ServingPolicy()
        self.predict_fn = predict_fn
        self.explainer = explainer
        self.tracer = tracer
        #: The pool the caller attached, or None.
        self.pool = pool
        if pool is None:
            # imported here: repro.core imports this package, and
            # repro.pool loads multiprocessing
            from repro.pool import NullPool

            pool = NullPool(predict_fn, explainer)
        #: The pool every flushed batch runs through.
        self._pool = pool
        #: Dispatched, unresolved batches keyed by pool submission seq.
        self._inflight: Dict[int, tuple] = {}
        self._closed = False
        #: Telemetry snapshot frozen by :meth:`shutdown`.
        self.final_snapshot: List[TelemetryEvent] = []
        self.batcher = MicroBatcher(
            max_batch=self.policy.max_batch, window=self.policy.batch_window
        )
        self.admission = AdmissionController(self.policy.shed_depth)
        self.cache: Optional[ExplanationCache] = (
            ExplanationCache(self.policy.cache_size, ttl=self.policy.cache_ttl)
            if self.policy.cache_size > 0
            else None
        )
        self.batches = 0
        self.rows_batched = 0
        self.flushed_by_size = 0
        self.flushed_by_deadline = 0
        self.flushed_by_drain = 0
        self.flushed_by_idle = 0
        self.batch_size_peak = 0
        #: Rows whose batch failed in the kernel (typed, never silent).
        self.failed_rows = 0

    # -- submission ---------------------------------------------------------

    def submit_predict(
        self,
        x: np.ndarray,
        now: float,
        priority: int = PRIORITY_INTERACTIVE,
        deadline: Optional[float] = None,
    ) -> ServingRequest:
        """Queue one prediction; resolves when its batch flushes."""
        return self._submit(KIND_PREDICT, x, now, priority, deadline)

    def submit_explain(
        self,
        x: np.ndarray,
        now: float,
        priority: int = PRIORITY_INTERACTIVE,
        deadline: Optional[float] = None,
    ) -> ServingRequest:
        """Queue one SHAP explanation; cache hits resolve immediately."""
        if self.explainer is None:
            raise RuntimeError("engine built without an explainer")
        return self._submit(KIND_EXPLAIN, x, now, priority, deadline)

    def _submit(
        self,
        kind: str,
        x: np.ndarray,
        now: float,
        priority: int,
        deadline: Optional[float],
    ) -> ServingRequest:
        if self._closed:
            raise RuntimeError("engine is shut down")
        x = np.ascontiguousarray(x, dtype=np.float64)
        if x.ndim != 1:
            raise ValueError("submit one feature vector at a time")
        request = ServingRequest(kind, x, priority, now, deadline)
        if kind == KIND_EXPLAIN:
            # Hash the payload exactly once; the same digest then keys
            # the cache lookup here, the in-batch dedup and the cache
            # population after the kernel call.
            request.digest = digest_features(x)
            if self.cache is not None:
                cached = self.cache.get(request.digest, now)
                if cached is not None:
                    request.cache_hit = True
                    request.complete(cached, now)
                    self.admission.note_admitted()
                    return request
        if self.admission.over_depth(self.batcher.pending):
            if priority == PRIORITY_INTERACTIVE:
                victim = self.batcher.evict_one(PRIORITY_BATCH)
                if victim is not None:
                    self._shed(victim, now)
                else:
                    self._shed(request, now)
                    return request
            else:
                self._shed(request, now)
                return request
        self.admission.note_admitted()
        ready = self.batcher.add(request, now)
        if ready is not None:
            self.flushed_by_size += 1
            self._run_batch(ready, now)
        return request

    def _shed(self, request: ServingRequest, now: float) -> None:
        request.fail(SHED_ERROR_MESSAGE, now)
        self.admission.note_shed()

    # -- flushing -----------------------------------------------------------

    def flush_due(self, now: float) -> int:
        """Flush every group whose batch window has lapsed; returns rows.

        This also resolves any pooled batches that completed since the
        last call, and after the lapsed groups have gone it hands the
        oldest pending groups to idle pool workers, as :meth:`poll`
        does, so a plain flush-driven event loop gets the overlap for
        free.  The returned rows count both flushes.
        """
        self._resolve_completed(now)
        rows = 0
        for batch in self.batcher.due(now):
            self.flushed_by_deadline += 1
            rows += len(batch)
            self._run_batch(batch, now)
        return rows + self._dispatch_idle(now)

    def poll(self, now: float) -> int:
        """Resolve completed pooled batches; returns rows resolved.

        Futures come back from the pool in strict submission order, so
        request resolution order is deterministic regardless of which
        worker finished first.  The inline pool has none to return.

        Then each idle pool worker takes the oldest pending group
        (trigger ``idle``), so a request waits out ``batch_window`` only
        while every worker is busy.  Requests submitted between two
        polls still coalesce into one batch.
        """
        rows = self._resolve_completed(now)
        self._dispatch_idle(now)
        return rows

    def _resolve_completed(self, now: float) -> int:
        rows = 0
        for future in self._pool.poll(now):
            entry = self._inflight.pop(future.seq)
            rows += len(entry[2])
            self._resolve_batch(future, entry, now)
        return rows

    def _dispatch_idle(self, now: float) -> int:
        """Give the oldest pending groups to idle pool workers.

        Returns the rows flushed.

        One group per idle worker, oldest first.  ``idle_workers`` is
        read again after each group, because a group whose requests all
        expired in the queue never reaches a worker.  The inline
        ``NullPool`` has no worker to idle, so an engine without a
        ``KernelPool`` never flushes by ``idle``.
        """
        rows = 0
        while self.batcher.pending and self._pool.idle_workers:
            batch = self.batcher.take_oldest()
            self.flushed_by_idle += 1
            rows += len(batch)
            self._run_batch(batch, now)
        return rows

    def drain(self, now: float) -> int:
        """Flush all queued work regardless of triggers; returns rows.

        This blocks until every in-flight pooled batch has resolved as
        well, so after ``drain`` no request is pending anywhere.
        """
        rows = 0
        for batch in self.batcher.drain():
            self.flushed_by_drain += 1
            rows += len(batch)
            self._run_batch(batch, now)
        for future in self._pool.drain(now):
            self._resolve_batch(future, self._inflight.pop(future.seq), now)
        return rows

    def shutdown(self, now: float, route: str = "serving") -> List[TelemetryEvent]:
        """Drain, close the pool and freeze the final telemetry snapshot.

        Cache and batcher counters keep advancing after the last
        periodic publication, so short runs used to end with unreported
        hits/sheds; the snapshot returned here carries the final values
        of every counter.  Idempotent — repeat calls return the frozen
        snapshot without re-draining.
        """
        if self._closed:
            return list(self.final_snapshot)
        self.drain(now)
        events = self.telemetry_events(now, route)
        self._pool.close()
        self.final_snapshot = events
        self._closed = True
        return events

    def next_deadline(self) -> Optional[float]:
        """Earliest pending flush deadline, for the caller's event loop."""
        return self.batcher.next_deadline()

    def _run_batch(self, batch: Batch, now: float) -> None:
        """Hand one flushed batch to the pool (non-blocking).

        Requests whose deadline lapsed in the queue fail typed here and
        never reach a kernel.  Only the unique rows of an explain batch
        go to the pool: attribution is a pure function of the vector, so
        duplicates fan back out at resolution through the digests
        computed at submission.
        """
        requests = []
        for request in batch.requests:
            if self.admission.expired(request.deadline, now):
                request.fail(SHED_DEADLINE_MESSAGE, now)
                self.admission.note_shed(deadline=True)
            else:
                requests.append(request)
        if not requests:
            return
        X = np.stack([request.x for request in requests])
        if batch.kind == KIND_PREDICT:
            unique_index = None
            future = self._pool.submit_predict(X, now)
        else:
            unique_index = {}
            rows = []
            for i, request in enumerate(requests):
                if request.digest not in unique_index:
                    unique_index[request.digest] = len(unique_index)
                    rows.append(i)
            future = self._pool.submit_explain(X[rows], now)
        entry = (batch.kind, batch.trigger, requests, unique_index, now)
        if future.done:  # the inline pool ran it already
            self._resolve_batch(future, entry, now)
        else:
            self._inflight[future.seq] = entry

    def _resolve_batch(self, future, entry, now: float) -> None:
        """Fan a pool result back out to its batch's requests.

        Counters advance here, at resolution, exactly once per batch —
        a worker crash and resubmission inside the pool is invisible at
        this layer and can never double-count.
        """
        kind, trigger, requests, unique_index, dispatched_at = entry
        if future.error is not None:
            for request in requests:
                request.fail(future.error, now)
            self.failed_rows += len(requests)
            return
        values = future.value
        size = len(requests)
        if kind == KIND_PREDICT:
            for i, request in enumerate(requests):
                request.batch_size = size
                request.complete(values[i], now)
        else:
            # Co-batched duplicates, the cache and every later hit read
            # views of this one array: an in-place write must raise.
            values.flags.writeable = False
            for request in requests:
                request.batch_size = size
                request.complete(values[unique_index[request.digest]], now)
            if self.cache is not None:
                for digest, position in unique_index.items():
                    self.cache.put(digest, values[position], now)
        if self.tracer is not None:
            attributes = {"kind": kind, "rows": size, "trigger": trigger}
            if self.pool is not None:
                attributes["pooled"] = 1
            span = self.tracer.start_span(
                "serving.batch", start_time=dispatched_at, attributes=attributes
            )
            for request in requests:
                child = self.tracer.start_span(
                    "serving.request",
                    parent=span,
                    start_time=request.enqueued_at,
                    attributes={"kind": request.kind},
                )
                child.end(at=now)
            span.end(at=now)
        self.batches += 1
        self.rows_batched += size
        if size > self.batch_size_peak:
            self.batch_size_peak = size

    # -- accounting ---------------------------------------------------------

    @property
    def mean_batch_size(self) -> float:
        """Average rows per fused kernel call so far."""
        return self.rows_batched / self.batches if self.batches else 0.0

    def counters(self) -> Dict[str, float]:
        """Combined batcher/cache/admission counters for publication."""
        counters = {
            "batches": float(self.batches),
            "rows_batched": float(self.rows_batched),
            "flushed_by_size": float(self.flushed_by_size),
            "flushed_by_deadline": float(self.flushed_by_deadline),
            "flushed_by_drain": float(self.flushed_by_drain),
            "flushed_by_idle": float(self.flushed_by_idle),
            "failed_rows": float(self.failed_rows),
            "batch_size_peak": float(self.batch_size_peak),
            "mean_batch_size": self.mean_batch_size,
            "pending": float(self.batcher.pending),
        }
        counters.update(self.admission.counters())
        if self.cache is not None:
            for key, value in self.cache.counters().items():
                counters[f"cache_{key}"] = value
        if self.pool is not None:
            counters["pool_inflight"] = float(len(self._inflight))
            for key, value in self.pool.counters().items():
                counters[f"pool_{key}"] = value
        return counters

    def telemetry_events(
        self, now: float, route: str = "serving"
    ) -> List[TelemetryEvent]:
        """Serving/cache/shed events for a telemetry pipeline or bus.

        ``cache:<route>`` carries the hit rate (with hit/miss/eviction
        attrs), ``serving:<route>`` the mean batch size, and
        ``shed:<route>`` the deliberate-shed count the SLO attribution
        helper keys on.
        """
        events = [
            TelemetryEvent(
                source=f"serving:{route}",
                value=self.mean_batch_size,
                timestamp=now,
                kind=KIND_SERVING,
                attrs={
                    "batches": float(self.batches),
                    "rows": float(self.rows_batched),
                    "by_size": float(self.flushed_by_size),
                    "by_deadline": float(self.flushed_by_deadline),
                    "by_drain": float(self.flushed_by_drain),
                    "by_idle": float(self.flushed_by_idle),
                    "peak": float(self.batch_size_peak),
                    "pending": float(self.batcher.pending),
                },
            ),
            TelemetryEvent(
                source=f"shed:{route}",
                value=float(self.admission.shed),
                timestamp=now,
                kind=KIND_SERVING,
                attrs={
                    "overload": float(self.admission.shed_overload),
                    "deadline": float(self.admission.shed_deadline),
                },
            ),
        ]
        if self.cache is not None:
            events.append(
                TelemetryEvent(
                    source=f"cache:{route}",
                    value=self.cache.hit_rate,
                    timestamp=now,
                    kind=KIND_SERVING,
                    attrs={
                        "hits": float(self.cache.hits),
                        "misses": float(self.cache.misses),
                        "evictions": float(self.cache.evictions),
                        "expirations": float(self.cache.expirations),
                        "size": float(len(self.cache)),
                    },
                )
            )
        if self.pool is not None:
            events.extend(self.pool.telemetry_events(now, route))
        return events
