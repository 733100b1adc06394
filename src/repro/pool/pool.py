"""The futures dispatcher: overlap the event loop with pooled kernels.

:class:`KernelPool` owns the arena slots, the forked workers, and the
ordering contract.  ``submit`` pins a batch into a free slot and hands
the slot to the least-loaded live worker; ``poll`` (non-blocking) and
``drain`` (blocking) collect completions, detect dead workers, and
release futures **in submission order** — a batch that finishes early
on a fast worker waits for its predecessors, so downstream accounting
and replays are deterministic regardless of scheduling noise.

Crash handling is a three-step dance with no shared locks:

1. liveness — any worker with in-flight slots that stops answering
   ``is_alive`` is declared dead;
2. respawn — a fresh fork takes over the dead worker's id with a fresh
   task queue (the old queue may hold tasks the corpse never read;
   abandoning it avoids double service);
3. resubmit — every incomplete slot the dead worker owned is re-pinned
   to the new worker *from the slot's intact input region* (results
   live in a separate region, so a half-written result never corrupts
   the input).  Late duplicate results from the first attempt are
   dropped by sequence number and counted, never double-completed.

The dispatcher never reads a clock — callers pass ``now`` for span
timestamps — and never pickles an ndarray: queue traffic is
``(slot, seq, kind)`` int tuples one way and
``(worker, slot, seq, error)`` the other.
"""

import multiprocessing
import queue as queue_module
from collections import deque
from typing import Callable, Dict, List, Optional, Set

import numpy as np

from repro.pool.arena import SharedArena
from repro.pool.worker import (
    CRASH_SENTINEL,
    STOP_SENTINEL,
    kernel_error,
    worker_main,
)
from repro.telemetry.events import KIND_POOL, TelemetryEvent

__all__ = [
    "KIND_CODE_EXPLAIN",
    "KIND_CODE_PREDICT",
    "KernelPool",
    "NullPool",
    "PoolFuture",
]

KIND_CODE_PREDICT = 0
KIND_CODE_EXPLAIN = 1

#: Seconds ``drain`` blocks on the result queue between liveness probes.
_DRAIN_PROBE_TIMEOUT = 0.05


class PoolFuture:
    """One dispatched batch and, eventually, its result matrix."""

    __slots__ = (
        "seq",
        "kind",
        "rows",
        "done",
        "value",
        "error",
        "submitted_at",
        "completed_at",
        "span",
    )

    def __init__(self, seq: int, kind: int, rows: int, now: float) -> None:
        self.seq = seq
        self.kind = kind
        self.rows = rows
        self.done = False
        self.value: Optional[np.ndarray] = None
        self.error: Optional[str] = None
        self.submitted_at = now
        self.completed_at: Optional[float] = None
        self.span = None

    def result(self) -> np.ndarray:
        if not self.done:
            raise RuntimeError("pool future still pending")
        if self.error is not None:
            raise RuntimeError(self.error)
        return self.value

    def _resolve(self, value, error, now: float) -> None:
        self.value = value
        self.error = error
        self.done = True
        self.completed_at = now
        if self.span is not None:
            if error is not None:
                self.span.record_error(error)
            self.span.end(at=now)
            self.span = None


class KernelPool:
    """Shared-memory process pool for fused predict/SHAP batches."""

    def __init__(
        self,
        predict_fn: Callable[[np.ndarray], np.ndarray],
        explainer=None,
        workers: int = 2,
        arena_mb: float = 8.0,
        slots: Optional[int] = None,
        tracer=None,
    ) -> None:
        if workers < 1:
            raise ValueError("KernelPool needs >= 1 worker (use NullPool)")
        if arena_mb <= 0:
            raise ValueError("arena_mb must be positive")
        self.predict_fn = predict_fn
        self.explainer = explainer
        self.workers = workers
        self.tracer = tracer
        n_slots = slots if slots is not None else max(2 * workers, 4)
        slot_bytes = int(arena_mb * 1024 * 1024) // n_slots
        self.arena = SharedArena(n_slots, slot_bytes)
        self._ctx = multiprocessing.get_context("fork")
        self._result_queue = self._ctx.Queue()
        self._free: deque = deque(range(n_slots))
        self._next_seq = 0
        self._next_release = 0
        # seq -> (worker_id, slot, kind_code, future) while incomplete
        self._pending: Dict[int, tuple] = {}
        # completed-but-unreleased futures, keyed by seq (ordering buffer)
        self._unreleased: Dict[int, PoolFuture] = {}
        self._assigned: List[Set[int]] = [set() for _ in range(workers)]
        self._task_queues: List = []
        self._procs: List = []
        self._retired_queues: List = []
        self._closed = False
        # counters
        self.dispatched = 0
        self.completed = 0
        self.rows_dispatched = 0
        self.crashes = 0
        self.restarts = 0
        self.resubmitted = 0
        self.duplicate_results = 0
        self.slot_waits = 0
        self.peak_inflight = 0
        self.bytes_pinned = 0
        for worker_id in range(workers):
            self._task_queues.append(None)
            self._procs.append(None)
            self._spawn(worker_id)

    # -- worker lifecycle ----------------------------------------------------

    def _spawn(self, worker_id: int) -> None:
        task_queue = self._ctx.Queue()
        process = self._ctx.Process(
            target=worker_main,
            args=(
                worker_id,
                self.arena,
                task_queue,
                self._result_queue,
                self.predict_fn,
                self.explainer,
            ),
            daemon=True,
        )
        process.start()
        old_queue = self._task_queues[worker_id]
        if old_queue is not None:
            self._retired_queues.append(old_queue)
        self._task_queues[worker_id] = task_queue
        self._procs[worker_id] = process

    def _check_liveness(self) -> int:
        """Respawn dead workers; resubmit their incomplete slots."""
        dead = [
            worker_id
            for worker_id, process in enumerate(self._procs)
            if self._assigned[worker_id] and not process.is_alive()
        ]
        if not dead:
            return 0
        # Collect anything the corpses delivered before dying first:
        # result-queue pipe writes are atomic, and a dead process sends
        # nothing new, so after this loop every remaining assigned seq
        # provably has no result in flight — resubmitting it cannot
        # race a late write into a recycled slot.
        while True:
            try:
                message = self._result_queue.get_nowait()
            except queue_module.Empty:
                break
            self._handle_result(message)
        recovered = 0
        for worker_id in dead:
            self.crashes += 1
            self._spawn(worker_id)
            self.restarts += 1
            task_queue = self._task_queues[worker_id]
            for seq in sorted(self._assigned[worker_id]):
                _worker, slot, kind, _future = self._pending[seq]
                task_queue.put((slot, seq, kind))
                self.resubmitted += 1
                recovered += 1
        return recovered

    # -- submission ----------------------------------------------------------

    def submit(self, kind: int, X: np.ndarray, now: float = 0.0) -> PoolFuture:
        """Pin one batch and dispatch it; returns an ordered future."""
        if self._closed:
            raise RuntimeError("pool is closed")
        if kind == KIND_CODE_EXPLAIN and self.explainer is None:
            raise RuntimeError("pool built without an explainer")
        X = np.ascontiguousarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError("submit a stacked (n, d) batch")
        while not self._free:
            self.slot_waits += 1
            self._reap(block=True)
        slot = self._free.popleft()
        seq = self._next_seq
        self._next_seq = seq + 1
        self.arena.write_input(slot, seq, kind, X)
        self.bytes_pinned += X.nbytes
        worker_id = min(
            range(self.workers), key=lambda w: (len(self._assigned[w]), w)
        )
        future = PoolFuture(seq, kind, X.shape[0], now)
        if self.tracer is not None:
            future.span = self.tracer.start_span(
                "pool.dispatch",
                start_time=now,
                attributes={
                    "kind": (
                        "predict" if kind == KIND_CODE_PREDICT else "explain"
                    ),
                    "rows": float(X.shape[0]),
                    "worker": float(worker_id),
                    "slot": float(slot),
                    "seq": float(seq),
                },
            )
        self._pending[seq] = (worker_id, slot, kind, future)
        self._assigned[worker_id].add(seq)
        if len(self._pending) > self.peak_inflight:
            self.peak_inflight = len(self._pending)
        self._task_queues[worker_id].put((slot, seq, kind))
        self.dispatched += 1
        self.rows_dispatched += X.shape[0]
        return future

    def submit_predict(self, X: np.ndarray, now: float = 0.0) -> PoolFuture:
        return self.submit(KIND_CODE_PREDICT, X, now)

    def submit_explain(self, X: np.ndarray, now: float = 0.0) -> PoolFuture:
        return self.submit(KIND_CODE_EXPLAIN, X, now)

    # -- completion ----------------------------------------------------------

    def _reap(self, block: bool) -> bool:
        """Pull one result-queue message; True when one was handled."""
        try:
            if block:
                message = self._result_queue.get(
                    timeout=_DRAIN_PROBE_TIMEOUT
                )
            else:
                message = self._result_queue.get_nowait()
        except queue_module.Empty:
            if self._pending:
                self._check_liveness()
            return False
        self._handle_result(message)
        return True

    def _handle_result(self, message) -> None:
        _worker_id, slot, seq, error = message
        entry = self._pending.pop(seq, None)
        if entry is None:
            # late answer for a seq the crash path already recovered:
            # drop, count, don't touch the slot (it may already carry a
            # newer batch)
            self.duplicate_results += 1
            return
        worker_id, _slot, _kind, future = entry
        self._assigned[worker_id].discard(seq)
        value = None if error is not None else self.arena.read_result(slot)
        self._unreleased[seq] = future
        future.value = value  # staged; resolved at ordered release
        future.error = error
        self._free.append(slot)
        self.completed += 1

    def _release(self, now: float) -> List[PoolFuture]:
        """Resolve staged futures in submission order."""
        released = []
        while self._next_release in self._unreleased:
            future = self._unreleased.pop(self._next_release)
            self._next_release += 1
            future._resolve(future.value, future.error, now)
            released.append(future)
        return released

    def poll(self, now: float = 0.0) -> List[PoolFuture]:
        """Non-blocking: collect finished batches, in submission order."""
        while self._reap(block=False):
            pass  # the terminating Empty branch ran the liveness probe
        return self._release(now)

    def drain(self, now: float = 0.0) -> List[PoolFuture]:
        """Block until every in-flight batch resolves; ordered futures."""
        released = self._release(now)
        while self._pending or self._unreleased:
            self._reap(block=True)
            released.extend(self._release(now))
        return released

    # -- fault injection -----------------------------------------------------

    def inject_crash(self, worker_id: int = 0) -> None:
        """Queue an abrupt-death order for one worker (tests/benchmarks).

        The sentinel rides the task queue, so tasks queued *after* it
        land on a corpse and exercise the resubmission path.
        """
        self._task_queues[worker_id].put(CRASH_SENTINEL)

    # -- introspection -------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        """Batches dispatched but not yet completed."""
        return len(self._pending)

    @property
    def busy_workers(self) -> int:
        return sum(1 for assigned in self._assigned if assigned)

    @property
    def idle_workers(self) -> int:
        """Workers with no batch assigned, as of the last reap.

        The serving engine gives each one the oldest pending batcher
        group at every poll, so a request waits out its batch window
        only while every worker is busy.
        """
        return self.workers - self.busy_workers

    @property
    def utilization(self) -> float:
        """Share of workers with in-flight work right now."""
        return self.busy_workers / self.workers if self.workers else 0.0

    @property
    def mean_fan_out(self) -> float:
        """Average rows per dispatched batch."""
        return (
            self.rows_dispatched / self.dispatched if self.dispatched else 0.0
        )

    def counters(self) -> Dict[str, float]:
        return {
            "workers": float(self.workers),
            "dispatched": float(self.dispatched),
            "completed": float(self.completed),
            "rows": float(self.rows_dispatched),
            "mean_fan_out": self.mean_fan_out,
            "queue_depth": float(self.queue_depth),
            "peak_inflight": float(self.peak_inflight),
            "utilization": self.utilization,
            "crashes": float(self.crashes),
            "restarts": float(self.restarts),
            "resubmitted": float(self.resubmitted),
            "duplicate_results": float(self.duplicate_results),
            "slot_waits": float(self.slot_waits),
            "bytes_pinned": float(self.bytes_pinned),
        }

    def telemetry_events(
        self, now: float, route: str = "serving"
    ) -> List[TelemetryEvent]:
        """One ``pool:<route>`` queue-depth/utilization/fan-out event."""
        return [
            TelemetryEvent(
                source=f"pool:{route}",
                value=float(self.queue_depth),
                timestamp=now,
                kind=KIND_POOL,
                attrs=self.counters(),
            )
        ]

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Stop workers, tear down queues, release the shared segment."""
        if self._closed:
            return
        self._closed = True
        for worker_id, process in enumerate(self._procs):
            if process.is_alive():
                self._task_queues[worker_id].put(STOP_SENTINEL)
        for process in self._procs:
            process.join(timeout=2.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=2.0)
        for task_queue in self._task_queues + self._retired_queues:
            task_queue.cancel_join_thread()
            task_queue.close()
        self._result_queue.cancel_join_thread()
        self._result_queue.close()
        self.arena.close()
        self.arena.unlink()

    def __enter__(self) -> "KernelPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class NullPool:
    """The tier-off pool: identical API, inline synchronous execution.

    ``submit`` runs the kernel in-process and returns an
    already-resolved future, so callers keep one code path whether the
    pool is on or off.  A kernel that raises resolves the future with
    the error text a pool worker would send back, instead of raising
    through the caller.  It is the serving engine's inline executor: a
    :class:`~repro.serving.ServingEngine` built without a pool runs
    every batch through one of these.

    ``idle_workers`` is always 0: the kernel runs on the caller's
    thread, so there is no worker that could sit idle while a batch
    waits.
    """

    workers = 0
    idle_workers = 0

    def __init__(self, predict_fn, explainer=None) -> None:
        self.predict_fn = predict_fn
        self.explainer = explainer
        self._next_seq = 0
        self.dispatched = 0
        self.completed = 0
        self.rows_dispatched = 0

    def submit(self, kind: int, X: np.ndarray, now: float = 0.0) -> PoolFuture:
        if kind == KIND_CODE_EXPLAIN and self.explainer is None:
            raise RuntimeError("pool built without an explainer")
        seq = self._next_seq
        self._next_seq = seq + 1
        rows = X.shape[0]
        future = PoolFuture(seq, kind, rows, now)
        try:
            if kind == KIND_CODE_PREDICT:
                future.value = self.predict_fn(X)
            else:
                future.value = self.explainer.shap_values_batch_exact(X)
        except Exception as exc:  # typed back to the caller, never lost
            future.error = kernel_error(exc)
        self.dispatched += 1
        self.completed += 1
        self.rows_dispatched += rows
        # resolve in place: every unpooled serving batch pays this
        # wrapper, so it stays a few µs over calling the kernel directly
        future.done = True
        future.completed_at = now
        return future

    def submit_predict(self, X: np.ndarray, now: float = 0.0) -> PoolFuture:
        return self.submit(KIND_CODE_PREDICT, X, now)

    def submit_explain(self, X: np.ndarray, now: float = 0.0) -> PoolFuture:
        return self.submit(KIND_CODE_EXPLAIN, X, now)

    def poll(self, now: float = 0.0) -> List[PoolFuture]:
        return []

    def drain(self, now: float = 0.0) -> List[PoolFuture]:
        return []

    @property
    def queue_depth(self) -> int:
        return 0

    def counters(self) -> Dict[str, float]:
        return {
            "workers": 0.0,
            "dispatched": float(self.dispatched),
            "completed": float(self.completed),
            "rows": float(self.rows_dispatched),
        }

    def telemetry_events(
        self, now: float, route: str = "serving"
    ) -> List[TelemetryEvent]:
        return [
            TelemetryEvent(
                source=f"pool:{route}",
                value=float(self.queue_depth),
                timestamp=now,
                kind=KIND_POOL,
                attrs=self.counters(),
            )
        ]

    def close(self) -> None:
        return None
