"""A deterministic asynchronous kernel-pool double for engine tests.

:class:`StepPool` is a :class:`~repro.pool.NullPool` that runs each
batch on the real kernels at submission but hands the result back only
on the ``k``-th :meth:`~StepPool.poll` after submission (or at
:meth:`~StepPool.drain`), in submission order.  ``idle_workers`` is
``workers`` minus the batches in flight.  So a test drives the engine's
pooled dispatch with no worker process, clock or scheduling noise, and
its outputs can be pinned like the inline engine's.
"""

from collections import deque
from typing import Dict, List

import numpy as np

from repro.pool import NullPool, PoolFuture

__all__ = ["StepPool"]


class StepPool(NullPool):
    """Resolves each batch on the ``k``-th poll after its submission."""

    def __init__(self, predict_fn, explainer=None, workers: int = 1, k: int = 2):
        if workers < 1 or k < 1:
            raise ValueError("StepPool needs workers >= 1 and k >= 1")
        super().__init__(predict_fn, explainer)
        self.workers = workers
        self.k = k
        #: [future, kernel result, polls left], in submission order
        self._inflight: deque = deque()
        #: (kind code, stacked rows) of every submitted batch
        self.batches: List[tuple] = []

    @property
    def idle_workers(self) -> int:
        return max(0, self.workers - len(self._inflight))

    @property
    def queue_depth(self) -> int:
        return len(self._inflight)

    def submit(self, kind: int, X: np.ndarray, now: float = 0.0) -> PoolFuture:
        ran = super().submit(kind, X, now)
        future = PoolFuture(ran.seq, kind, ran.rows, now)
        self._inflight.append([future, ran, self.k])
        self.batches.append((kind, np.array(X)))
        return future

    def poll(self, now: float = 0.0) -> List[PoolFuture]:
        for entry in self._inflight:
            entry[2] -= 1
        released = []
        while self._inflight and self._inflight[0][2] <= 0:
            released.append(self._release(now))
        return released

    def drain(self, now: float = 0.0) -> List[PoolFuture]:
        return [self._release(now) for __ in range(len(self._inflight))]

    def _release(self, now: float) -> PoolFuture:
        future, ran, __ = self._inflight.popleft()
        future._resolve(ran.value, ran.error, now)
        return future

    def counters(self) -> Dict[str, float]:
        counters = super().counters()
        counters["workers"] = float(self.workers)
        counters["completed"] -= len(self._inflight)
        counters["queue_depth"] = float(self.queue_depth)
        return counters
