"""Adaptive micro-batcher: coalesce per-request work into kernel calls.

Requests accumulate per (kind, payload-shape) group so every flushed
batch is one fused kernel call (``FlatForest.predict`` over stacked
rows, or one shared-design Kernel SHAP solve).  A group flushes when it
reaches ``max_batch`` rows (size trigger) or when its oldest request
has waited ``window`` seconds (deadline trigger) — whichever first, the
classic latency/throughput trade of adaptive batching.  A caller with
an idle kernel worker can also take the oldest group before its window
lapses (:meth:`MicroBatcher.take_oldest`, idle trigger): the serving
engine does, so the window bounds a request's wait only while every
worker is busy.

The batcher never reads a clock: callers pass ``now`` to :meth:`add` /
:meth:`due`, so the same code runs under ``time.perf_counter`` on the
real path and under simulated seconds in capacity experiments.
"""

from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "Batch",
    "KIND_EXPLAIN",
    "KIND_PREDICT",
    "MicroBatcher",
    "ServingRequest",
    "TRIGGER_DEADLINE",
    "TRIGGER_DRAIN",
    "TRIGGER_IDLE",
    "TRIGGER_SIZE",
]

KIND_PREDICT = "predict"
KIND_EXPLAIN = "explain"

TRIGGER_SIZE = "size"
TRIGGER_DEADLINE = "deadline"
TRIGGER_DRAIN = "drain"
TRIGGER_IDLE = "idle"


class ServingRequest:
    """One queued unit of serving work and, later, its result.

    Acts as the engine's future: ``done`` flips when the request is
    served (``value`` set), shed (``error`` set), or satisfied from the
    explanation cache (``cache_hit``).
    """

    __slots__ = (
        "kind",
        "x",
        "priority",
        "deadline",
        "enqueued_at",
        "digest",
        "value",
        "error",
        "done",
        "cache_hit",
        "batch_size",
        "completed_at",
    )

    def __init__(
        self,
        kind: str,
        x: np.ndarray,
        priority: int,
        enqueued_at: float,
        deadline: Optional[float] = None,
    ) -> None:
        self.kind = kind
        self.x = x
        self.priority = priority
        self.deadline = deadline
        self.enqueued_at = enqueued_at
        #: Canonical content digest, computed once at submission and
        #: reused for the cache lookup, in-batch dedup keying and cache
        #: population (it used to be recomputed at each stage).
        self.digest: Optional[bytes] = None
        self.value: Optional[np.ndarray] = None
        self.error: Optional[str] = None
        self.done = False
        self.cache_hit = False
        self.batch_size = 0
        self.completed_at: Optional[float] = None

    def complete(self, value: np.ndarray, now: float) -> None:
        """Resolve the request with its kernel (or cached) result."""
        self.value = value
        self.done = True
        self.completed_at = now

    def fail(self, error: str, now: float) -> None:
        """Resolve the request with a typed error (e.g. a shed 503)."""
        self.error = error
        self.done = True
        self.completed_at = now

    def result(self) -> np.ndarray:
        """The resolved value; raises if pending or failed."""
        if not self.done:
            raise RuntimeError("serving request still pending")
        if self.error is not None:
            raise RuntimeError(self.error)
        return self.value

    @property
    def latency(self) -> Optional[float]:
        """Enqueue-to-completion seconds once resolved."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.enqueued_at


class Batch:
    """One flushed group: the unit handed to a fused kernel call."""

    __slots__ = ("kind", "shape_key", "requests", "trigger")

    def __init__(
        self,
        kind: str,
        shape_key: Tuple[str, int],
        requests: List[ServingRequest],
        trigger: str,
    ) -> None:
        self.kind = kind
        self.shape_key = shape_key
        self.requests = requests
        self.trigger = trigger

    def __len__(self) -> int:
        return len(self.requests)


class MicroBatcher:
    """Size-or-deadline batching of serving requests per payload shape.

    :meth:`add` flushes a full group (size trigger), :meth:`due` every
    group whose oldest request has waited ``window`` seconds (deadline
    trigger), :meth:`take_oldest` the group that has waited longest
    whenever a caller has a kernel worker to give it (idle trigger), and
    :meth:`drain` everything.
    """

    __slots__ = ("max_batch", "window", "_groups", "_deadlines", "pending")

    def __init__(self, max_batch: int = 8, window: float = 0.002) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if window < 0:
            raise ValueError("window must be >= 0")
        self.max_batch = max_batch
        self.window = window
        self._groups: Dict[Tuple[str, int], List[ServingRequest]] = {}
        self._deadlines: Dict[Tuple[str, int], float] = {}
        self.pending = 0

    @staticmethod
    def shape_key(request: ServingRequest) -> Tuple[str, int]:
        """Grouping key: requests coalesce per (kind, feature width)."""
        return (request.kind, int(request.x.shape[-1]))

    def add(self, request: ServingRequest, now: float) -> Optional[Batch]:
        """Queue one request; returns a Batch when the size trigger fires."""
        key = self.shape_key(request)
        group = self._groups.get(key)
        if group is None:
            group = []
            self._groups[key] = group
        if not group:
            self._deadlines[key] = now + self.window
        group.append(request)
        self.pending += 1
        if len(group) >= self.max_batch:
            return self._flush(key, TRIGGER_SIZE)
        return None

    def _flush(self, key: Tuple[str, int], trigger: str) -> Batch:
        requests = self._groups[key]
        self._groups[key] = []
        self._deadlines.pop(key, None)
        self.pending -= len(requests)
        return Batch(key[0], key, requests, trigger)

    def due(self, now: float) -> List[Batch]:
        """Flush every group whose oldest request hit its window."""
        expired = [
            key
            for key, deadline in self._deadlines.items()
            if deadline <= now and self._groups.get(key)
        ]
        return [self._flush(key, TRIGGER_DEADLINE) for key in expired]

    def take_oldest(self) -> Optional[Batch]:
        """Flush the group whose oldest request has waited longest.

        Ties go to the group that comes first in the batcher's own
        order, so the choice is deterministic.  Returns None when
        nothing is queued.
        """
        key = self._oldest()
        return None if key is None else self._flush(key, TRIGGER_IDLE)

    def _oldest(self) -> Optional[Tuple[str, int]]:
        """The non-empty group with the earliest flush deadline."""
        oldest = None
        for key, deadline in self._deadlines.items():
            if self._groups.get(key) and (
                oldest is None or deadline < self._deadlines[oldest]
            ):
                oldest = key
        return oldest

    def drain(self) -> List[Batch]:
        """Flush everything still queued (shutdown / end of burst)."""
        keys = [key for key, group in self._groups.items() if group]
        return [self._flush(key, TRIGGER_DRAIN) for key in keys]

    def next_deadline(self) -> Optional[float]:
        """Earliest pending flush deadline, for event-loop scheduling."""
        key = self._oldest()
        return None if key is None else self._deadlines[key]

    def evict_one(self, min_priority: int) -> Optional[ServingRequest]:
        """Remove and return the newest queued request with priority >=
        ``min_priority`` (numerically lower outranks higher), so an
        interactive arrival can displace queued batch work instead of
        being shed."""
        for group in self._groups.values():
            for i in range(len(group) - 1, -1, -1):
                if group[i].priority >= min_priority:
                    victim = group.pop(i)
                    self.pending -= 1
                    return victim
        return None
