"""Serving layer: adaptive micro-batching, explanation caching, admission.

PR 4 made the kernels fast and PR 5 made the event loop fast, but the
capacity engine still dispatched requests one at a time — none of the
batch throughput reached the serving path.  This package is the layer
between request sources and the kernels that closes the gap, following
the serving-desiderata trio (adaptive batching, caching, overload
protection):

- :class:`MicroBatcher` coalesces queued predict/SHAP requests per
  (kind, payload shape) and flushes at ``max_batch`` rows or after
  ``batch_window`` seconds, whichever first, or earlier when a kernel
  pool worker is idle;
- :class:`ExplanationCache` memoises SHAP attributions by feature-vector
  content hash (bounded LRU + TTL) with hit/miss/eviction counters;
- :class:`AdmissionController` sheds work with typed ``503 shed``
  errors once the backlog exceeds ``shed_depth``, interactive traffic
  outranking batch;
- :class:`ServingEngine` composes the three over the vectorized kernels
  with per-batch spans, bitwise-faithful to per-request calls
  (``benchmarks/bench_serving.py`` gates >=3x throughput at
  equal-or-better p95).

Everything here is clock-agnostic (callers pass ``now``), so the same
policy object — :class:`ServingPolicy` — drives both the real path and
the discrete-event capacity/cluster simulations (DESIGN.md §15).
"""

from repro.serving.admission import (
    AdmissionController,
    PRIORITY_BATCH,
    PRIORITY_INTERACTIVE,
    SHED_DEADLINE_MESSAGE,
    SHED_ERROR_MESSAGE,
    SHED_ERROR_PREFIX,
    is_shed_error,
)
from repro.serving.batcher import (
    Batch,
    KIND_EXPLAIN,
    KIND_PREDICT,
    MicroBatcher,
    ServingRequest,
    TRIGGER_DEADLINE,
    TRIGGER_DRAIN,
    TRIGGER_IDLE,
    TRIGGER_SIZE,
)
from repro.serving.cache import ExplanationCache, digest_features
from repro.serving.engine import ServingEngine
from repro.serving.policy import ServingPolicy

__all__ = [
    "AdmissionController",
    "Batch",
    "ExplanationCache",
    "KIND_EXPLAIN",
    "KIND_PREDICT",
    "MicroBatcher",
    "PRIORITY_BATCH",
    "PRIORITY_INTERACTIVE",
    "SHED_DEADLINE_MESSAGE",
    "SHED_ERROR_MESSAGE",
    "SHED_ERROR_PREFIX",
    "ServingEngine",
    "ServingPolicy",
    "ServingRequest",
    "TRIGGER_DEADLINE",
    "TRIGGER_DRAIN",
    "TRIGGER_IDLE",
    "TRIGGER_SIZE",
    "digest_features",
    "is_shed_error",
]
