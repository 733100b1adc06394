"""Serving-layer configuration shared by the real and simulated paths.

A single :class:`ServingPolicy` value travels from the CLI flags through
:class:`~repro.gateway.capacity.CapacityRunner` /
:class:`~repro.cluster.runner.ClusterRunner` down to each station's
batched submit path, and equally configures the in-process
:class:`~repro.serving.engine.ServingEngine`.  Keeping it one frozen
dataclass means a capacity experiment and the kernel-level bench are
guaranteed to describe the same serving discipline.
"""

from dataclasses import dataclass
from typing import Optional

__all__ = ["ServingPolicy"]


@dataclass(frozen=True)
class ServingPolicy:
    """Knobs for micro-batching, explanation caching and admission.

    ``max_batch`` and ``batch_window`` are the size and deadline flush
    triggers — whichever fires first.  On the real engine with a
    :class:`~repro.pool.KernelPool` attached, an idle pool worker also
    takes the oldest pending group at once (the ``idle`` trigger), so
    ``batch_window`` bounds a request's wait only while every worker is
    busy; the simulated stations keep size and deadline alone.
    ``shed_depth`` is the admission-control queue depth (0 disables
    shedding), ``cache_size`` the explanation cache capacity in entries
    (0 disables the cache) with ``cache_ttl`` seconds of freshness
    (None = never expires).

    ``batch_marginal`` models the incremental cost of each extra row in
    a fused kernel call for the discrete-event simulation: a batch of n
    rows occupies one worker for ``draw * (1 + (n-1)*batch_marginal)``
    service time, matching the measured sublinear scaling of the
    vectorized kernels (BENCH_inference.json).  ``cache_items`` /
    ``cache_skew`` shape the simulated Zipf content-id stream that
    drives cache hits in capacity runs.

    ``pool_workers`` gives each simulated station a kernel-pool tier:
    0 runs flushed batches on the station's own workers, n > 0 fans
    them out across n pool workers while the station keeps admitting.
    Only the simulated stations read it: the real
    :class:`~repro.serving.engine.ServingEngine` takes a :mod:`repro.pool`
    object instead (``ServingEngine(pool=…)``).
    """

    max_batch: int = 8
    batch_window: float = 0.002
    shed_depth: int = 0
    cache_size: int = 0
    cache_ttl: Optional[float] = None
    batch_marginal: float = 0.25
    cache_items: int = 512
    cache_skew: float = 1.1
    pool_workers: int = 0

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.batch_window < 0:
            raise ValueError("batch_window must be >= 0")
        if self.shed_depth < 0:
            raise ValueError("shed_depth must be >= 0")
        if self.cache_size < 0:
            raise ValueError("cache_size must be >= 0")
        if self.cache_ttl is not None and self.cache_ttl <= 0:
            raise ValueError("cache_ttl must be positive when set")
        if self.batch_marginal < 0:
            raise ValueError("batch_marginal must be >= 0")
        if self.cache_items < 1:
            raise ValueError("cache_items must be >= 1")
        if self.cache_skew <= 0:
            raise ValueError("cache_skew must be positive")
        if self.pool_workers < 0:
            raise ValueError("pool_workers must be >= 0")
