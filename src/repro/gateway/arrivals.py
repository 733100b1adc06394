"""Open-loop (Poisson) arrival processes for capacity runs.

Closed-loop thread groups (JMeter's model) cap the offered load at the
thread count: each virtual user waits for its response before sending
again, so "millions of independent users" cannot be expressed no matter
how many requests the simulator could absorb.  A
:class:`PoissonArrivalGroup` instead offers requests at a fixed rate
regardless of completions — the M/G/c open-loop workload capacity
planning actually asks about.

Inter-arrival gaps are exponential draws taken in vectorized chunks
(one ``rng.exponential`` + running-offset cumsum per chunk, with the
offset carried across chunks so the draws — and hence the workload —
match a single whole-run cumsum), so the per-arrival cost in the event
loop is one heap push.  Chunking sizes the numpy draw and bounds the
arrival times held in memory; it does not bound the event heap, which
the capacity runners' open-loop driver keeps at one future arrival per
group by pushing each arrival when the one before it fires.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PoissonArrivalGroup", "arrival_chunks"]


@dataclass(frozen=True)
class PoissonArrivalGroup:
    """An open-loop workload: ``n_requests`` Poisson arrivals at ``rate_rps``.

    The open-loop sibling of :class:`~repro.gateway.loadgen.ThreadGroup`:
    same route/payload targeting, but load is defined by an arrival *rate*
    instead of a closed-loop user count.  ``start_at`` offsets the first
    arrival (virtual seconds), e.g. to stagger route mixes.
    """

    route: str
    rate_rps: float
    n_requests: int
    payload: str = "tabular"
    start_at: float = 0.0

    def __post_init__(self) -> None:
        if self.rate_rps <= 0:
            raise ValueError("rate_rps must be positive")
        if self.n_requests < 1:
            raise ValueError("n_requests must be >= 1")
        if self.start_at < 0:
            raise ValueError("start_at must be non-negative")


def arrival_chunks(
    group: PoissonArrivalGroup,
    rng: np.random.Generator,
    chunk_size: int = 8192,
):
    """Yield absolute arrival times for ``group`` in bounded numpy chunks.

    The generator carries the running time offset between chunks, so the
    concatenation of all yielded arrays equals one whole-run
    ``start_at + cumsum(exponential(1/rate, n))`` up to float summation
    order (each chunk's cumsum starts from zero and adds the carried
    offset afterwards, so times after the first chunk round differently
    from one running sum, at the 1e-15 relative level) — the underlying
    exponential draws are identical, and a fixed (seed, chunk size) pair
    is fully deterministic.  Chunking sizes the numpy draw and bounds
    the times held at once; for a fixed chunk size it never changes the
    workload.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    offset = group.start_at
    remaining = group.n_requests
    scale = 1.0 / group.rate_rps
    while remaining > 0:
        n = chunk_size if remaining > chunk_size else remaining
        times = offset + np.cumsum(rng.exponential(scale, size=n))
        offset = float(times[-1])
        remaining -= n
        yield times
