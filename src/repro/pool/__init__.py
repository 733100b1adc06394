"""Process-parallel kernel execution over zero-copy shared-memory arenas.

The serving layer (DESIGN.md §15) made each kernel call *fused*; this
package makes fused calls *parallel*.  A :class:`KernelPool` forks N
worker processes that inherit the compiled kernels (FlatForest arrays,
the explainer's background/coalition state) through the fork — nothing
is pickled at spawn — and exchanges batch payloads through the pinned
ring slots of a :class:`SharedArena`: the dispatcher writes the stacked
float64 rows into a slot's input region, the worker writes the result
into the slot's separate result region, and the only bytes that cross a
``multiprocessing`` queue are small ``(slot, seq, kind)`` integer
tuples.  The ``cross-process-pickle`` lint rule holds that line.

Three contracts shape the design (DESIGN.md §16):

- **bitwise equality** — workers run the very same
  ``predict_fn`` / ``shap_values_batch_exact`` entry points on the same
  float64 bytes, so pooled results are bit-identical to the in-process
  path (property-tested under random batch splits and arrival orders);
- **deterministic ordering** — futures resolve in submission order no
  matter which worker finishes first, so replays and telemetry are
  stable;
- **crash safety** — a slot's input region is never overwritten by its
  result, so when a worker dies mid-batch the dispatcher respawns it
  and resubmits the surviving input bytes; duplicated late results are
  dropped, and the resubmission never double-counts completions.

:class:`NullPool` is the tier-off stand-in: the same API executed
inline.  The serving engine runs every flushed batch through a pool,
and one built without a pool uses a ``NullPool``, so pooled and inline
serving share one dispatch and resolution path.  Everything here is
clock-free — callers pass ``now`` — so the dispatcher composes with the
clock-agnostic serving engine unchanged.
"""

from repro.pool.arena import SharedArena
from repro.pool.pool import (
    KIND_CODE_EXPLAIN,
    KIND_CODE_PREDICT,
    KernelPool,
    NullPool,
    PoolFuture,
)

__all__ = [
    "KIND_CODE_EXPLAIN",
    "KIND_CODE_PREDICT",
    "KernelPool",
    "NullPool",
    "PoolFuture",
    "SharedArena",
]
