"""The pool worker loop: inherit kernels at fork, serve arena slots.

Workers are forked, not spawned: ``predict_fn`` and the explainer reach
the child through the copied address space, so the compiled FlatForest
arrays and the explainer's background matrix and coalition design
(built once, in the explainer's constructor) are never pickled.

The loop itself is the whole cross-process protocol: pull a small
``(slot, seq, kind)`` tuple, read the batch view from the slot's input
region, run the very same batched entry point the in-process path runs
(bitwise equality comes from sharing the code, not from re-deriving
it), write the result into the slot's separate result region, and
answer with another small tuple.  No ndarray or bytes payload ever
rides a queue — the ``cross-process-pickle`` lint rule enforces this.

``CRASH_SENTINEL`` is the fault-injection hook: on receipt the worker
dies with ``os._exit`` — no farewell message — which is what a
segfaulting kernel looks like to the dispatcher's liveness probe.  The
one cleanup it does perform is flushing the result-queue feeder thread:
the write lock on that queue is shared by every worker, and dying while
holding it would wedge the siblings, turning a one-worker fault into a
pool-wide outage the dispatcher cannot see.
"""

import os

import numpy as np

__all__ = [
    "CRASH_EXIT_CODE",
    "CRASH_SENTINEL",
    "STOP_SENTINEL",
    "kernel_error",
    "worker_main",
]

#: Queue message telling a worker to die abruptly (fault injection).
CRASH_SENTINEL = "crash"
#: Queue message telling a worker to exit cleanly.
STOP_SENTINEL = None
#: Exit status of an injected crash, distinguishable from a real fault.
CRASH_EXIT_CODE = 17

_KIND_PREDICT = 0


def kernel_error(exc: Exception) -> str:
    """The typed error text of a batch whose kernel raised ``exc``."""
    return f"{type(exc).__name__}: {exc}"


def worker_main(
    worker_id: int, arena, task_queue, result_queue, predict_fn, explainer
) -> None:
    """Serve arena slots until a stop sentinel (or injected crash)."""
    while True:
        message = task_queue.get()
        if message is STOP_SENTINEL:
            return
        if message == CRASH_SENTINEL:
            # Flush the queue feeder before dying: ``put`` hands the
            # message to a background thread, and exiting while that
            # thread holds the result queue's *shared* write lock would
            # wedge every sibling worker behind a lock nobody releases.
            # An injected crash models lost work, not a poisoned lock.
            result_queue.close()
            result_queue.join_thread()
            os._exit(CRASH_EXIT_CODE)
        slot, seq, kind = message
        error = None
        try:
            _seq, _kind, X = arena.read_input(slot)
            if kind == _KIND_PREDICT:
                R = predict_fn(X)
            else:
                R = explainer.shap_values_batch_exact(X)
            arena.write_result(
                slot, np.ascontiguousarray(R, dtype=np.float64)
            )
        except Exception as exc:  # typed back to the caller, never lost
            error = kernel_error(exc)
        result_queue.put((worker_id, slot, seq, error))
