"""Work-conserving dispatch: an idle pool worker takes the oldest group.

At every ``poll``/``flush_due`` the engine, after resolving completed
batches and flushing lapsed groups as ``deadline``, hands the oldest
pending group to each idle pool worker (trigger ``idle``).  So
``batch_window`` bounds a request's wait only while every worker is
busy.  The inline ``NullPool`` has no worker to idle, so an engine
without a ``KernelPool`` batches exactly as before.

The unit cases run on :class:`~tests.serving.pool_double.StepPool`, a
deterministic pool double; the property runs on the double and on a
real one-worker :class:`~repro.pool.KernelPool`.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.pool import KernelPool, NullPool
from repro.serving import (
    PRIORITY_BATCH,
    SHED_ERROR_MESSAGE,
    ServingEngine,
    ServingPolicy,
)
from repro.xai.shap import KernelShapExplainer
from tests.serving.pool_double import StepPool

D = 4
WINDOW = 0.010


def _predict(X):
    X = np.asarray(X, dtype=np.float64)
    # row-wise reductions only: bitwise row-stable across batch widths
    return np.stack([X.sum(axis=1), (X * X).sum(axis=1)], axis=1)


EXPLAINER = KernelShapExplainer(
    _predict,
    np.random.default_rng(0).normal(size=(16, D)),
    n_coalitions=16,
    seed=0,
)
VECTORS = np.random.default_rng(1).normal(size=(6, D))
ORACLE_PREDICT = [_predict(v[None])[0] for v in VECTORS]
ORACLE_EXPLAIN = [EXPLAINER.shap_values(v) for v in VECTORS]


def _engine(pool, **overrides):
    policy = dict(max_batch=4, batch_window=WINDOW)
    policy.update(overrides)
    return ServingEngine(_predict, EXPLAINER, ServingPolicy(**policy), pool=pool)


class TestIdleDispatch:
    def test_lone_request_dispatched_at_first_poll(self):
        pool = StepPool(_predict, EXPLAINER, workers=1, k=1)
        engine = _engine(pool)
        request = engine.submit_predict(VECTORS[0], now=0.0)
        assert pool.batches == []  # submission alone dispatches nothing
        assert engine.poll(0.0001) == 0
        assert len(pool.batches) == 1 and engine.batcher.pending == 0
        assert engine.counters()["flushed_by_idle"] == 1.0
        assert engine.poll(0.0002) == 1
        assert request.done and request.batch_size == 1
        assert np.array_equal(request.result(), ORACLE_PREDICT[0])
        assert request.completed_at < WINDOW

    def test_burst_within_one_turn_is_one_batch(self):
        pool = StepPool(_predict, EXPLAINER, workers=1, k=1)
        engine = _engine(pool)
        requests = [engine.submit_predict(x, now=0.0) for x in VECTORS[:3]]
        engine.poll(0.0)
        assert len(pool.batches) == 1
        assert pool.batches[0][1].shape == (3, D)
        engine.poll(0.0001)
        assert [r.batch_size for r in requests] == [3, 3, 3]
        assert engine.counters()["flushed_by_idle"] == 1.0

    def test_busy_workers_keep_the_window(self):
        pool = StepPool(_predict, EXPLAINER, workers=1, k=100)
        engine = _engine(pool)
        engine.submit_predict(VECTORS[0], now=0.0)
        engine.poll(0.0)  # the idle worker takes it
        waiting = engine.submit_predict(VECTORS[1], now=0.001)
        engine.poll(0.002)
        assert engine.batcher.pending == 1  # the only worker is busy
        assert engine.flush_due(0.001 + WINDOW - 1e-6) == 0
        assert engine.batcher.pending == 1
        assert engine.flush_due(0.001 + WINDOW) == 1
        counters = engine.counters()
        assert counters["flushed_by_deadline"] == 1.0
        assert counters["flushed_by_idle"] == 1.0
        assert np.array_equal(pool.batches[1][1], VECTORS[1][None])
        engine.drain(0.02)
        assert np.array_equal(waiting.result(), ORACLE_PREDICT[1])

    def test_lapsed_group_still_counts_as_deadline(self):
        pool = StepPool(_predict, EXPLAINER, workers=1, k=1)
        engine = _engine(pool)
        engine.submit_predict(VECTORS[0], now=0.0)
        # no poll until the window has lapsed, with the worker idle
        assert engine.flush_due(WINDOW) == 1
        counters = engine.counters()
        assert counters["flushed_by_deadline"] == 1.0
        assert counters["flushed_by_idle"] == 0.0

    def test_two_idle_workers_take_the_two_oldest_groups(self):
        pool = StepPool(_predict, EXPLAINER, workers=3, k=100)
        engine = _engine(pool, max_batch=2, shed_depth=3)
        # The explain group forms first, loses its only request to an
        # interactive arrival, and forms again last: it is the youngest
        # group, though the batcher saw its key first.
        evicted = engine.submit_explain(
            VECTORS[0], now=0.0, priority=PRIORITY_BATCH
        )
        engine.submit_predict(VECTORS[1, :3], now=0.0002)
        engine.submit_predict(VECTORS[2], now=0.0004)
        engine.submit_predict(VECTORS[3], now=0.0006)  # evicts; size flush
        engine.submit_predict(VECTORS[4, :2], now=0.0007)
        engine.submit_explain(VECTORS[5], now=0.0008)
        assert evicted.error == SHED_ERROR_MESSAGE
        assert [X.shape for __, X in pool.batches] == [(2, D)]
        assert pool.idle_workers == 2
        engine.poll(0.001)
        assert [X.shape for __, X in pool.batches] == [(2, D), (1, 3), (1, 2)]
        assert engine.batcher.pending == 1  # the explain group waits
        assert engine.counters()["flushed_by_idle"] == 2.0
        assert pool.idle_workers == 0


@pytest.mark.parametrize("pool_kind", ["none", "nullpool"])
def test_inline_engine_never_flushes_by_idle(pool_kind):
    pool = NullPool(_predict, EXPLAINER) if pool_kind == "nullpool" else None
    engine = _engine(pool)
    request = engine.submit_predict(VECTORS[0], now=0.0)
    engine.poll(0.001)
    assert engine.flush_due(0.002) == 0
    assert not request.done and engine.batcher.pending == 1
    assert engine.flush_due(WINDOW) == 1 and request.done
    counters = engine.counters()
    assert counters["flushed_by_idle"] == 0.0
    assert counters["flushed_by_deadline"] == 1.0
    assert engine._pool.idle_workers == 0


# -- property: random arrival and poll schedules ------------------------------

SUBMIT, POLL, FLUSH = 0, 1, 2

steps = st.lists(
    st.tuples(
        st.sampled_from([SUBMIT, SUBMIT, POLL, FLUSH]),
        st.integers(min_value=0, max_value=len(VECTORS) - 1),
        st.booleans(),  # explain?
        st.sampled_from([0.0, 0.0, 0.0005, 0.002, 0.006]),  # gap, seconds
    ),
    min_size=1,
    max_size=40,
)


@pytest.fixture(scope="module")
def kernel_pool():
    with KernelPool(_predict, EXPLAINER, workers=1, arena_mb=2.0) as pool:
        yield pool


def _run_schedule(engine, pool, schedule):
    """Drive one schedule; after every poll/flush_due nothing may wait
    while a worker is idle.  Returns (vector, explain?, request)."""
    requests = []
    now = 0.0
    for op, vector_id, explain, gap in schedule:
        now += gap
        if op == SUBMIT:
            submit = engine.submit_explain if explain else engine.submit_predict
            requests.append(
                (vector_id, explain, submit(VECTORS[vector_id], now=now))
            )
            continue
        if op == POLL:
            engine.poll(now)
        else:
            engine.flush_due(now)
        assert engine.batcher.pending == 0 or pool.idle_workers == 0
    engine.drain(now)
    return requests


def _check_bitwise(requests):
    for vector_id, explain, request in requests:
        assert request.done and request.error is None
        oracle = ORACLE_EXPLAIN[vector_id] if explain else ORACLE_PREDICT[vector_id]
        assert np.array_equal(request.result(), oracle)


@settings(max_examples=80, deadline=None)
@given(
    schedule=steps,
    workers=st.integers(min_value=1, max_value=3),
    k=st.integers(min_value=1, max_value=3),
    max_batch=st.integers(min_value=1, max_value=5),
)
def test_double_schedules_are_work_conserving_and_bitwise(
    schedule, workers, k, max_batch
):
    pool = StepPool(_predict, EXPLAINER, workers=workers, k=k)
    engine = _engine(pool, max_batch=max_batch, batch_window=0.004)
    _check_bitwise(_run_schedule(engine, pool, schedule))


@settings(max_examples=30, deadline=None)
@given(schedule=steps, max_batch=st.integers(min_value=1, max_value=5))
def test_kernel_pool_schedules_are_work_conserving_and_bitwise(
    kernel_pool, schedule, max_batch
):
    engine = _engine(kernel_pool, max_batch=max_batch, batch_window=0.004)
    _check_bitwise(_run_schedule(engine, kernel_pool, schedule))
